"""Independent oracles that pin every closed form to first principles.

The enumeration oracle rebuilds the semigroup row by row inside a box, each
row one int used as a bitset. The truncated-series oracle expands the rational
Hilbert form inside the same box, each row one int holding a signed w-bit field
per coefficient (Kronecker substitution: the row polynomial evaluated at 2^w,
exact mod 2^(w * row length) once w holds every final coefficient), so each
denominator pass is one shift-add per row. The truncation check packs the
enumerated points the same way and compares whole rows as ints, decoding only
a row that differs. The complex checker multiplies the stored resolution
matrices out and evaluates the named minors. None of these reuse the closed
forms they judge.
"""

from __future__ import annotations

import time
from typing import Optional

from ._record import FrozenRecord, Record, set_field
from .closed_forms import (
    _STORED_K,
    GradedResolution,
    HilbertSeriesForm,
    _aggregate,
    _closed_form_apery,
    _degree_chain,
    _ideal_generators,
    extended_betti,
    extended_generating_set,
    gluing_data,
    hilbert_numerator,
    progression_ring,
    regularity,
    regularity_from_resolution,
    resolution,
)
from .errors import BoxTooLarge, InfiniteDimension
from .lattice import Vec2
from .polynomials import (
    Polynomial,
    _add_product,
    buchberger,
    family_grading,
    family_ring,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    is_quadratic,
    leading_term,
    monic,
    s_degree,
    standard_monomials,
    toric_kernel,
    vanishes_under_degree_map,
)
from .semigroup import (
    SemigroupFamily,
    apery_bruteforce,
    cm_type,
    degree_in_rays,
    is_cohen_macaulay,
    is_normal,
    member_certificate,
    quasi_frobenius,
)


class EnumerationBox(FrozenRecord):
    _fields = ("cap_x", "cap_y")

    def __init__(self, cap_x: int, cap_y: int) -> None:
        if cap_x <= 0 or cap_y <= 0:
            raise ValueError("box caps must be positive")
        set_field(self, "cap_x", cap_x)
        set_field(self, "cap_y", cap_y)


# Ceiling on (cap_x + 1) * (cap_y + 1) for the truncation check. Its series
# oracle holds the whole box packed, w bits per cell (w the fewest whole bytes
# whose signed fields hold the coefficient bound), and the check compares
# those packed rows as they are; only a caller that asks for the series'
# coefficients decodes them.
_BOX_CELL_BUDGET = 1 << 24


def default_box(f: SemigroupFamily) -> EnumerationBox:
    # 3x the largest generator coordinate. For some k = 4 families and most
    # k >= 5 and glued ones this leaves Hilbert-numerator terms outside the
    # box, where the truncation check cannot see a wrong coefficient
    # (ROADMAP item 16).
    cap = 3 * max(max(g.x, g.y) for g in f.all_generators)
    return EnumerationBox(cap, cap)


def _field_width(bound: int) -> int:
    """The least multiple of 8 bits whose signed fields hold every |c| <=
    bound: |c| < 2^(w - 1), so w is at least one bit past bound's length,
    rounded up to whole bytes for the row decoder."""
    return (bound.bit_length() + 8) // 8 * 8


def _decode_row(packed: int, w: int, width: int) -> list[int]:
    """The `width` coefficients that a packed row holds, lowest y first.

    Adding 2^(w - 1) to every field maps each signed coefficient to an
    unsigned w-bit field with no carry between fields; the row's bytes are
    read as those unsigned fields, and 2^(w - 1) is taken off each.
    """
    nbytes = w * width // 8
    field_bytes = w // 8
    half = 1 << (w - 1)
    # 2^(w - 1) in every field: the top byte of each field is 0x80
    offset = int.from_bytes((bytes(field_bytes - 1) + b"\x80") * width, "little")
    data = ((packed + offset) & ((1 << (w * width)) - 1)).to_bytes(nbytes, "little")
    return [
        int.from_bytes(data[i : i + field_bytes], "little") - half
        for i in range(0, nbytes, field_bytes)
    ]


class TruncatedSeries(FrozenRecord):
    """Series coefficients inside the box, one packed int per row.

    `packed[x]` encodes row x as the row polynomial sum_y c_y * Y^y, cut at
    Y^cap_y, evaluated at Y = 2^w and kept mod 2^(w * (cap_y + 1)): the
    coefficient of t^(x, y) is the w-bit field at bit w*y of packed[x] plus
    2^(w - 1) in every field, read unsigned, less 2^(w - 1). w is a multiple
    of 8, so every field is whole bytes, and every |c| < 2^(w - 1), so the
    encoding is injective: at one w, two rows hold the same coefficients iff
    their packed ints are equal, and an all-zero row is 0.
    `rows`, `coefficients` and `coefficient` decode on demand. Two series
    are equal when their boxes and coefficients are, whatever their w.
    """

    _fields = ("box", "packed", "w")

    def __init__(self, box: EnumerationBox, packed: list[int], w: int) -> None:
        set_field(self, "box", box)
        set_field(self, "packed", packed)
        set_field(self, "w", w)

    @classmethod
    def from_rows(cls, box: EnumerationBox, rows: list[list[int]]) -> "TruncatedSeries":
        """Pack plain rows, `rows[x][y]` the coefficient of t^(x, y), with
        the least field width that holds them. The rows must fill the box:
        cap_x + 1 rows of cap_y + 1 coefficients each, else ValueError."""
        height, width = box.cap_x + 1, box.cap_y + 1
        if len(rows) != height or any(len(row) != width for row in rows):
            shape = f"{len(rows)} x {sorted({len(row) for row in rows})}"
            raise ValueError(f"rows of shape {shape} do not fill a {height} x {width} box")
        w = _field_width(max((abs(c) for row in rows for c in row), default=0))
        full = (1 << (w * width)) - 1
        packed = [sum(c << (w * y) for y, c in enumerate(row)) & full for row in rows]
        return cls(box=box, packed=packed, w=w)

    # defining __eq__ leaves the class unhashable, as `packed` is a list
    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.box != other.box:
            return False
        if self.w == other.w:
            return self.packed == other.packed
        return self.rows == other.rows

    @property
    def rows(self) -> list[list[int]]:
        """`rows[x][y]` is the coefficient of t^(x, y), for 0 <= x <= cap_x
        and 0 <= y <= cap_y."""
        width = self.box.cap_y + 1
        return [_decode_row(row, self.w, width) for row in self.packed]

    @property
    def coefficients(self) -> dict[Vec2, int]:
        """The nonzero coefficients, keyed by exponent."""
        width = self.box.cap_y + 1
        return {
            Vec2(x, y): c
            for x, row in enumerate(self.packed)
            if row
            for y, c in enumerate(_decode_row(row, self.w, width))
            if c
        }

    def coefficient(self, v: Vec2) -> int:
        if 0 <= v.x <= self.box.cap_x and 0 <= v.y <= self.box.cap_y:
            return _decode_row(self.packed[v.x], self.w, self.box.cap_y + 1)[v.y]
        return 0


class CheckResult(Record):
    _fields = ("name", "passed", "witness", "elapsed")

    def __init__(
        self, name: str, passed: bool, witness: Optional[str] = None, elapsed: float = 0.0
    ) -> None:
        self.name = name
        self.passed = passed
        self.witness = witness
        self.elapsed = elapsed


class Report(Record):
    _fields = ("family", "checks", "flags")

    def __init__(
        self,
        family: SemigroupFamily,
        checks: Optional[list[CheckResult]] = None,
        flags: Optional[dict] = None,
    ) -> None:
        self.family = family
        self.checks = [] if checks is None else checks
        self.flags = {} if flags is None else flags

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _timed(name: str, verdict, *args) -> CheckResult:
    """The CheckResult `name` of `verdict(*args)`, which computes what the
    check judges and returns (passed, witness), timed over the whole call."""
    start = time.perf_counter()
    passed, witness = verdict(*args)
    return CheckResult(name, passed, witness, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# enumeration and series oracles


def _semigroup_rows(f: SemigroupFamily, box: EnumerationBox) -> list[int]:
    """Row x of the box as a bitset: bit y is set iff (x, y) lies in S."""
    nx, ny = box.cap_x, box.cap_y
    mask = (1 << (ny + 1)) - 1
    gens = f.all_generators
    steps = [g for g in gens if 0 < g.x <= nx and g.y <= ny]
    vertical = [g.y for g in gens if g.x == 0 and 0 < g.y <= ny]
    rows = [0] * (nx + 1)
    rows[0] = 1
    for x, row in enumerate(rows):
        if not row:
            continue
        row &= mask
        for gy in vertical:
            # close the row under +gy: after the pass with shift s, it holds
            # every multiple of gy below 2s above each of its points
            shift = gy
            while shift <= ny:
                row |= (row << shift) & mask
                shift <<= 1
        rows[x] = row
        for gx, gy in steps:
            if x + gx <= nx:
                rows[x + gx] |= row << gy
    return rows


def enumerate_semigroup(f: SemigroupFamily, box: EnumerationBox) -> list[Vec2]:
    """Every semigroup point inside the box, in x-major, y-minor order.

    Row by row, x rising, each row one Python int used as a bitset over y:
    row x is the origin (x = 0) or the union of rows x - g.x shifted up by
    g.y over the generators g, cut to the box, then closed under the
    generators on the y-axis. The union is built in push form: once row x
    is final, it ORs itself, shifted by g.y, into row x + g.x for each g
    that stays in the box, so an empty row costs one test. A point is
    reachable iff some generator steps back from it to a reachable point,
    exactly as in the cell-by-cell definition. Only the set bits of each
    row are visited, lowest first.
    """
    points = []
    for x, row in enumerate(_semigroup_rows(f, box)):
        while row:
            low = row & -row
            # the same Vec2, without the named tuple's Python-level __new__
            points.append(tuple.__new__(Vec2, (x, low.bit_length() - 1)))
            row ^= low
    return points


def _coefficient_bound(form: HilbertSeriesForm, box: EnumerationBox) -> int:
    """A bound on |coefficient| of the expanded series inside the box.

    A coefficient at v is a sum over the numerator terms t^u of c_u times
    the number of ways to write v - u as sum of m_g * g over the factors.
    Each m_g * g then fits in the box, so m_g is at most the largest
    multiple M_g of g that does, and a factor outside the box contributes
    nothing: the bound is sum |c_u| over the terms in the box times the
    product of (1 + M_g) over the factors in it.
    """
    nx, ny = box.cap_x, box.cap_y
    bound = sum(abs(c) for c, d in form.numerator if 0 <= d.x <= nx and 0 <= d.y <= ny)
    for g in form.denominator_factors:
        if g.x <= nx and g.y <= ny:
            bound *= 1 + min(cap // c for cap, c in ((nx, g.x), (ny, g.y)) if c)
    return bound


def expand_series(form: HilbertSeriesForm, box: EnumerationBox) -> TruncatedSeries:
    """Expand numerator / prod(1 - t^g) as a power series inside the box.

    Each row x of the box is one Python int: the coefficient of t^(x, y)
    sits in bits w*y to w*y + w - 1, as a signed w-bit field, and the row is
    kept mod 2^(w * (cap_y + 1)). That is the row polynomial in Y, cut at
    Y^cap_y, evaluated at Y = 2^w: a ring map, so sums and shifts of rows
    act on the fields as on the coefficients they encode, carries and
    borrows included, and the fields decode exactly once w holds every
    final coefficient with its sign. w is the least multiple of 8 whose
    signed fields hold +-_coefficient_bound (`_field_width`, shared with
    `TruncatedSeries.from_rows`), so a row of small coefficients is a few
    bytes per cell; intermediate coefficients may wrap, as only the final
    ones are read.

    Each denominator factor is a geometric-series pass,
    coefficient(v) += coefficient(v - g): with g.x > 0 it adds row x - g.x,
    shifted up by g.y fields, to row x, for x rising; with g.x = 0 it
    multiplies each row by (1 + Y^g.y)(1 + Y^(2 g.y))(1 + Y^(4 g.y))...,
    doubling the shift while it fits in the row. Numerator terms and
    factors past the box's far edges are dropped, as they cannot reach a
    coefficient inside it. A numerator term with a negative coordinate
    raises ValueError: the factors can carry it into the box, and rows start
    at 0.

    The packed rows are returned as they are, with w: the TruncatedSeries
    decodes a row only when asked for its coefficients.
    """
    for g in form.denominator_factors:
        if not g.is_nonnegative() or g.is_zero():
            raise ValueError(f"denominator factor 1 - t^{g} has no power series in N^2")
    for c, deg in form.numerator:
        if not deg.is_nonnegative():
            raise ValueError(f"numerator term {c}*t^{deg} has a negative exponent")
    nx, ny = box.cap_x, box.cap_y
    width = ny + 1
    w = _field_width(_coefficient_bound(form, box))
    full = (1 << (w * width)) - 1
    rows = [0] * (nx + 1)
    for c, deg in form.numerator:
        if deg.x <= nx and deg.y <= ny:
            rows[deg.x] += c << (w * deg.y)
    rows = [row & full for row in rows]
    for gx, gy in form.denominator_factors:
        if gx > nx or gy > ny:
            continue
        if gx:
            shift = w * gy
            for x in range(gx, nx + 1):
                prev = rows[x - gx]
                if prev:
                    rows[x] = (rows[x] + (prev << shift)) & full
        else:
            for x, row in enumerate(rows):
                step = gy
                while row and step <= ny:
                    row = (row + (row << (w * step))) & full
                    step <<= 1
                rows[x] = row
    return TruncatedSeries(box=box, packed=rows, w=w)


def hilbert_truncation_check(
    f: SemigroupFamily, form: HilbertSeriesForm, box: EnumerationBox
) -> CheckResult:
    """The check "hilbert_truncation": coefficient-for-coefficient agreement
    of the closed form with the enumerated semigroup inside the box, 1 on
    semigroup points and 0 elsewhere. The witness names the first cell that
    differs."""
    return _timed("hilbert_truncation", _truncation_verdict, f, form, box)


def _truncation_verdict(f, form, box) -> tuple[bool, Optional[str]]:
    """Each packed series row is compared whole with the row the enumeration
    expects, packed the same way: sum 2^(w*y) over the semigroup points
    (x, y), so 0 for a row without points. The encoding is injective, so
    equal ints mean equal rows. Only the first row that differs is decoded,
    to name its first differing cell.
    """
    points = enumerate_semigroup(f, box)
    series = expand_series(form, box)
    w = series.w
    expected = [0] * (box.cap_x + 1)
    for x, y in points:
        expected[x] |= 1 << (w * y)
    if series.packed == expected:
        return True, None
    x = next(x for x, (row, e) in enumerate(zip(series.packed, expected)) if row != e)
    got = _decode_row(series.packed[x], w, box.cap_y + 1)
    want = _decode_row(expected[x], w, box.cap_y + 1)
    y = next(y for y, (g, e) in enumerate(zip(got, want)) if g != e)
    return False, f"coefficient at {Vec2(x, y)} is {got[y]}, expected {want[y]}"


# ---------------------------------------------------------------------------
# resolution checker


def poly_matrix_det(rows: list[list[Polynomial]]) -> Polynomial:
    """Cofactor expansion along the first row, each cofactor added into one
    term dict."""
    if len(rows) == 1:
        return rows[0][0]
    out: dict = {}
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        _add_product(out, entry, poly_matrix_det(minor), -1 if j % 2 else 1)
    return Polynomial(rows[0][0].ring, out)


def _named_minors(k: int):
    """(map index, row indices, column indices, expected product) tuples,
    exactly the regular-sequence minors exhibited for k = 3 and 4."""
    ring = progression_ring(k)
    x = [None] + [ring.var(i) for i in range(ring.nvars)]
    if k == 3:
        return [
            ("delta2 |R1 R2|C1 C2|", 1, (0, 1), (0, 1), x[3] * x[3] - x[2] * x[4]),
            ("delta2 |R2 R3|C1 C2|", 1, (1, 2), (0, 1), x[2] * x[2] - x[1] * x[3]),
        ]
    if k == 4:
        q22 = x[2] * x[2] - x[1] * x[3]
        q44 = x[4] * x[4] - x[3] * x[5]
        return [
            (
                "delta2 |R2..R6|C1..C5|",
                1,
                (1, 2, 3, 4, 5),
                (0, 1, 2, 3, 4),
                x[1] * q22 * q22,
            ),
            (
                "delta2 |R1..R5|C4..C8|",
                1,
                (0, 1, 2, 3, 4),
                (3, 4, 5, 6, 7),
                x[5] * q44 * q44,
            ),
            (
                "delta3 |R4 R6 R8|C1 C2 C3|",
                2,
                (3, 5, 7),
                (0, 1, 2),
                x[2] * x[2] * x[2] - x[1] * x[2] * x[3],
            ),
            (
                "delta3 |R3 R4 R7|C1 C2 C3|",
                2,
                (2, 3, 6),
                (0, 1, 2),
                x[3] * x[3] * x[3] - x[1] * x[3] * x[5],
            ),
            (
                "delta3 |R1 R2 R5|C1 C2 C3|",
                2,
                (0, 1, 4),
                (0, 1, 2),
                x[4] * x[4] * x[4] - x[3] * x[4] * x[5],
            ),
        ]
    return []


def complex_check(res: GradedResolution) -> CheckResult:
    """The check "complex_check": delta_i * delta_{i+1} = 0, constant-free
    entries, shift consistency, and the named minors valued at the stated
    products (up to sign). The witness names the first failure."""
    return _timed("complex_check", _complex_verdict, res)


def _complex_verdict(res) -> tuple[bool, Optional[str]]:
    for idx, matrix in enumerate(res.maps):
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                if 0 in entry.terms:  # the packed monomial 1
                    return False, f"map {idx + 1} entry ({i + 1},{j + 1}) has a constant term"
    for idx in range(len(res.maps) - 1):
        left, right = res.maps[idx], res.maps[idx + 1]
        for i in range(len(left)):
            for j in range(len(right[0])):
                acc: dict = {}
                for t in range(len(right)):
                    _add_product(acc, left[i][t], right[t][j])
                if acc:
                    entry = Polynomial(left[0][0].ring, acc)
                    return False, f"(delta{idx + 1} * delta{idx + 2})[{i + 1}][{j + 1}] = {entry}"

    # Recompute the column degrees independently and compare with the stored
    # shift lists.
    chain = _degree_chain(res.maps, Vec2(0, 0), lambda p: s_degree(p, res.grading))
    for idx, degs in enumerate(chain):
        if degs != res.column_degrees[idx]:
            return False, f"map {idx + 1} column degrees disagree with stored shifts"
        if _aggregate(degs) != res.shifts[idx + 1]:
            return False, f"shift multiset C_{idx + 1} disagrees with the matrices"

    for name, map_idx, rows, cols, expected in _named_minors(res.k):
        matrix = res.maps[map_idx]
        sub = [[matrix[i][j] for j in cols] for i in rows]
        det_val = poly_matrix_det(sub)
        if det_val != expected and det_val != -expected:
            return False, f"minor {name} = {det_val}, expected +/-({expected})"
    return True, None


# ---------------------------------------------------------------------------
# quotient-dimension check


def gastinger_check(f: SemigroupFamily, gens=None) -> CheckResult:
    """The check "gastinger": the proposed generators vanish under the
    degree map (so they lie in the kernel), and the quotient by them plus
    the extremal-ray variables has exactly |Ap(S, E)| standard monomials;
    together these force ideal equality.

    `gens` overrides the generator list, for sensitivity controls.
    """
    return _timed("gastinger", _gastinger_verdict, f, gens)


def _gastinger_verdict(f, gens) -> tuple[bool, Optional[str]]:
    ring = family_ring(f)
    grading = family_grading(f)
    expected = f.k * (f.extension_mu or 1)
    if gens is None:
        gens = extended_generating_set(f) if f.is_extended else _ideal_generators(f, ring)
    for g in gens:
        if not vanishes_under_degree_map(g, grading):
            return False, f"{g} does not vanish under the degree map"
    order = grevlex(ring.nvars)
    rays = [ring.var(0), ring.var(f.k)]
    gb = buchberger(list(gens) + rays, order)
    try:
        count = len(standard_monomials(gb))
    except InfiniteDimension as exc:
        return False, f"quotient is not finite dimensional: {exc}"
    if count != expected:
        return False, f"quotient dimension {count}, expected {expected}"
    return True, None


# ---------------------------------------------------------------------------
# the aggregate report


def full_report(
    f: SemigroupFamily,
    *,
    box: Optional[EnumerationBox] = None,
    include_toric: bool = True,
    include_truncation: bool = True,
    apery_cap: Optional[int] = None,
) -> Report:
    """Run every applicable check on the family and collect the verdicts.

    `box` is the truncation check's box (default_box(f) when None);
    `include_toric` and `include_truncation` turn the elimination and
    truncation oracles on; `apery_cap` caps the brute-force Apery search.
    Raises BoxTooLarge before any check runs when the truncation check would
    need a box of more than _BOX_CELL_BUDGET cells.
    """
    box = box or default_box(f)
    stored = f.k in _STORED_K
    cells = (box.cap_x + 1) * (box.cap_y + 1)
    if include_truncation and cells > _BOX_CELL_BUDGET:
        raise BoxTooLarge(
            f"truncation box {box.cap_x + 1} x {box.cap_y + 1} has {cells} cells, "
            f"over the limit of {_BOX_CELL_BUDGET} cells"
        )
    checks: list[CheckResult] = []

    def judge(name: str, verdict) -> bool:
        checks.append(_timed(name, verdict))
        return checks[-1].passed

    # Apery: closed form against the brute-force definition.
    def apery_cmp():
        closed = _closed_form_apery(f).elements
        brute = apery_bruteforce(f, cap=apery_cap).elements
        if closed == brute:
            return True, None
        note = (
            f"closed form {sorted(closed)} != brute force {sorted(brute)}; "
            "the brute-force set follows the definition"
        )
        return False, note

    judge("apery_closed_vs_bruteforce", apery_cmp)

    def type_from_qf():
        qf = quasi_frobenius(f)
        ok = len(qf) == f.k - 1
        return ok, None if ok else f"|QF| = {len(qf)}"

    judge("cm_type_is_k_minus_1", type_from_qf)

    def cohen_macaulay():
        claim = is_cohen_macaulay(f)
        return claim.holds, None if claim.holds else f"violating pair {claim.witness}"

    cm = judge("cohen_macaulay", cohen_macaulay)

    def gorenstein():
        ok = (cm_type(f) == 1) == (f.k == 2)
        return ok, None if ok else f"type {cm_type(f)} with k = {f.k}"

    judge("gorenstein_iff_k_is_2", gorenstein)

    if f.is_extended:
        normal = is_normal(f).holds
    else:

        def normality():
            claim = is_normal(f)
            return claim.holds, None if claim.holds else f"witness {claim.witness}"

        normal = judge("normality_of_base_family", normality)

    def degree_one():
        for i in range(1, f.k):
            _, deg = degree_in_rays(f, f.a + i * f.d)
            if deg != 1:
                return False, f"deg(a + {i}d) = {deg}"
        return True, None

    judge("apery_elements_have_ray_degree_1", degree_one)

    # Defining ideal: Groebner claim and idempotence of completion.
    ring = family_ring(f)
    order = grevlex(ring.nvars)
    gens = _ideal_generators(f, ring)
    base_gens = gens[:-1] if f.is_extended else gens

    def middle_leading_terms():
        # the order reading stands or falls with this: every leading term
        # must be the product of two middle variables
        for g in base_gens:
            lt, coeff = leading_term(g, order)
            exps = ring.exponents(lt)
            if coeff != 1 or exps[0] != 0 or exps[f.k] != 0:
                return False, f"leading term of {g} is not a middle product"
        return True, None

    judge("leading_terms_are_middle_products", middle_leading_terms)

    def groebner_claim():
        claim = is_groebner_basis(base_gens, order)
        return claim.holds, None if claim.holds else f"failing pair {claim.witness}"

    judge("generating_set_is_groebner", groebner_claim)

    def idempotent():
        out = buchberger(base_gens, order)
        same = {monic(g, order) for g in base_gens} == set(out.elements)
        return same, None if same else f"completion returned {len(out)} elements"

    judge("buchberger_adds_nothing", idempotent)

    full_gb = buchberger(gens, order)

    if include_toric:

        def toric_cmp():
            same = ideal_equal(toric_kernel(f), full_gb)
            return same, None if same else "elimination kernel differs from closed form"

        judge("ideal_equals_toric_kernel", toric_cmp)

    checks.append(gastinger_check(f))

    # Hilbert series and regularity: every k; resolution: k in _STORED_K.
    if include_truncation:
        checks.append(hilbert_truncation_check(f, hilbert_numerator(f), box))

    if f.is_extended:
        if stored:

            def cone_betti():
                base = resolution(SemigroupFamily(f.a, f.d, f.k, f.generators)).betti
                cone = tuple(
                    (base[i] if i < len(base) else 0)
                    + (base[i - 1] if i >= 1 else 0)
                    for i in range(len(base) + 1)
                )
                stored_betti = extended_betti(f.k)
                same = cone == stored_betti
                return same, None if same else f"cone {cone} != stored {stored_betti}"

            judge("extended_betti_match_mapping_cone", cone_betti)

        def gluing_consistency():
            data = gluing_data(f)
            if not vanishes_under_degree_map(data.extra_generator, family_grading(f)):
                return False, "glue binomial does not vanish under the degree map"
            for m in range(1, data.mu):
                if member_certificate(f.generators, m * f.extension) is not None:
                    return False, f"{m}*b already lies in the base semigroup"
            if data.lam[0] == 0 and data.lam[-1] == 0:
                return False, "chosen lambda touches neither extremal variable"
            return True, None

        judge("gluing_consistency", gluing_consistency)
    else:
        if stored:
            res = resolution(f)
            checks.append(complex_check(res))

            def numerator_matches_shifts():
                acc: dict[Vec2, int] = {}
                for i, layer in enumerate(res.shifts):
                    sign = 1 if i % 2 == 0 else -1
                    for mult, deg in layer:
                        acc[deg] = acc.get(deg, 0) + sign * mult
                acc = {deg: c for deg, c in acc.items() if c}
                same = acc == hilbert_numerator(f).numerator_dict()
                return same, None if same else "alternating shift sum != numerator"

            judge("numerator_equals_shift_sum", numerator_matches_shifts)

        def regularity_agreement():
            by_route = {"apery": regularity(f)}
            if stored:
                by_route["resolution"] = regularity_from_resolution(f)
            ok = set(by_route.values()) == {2}
            return ok, None if ok else ", ".join(f"{r} {v}" for r, v in by_route.items())

        judge("regularity_is_2", regularity_agreement)

    flags = {
        "cohen_macaulay": cm,
        "gorenstein": cm_type(f) == 1,
        "normal": normal,
        "koszul": True if is_quadratic(full_gb) else (None if f.is_extended else False),
    }
    return Report(f, checks, flags)
