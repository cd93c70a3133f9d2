"""Independent oracles that pin every closed form to first principles.

The enumeration oracle rebuilds the semigroup row by row inside a box;
the truncated-series oracle expands the rational Hilbert form inside the same
box; the complex checker multiplies the stored resolution matrices out and
evaluates the named minors. None of these reuse the closed forms they judge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add
from typing import Optional

from .closed_forms import (
    GradedResolution,
    HilbertSeriesForm,
    apery_extended,
    extended_betti,
    extended_generating_set,
    generating_set,
    gluing_data,
    hilbert_numerator,
    progression_ring,
    regularity,
    regularity_from_resolution,
    resolution,
)
from .errors import InfiniteDimension
from .lattice import Vec2
from .polynomials import (
    Polynomial,
    buchberger,
    family_grading,
    family_ring,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    is_quadratic,
    leading_term,
    monic,
    standard_monomials,
    toric_kernel,
    vanishes_under_degree_map,
)
from .semigroup import (
    SemigroupFamily,
    apery_bruteforce,
    apery_closed_form,
    cm_type,
    degree_in_rays,
    is_cohen_macaulay,
    is_normal,
    member_certificate,
    quasi_frobenius,
)


@dataclass(frozen=True)
class EnumerationBox:
    cap_x: int
    cap_y: int

    def __post_init__(self):
        if self.cap_x <= 0 or self.cap_y <= 0:
            raise ValueError("box caps must be positive")


def default_box(f: SemigroupFamily) -> EnumerationBox:
    # 3x the largest generator coordinate covers every stored syzygy degree.
    cap = 3 * max(max(g.x, g.y) for g in f.all_generators)
    return EnumerationBox(cap, cap)


@dataclass(frozen=True)
class TruncatedSeries:
    """Series coefficients inside the box, stored densely by row:
    `rows[x][y]` is the coefficient of t^(x, y), for 0 <= x <= cap_x and
    0 <= y <= cap_y."""

    box: EnumerationBox
    rows: list[list[int]]

    @property
    def coefficients(self) -> dict[Vec2, int]:
        """The nonzero coefficients, keyed by exponent."""
        return {
            Vec2(x, y): c
            for x, row in enumerate(self.rows)
            for y, c in enumerate(row)
            if c
        }

    def coefficient(self, v: Vec2) -> int:
        if 0 <= v.x <= self.box.cap_x and 0 <= v.y <= self.box.cap_y:
            return self.rows[v.x][v.y]
        return 0


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None
    elapsed: float = 0.0


@dataclass
class Report:
    family: SemigroupFamily
    checks: list[CheckResult] = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class VerifyOptions:
    box: Optional[EnumerationBox] = None
    include_toric: bool = True
    include_truncation: bool = True
    apery_cap: Optional[int] = None


# ---------------------------------------------------------------------------
# enumeration and series oracles


def _semigroup_rows(f: SemigroupFamily, box: EnumerationBox) -> list[int]:
    """Row x of the box as a bitset: bit y is set iff (x, y) lies in S."""
    nx, ny = box.cap_x, box.cap_y
    mask = (1 << (ny + 1)) - 1
    gens = f.all_generators
    steps = [(g.x, g.y) for g in gens if 0 < g.x <= nx and g.y <= ny]
    vertical = [g.y for g in gens if g.x == 0 and 0 < g.y <= ny]
    rows: list[int] = []
    for x in range(nx + 1):
        row = 1 if x == 0 else 0
        for gx, gy in steps:
            if gx <= x:
                row |= rows[x - gx] << gy
        row &= mask
        for gy in vertical:
            # close the row under +gy: after the pass with shift s, it holds
            # every multiple of gy below 2s above each of its points
            shift = gy
            while shift <= ny:
                row |= (row << shift) & mask
                shift <<= 1
        rows.append(row)
    return rows


def enumerate_semigroup(f: SemigroupFamily, box: EnumerationBox) -> list[Vec2]:
    """Every semigroup point inside the box, in x-major, y-minor order.

    Row by row, each row one Python int used as a bitset over y: row x is
    the origin (x = 0) or the union of rows x - g.x shifted up by g.y over
    the generators g, cut to the box, then closed under the generators on
    the y-axis. A point is reachable iff some generator steps back from it
    to a reachable point, exactly as in the cell-by-cell definition.
    """
    return [
        Vec2(x, y)
        for x, row in enumerate(_semigroup_rows(f, box))
        for y, bit in enumerate(bin(row)[:1:-1])
        if bit == "1"
    ]


def expand_series(form: HilbertSeriesForm, box: EnumerationBox) -> TruncatedSeries:
    """Expand numerator / prod(1 - t^g) as a power series inside the box.

    The box is one dense list of ints per row. Each denominator factor is an
    in-place geometric-series pass, coefficient(v) += coefficient(v - g):
    with g.x > 0 it is one slice addition per row, row x from g.y on plus
    row x - g.x (skipped when that row is all zero); with g.x = 0 it is a
    running sum along each residue class of y mod g.y. Numerator terms
    outside the box cannot influence coefficients inside it.
    """
    nx, ny = box.cap_x, box.cap_y
    rows = [[0] * (ny + 1) for _ in range(nx + 1)]
    for c, deg in form.numerator:
        if 0 <= deg.x <= nx and 0 <= deg.y <= ny:
            rows[deg.x][deg.y] += c
    for g in form.denominator_factors:
        if not g.is_nonnegative() or g.is_zero():
            raise ValueError(f"denominator factor 1 - t^{g} has no power series in N^2")
        if g.x > nx or g.y > ny:
            continue
        if g.x:
            for x in range(g.x, nx + 1):
                prev = rows[x - g.x]
                if any(prev):
                    row = rows[x]
                    row[g.y :] = map(add, row[g.y :], prev)
        else:
            for row in rows:
                for r in range(g.y):
                    row[r :: g.y] = accumulate(row[r :: g.y])
    return TruncatedSeries(box=box, rows=rows)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_list(bits: int, width: int) -> list[int]:
    """The low `width` bits of a bitset as 0/1 ints, lowest bit first."""
    return list(bin(bits)[:1:-1].ljust(width, "0").encode().translate(_BIT_BYTES))


def hilbert_truncation_check(
    f: SemigroupFamily, form: HilbertSeriesForm, box: EnumerationBox
) -> CheckResult:
    """Coefficient-for-coefficient agreement of the closed form with the
    enumerated semigroup: 1 on semigroup points, 0 elsewhere.

    The enumerated points become one bitset per row, and each series row is
    compared with its bitset whole; only a row that differs is scanned for
    its first differing cell.
    """
    start = time.perf_counter()
    member_rows = [0] * (box.cap_x + 1)
    for v in enumerate_semigroup(f, box):
        member_rows[v.x] |= 1 << v.y
    series = expand_series(form, box)
    width = box.cap_y + 1
    for x, (row, bits) in enumerate(zip(series.rows, member_rows)):
        if row == _bit_list(bits, width):
            continue
        y = next(y for y, got in enumerate(row) if got != (bits >> y) & 1)
        return CheckResult(
            "hilbert_truncation",
            False,
            witness=f"coefficient at {Vec2(x, y)} is {row[y]}, "
            f"expected {(bits >> y) & 1}",
            elapsed=time.perf_counter() - start,
        )
    return CheckResult(
        "hilbert_truncation", True, elapsed=time.perf_counter() - start
    )


# ---------------------------------------------------------------------------
# resolution checker


def poly_matrix_det(rows: list[list[Polynomial]]) -> Polynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    out = ring.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        cofactor = entry * poly_matrix_det(minor)
        out = out + cofactor if j % 2 == 0 else out - cofactor
    return out


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
    """delta_i * delta_{i+1} = 0, constant-free entries, shift consistency,
    and the named minors valued at the stated products (up to sign)."""
    start = time.perf_counter()

    def fail(witness: str) -> CheckResult:
        return CheckResult(
            "complex_check", False, witness=witness, elapsed=time.perf_counter() - start
        )

    for idx, matrix in enumerate(res.maps):
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                if not entry.is_zero() and (0,) * entry.ring.nvars in entry.terms:
                    return fail(
                        f"map {idx + 1} entry ({i + 1},{j + 1}) has a constant term"
                    )
    for idx in range(len(res.maps) - 1):
        left, right = res.maps[idx], res.maps[idx + 1]
        for i in range(len(left)):
            for j in range(len(right[0])):
                acc = left[0][0].ring.zero()
                for t in range(len(right)):
                    acc = acc + left[i][t] * right[t][j]
                if not acc.is_zero():
                    return fail(
                        f"(delta{idx + 1} * delta{idx + 2})[{i + 1}][{j + 1}] = {acc}"
                    )

    # Recompute the column degrees independently and compare with the stored
    # shift lists.
    from .closed_forms import _aggregate, _column_degrees

    row_degrees: tuple[Vec2, ...] = (Vec2(0, 0),)
    for idx, matrix in enumerate(res.maps):
        degs = _column_degrees(matrix, row_degrees, res.grading)
        if degs != res.column_degrees[idx]:
            return fail(f"map {idx + 1} column degrees disagree with stored shifts")
        if _aggregate(degs) != res.shifts[idx + 1]:
            return fail(f"shift multiset C_{idx + 1} disagrees with the matrices")
        row_degrees = degs

    for name, map_idx, rows, cols, expected in _named_minors(res.k):
        matrix = res.maps[map_idx]
        sub = [[matrix[i][j] for j in cols] for i in rows]
        det_val = poly_matrix_det(sub)
        if det_val != expected and det_val != -expected:
            return fail(f"minor {name} = {det_val}, expected +/-({expected})")
    return CheckResult("complex_check", True, elapsed=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# quotient-dimension check


def gastinger_check(f: SemigroupFamily, gens=None) -> CheckResult:
    """Two halves: the proposed generators vanish under the degree map (so
    they lie in the kernel), and the quotient by them plus the extremal-ray
    variables has exactly |Ap(S, E)| standard monomials; together these force
    ideal equality.

    `gens` overrides the generator list, for sensitivity controls.
    """
    start = time.perf_counter()
    ring = family_ring(f)
    grading = family_grading(f)
    if f.is_extended:
        expected = f.k * f.extension_mu
    else:
        expected = f.k
    if gens is None:
        if f.is_extended:
            gens = extended_generating_set(f)
        else:
            gens = list(generating_set(f.k, ring).G)
    for g in gens:
        if not vanishes_under_degree_map(g, grading):
            return CheckResult(
                "gastinger",
                False,
                witness=f"{g} does not vanish under the degree map",
                elapsed=time.perf_counter() - start,
            )
    order = grevlex(ring.nvars)
    rays = [ring.var(0), ring.var(f.k)]
    gb = buchberger(list(gens) + rays, order)
    try:
        count = len(standard_monomials(gb))
    except InfiniteDimension as exc:
        return CheckResult(
            "gastinger",
            False,
            witness=f"quotient is not finite dimensional: {exc}",
            elapsed=time.perf_counter() - start,
        )
    if count != expected:
        return CheckResult(
            "gastinger",
            False,
            witness=f"quotient dimension {count}, expected {expected}",
            elapsed=time.perf_counter() - start,
        )
    return CheckResult("gastinger", True, elapsed=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the aggregate report


def _timed(name: str, fn) -> CheckResult:
    """Run fn, which computes what the check judges and returns (passed,
    witness), inside the check's timer."""
    start = time.perf_counter()
    passed, witness = fn()
    return CheckResult(name, passed, witness, elapsed=time.perf_counter() - start)


def full_report(f: SemigroupFamily, options: Optional[VerifyOptions] = None) -> Report:
    """Run every applicable check on the family and collect the verdicts."""
    opts = options or VerifyOptions()
    box = opts.box or default_box(f)
    report = Report(family=f)
    checks = report.checks

    # Apery: closed form against the brute-force definition.
    def apery_cmp():
        closed = (
            apery_extended(f).elements
            if f.is_extended
            else apery_closed_form(f).elements
        )
        brute = apery_bruteforce(f, cap=opts.apery_cap).elements
        if closed == brute:
            return True, None
        note = (
            f"closed form {sorted(closed)} != brute force {sorted(brute)}; "
            "the brute-force set follows the definition"
        )
        return False, note

    checks.append(_timed("apery_closed_vs_bruteforce", apery_cmp))

    def type_from_qf():
        qf = quasi_frobenius(f)
        ok = len(qf) == f.k - 1
        return ok, None if ok else f"|QF| = {len(qf)}"

    checks.append(_timed("cm_type_is_k_minus_1", type_from_qf))

    cm = normal = None  # set by their checks, and read again for the flags

    def cohen_macaulay():
        nonlocal cm
        cm = is_cohen_macaulay(f)
        return cm.holds, None if cm.holds else f"violating pair {cm.witness}"

    checks.append(_timed("cohen_macaulay", cohen_macaulay))

    def gorenstein():
        ok = (cm_type(f) == 1) == (f.k == 2)
        return ok, None if ok else f"type {cm_type(f)} with k = {f.k}"

    checks.append(_timed("gorenstein_iff_k_is_2", gorenstein))

    if f.is_extended:
        normal = is_normal(f)
    else:

        def normality():
            nonlocal normal
            normal = is_normal(f)
            return normal.holds, None if normal.holds else f"witness {normal.witness}"

        checks.append(_timed("normality_of_base_family", normality))

    def degree_one():
        for i in range(1, f.k):
            _, deg = degree_in_rays(f, f.a + i * f.d)
            if deg != 1:
                return False, f"deg(a + {i}d) = {deg}"
        return True, None

    checks.append(_timed("apery_elements_have_ray_degree_1", degree_one))

    # Defining ideal: Groebner claim and idempotence of completion.
    ring = family_ring(f)
    order = grevlex(ring.nvars)
    base_gens = list(generating_set(f.k, ring).G)
    gens = base_gens + ([gluing_data(f).extra_generator] if f.is_extended else [])

    def middle_leading_terms():
        # the order reading stands or falls with this: every leading term
        # must be the product of two middle variables
        for g in base_gens:
            lt, coeff = leading_term(g, order)
            if coeff != 1 or lt[0] != 0 or lt[f.k] != 0:
                return False, f"leading term of {g} is not a middle product"
        return True, None

    checks.append(_timed("leading_terms_are_middle_products", middle_leading_terms))

    def groebner_claim():
        claim = is_groebner_basis(base_gens, order)
        return claim.holds, None if claim.holds else f"failing pair {claim.witness}"

    checks.append(_timed("generating_set_is_groebner", groebner_claim))

    def idempotent():
        out = buchberger(base_gens, order)
        same = {monic(g, order) for g in base_gens} == set(out.elements)
        return same, None if same else f"completion returned {len(out)} elements"

    checks.append(_timed("buchberger_adds_nothing", idempotent))

    full_gb = buchberger(gens, order)

    if opts.include_toric:

        def toric_cmp():
            same = ideal_equal(toric_kernel(f), full_gb)
            return same, None if same else "elimination kernel differs from closed form"

        checks.append(_timed("ideal_equals_toric_kernel", toric_cmp))

    checks.append(gastinger_check(f))

    # Hilbert series, resolution, regularity: stored closed forms for k <= 4.
    if f.k in (2, 3, 4):
        if opts.include_truncation:
            form = hilbert_numerator(f)
            checks.append(hilbert_truncation_check(f, form, box))
        if not f.is_extended:
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

            checks.append(_timed("numerator_equals_shift_sum", numerator_matches_shifts))

            def regularity_agreement():
                by_apery = regularity(f)
                by_res = regularity_from_resolution(f)
                ok = by_apery == by_res == 2
                return ok, None if ok else f"apery {by_apery}, resolution {by_res}"

            checks.append(_timed("regularity_is_2", regularity_agreement))
        else:

            def cone_betti():
                base = resolution(
                    SemigroupFamily(f.a, f.d, f.k, f.generators)
                ).betti
                cone = tuple(
                    (base[i] if i < len(base) else 0)
                    + (base[i - 1] if i >= 1 else 0)
                    for i in range(len(base) + 1)
                )
                stored = extended_betti(f.k)
                return (
                    cone == stored,
                    None if cone == stored else f"cone {cone} != stored {stored}",
                )

            checks.append(_timed("extended_betti_match_mapping_cone", cone_betti))
    elif not f.is_extended:

        def regularity_generic():
            val = regularity(f)
            return val == 2, None if val == 2 else f"regularity {val}"

        checks.append(_timed("regularity_is_2", regularity_generic))

    if f.is_extended:

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

        checks.append(_timed("gluing_consistency", gluing_consistency))

    report.flags = {
        "cohen_macaulay": cm.holds,
        "gorenstein": cm_type(f) == 1,
        "normal": normal.holds,
        "koszul": True if is_quadratic(full_gb) else (None if f.is_extended else False),
    }
    return report
