"""Explicit answers for the progression families: the quadratic binomial
generating set of the defining ideal, its five-block partition, the Hilbert
numerator for every k, the minimal graded free resolutions for k = 2, 3, 4,
regularity, and the one-extra-generator gluing data for extended families.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._record import FrozenRecord, set_field
from .errors import BadIndex, NotHomogeneous, UnsupportedK
from .lattice import Vec2
from .polynomials import (
    Grading,
    Polynomial,
    PolynomialRing,
    family_grading,
    family_ring,
    mono_degree,
    s_degree,
)
from .semigroup import (
    AperySet,
    SemigroupFamily,
    _closed_form_apery_elements,
    apery_closed_form,
    extremal_rays,
)

# The k whose resolution matrices (and extended Betti numbers) are typed in
# from the paper; everything else, the Hilbert numerator included, is
# computed for every k.
_STORED_K = (2, 3, 4)

# ---------------------------------------------------------------------------
# the binomial generating set


def progression_ring(k: int) -> PolynomialRing:
    return PolynomialRing([f"x{i}" for i in range(1, k + 2)])


def _pair_mono(ring: PolynomialRing, i: int, j: int) -> tuple[int, ...]:
    """Exponent tuple of x_i * x_j (1-indexed; i == j gives the square)."""
    exps = [0] * ring.nvars
    exps[i - 1] += 1
    exps[j - 1] += 1
    return tuple(exps)


def _pair_binomial(ring: PolynomialRing, lead: tuple[int, int], tail: tuple[int, int]) -> Polynomial:
    return ring.binomial(_pair_mono(ring, *lead), _pair_mono(ring, *tail))


def _xi_blocks(ell: int, k: int, ring: PolynomialRing):
    """xi_family(ell, k) as (block, binomial) pairs: B4 and B5 when
    2*ell > k+1 (square, rest), else B1, B2 and B3 (square, tails from x_1,
    tails through x_{k+1}). The blocks B1..B5 partition the generating set."""
    if 2 * ell > k + 1:
        yield "B4", _pair_binomial(ring, (ell, ell), (2 * ell - k - 1, k + 1))
        for i in range(1, k - ell + 1):
            yield "B5", _pair_binomial(ring, (ell, ell + i), (2 * ell - k - 1 + i, k + 1))
    else:
        yield "B1", _pair_binomial(ring, (ell, ell), (1, 2 * ell - 1))
        for i in range(1, k - 2 * ell + 3):
            yield "B2", _pair_binomial(ring, (ell, ell + i), (1, 2 * ell - 1 + i))
        for i in range(k - 2 * ell + 3, k - ell + 1):
            yield "B3", _pair_binomial(ring, (ell, ell + i), (2 * ell - k - 1 + i, k + 1))


def xi_family(ell: int, k: int, ring: Optional[PolynomialRing] = None) -> list[Polynomial]:
    """The quadratic binomials indexed by ell, for 2 <= ell <= k.

    When 2*ell > k+1 the tails run through x_{k+1}; otherwise they start at
    x_1 and switch to x_{k+1} once the tail index would overflow.
    """
    if not 2 <= ell <= k:
        raise BadIndex(f"ell must lie in [2, {k}], got {ell}")
    if ring is None:
        ring = progression_ring(k)
    return [binomial for _, binomial in _xi_blocks(ell, k, ring)]


class GeneratorFamily(FrozenRecord):
    _fields = ("k", "xi", "G")
    # frozen, but `xi` is a dict
    __hash__ = None

    def __init__(
        self, k: int, xi: dict[int, tuple[Polynomial, ...]], G: tuple[Polynomial, ...]
    ) -> None:
        set_field(self, "k", k)
        set_field(self, "xi", xi)
        set_field(self, "G", G)

    @property
    def ring(self) -> PolynomialRing:
        return self.G[0].ring


def generating_set(k: int, ring: Optional[PolynomialRing] = None) -> GeneratorFamily:
    """Union of the xi families: k(k-1)/2 quadratic binomials minimally
    generating the defining ideal."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if ring is None:
        ring = progression_ring(k)
    xi = {ell: tuple(xi_family(ell, k, ring)) for ell in range(2, k + 1)}
    flat = tuple(g for ell in range(2, k + 1) for g in xi[ell])
    return GeneratorFamily(k=k, xi=xi, G=flat)


def gb_partition(k: int, ring: Optional[PolynomialRing] = None) -> dict[str, list[Polynomial]]:
    """The five-block split of the generating set used to organize the
    pairwise S-polynomial analysis; blocks B1..B5 partition G."""
    if ring is None:
        ring = progression_ring(k)
    parts: dict[str, list[Polynomial]] = {name: [] for name in ("B1", "B2", "B3", "B4", "B5")}
    for ell in range(2, k + 1):
        for block, binomial in _xi_blocks(ell, k, ring):
            parts[block].append(binomial)
    return parts


def extended_generating_set(f: SemigroupFamily) -> list[Polynomial]:
    """Generators of the defining ideal of the glued family: the base set,
    embedded in the ring with y, plus y^mu - x^lambda."""
    if not f.is_extended:
        raise ValueError("family has no extension")
    return _ideal_generators(f, family_ring(f))


def _ideal_generators(f: SemigroupFamily, ring: PolynomialRing) -> list[Polynomial]:
    """The base generating set in `ring`, then y^mu - x^lambda when glued."""
    gens = list(generating_set(f.k, ring).G)
    if f.is_extended:
        gens.append(gluing_data(f).extra_generator)
    return gens


# ---------------------------------------------------------------------------
# resolutions for k = 2, 3, 4


class GradedResolution(FrozenRecord):
    """Minimal graded free resolution data: maps[i] is the matrix of
    delta_{i+1} as a rows x cols nested tuple, column_degrees[i] lists the
    multidegrees of the generators of F_{i+1} in column order, and shifts[i]
    aggregates the degrees of F_i as (multiplicity, degree) pairs."""

    _fields = ("k", "betti", "maps", "column_degrees", "shifts", "grading")

    def __init__(
        self,
        k: int,
        betti: tuple[int, ...],
        maps: tuple[tuple[tuple[Polynomial, ...], ...], ...],
        column_degrees: tuple[tuple[Vec2, ...], ...],
        shifts: tuple[tuple[tuple[int, Vec2], ...], ...],
        grading: Grading,
    ) -> None:
        set_field(self, "k", k)
        set_field(self, "betti", betti)
        set_field(self, "maps", maps)
        set_field(self, "column_degrees", column_degrees)
        set_field(self, "shifts", shifts)
        set_field(self, "grading", grading)


def _aggregate(degrees: tuple[Vec2, ...]) -> tuple[tuple[int, Vec2], ...]:
    out: dict[Vec2, int] = {}
    for deg in degrees:
        out[deg] = out.get(deg, 0) + 1
    return tuple((mult, deg) for deg, mult in sorted(out.items(), key=lambda t: t[0]))


def _column_degrees(
    matrix: tuple[tuple[Polynomial, ...], ...],
    row_degrees: tuple,
    degree: Callable[[Polynomial], object],
) -> tuple:
    """Degree of each column's generator: degree(entry) plus its row's
    degree, which must agree over the column's nonzero entries."""
    ncols = len(matrix[0])
    out = []
    for j in range(ncols):
        degs = {
            degree(matrix[i][j]) + row_degrees[i]
            for i in range(len(matrix))
            if not matrix[i][j].is_zero()
        }
        if len(degs) != 1:
            raise NotHomogeneous(f"column {j + 1} mixes degrees {sorted(degs)}")
        out.append(next(iter(degs)))
    return tuple(out)


def _degree_chain(maps, start, degree: Callable[[Polynomial], object]):
    """The column degrees of each map of a complex in turn, the first map's
    one row having degree `start` and each later map's rows the last map's."""
    row_degrees = (start,)
    for matrix in maps:
        row_degrees = _column_degrees(matrix, row_degrees, degree)
        yield row_degrees


def _resolution_matrices(k: int, ring: PolynomialRing):
    """The matrices delta_1, delta_2, ... for a k in _STORED_K."""
    x = [None] + [ring.var(i) for i in range(ring.nvars)]  # 1-indexed
    z = ring.zero()
    if k == 2:
        delta1 = ((_pair_binomial(ring, (2, 2), (1, 3)),),)
        return (delta1,)
    if k == 3:
        delta1 = (
            (
                _pair_binomial(ring, (2, 2), (1, 3)),
                _pair_binomial(ring, (2, 3), (1, 4)),
                _pair_binomial(ring, (3, 3), (2, 4)),
            ),
        )
        delta2 = (
            (-x[3], x[4]),
            (x[2], -x[3]),
            (-x[1], x[2]),
        )
        return (delta1, delta2)
    if k == 4:
        delta1 = (
            (
                _pair_binomial(ring, (2, 2), (1, 3)),
                _pair_binomial(ring, (2, 3), (1, 4)),
                _pair_binomial(ring, (3, 3), (1, 5)),
                _pair_binomial(ring, (2, 4), (1, 5)),
                _pair_binomial(ring, (3, 4), (2, 5)),
                _pair_binomial(ring, (4, 4), (3, 5)),
            ),
        )
        # Row 4 of the last column must carry -x5: with +x5 neither
        # delta1*delta2 nor delta2*delta3 vanishes, with -x5 both do.
        delta2 = (
            (-x[3], z, -x[4], z, x[5], z, z, z),
            (x[2], -x[3], z, -x[4], z, x[5], x[5], z),
            (-x[1], x[2], z, z, z, -x[4], z, x[5]),
            (x[1], z, x[2], x[3], -x[3], z, -x[4], -x[5]),
            (z, -x[1], -x[1], z, x[2], x[3], z, -x[4]),
            (z, z, z, -x[1], z, z, x[2], x[3]),
        )
        delta3 = (
            (x[4], -x[5], z),
            (z, x[4], -x[5]),
            (-x[3], z, x[5]),
            (x[2], -x[3], z),
            (z, -x[3], x[4]),
            (-x[1], x[2], z),
            (x[1], z, -x[3]),
            (z, -x[1], x[2]),
        )
        return (delta1, delta2, delta3)


def resolution(f: SemigroupFamily) -> GradedResolution:
    """The stored minimal graded free resolution of the base family ring,
    with shifts recomputed from the matrices (k = 2, 3, 4 only)."""
    if f.is_extended:
        raise ValueError("resolutions are stored for base families only")
    k = f.k
    if k not in _STORED_K:
        raise UnsupportedK(f"no stored resolution for k = {k}")
    ring = progression_ring(k)
    grading = family_grading(f)
    maps = _resolution_matrices(k, ring)
    col_degs = tuple(_degree_chain(maps, Vec2(0, 0), lambda p: s_degree(p, grading)))
    betti = (1,) + tuple(len(d) for d in col_degs)
    shifts = (((1, Vec2(0, 0)),),) + tuple(_aggregate(d) for d in col_degs)
    return GradedResolution(
        k=k,
        betti=betti,
        maps=maps,
        column_degrees=col_degs,
        shifts=shifts,
        grading=grading,
    )


# ---------------------------------------------------------------------------
# Hilbert series


class HilbertSeriesForm(FrozenRecord):
    """Numerator exponents with integer coefficients over the product of
    (1 - t^g) for g running through the family generators."""

    _fields = ("numerator", "denominator_factors")

    def __init__(
        self, numerator: tuple[tuple[int, Vec2], ...], denominator_factors: tuple[Vec2, ...]
    ) -> None:
        set_field(self, "numerator", numerator)
        set_field(self, "denominator_factors", denominator_factors)

    def numerator_dict(self) -> dict[Vec2, int]:
        return {deg: c for c, deg in self.numerator}


def hilbert_numerator(f: SemigroupFamily) -> HilbertSeriesForm:
    """Closed-form Hilbert numerator, for every k.

    k[S] is Cohen-Macaulay for every k, so its Hilbert series is the sum of
    t^w over Ap(S, E) divided by the two extremal-ray factors. Over the full
    denominator the numerator is that sum times (1 - t^g) for every other
    generator g. For extended families b is one of them, and the Apery set
    is Ap(S_base, E) + {0, b, ..., (mu-1)b}, so the numerator is the base
    one times (1 - t^(mu*b)), matching the one-step mapping cone.
    """
    num = dict.fromkeys(_closed_form_apery_elements(f), 1)
    for g in f.generators[1:-1] + ((f.extension,) if f.is_extended else ()):
        for deg, c in list(num.items()):
            num[deg + g] = num.get(deg + g, 0) - c
    terms = tuple((c, deg) for deg, c in sorted(num.items(), key=lambda t: t[0]) if c)
    return HilbertSeriesForm(numerator=terms, denominator_factors=f.all_generators)


# ---------------------------------------------------------------------------
# regularity


def regularity(f: SemigroupFamily) -> int:
    """max(norm(e) + 1) over the Apery set, where norm(e) is the coefficient
    sum of the defining representation of e."""
    if f.is_extended:
        raise ValueError("regularity is computed for base families only")
    for g in generating_set(f.k).G:
        if len({mono_degree(m) for m in g.terms}) != 1:
            raise NotHomogeneous(f"{g} is not standard-graded homogeneous")
    norms = []
    for e in apery_closed_form(f).elements:
        if e.is_zero():
            norms.append(0)
        elif e in f.generators:
            # a minimal generator represents itself with coefficient sum 1
            norms.append(1)
        else:
            raise NotHomogeneous(f"unexpected Apery element {e}")
    return max(norms) + 1


def regularity_from_resolution(f: SemigroupFamily) -> int:
    """max over i of (largest standard degree of the i-th syzygies of the
    ideal minus i), read off the stored resolution (k = 2, 3, 4)."""
    chain = _degree_chain(resolution(f).maps, 0, Polynomial.total_degree)
    return max(max(degrees) - idx for idx, degrees in enumerate(chain))


# ---------------------------------------------------------------------------
# gluing


class GluingData(FrozenRecord):
    _fields = ("mu", "lam", "glue_degree", "extra_generator")

    def __init__(
        self, mu: int, lam: tuple[int, ...], glue_degree: Vec2, extra_generator: Polynomial
    ) -> None:
        set_field(self, "mu", mu)
        set_field(self, "lam", lam)
        set_field(self, "glue_degree", glue_degree)
        set_field(self, "extra_generator", extra_generator)


def gluing_data(f: SemigroupFamily) -> GluingData:
    """mu, the chosen representation of mu*b, and the binomial y^mu - x^lambda."""
    if not f.is_extended:
        raise ValueError("family has no extension")
    ring = family_ring(f)
    mu, lam = f.extension_mu, f.extension_lambda
    y_mono = (0,) * (f.k + 1) + (mu,)
    x_mono = lam + (0,)
    return GluingData(
        mu=mu,
        lam=lam,
        glue_degree=mu * f.extension,
        extra_generator=ring.binomial(y_mono, x_mono),
    )


def apery_extended(f: SemigroupFamily) -> AperySet:
    """Closed-form Apery set of the glued family: the origin, the proper
    multiples of b below mu, and every (a+id) + ell*b."""
    if not f.is_extended:
        raise ValueError("family has no extension")
    return AperySet(base=extremal_rays(f), elements=_closed_form_apery_elements(f))


def _closed_form_apery(f: SemigroupFamily) -> AperySet:
    """The closed-form Apery set of a base or a glued family."""
    return apery_extended(f) if f.is_extended else apery_closed_form(f)


def qf_extended(f: SemigroupFamily) -> frozenset[Vec2]:
    """Closed-form quasi-Frobenius set of the glued family."""
    if not f.is_extended:
        raise ValueError("family has no extension")
    a, d, k, b, mu = f.a, f.d, f.k, f.extension, f.extension_mu
    return frozenset((mu - 1) * b - (a + i * d) for i in range(1, k))


_EXTENDED_BETTI = {2: (1, 2, 1), 3: (1, 4, 5, 2), 4: (1, 7, 14, 11, 3)}


def extended_betti(k: int) -> tuple[int, ...]:
    """Betti numbers of the glued family ring, transcribed from the printed
    mapping-cone complexes (k = 2, 3, 4)."""
    if k not in _STORED_K:
        raise UnsupportedK(f"no stored extended Betti numbers for k = {k}")
    return _EXTENDED_BETTI[k]
