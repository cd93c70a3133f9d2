"""Affine semigroups generated by a, a+d, ..., a+kd in N^2, plus one-vector
extensions of them.

Membership is decided by an exact depth-first search memoized on the residual
vector; it terminates because every generator has positive coordinate sum.
A memo entry depends only on the residual and the generator tuple, so callers
that test many targets over one tuple share one memo dict across those calls
(never across tuples, and never module-wide).
Apery sets come in two independent flavours, a closed form and a brute-force
enumeration straight from the definition, so each can check the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    BadExtension,
    CapTooSmall,
    DependentDirections,
    FamilyError,
    NotMinimal,
    OutsideCone,
)
from .lattice import ZERO, Vec2, det, in_lattice, ray_coordinates

_NOT_MEMBER = -1
_UNSEEN = object()


@dataclass(frozen=True)
class SemigroupFamily:
    """A validated family ⟨a, a+d, ..., a+kd⟩, optionally glued with b."""

    a: Vec2
    d: Vec2
    k: int
    generators: tuple[Vec2, ...]
    extension: Optional[Vec2] = None
    extension_mu: Optional[int] = None
    extension_lambda: Optional[tuple[int, ...]] = None

    @property
    def is_extended(self) -> bool:
        return self.extension is not None

    @property
    def all_generators(self) -> tuple[Vec2, ...]:
        """Generators of the semigroup actually in play (with b when glued)."""
        if self.extension is None:
            return self.generators
        return self.generators + (self.extension,)

    def __str__(self) -> str:
        gens = ", ".join(str(g) for g in self.all_generators)
        return f"<{gens}>"


@dataclass(frozen=True)
class AperySet:
    """Elements e of S with e - r not in S for every r in `base`."""

    base: tuple[Vec2, ...]
    elements: frozenset[Vec2]

    def sorted_elements(self) -> list[Vec2]:
        return sorted(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Witnessed:
    """A boolean verdict plus the witness that decides it (None when holds)."""

    holds: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.holds


def member_certificate(
    generators: Iterable[Vec2],
    target: Vec2,
    memo: Optional[dict[Vec2, int]] = None,
) -> Optional[tuple[int, ...]]:
    """Nonnegative coefficients c with sum(c_i * g_i) == target, or None.

    Exact and total: a None answer means the finite residual search space was
    exhausted.

    `memo` maps a residual point u to the first generator index i for which
    u - g_i is zero or a member, or to -1 when u is not a member. That
    depends only on u and the generators, so a caller may pass one dict to
    every call over the same generator tuple, in any order, and get the
    certificate a fresh search gives. It must never be shared across
    different tuples.
    """
    gens = tuple(generators)
    n = len(gens)
    tx, ty = target
    if tx < 0 or ty < 0:
        return None
    if tx == 0 and ty == 0:
        return (0,) * n

    # memo[u]: index of a generator starting a representation of u, or
    # _NOT_MEMBER. Children have strictly smaller coordinate sum, so the
    # explicit DFS stack below always terminates. Residuals are built as bare
    # pairs, which hash and compare as the Vec2 of the same coordinates but
    # cost far less to make.
    if memo is None:
        memo = {}
    stack: list[list] = [[target, 0]]
    while stack:
        frame = stack[-1]
        u, i = frame
        if u in memo:
            stack.pop()
            continue
        ux, uy = u
        pushed = False
        decided = False
        while i < n:
            gx, gy = gens[i]
            wx = ux - gx
            wy = uy - gy
            if wx >= 0 and wy >= 0:
                if wx == 0 and wy == 0:
                    memo[u] = i
                    decided = True
                    break
                w = (wx, wy)
                state = memo.get(w, _UNSEEN)
                if state is _UNSEEN:
                    frame[1] = i
                    stack.append([w, 0])
                    pushed = True
                    break
                if state != _NOT_MEMBER:
                    memo[u] = i
                    decided = True
                    break
            i += 1
        if pushed:
            continue
        if not decided:
            memo[u] = _NOT_MEMBER
        stack.pop()

    if memo[target] == _NOT_MEMBER:
        return None
    counts = [0] * n
    while tx or ty:
        i = memo[tx, ty]
        counts[i] += 1
        gx, gy = gens[i]
        tx -= gx
        ty -= gy
    return tuple(counts)


def all_representations(
    generators: Iterable[Vec2], target: Vec2
) -> list[tuple[int, ...]]:
    """Every coefficient vector representing target over the generators."""
    gens = tuple(generators)
    n = len(gens)
    out: list[tuple[int, ...]] = []
    counts = [0] * n

    def rec(i: int, residual: Vec2) -> None:
        if residual.is_zero():
            tail_zero = all(c == 0 for c in counts[i:])
            if tail_zero:
                out.append(tuple(counts))
            return
        if i == n:
            return
        g = gens[i]
        cmax = residual.coord_sum() // g.coord_sum()
        if g.x > 0:
            cmax = min(cmax, residual.x // g.x)
        if g.y > 0:
            cmax = min(cmax, residual.y // g.y)
        for c in range(cmax + 1):
            counts[i] = c
            rec(i + 1, residual - c * g)
        counts[i] = 0

    if target.is_nonnegative():
        rec(0, target)
    return out


def _validate_extension(
    base_generators: tuple[Vec2, ...], b: Vec2, mu_bound: int
) -> tuple[int, tuple[int, ...]]:
    if not (b.is_nonnegative() and not b.is_zero()):
        raise BadExtension(f"extension vector {b} must be a nonzero point of N^2")
    memo: dict[Vec2, int] = {}
    if member_certificate(base_generators, b, memo) is not None:
        raise BadExtension(f"{b} already lies in the base semigroup")
    # The base semigroup lies in the cone spanned by its extremal rays, and a
    # multiple of b lies in that cone only when b does: a b outside it has no
    # mu, whatever the bound, so stop before the loop.
    r1, r2 = base_generators[0], base_generators[-1]
    side = det(r1, r2)
    if det(r1, b) * side < 0 or det(b, r2) * side < 0:
        raise BadExtension(
            f"extension vector {b} lies outside the cone spanned by {r1} and {r2}"
        )
    mu = None
    for m in range(2, mu_bound + 1):
        if member_certificate(base_generators, m * b, memo) is not None:
            mu = m
            break
    if mu is None:
        raise BadExtension(
            f"no multiple of {b} up to {mu_bound}*{b} lies in the base semigroup"
        )
    qualifying = [
        rep
        for rep in all_representations(base_generators, mu * b)
        if rep[0] != 0 or rep[-1] != 0
    ]
    if not qualifying:
        raise BadExtension(
            f"{mu}*{b} has no representation using the first or last generator"
        )
    # Deterministic choice: lexicographically largest qualifying coefficient
    # vector (greedy on the first extremal ray).
    return mu, max(qualifying)


def build_family(
    a: Vec2, d: Vec2, k: int, b: Optional[Vec2] = None, mu_bound: int = 64
) -> SemigroupFamily:
    """Validate (a, d, k[, b]) and return the family, checking every invariant."""
    if k < 2:
        raise FamilyError(f"k must be at least 2, got {k}")
    if mu_bound < 1:
        raise FamilyError(f"mu bound must be at least 1, got {mu_bound}")
    for name, v in (("a", a), ("d", d)):
        if not v.is_nonnegative():
            raise FamilyError(f"{name} = {v} must lie in N^2")
        if v.is_zero():
            raise FamilyError(f"{name} must be nonzero")
    if det(a, d) == 0:
        raise DependentDirections(f"det(a, d) = 0 for a = {a}, d = {d}")

    generators = tuple(a + i * d for i in range(k + 1))
    for j, g in enumerate(generators):
        # a fresh memo each time: every g is tested against its own tuple
        others = generators[:j] + generators[j + 1 :]
        cert = member_certificate(others, g)
        if cert is not None:
            raise NotMinimal(g, cert)

    mu = lam = None
    if b is not None:
        mu, lam = _validate_extension(generators, b, mu_bound)
    return SemigroupFamily(
        a=a,
        d=d,
        k=k,
        generators=generators,
        extension=b,
        extension_mu=mu,
        extension_lambda=lam,
    )


def is_member(f: SemigroupFamily, v: Vec2) -> Optional[tuple[int, ...]]:
    """Certificate over f.all_generators when v lies in the semigroup."""
    return member_certificate(f.all_generators, v)


def extremal_rays(f: SemigroupFamily) -> tuple[Vec2, Vec2]:
    return f.generators[0], f.generators[-1]


def _closed_form_apery_elements(f: SemigroupFamily) -> frozenset[Vec2]:
    a, d, k = f.a, f.d, f.k
    base = {ZERO} | {a + i * d for i in range(1, k)}
    if not f.is_extended:
        return frozenset(base)
    b, mu = f.extension, f.extension_mu
    ext = {ell * b for ell in range(1, mu)}
    ext |= {(a + i * d) + ell * b for i in range(1, k) for ell in range(1, mu)}
    return frozenset(base | ext)


def apery_closed_form(f: SemigroupFamily) -> AperySet:
    """{0, a+d, ..., a+(k-1)d} with respect to the extremal rays (base only)."""
    if f.is_extended:
        raise ValueError("closed form for extended families is apery_extended")
    return AperySet(base=extremal_rays(f), elements=_closed_form_apery_elements(f))


def apery_bruteforce(
    f: SemigroupFamily,
    E: Optional[Iterable[Vec2]] = None,
    cap: Optional[int] = None,
) -> AperySet:
    """Apery set straight from the definition, over all semigroup elements
    whose minimal coefficient-sum representation is at most cap.

    Warns CapTooSmall when the outermost enumeration layer still contains
    Apery candidates, since deeper layers might then contain more. Raises
    ValueError when cap is below 1.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"apery cap must be at least 1, got {cap}")
    gens = f.all_generators
    rays = E if E is not None else extremal_rays(f)
    rays = tuple(rays)
    memo: dict[Vec2, int] = {}
    for e in rays:
        if e.is_zero():
            raise ValueError("Apery base elements must be nonzero")
        if member_certificate(gens, e, memo) is None:
            raise ValueError(f"Apery base element {e} is not in the semigroup")
    if cap is None:
        cap = 4 * (f.extension_mu or 1)

    first_layer: dict[Vec2, int] = {ZERO: 0}
    frontier = {ZERO}
    for layer in range(1, cap + 1):
        nxt = set()
        for u in frontier:
            for g in gens:
                w = u + g
                if w not in first_layer:
                    first_layer[w] = layer
                    nxt.add(w)
        frontier = nxt

    elements = {
        v
        for v in first_layer
        if all(member_certificate(gens, v - e, memo) is None for e in rays)
    }
    if any(first_layer[v] == cap for v in elements):
        warnings.warn(
            CapTooSmall(
                f"Apery candidates found at enumeration depth {cap}; "
                "rerun with a larger cap to be sure the set is complete"
            ),
            stacklevel=2,
        )
    return AperySet(base=rays, elements=frozenset(elements))


def _max_by_divisibility(f: SemigroupFamily, elements: frozenset[Vec2]) -> list[Vec2]:
    gens = f.all_generators
    memo: dict[Vec2, int] = {}
    maximal = []
    for m in elements:
        dominated = any(
            m2 != m and member_certificate(gens, m2 - m, memo) is not None
            for m2 in elements
        )
        if not dominated:
            maximal.append(m)
    return sorted(maximal)


def quasi_frobenius(f: SemigroupFamily) -> frozenset[Vec2]:
    """{m - (a + (a+kd)) : m maximal in Ap(S, E) under S-divisibility}."""
    ray_sum = f.generators[0] + f.generators[-1]
    maximal = _max_by_divisibility(f, _closed_form_apery_elements(f))
    return frozenset(m - ray_sum for m in maximal)


def cm_type(f: SemigroupFamily) -> int:
    """Cohen-Macaulay type, the number of quasi-Frobenius elements."""
    return len(quasi_frobenius(f))


def is_cohen_macaulay(f: SemigroupFamily) -> Witnessed:
    """Rosales criterion: pairwise differences of Apery elements must avoid
    the group generated by the extremal rays."""
    r1, r2 = extremal_rays(f)
    elements = sorted(_closed_form_apery_elements(f))
    for i, x in enumerate(elements):
        for y in elements[i + 1 :]:
            if in_lattice(x - y, r1, r2):
                return Witnessed(False, witness=(x, y))
    return Witnessed(True)


def is_normal(f: SemigroupFamily) -> Witnessed:
    """Whether -QF(S) lies in the relative interior of cone(S).

    A quasi-Frobenius element whose negative falls outside the cone (some ray
    coordinate negative) is reported as a witness of non-normality, as is one
    landing on the cone boundary.
    """
    r1, r2 = extremal_rays(f)
    for q in sorted(quasi_frobenius(f)):
        c1, c2 = ray_coordinates(-q, r1, r2)
        if c1 <= 0 or c2 <= 0:
            return Witnessed(False, witness=(q, (c1, c2)))
    return Witnessed(True)


def degree_in_rays(
    f: SemigroupFamily, v: Vec2
) -> tuple[tuple[Fraction, Fraction], Fraction]:
    """Exact coordinates of v in the extremal-ray basis and their sum."""
    r1, r2 = extremal_rays(f)
    c1, c2 = ray_coordinates(v, r1, r2)
    if c1 < 0 or c2 < 0:
        raise OutsideCone(f"{v} has ray coordinates ({c1}, {c2})")
    return (c1, c2), c1 + c2
