"""Affine semigroups generated by a, a+d, ..., a+kd in N^2, plus one-vector
extensions of them.

Membership rests on level coordinates. With det(a, d) != 0 every v in Q^2 is
uniquely m*a + n*d, and a sum of m generators a + i*d has n = the sum of the
i's, which takes every value from 0 to m*k. So

    S = {m*a + n*d : m, n integers, m >= 0, 0 <= n <= m*k},

the semigroup of the rational normal curve of degree k, by the shape of the
generators alone (no closed form is consulted). A generator tuple that is such
a progression in N^2, optionally followed by one nonzero b in the closed cone
of a and a+kd, gets a per-tuple level frame (`_level_frame`), and
`member_certificate` answers over it by arithmetic: the same certificate the
search below finds, at any coordinate size.

Each membership routine has one domain, and raises ValueError outside it:
- `member_certificate` takes any tuple of nonzero points of N^2. A tuple
  without a level frame is decided by an exact depth-first search over
  residual vectors (`_dfs_certificate`). It tries the generators in index
  order, first generator first, so its certificate is the lexicographically
  largest representation; it keeps one dict entry per residual it decides,
  for one call only, and runs on an explicit stack, so its depth is not
  bounded by Python's recursion limit. With every generator nonzero and in
  N^2, each step lowers the residual's coordinate sum, so the search ends,
  and every residual of a representation lies in N^2, so pruning the others
  is exact.
- `all_representations` takes a progression a, ..., a+kd in N^2 with
  det(a, d) != 0, and enumerates over its level frame.
Apery sets come in two independent flavours, a closed form and a brute-force
enumeration straight from the definition, so each can check the other.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction
from typing import Iterable, Optional

from ._record import FrozenRecord, set_field
from .errors import (
    BadExtension,
    CapTooSmall,
    DependentDirections,
    FamilyError,
    NotMinimal,
    OutsideCone,
)
from .lattice import ZERO, Vec2, det, in_lattice, ray_coordinates


class SemigroupFamily(FrozenRecord):
    """A validated family ⟨a, a+d, ..., a+kd⟩, optionally glued with b."""

    _fields = ("a", "d", "k", "generators", "extension", "extension_mu", "extension_lambda")

    def __init__(
        self,
        a: Vec2,
        d: Vec2,
        k: int,
        generators: tuple[Vec2, ...],
        extension: Optional[Vec2] = None,
        extension_mu: Optional[int] = None,
        extension_lambda: Optional[tuple[int, ...]] = None,
    ) -> None:
        set_field(self, "a", a)
        set_field(self, "d", d)
        set_field(self, "k", k)
        set_field(self, "generators", generators)
        set_field(self, "extension", extension)
        set_field(self, "extension_mu", extension_mu)
        set_field(self, "extension_lambda", extension_lambda)

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


class AperySet(FrozenRecord):
    """Elements e of S with e - r not in S for every r in `base`."""

    _fields = ("base", "elements")

    def __init__(self, base: tuple[Vec2, ...], elements: frozenset[Vec2]) -> None:
        set_field(self, "base", base)
        set_field(self, "elements", elements)

    def sorted_elements(self) -> list[Vec2]:
        return sorted(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


class Witnessed(FrozenRecord):
    """A boolean verdict plus the witness that decides it (None when holds)."""

    _fields = ("holds", "witness")

    def __init__(self, holds: bool, witness: object = None) -> None:
        set_field(self, "holds", holds)
        set_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.holds


class _LevelFrame:
    """Level coordinates of a progression a, a+d, ..., a+kd in N^2 with
    det(a, d) != 0, optionally followed by one nonzero b in the closed cone of
    a and a+kd.

    v = m*a + n*d has m = det(v, d)/det(a, d) and n = det(a, v)/det(a, d), and
    v lies in S iff m, n are integers with m >= 0 and 0 <= n <= m*k.

    With b, let L = Za + Zd. S contains every point of L in the cone, so the
    least multiple of b in S is its order mu in (L + Zb)/L, and v lies in
    S + Nb iff v - j0*b lies in S for the one j0 in [0, mu) that puts it in L:
    a larger j lowers to j0 by multiples of mu*b, which lie in S. Writing
    h = gcd(det(b, d), det(a, b)) = x*det(b, d) + y*det(a, b) and
    g = gcd(h, |det(a, d)|), the two congruences v - j*b in L combine into
    j*h = x*det(v, d) + y*det(a, v) mod |det(a, d)|, so mu = |det(a, d)|/g
    and j0 needs one modular inverse, of h/g mod mu, kept here.
    """

    __slots__ = ("ax", "ay", "dx", "dy", "det", "k", "size", "b", "jx", "jy", "g", "mu", "inv")

    def __init__(self, a, d, k: int, b=None) -> None:
        self.ax, self.ay = a
        self.dx, self.dy = d
        self.det = self.ax * self.dy - self.ay * self.dx
        self.k = k
        self.size = k + 1 if b is None else k + 2
        self.b = b
        if b is None:
            return
        bm, bn = self.level(b)
        h = math.gcd(bm, bn)
        x, y = _bezout(bm // h, bn // h)
        # x*det(v, d) + y*det(a, v) as one linear form in v
        self.jx = x * self.dy - y * self.ay
        self.jy = y * self.ax - x * self.dx
        self.g = math.gcd(h, abs(self.det))
        self.mu = abs(self.det) // self.g
        self.inv = pow(h // self.g, -1, self.mu)

    def level(self, v) -> tuple[int, int]:
        """(det(v, d), det(a, v)): v's level coordinates times det(a, d)."""
        vx, vy = v
        return vx * self.dy - vy * self.dx, self.ax * vy - self.ay * vx

    def in_cone(self, v) -> bool:
        """Whether v lies in the closed cone of a and a+kd."""
        vm, vn = self.level(v)
        s = self.det
        return vm * s >= 0 and vn * s >= 0 and (self.k * vm - vn) * s >= 0

    def base_level(self, vx: int, vy: int) -> Optional[tuple[int, int]]:
        """(m, n) when (vx, vy) = m*a + n*d lies in the base semigroup
        ⟨a, ..., a+kd⟩, else None."""
        det = self.det
        mm = vx * self.dy - vy * self.dx
        nn = self.ax * vy - self.ay * vx
        if mm % det or nn % det:
            return None
        m = mm // det
        n = nn // det
        if m < 0 or n < 0 or n > m * self.k:
            return None
        return m, n

    def certificate(self, target) -> Optional[tuple[int, ...]]:
        """The certificate `_dfs_certificate` finds for target, by arithmetic.

        That search takes the lowest-index generator whose removal leaves a
        member. Over the base tuple at level (m, n), with t = ceil(n/k), that
        is a while n <= (m-1)*k, so c_0 = m - t; then g_(n-(t-1)k) once and
        g_k for the remaining t - 1 levels. Over a glued tuple no base
        generator can be taken from j*b with 0 < j < mu (mu is the least
        multiple in S), and one can be taken from v whenever v - j0*b is not
        0, so the search takes the base certificate of v - j0*b, then b j0
        times.
        """
        vx, vy = target
        b = self.b
        if b is not None:
            j = (vx * self.jx + vy * self.jy) // self.g * self.inv % self.mu
            vx -= j * b[0]
            vy -= j * b[1]
        level = self.base_level(vx, vy)
        if level is None:
            return None
        m, n = level
        k = self.k
        counts = [0] * self.size
        t = -(-n // k)
        counts[0] = m - t
        if t:
            counts[n - (t - 1) * k] += 1
            counts[k] += t - 1
        if b is not None:
            counts[-1] = j
        return tuple(counts)

    def representations(self, target) -> list[tuple[int, ...]]:
        """Every c with sum(c_i * g_i) == target over a base tuple, in
        lexicographic order."""
        out: list[tuple[int, ...]] = []
        level = self.base_level(*target)
        if level is not None:
            self._extend(out, [0] * (self.k + 1), 0, *level)
        return out

    def _extend(self, out: list, counts: list[int], i: int, m: int, n: int) -> None:
        """Append to out every representation of level (m, n) over g_i..g_k
        that starts with counts[:i].

        Taking c copies of g_i leaves (m - c, n - i*c), and g_(i+1)..g_k
        reach exactly the levels (m', n') with (i+1)*m' <= n' <= k*m', so c
        runs over the range that keeps the rest reachable: every branch
        ends in a representation."""
        k = self.k
        if i == k:
            counts[k] = m
            out.append(tuple(counts))
            counts[k] = 0
            return
        for c in range(max(0, (i + 1) * m - n), (k * m - n) // (k - i) + 1):
            counts[i] = c
            self._extend(out, counts, i + 1, m - c, n - i * c)
        counts[i] = 0


def _bezout(s: int, t: int) -> tuple[int, int]:
    """x, y with x*s + y*t == 1, for coprime s and t."""
    if abs(t) <= 1:
        return (s, 0) if t == 0 else (0, t)
    x = pow(s, -1, abs(t))
    return x, (1 - x * s) // t


def _progression(gens: tuple) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """(a, d) when gens is a, a+d, ..., a+kd in N^2 with k >= 1 and
    det(a, d) != 0, else None."""
    if len(gens) < 2:
        return None
    (ax, ay), (gx, gy) = gens[0], gens[1]
    dx, dy = gx - ax, gy - ay
    if ax * dy - ay * dx == 0:
        return None
    for i, (gx, gy) in enumerate(gens):
        if gx != ax + i * dx or gy != ay + i * dy or gx < 0 or gy < 0:
            return None
    return (ax, ay), (dx, dy)


# Bounded: one entry per generator tuple seen, and a long-lived process may
# see many families.
@functools.lru_cache(maxsize=256)
def _level_frame(gens: tuple) -> Optional[_LevelFrame]:
    """The tuple's level frame, or None when membership over it needs the
    search: not a progression in N^2, nor one followed by a nonzero b in its
    closed cone."""
    base = _progression(gens)
    if base is not None:
        return _LevelFrame(*base, len(gens) - 1)
    base = _progression(gens[:-1])
    if base is None or gens[-1] == (0, 0):
        return None
    frame = _LevelFrame(*base, len(gens) - 2, gens[-1])
    return frame if frame.in_cone(frame.b) else None


def member_certificate(
    generators: Iterable[Vec2], target: Vec2
) -> Optional[tuple[int, ...]]:
    """Nonnegative coefficients c with sum(c_i * g_i) == target, or None.

    Exact and total: a None answer means the target is not a sum of the
    generators. The certificate is the lexicographically largest
    representation, the one `_dfs_certificate` finds by taking the
    lowest-index generator whose removal leaves a member, whichever way it
    is computed.

    A tuple with a level frame (a progression a, ..., a+kd in N^2 with
    det(a, d) != 0, optionally followed by one nonzero b in the closed cone
    of a and a+kd) is answered in O(1) arithmetic on the target's level
    coordinates, whatever their size. Every other tuple runs the search, one
    dict entry per residual on an explicit stack, which takes only nonzero
    points of N^2: it raises ValueError naming the first generator outside.
    """
    gens = tuple(generators)
    frame = _level_frame(gens)
    if frame is not None:
        return frame.certificate(target)
    return _dfs_certificate(gens, target)


def _dfs_certificate(
    gens: tuple[Vec2, ...], target: Vec2
) -> Optional[tuple[int, ...]]:
    """`member_certificate` by depth-first search over residuals, for any
    tuple of nonzero generators in N^2 (ValueError otherwise).

    first[u] is the index of the first generator g with u - g in S, or -1
    when u is not in S: one entry per decided residual, kept for this call.
    The residual on top of the stack is scanned from g_0. Its first child in
    N^2 not yet decided is pushed, and its scan starts again from g_0 when
    the search returns to it; it is decided at its first child in S, or as
    -1 once the scan finds none. S lies in N^2, so a child outside N^2 is
    not in S; each child has a smaller coordinate sum, so the search ends,
    and the stack is explicit, so its depth is not bounded by Python's
    recursion limit. The certificate read from first takes g_0 as often as
    the rest stays in S, then g_1, and so on: the lexicographically largest
    representation.
    """
    for gx, gy in gens:
        if gx < 0 or gy < 0 or gx == gy == 0:
            raise ValueError(
                f"generator ({gx}, {gy}) is not a nonzero point of N^2; "
                "membership search needs every generator to be one"
            )
    tx, ty = target
    if tx < 0 or ty < 0:
        return None
    first = {(0, 0): 0}  # the origin is in S; no index is read from it
    stack = [(tx, ty)]
    while stack:
        u = stack[-1]
        if u in first:
            stack.pop()
            continue
        ux, uy = u
        for i, (gx, gy) in enumerate(gens):
            wx = ux - gx
            wy = uy - gy
            if wx < 0 or wy < 0:
                continue
            state = first.get((wx, wy))
            if state is None:
                stack.append((wx, wy))
                break
            if state >= 0:
                first[u] = i
                break
        else:
            first[u] = -1

    if first[tx, ty] < 0:
        return None
    counts = [0] * len(gens)
    while tx or ty:
        i = first[tx, ty]
        counts[i] += 1
        gx, gy = gens[i]
        tx -= gx
        ty -= gy
    return tuple(counts)


def all_representations(
    generators: Iterable[Vec2], target: Vec2
) -> list[tuple[int, ...]]:
    """Every coefficient vector representing target over a progression
    a, a+d, ..., a+kd in N^2 with det(a, d) != 0, in lexicographic order.

    The enumeration runs over the progression's level frame and visits only
    branches that end in a representation (`_LevelFrame.representations`).
    Any other tuple, a glued one included, raises ValueError naming it.
    """
    gens = tuple(generators)
    frame = _level_frame(gens)
    if frame is None or frame.b is not None:
        named = ", ".join(f"({x}, {y})" for x, y in gens)
        raise ValueError(
            f"generators {named} are not a progression a, a+d, ..., a+kd "
            "in N^2 with det(a, d) != 0"
        )
    return frame.representations(target)


def _validate_extension(
    base_generators: tuple[Vec2, ...], b: Vec2, mu_bound: int
) -> tuple[int, tuple[int, ...]]:
    if not (b.is_nonnegative() and not b.is_zero()):
        raise BadExtension(f"extension vector {b} must be a nonzero point of N^2")
    if member_certificate(base_generators, b) is not None:
        raise BadExtension(f"{b} already lies in the base semigroup")
    # The base semigroup lies in the cone spanned by its extremal rays, and a
    # multiple of b lies in that cone only when b does: a b outside it has no
    # mu, whatever the bound, so stop before the loop.
    if not _level_frame(base_generators).in_cone(b):
        raise BadExtension(
            f"extension vector {b} lies outside the cone spanned by "
            f"{base_generators[0]} and {base_generators[-1]}"
        )
    mu = None
    for m in range(2, mu_bound + 1):
        if member_certificate(base_generators, m * b) is not None:
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
    for e in rays:
        if e.is_zero():
            raise ValueError("Apery base elements must be nonzero")
        if member_certificate(gens, e) is None:
            raise ValueError(f"Apery base element {e} is not in the semigroup")
    if cap is None:
        cap = 4 * (f.extension_mu or 1)

    # The layers are built on bare (x, y) pairs, which hash and compare as
    # the Vec2 of the same coordinates; only the Apery elements become Vec2s.
    first_layer: dict[tuple[int, int], int] = {(0, 0): 0}
    frontier = [(0, 0)]
    for layer in range(1, cap + 1):
        nxt = []
        for ux, uy in frontier:
            for gx, gy in gens:
                w = (ux + gx, uy + gy)
                if w not in first_layer:
                    first_layer[w] = layer
                    nxt.append(w)
        frontier = nxt

    elements = []
    for v in first_layer:
        vx, vy = v
        for ex, ey in rays:
            if member_certificate(gens, (vx - ex, vy - ey)) is not None:
                break
        else:
            elements.append(v)
    if any(first_layer[v] == cap for v in elements):
        warnings.warn(
            CapTooSmall(
                f"Apery candidates found at enumeration depth {cap}; "
                "rerun with a larger cap to be sure the set is complete"
            ),
            stacklevel=2,
        )
    elements = frozenset(Vec2(x, y) for x, y in elements)
    return AperySet(base=rays, elements=elements)


def _max_by_divisibility(f: SemigroupFamily, elements: frozenset[Vec2]) -> list[Vec2]:
    gens = f.all_generators
    maximal = []
    for m in elements:
        dominated = any(
            m2 != m and member_certificate(gens, m2 - m) is not None
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
