"""Exact multivariate polynomial arithmetic over Q with N^2 multigrading.

Monomials are dense exponent tuples (the rings here have at most k+4
variables), polynomials are monomial -> coefficient maps, and every
computation is exact. The engine provides the three monomial orders the
package needs (graded reverse lexicographic, lexicographic, block
elimination), division with deterministic reducer selection, Buchberger's
completion with the coprime-pair skip, and elimination-based toric kernels.

A coefficient is an `int` when it is integral and a `Fraction` otherwise,
and every division of coefficients is a `Fraction` division. One routine,
`_add_terms`, adds c * x^s * p into a term dict in place: it drops what
cancels and stores the rest through `_coef`. Sums, differences, products,
scalings, shifts, S-polynomials and division steps all run through it, so
each of them keeps that rule, and none builds a throwaway polynomial along
the way. Every ideal the package completes is a pure-difference binomial
ideal, whose Buchberger steps keep every coefficient at +-1 (Eisenbud and
Sturmfels, "Binomial ideals", Duke Math. J. 84 (1996), Prop. 1.1), so its
arithmetic stays on ints.

Each order compiles its key function once, when it is built, from
`operator.itemgetter` over its precedence. A grevlex key is one int that
orders as the tuple (D, -e_n, ..., -e_1), D the degree over the
precedence: with w = max(1, ceil(bitlen(D) / 8)) bytes per exponent, it is
D * 2^(8wn) minus the exponents e_n, ..., e_1 read as unsigned w-byte
big-endian fields. Within a degree, subtracting the fields orders
(-e_n, ..., -e_1) lexicographically; across degrees, the fields lie in
[0, 2^(8wn)) and 2^(8wn) never shrinks as D grows, so the key rises strictly
with D. So the pair scan, `leading_term` and `reduce` compare ints. An
elimination key is the pair of its two blocks' grevlex keys (that order has
type omega^2, which no single int can encode), and a lex key the exponents
themselves. Grevlex and elimination keys refuse a negative exponent with a
ValueError naming the monomial; lex keys take any int. `PolynomialRing.poly`
and `PolynomialRing.monomial` (and `binomial`, `one` and `var`, which build
through them) refuse an exponent vector of the wrong length or with a
negative entry, naming it, so no such monomial is stored.
It memoises the key per order in a plain dict that fills on a miss and
empties itself at `_KEY_MEMO_BOUND` entries. `order.key` is that dict's
bound `__getitem__`, fetched by a C-level getter, so `order.key(m)`,
`map(order.key, ...)` and `max(..., key=order.key)` run no Python frame on
a memo hit; the property stays callable on the class,
`MonomialOrder.key(order, m)`, which is how the benchmark's tracer counts
key calls. Buchberger's pairs sit in a list
sorted by (i, j), next to a parallel list of the lcms of their leading
monomials, and each scan takes the first least key among
`map(order.key, lcms)` at C level.
`MonomialOrder.key` is still called once per pair per scan, and once per
term in every `leading_term` and `reduce` step: `perfbench/counts.json` pins
that count, and the memo makes each call cheaper without removing one.
Cutting the calls themselves (a heap of pairs) waits for ROADMAP item 2.

Division never touches a leading term: the lead of each reducer cancels by
construction, so a step deletes it and adds only the reducer's tail. The
tail is a term dict, divided by the leading coefficient once per `reduce`
call, and a step adds it into the work dict shifted and scaled by minus the
deleted term.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, attrgetter, ge, itemgetter, le, sub
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import InfiniteDimension, NotHomogeneous
from .lattice import Vec2
from .semigroup import SemigroupFamily, Witnessed

Mono = tuple[int, ...]

# a coefficient: an int when integral, else a Fraction (see _coef)
Coef = Union[int, Fraction]

# an order key: one int (grevlex), an int pair (elimination), a tuple (lex)
Key = Union[int, tuple[int, ...]]

# Entries per order in the key memo, which empties itself when it reaches
# this size; `order.key` is the memo's own lookup, so a hit costs one dict
# probe and a miss one compiled key. Orders in _DISPLAY_CACHE live as long as
# the process, so the memo is bounded; the largest one measured on the
# package's own workloads held 3,563 keys (analyze at k = 14).
_KEY_MEMO_BOUND = 2**14


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    return tuple(map(add, m1, m2))


def mono_divides(m1: Mono, m2: Mono) -> bool:
    return all(map(le, m1, m2))


def mono_div(m1: Mono, m2: Mono) -> Mono:
    if not all(map(ge, m1, m2)):
        raise ArithmeticError(f"{m2} does not divide {m1}")
    return tuple(map(sub, m1, m2))


def mono_lcm(m1: Mono, m2: Mono) -> Mono:
    return tuple(map(max, m1, m2))


def mono_degree(m: Mono) -> int:
    return sum(m)


def mono_coprime(m1: Mono, m2: Mono) -> bool:
    # exponents are never negative, so min is 0 exactly where one of them is
    return not any(map(min, m1, m2))


def _coef(c) -> Coef:
    """c as a stored coefficient: an int when integral, else a Fraction
    (exact, so a float argument keeps its binary value)."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _inverse(c: Coef) -> Coef:
    """1 / c as a stored coefficient."""
    return c if c == 1 or c == -1 else _coef(Fraction(1, c))


def _add_terms(
    acc: dict, terms: dict, shift: Optional[Mono] = None, c: Coef = 1
) -> dict:
    """acc += c * x^shift * terms, in place, and acc. A coefficient that
    cancels is dropped and every other one is stored by `_coef`."""
    for m, v in terms.items():
        if shift is not None:
            m = tuple(map(add, m, shift))
        v = acc.get(m, 0) + c * v
        if type(v) is not int:
            v = _coef(v)
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
    return acc


def _add_product(acc: dict, f: "Polynomial", g: "Polynomial", c: Coef = 1) -> dict:
    """acc += c * f * g, in place, and acc."""
    if g.terms:
        for m, v in f.terms.items():
            _add_terms(acc, g.terms, m, c * v)
    return acc


# ---------------------------------------------------------------------------
# rings and polynomials


class PolynomialRing:
    """Q[names]; owns variable names and builds polynomials."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.monomial((0,) * self.nvars)

    def var(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return self.monomial(tuple(exps))

    def _exponents(self, exps) -> Mono:
        """exps as a tuple, refused with ValueError unless it has one entry
        >= 0 per variable."""
        m = tuple(exps)
        if len(m) != len(self.names) or m and min(m) < 0:
            raise ValueError(
                f"exponent vector {m} has length {len(m)}; the ring has "
                f"{self.nvars} variables"
                if len(m) != self.nvars
                else f"exponent vector {m} has a negative entry"
            )
        return m

    def monomial(self, exps: Mono, coeff=1) -> "Polynomial":
        m = self._exponents(exps)
        c = _coef(coeff)
        return Polynomial(self, {m: c} if c else {})

    def poly(self, terms: dict) -> "Polynomial":
        cleaned = {}
        for m, c in terms.items():
            m = self._exponents(m)
            c = _coef(c)
            if c:
                cleaned[m] = c
        return Polynomial(self, cleaned)

    def binomial(self, plus: Mono, minus: Mono) -> "Polynomial":
        return self.poly({plus: 1, minus: -1})

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialRing) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"PolynomialRing({', '.join(self.names)})"


_DISPLAY_CACHE: dict[int, "MonomialOrder"] = {}


class Polynomial:
    """Immutable-by-convention Q-polynomial; do not mutate .terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.ring, _add_terms(dict(self.terms), other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.ring, _add_terms(dict(self.terms), other.terms, c=-1))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return Polynomial(self.ring, _add_product({}, self, other))
        return self.scale(other)

    def __rmul__(self, other) -> "Polynomial":
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = _coef(c)
        return Polynomial(self.ring, _add_terms({}, self.terms, c=c) if c else {})

    def mul_monomial(self, mono: Mono, coeff=1) -> "Polynomial":
        c = _coef(coeff)
        return Polynomial(self.ring, _add_terms({}, self.terms, mono, c) if c else {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def _mono_str(self, m: Mono) -> str:
        parts = []
        for i, e in enumerate(m):
            if e == 1:
                parts.append(self.ring.names[i])
            elif e > 1:
                parts.append(f"{self.ring.names[i]}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        n = self.ring.nvars
        order = _DISPLAY_CACHE.get(n)
        if order is None:
            order = grevlex(n)
            _DISPLAY_CACHE[n] = order
        items = sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)
        chunks = []
        for m, c in items:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = self._mono_str(m)
            if mag != 1 or body == "1":
                coeff = str(mag) if mag.denominator == 1 else f"({mag})"
                body = coeff if body == "1" else f"{coeff}*{body}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"<{self}>"


# ---------------------------------------------------------------------------
# monomial orders


def _picker(idxs: tuple[int, ...]) -> Callable[[Mono], tuple[int, ...]]:
    """m -> tuple(m[i] for i in idxs); itemgetter alone returns a bare entry
    for one index and cannot be built for none."""
    if not idxs:
        return lambda m: ()
    if len(idxs) == 1:
        (i,) = idxs
        return lambda m: (m[i],)
    return itemgetter(*idxs)


def _compile_grevlex(idxs: tuple[int, ...]) -> Callable[[Mono], int]:
    """The grevlex key over idxs as one int that orders exactly as the
    tuple (D, -e_n, ..., -e_1), D the degree over idxs.

    With exps = (e_n, ..., e_1), the exponents from the last index to the
    first, and w = max(1, ceil(bitlen(D) / 8)) bytes per field, the key is
    D * B - F, where B = 2^(8wn) and F reads exps as n unsigned w-byte
    big-endian fields (each e <= D < 2^(8w) fits its field). Within one
    degree, -F orders as (-e_n, ..., -e_1) lexicographically. Across
    degrees, 0 <= F < B puts key(D) in ((D - 1) * B, D * B], and B never
    shrinks as D grows, so the key rises strictly with D. A negative
    exponent fits no unsigned field and raises ValueError naming the
    monomial.
    """
    pick = _picker(idxs[::-1])
    nbits = 8 * len(idxs)  # the bits of n one-byte fields
    from_bytes = int.from_bytes

    def key(m: Mono) -> int:
        exps = pick(m)
        d = sum(exps)
        try:
            if d < 256:
                # every field fits one byte; bytes() refuses any outside 0..255
                return (d << nbits) - from_bytes(bytes(exps), "big")
            w = (d.bit_length() + 7) // 8
            fields = b"".join([e.to_bytes(w, "big") for e in exps])
        except (ValueError, OverflowError):
            raise ValueError(
                f"monomial {m} has a negative exponent; grevlex keys take "
                "exponents >= 0"
            ) from None
        return (d << (w * nbits)) - from_bytes(fields, "big")

    return key


class _KeyMemo(dict):
    """Monomial -> key of one order. A miss computes the key; at
    _KEY_MEMO_BOUND entries the memo empties itself first."""

    __slots__ = ("compiled",)

    def __init__(self, compiled: Callable[[Mono], Key]):
        self.compiled = compiled

    def __missing__(self, m: Mono):
        if len(self) >= _KEY_MEMO_BOUND:
            self.clear()
        k = self[m] = self.compiled(m)
        return k


class _KeyProperty(property):
    """`order.key`: a property whose getter is C-level, so reading it runs no
    Python frame and yields the memo's bound `__getitem__`.

    It stays callable on the class as `MonomialOrder.key(order, m)`, the form
    in which the benchmark's tracer wraps it to count key calls (a count
    `perfbench/counts.json` pins). A Python `__get__` would run a frame on
    every attribute read instead.
    """

    def __call__(self, order: "MonomialOrder", m: Mono):
        return self.fget(order)(m)


@dataclass(frozen=True)
class MonomialOrder:
    """Total, multiplicative well-order on monomials.

    kind "grevlex": total degree, then reverse lexicographic tiebreak on the
    precedence (the monomial with the smaller exponent on the least variable
    wins ties upward).
    kind "lex": lexicographic on the precedence.
    kind "elim": the first `block` precedence variables dominate; both blocks
    are compared by grevlex, so it eliminates the leading block.

    A grevlex key is one int, D * 2^(8wn) - F: D the degree, F the exponents
    from the last precedence variable to the first as n unsigned w-byte
    fields, w = max(1, ceil(bitlen(D) / 8)). Within a degree, -F orders as
    (-e_n, ..., -e_1); across degrees, 0 <= F < 2^(8wn), a bound that never
    shrinks as D grows, so the key rises strictly with D. An elim key is the
    pair of its blocks' grevlex keys; a lex key the picked exponents. Grevlex
    and elim keys raise ValueError on a negative exponent.

    The key function is compiled once, when the order is built, and memoised
    per order (at most _KEY_MEMO_BOUND monomials); an unknown kind raises
    ValueError then. The memo takes no part in equality or hashing.
    """

    kind: str
    precedence: tuple[int, ...]
    block: int = 0
    _memo: _KeyMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prec = self.precedence
        if self.kind == "grevlex":
            compiled = _compile_grevlex(prec)
        elif self.kind == "lex":
            compiled = _picker(prec)
        elif self.kind == "elim":
            head = _compile_grevlex(prec[: self.block])
            tail = _compile_grevlex(prec[self.block :])

            def compiled(m: Mono) -> tuple[int, int]:
                return head(m), tail(m)

        else:
            raise ValueError(f"unknown order kind {self.kind!r}")
        object.__setattr__(self, "_memo", _KeyMemo(compiled))

    # monomial -> its sort key, read from the memo
    key = _KeyProperty(attrgetter("_memo.__getitem__"))


def grevlex(n: int, precedence: Optional[Sequence[int]] = None) -> MonomialOrder:
    prec = tuple(precedence) if precedence is not None else tuple(range(n))
    return MonomialOrder("grevlex", prec)


def lex_order(precedence: Sequence[int]) -> MonomialOrder:
    return MonomialOrder("lex", tuple(precedence))


def elimination_order(n_elim: int, n_total: int) -> MonomialOrder:
    return MonomialOrder("elim", tuple(range(n_total)), block=n_elim)


def compare(order: MonomialOrder, m1: Mono, m2: Mono) -> int:
    k1, k2 = order.key(m1), order.key(m2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[Mono, Coef]:
    terms = f.terms
    if not terms:
        raise ValueError("zero polynomial has no leading term")
    m = max(terms, key=order.key)
    return m, terms[m]


def leading_monomial(f: Polynomial, order: MonomialOrder) -> Mono:
    return leading_term(f, order)[0]


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    _, c = leading_term(f, order)
    return f if c == 1 else f.scale(Fraction(1, c))


# ---------------------------------------------------------------------------
# division, S-polynomials, Buchberger


def reduce(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Normal form of f modulo G; no term of the result is divisible by any
    leading term of G. The reducer is the first match in list order.

    A step removes the leading term m = c*x^u and subtracts c * x^(u - lm(g))
    times the tail of g, the non-leading terms divided by lc(g): the leading
    terms cancel exactly, so they are never computed. Each reducer's tail is
    a term dict built the first time it fires and kept for the rest of the
    call, its coefficients stored by `_coef` (exact `Fraction` division,
    ints where integral), so a reducer with a +-1 leading coefficient and
    int tail keeps every step on ints.
    """
    # one row per nonzero g: [lm, lc, tail (None until g first fires), g]
    reducers = [[*leading_term(g, order), None, g] for g in G if g.terms]
    work = dict(f.terms)
    remainder: dict[Mono, Coef] = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for r in reducers:
            lm = r[0]
            if all(map(le, lm, m)):
                tail = r[2]
                if tail is None:
                    tail = r[2] = _add_terms({}, r[3].terms, c=_inverse(r[1]))
                    del tail[lm]
                _add_terms(work, tail, tuple(map(sub, m, lm)), -c)
                break
        else:
            remainder[m] = c
    return Polynomial(f.ring, remainder)


def s_polynomial(
    f: Polynomial, g: Polynomial, order: MonomialOrder
) -> Polynomial:
    """x^(gamma - lm f) f / lc f - x^(gamma - lm g) g / lc g, gamma the lcm
    of the leading monomials, added into one term dict."""
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    gamma = mono_lcm(lmf, lmg)
    terms = _add_terms({}, f.terms, mono_div(gamma, lmf), _inverse(lcf))
    _add_terms(terms, g.terms, mono_div(gamma, lmg), -_inverse(lcg))
    return Polynomial(f.ring, terms)


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    elements: tuple[Polynomial, ...]

    @property
    def ring(self) -> PolynomialRing:
        return self.elements[0].ring if self.elements else None

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _sort_basis(G: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    return sorted(
        G, key=lambda g: (order.key(leading_monomial(g, order)), min(g.terms)),
        reverse=True,
    )


def _interreduce(G: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    G = [monic(g, order) for g in G if not g.is_zero()]
    lms = [leading_monomial(g, order) for g in G]
    kept: list[Polynomial] = []
    for i, g in enumerate(G):
        redundant = False
        for j, lm_j in enumerate(lms):
            if i == j:
                continue
            if mono_divides(lm_j, lms[i]) and (lm_j != lms[i] or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        out.append(monic(reduce(g, others, order), order))
    return _sort_basis(out, order)


def buchberger(gens: Iterable[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Normal pair selection (smallest lcm first) with the coprime-leading-term
    skip; termination by Dickson's lemma. Idempotent on inputs that already
    form a reduced basis.
    """
    G = [monic(g, order) for g in gens if not g.is_zero()]
    lms = [leading_monomial(g, order) for g in G]
    # the pairs (i, j) in lexicographic order, and in the parallel list the
    # lcm of each pair's leading monomials, computed once when it is made;
    # the first least key is then the smallest pair among equal keys
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    lcms = [mono_lcm(lms[i], lms[j]) for i, j in pairs]
    while pairs:
        keys = list(map(order.key, lcms))
        at = keys.index(min(keys))
        i, j = pairs.pop(at)
        del lcms[at]
        if mono_coprime(lms[i], lms[j]):
            continue
        r = reduce(s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        G.append(monic(r, order))
        lms.append(leading_monomial(r, order))
        new = len(G) - 1
        # (t, new) is the last pair whose first index is t
        for t in range(new - 1, -1, -1):
            at = bisect_left(pairs, (t + 1,))
            pairs.insert(at, (t, new))
            lcms.insert(at, mono_lcm(lms[t], lms[new]))
    return GroebnerBasis(order, tuple(_interreduce(G, order)))


def is_groebner_basis(
    G: Sequence[Polynomial], order: MonomialOrder
) -> Witnessed:
    """Buchberger's criterion, checked pair by pair without shortcuts."""
    G = [g for g in G if not g.is_zero()]
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            r = reduce(s_polynomial(G[i], G[j], order), G, order)
            if not r.is_zero():
                return Witnessed(False, witness=(i, j))
    return Witnessed(True)


def ideal_equal(
    G1: GroebnerBasis, G2: Union[GroebnerBasis, Sequence[Polynomial]]
) -> bool:
    """Mutual membership: each side reduces to zero modulo a basis of the other."""
    gens2 = list(G2.elements) if isinstance(G2, GroebnerBasis) else list(G2)
    basis2 = G2 if isinstance(G2, GroebnerBasis) else buchberger(gens2, G1.order)
    return all(
        reduce(g, list(G1.elements), G1.order).is_zero() for g in gens2
    ) and all(
        reduce(g, list(basis2.elements), basis2.order).is_zero() for g in G1.elements
    )


# ---------------------------------------------------------------------------
# family rings, multigrading, toric kernels


def family_ring(f: SemigroupFamily) -> PolynomialRing:
    names = [f"x{i}" for i in range(1, f.k + 2)]
    if f.is_extended:
        names.append("y")
    return PolynomialRing(names)


# The S-degree of each ring variable, in variable order: a family's generators.
Grading = tuple[Vec2, ...]


def family_grading(f: SemigroupFamily) -> Grading:
    return f.all_generators


def multidegree(m: Mono, grading: Grading) -> Vec2:
    x = y = 0
    for e, deg in zip(m, grading):
        if e:
            x += e * deg.x
            y += e * deg.y
    return Vec2(x, y)


def s_degree(f: Polynomial, grading: Grading) -> Vec2:
    """Common multidegree of all terms; raises NotHomogeneous otherwise."""
    if f.is_zero():
        raise ValueError("zero polynomial has no multidegree")
    degs = {multidegree(m, grading) for m in f.terms}
    if len(degs) != 1:
        raise NotHomogeneous(f"{f} mixes multidegrees {sorted(degs)}")
    return next(iter(degs))


def is_s_homogeneous(f: Polynomial, grading: Grading) -> bool:
    try:
        s_degree(f, grading)
    except NotHomogeneous:
        return False
    return True


def vanishes_under_degree_map(f: Polynomial, grading: Grading) -> bool:
    """Whether f maps to zero under x_i -> t^(deg x_i)."""
    sums: dict[Vec2, Coef] = {}
    for m, c in f.terms.items():
        deg = multidegree(m, grading)
        sums[deg] = sums.get(deg, 0) + c
    return all(v == 0 for v in sums.values())


def toric_kernel(f: SemigroupFamily) -> GroebnerBasis:
    """Defining ideal of the family by elimination, independent of any closed
    form: eliminate t1, t2 from <x_i - t^(g_i)> and restrict to the x-ring.

    Every output element is checked to be S-homogeneous and to vanish under
    the degree map, which certifies containment in the kernel.
    """
    xring = family_ring(f)
    gens = f.all_generators
    n = 2 + xring.nvars
    big = PolynomialRing(("t1", "t2") + xring.names)
    order = elimination_order(2, n)
    relations = []
    for i, g in enumerate(gens):
        x_exps = [0] * n
        x_exps[2 + i] = 1
        t_exps = [*g] + [0] * xring.nvars
        relations.append(big.poly({tuple(x_exps): 1, tuple(t_exps): -1}))
    gb = buchberger(relations, order)

    kept = []
    for p in gb.elements:
        if all(m[0] == 0 and m[1] == 0 for m in p.terms):
            kept.append(xring.poly({m[2:]: c for m, c in p.terms.items()}))
    grading = family_grading(f)
    for p in kept:
        if not is_s_homogeneous(p, grading) or not vanishes_under_degree_map(
            p, grading
        ):
            raise RuntimeError(f"elimination produced a non-kernel element: {p}")
    result_order = grevlex(xring.nvars)
    return GroebnerBasis(result_order, tuple(_sort_basis(kept, result_order)))


# ---------------------------------------------------------------------------
# staircases


def standard_monomials(G: GroebnerBasis, cap: Optional[int] = None) -> list[Mono]:
    """Monomials outside the leading-term ideal of G, when finitely many.

    Raises InfiniteDimension when some variable has no pure power among the
    leading terms (the staircase is then unbounded in that direction).
    """
    if not G.elements:
        raise InfiniteDimension("empty basis has an unbounded staircase")
    ring = G.elements[0].ring
    n = ring.nvars
    lms = [leading_monomial(g, G.order) for g in G.elements]
    if any(mono_degree(m) == 0 for m in lms):
        return []  # unit ideal
    for v in range(n):
        if not any(m[v] > 0 and mono_degree(m) == m[v] for m in lms):
            raise InfiniteDimension(
                f"no pure power of {ring.names[v]} among the leading terms"
            )

    def is_standard(m: Mono) -> bool:
        return not any(mono_divides(lm, m) for lm in lms)

    origin = (0,) * n
    seen = {origin}
    queue = [origin]
    out = []
    while queue:
        m = queue.pop()
        out.append(m)
        if cap is not None and len(out) > cap:
            raise ValueError(f"staircase exceeds the cap of {cap} monomials")
        for v in range(n):
            m2 = m[:v] + (m[v] + 1,) + m[v + 1 :]
            if m2 not in seen and is_standard(m2):
                seen.add(m2)
                queue.append(m2)
    return sorted(out, key=G.order.key)


def is_quadratic(G: GroebnerBasis) -> bool:
    """Every term of every basis element has standard degree exactly 2."""
    return all(
        all(mono_degree(m) == 2 for m in g.terms) for g in G.elements
    )
