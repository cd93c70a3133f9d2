"""Exact multivariate polynomial arithmetic over Q with N^2 multigrading.

A monomial is a packed exponent vector: one int, with the exponent e_i of
variable i in bits [32i, 32i + 32). The top bit of every field is a guard
that stays 0, so an exponent is at most MAX_EXPONENT = 2^31 - 1, and one
int operation acts on all fields at once (packed exponent vectors, as in
Bachmann and Schoenemann, "Monomial representations for Groebner bases
computations", ISSAC 1998). With G the guard bits of every field:

- product and shift: m + s; no field carries into the next, and a field
  that passes MAX_EXPONENT sets its guard bit, which raises ExponentTooLarge;
- quotient: m - s, where s divides m;
- divisibility: s divides m iff ((m | G) - s) & G == G. Each field of
  m | G is 2^31 + e_i(m), so subtracting e_i(s) borrows from no other field
  and keeps the guard bit exactly when e_i(m) >= e_i(s);
- lcm: with d = (m | G) - s, the guard bits d keeps mark the fields where m
  is the larger; spread over their fields they select d's low bits,
  e_i(m) - e_i(s), which added to s give the maximum;
- coprimality: e_i + 2^31 - 1 sets the guard bit exactly when e_i > 0, so
  two monomials are coprime iff no field sets it in both.

Polynomials are maps from these ints to coefficients. A ring packs exponent
vectors where they enter (`PolynomialRing.pack`, and `poly`, `monomial`,
`binomial`, `one` and `var`, which build through it): a vector of the wrong
length or with a negative entry is refused with ValueError, one with an
entry above MAX_EXPONENT with ExponentTooLarge, each naming the vector.
`PolynomialRing.exponents` unpacks a monomial where it leaves (`str()` and
the command line's JSON). Everything between, `Polynomial.terms`,
`leading_term`, `leading_monomial`, `standard_monomials`, `mono_divides`,
`mono_degree` and `order.key`, takes and returns packed ints.

A coefficient is an `int` when it is integral and a `Fraction` otherwise,
and every division of coefficients is a `Fraction` division. One routine,
`_add_terms`, adds c * x^s * p into a term dict in place: it drops what
cancels and stores the rest through `_coef`. Sums, differences, products,
scalings, shifts, S-polynomials and division steps all run through it, so
each of them keeps that rule and the guard check, and none builds a
throwaway polynomial along the way. Every ideal the package completes is a
pure-difference binomial ideal, whose Buchberger steps keep every
coefficient at +-1 (Eisenbud and Sturmfels, "Binomial ideals", Duke Math. J.
84 (1996), Prop. 1.1), so its arithmetic stays on ints.

Every order is a `MonomialOrder(nvars, block)`: its first `block`
variables dominate, with grevlex inside each block. Block 0 is grevlex
(`grevlex(n)`), and `toric_kernel` eliminates t1, t2 with block 2
(`elimination_order(2, n)`). Each order compiles its key function once,
when it is built, and every key is one int. A grevlex key over n variables
is D * 2^(32n) - F, with D the degree and F the monomial itself: the packed
exponents, e_1 in the lowest field. Within a degree, -F orders as the tuple
(-e_n, ..., -e_1); across degrees, 0 <= F < 2^(32n) puts the key in
((D - 1) * 2^(32n), D * 2^(32n)], so it rises strictly with D. A block
order's key is (H << W) + T, with H and T the grevlex keys of the head
block and of the tail (F masked to the head, or shifted down past it), t
the size of the tail and W = 32t + 32 + bitlen(t): the tail's degree is
below 2^(32 + bitlen(t)), so 0 <= T < 2^W and the int orders as the pair
(H, T). A key refuses, with ValueError naming it, an int that is not a
monomial on the order's variables: a negative one, or one with a field
past them. So the pair scan, `leading_term` and `reduce` compare ints, and
the memo below hashes ints.

The key is memoised per order in a plain dict that fills on a miss and
empties itself at `_KEY_MEMO_BOUND` entries. Each order stores that dict's
bound `__getitem__` once, when it is built, and `order.key` returns the
stored method through a C-level getter, so reading it makes no new bound
method and `order.key(m)` and `min(..., key=order.key)` run no Python frame
on a memo hit; the property stays callable on the class,
`MonomialOrder.key(order, m)`, which is how the benchmark's tracer counts
key calls. Buchberger's pairs sit in a list sorted by (i, j), next to a
parallel list of the lcms of their leading monomials, and each scan takes
the first least lcm by `min(lcms, key=order.key)` at C level; keys are
injective, so that is the pair with the first least key. `leading_term`
finds the largest key in one loop over the terms.
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
from fractions import Fraction
from operator import attrgetter
from struct import Struct
from struct import error as StructError
from typing import Callable, Iterable, Optional, Sequence, Union

from ._record import FrozenRecord, set_field
from .errors import ExponentTooLarge, InfiniteDimension, NotHomogeneous
from .lattice import Vec2
from .semigroup import SemigroupFamily, Witnessed

# a packed exponent vector (see the module docstring)
Mono = int

# a coefficient: an int when integral, else a Fraction (see _coef)
Coef = Union[int, Fraction]

# an order key: one int
Key = int

# Bits per exponent field. The top bit of each is the guard, so the largest
# exponent a monomial holds is 2^31 - 1.
_WIDTH = 32
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1

# Entries per order in the key memo, which empties itself when it reaches
# this size; `order.key` is the memo's own lookup, so a hit costs one dict
# probe and a miss one compiled key. Orders in _DISPLAY_CACHE live as long as
# the process, so the memo is bounded; the largest one measured on the
# package's own workloads held 3,563 keys (analyze at k = 14).
_KEY_MEMO_BOUND = 2**14


# ---------------------------------------------------------------------------
# packed monomials


class _Layouts(dict):
    """n -> (the Struct of n little-endian 32-bit fields, their guard bits),
    built on first use."""

    def __missing__(self, n: int):
        ones = ((1 << (_WIDTH * n)) - 1) // ((1 << _WIDTH) - 1)  # 1 per field
        layout = self[n] = (Struct(f"<{n}I"), ones << (_WIDTH - 1))
        return layout


_LAYOUTS = _Layouts()


def _guard_for(m: int) -> int:
    """The guard bits of every field up to the highest set bit of m."""
    return _LAYOUTS[(m.bit_length() + _WIDTH - 1) // _WIDTH][1]


def _fields(m: int) -> tuple[int, ...]:
    """Every field of m up to its highest set bit, e_0 first."""
    n = (m.bit_length() + _WIDTH - 1) // _WIDTH
    return _LAYOUTS[n][0].unpack(m.to_bytes(4 * n, "little"))


def _lcm(m1: Mono, m2: Mono, guard: int) -> Mono:
    """The fieldwise maximum of m1 and m2, guard covering both."""
    d = (m1 | guard) - m2
    keep = d & guard  # the guard bit of every field where m1 >= m2
    return m2 + (d & (keep - (keep >> (_WIDTH - 1))))


def mono_divides(m1: Mono, m2: Mono) -> bool:
    guard = _guard_for(m1 | m2)
    return ((m2 | guard) - m1) & guard == guard


def mono_degree(m: Mono) -> int:
    return sum(_fields(m))


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
    acc: dict, terms: dict, shift: Mono = 0, c: Coef = 1, guard: int = 0
) -> dict:
    """acc += c * x^shift * terms, in place, and acc. A coefficient that
    cancels is dropped and every other one is stored by `_coef`. A nonzero
    shift takes the ring's guard bits, and a shifted monomial that sets one
    raises ExponentTooLarge."""
    for m, v in terms.items():
        if shift:
            m += shift
            if m & guard:
                raise ExponentTooLarge(
                    f"an exponent exceeds {MAX_EXPONENT} = 2^31 - 1, the largest "
                    "one a monomial holds"
                )
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
            _add_terms(acc, g.terms, m, c * v, f.ring._guard)
    return acc


# ---------------------------------------------------------------------------
# rings and polynomials


class PolynomialRing:
    """Q[names]; owns variable names, builds polynomials, and packs and
    unpacks their monomials."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self._layout, self._guard = _LAYOUTS[len(self.names)]

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

    def pack(self, exps) -> Mono:
        """The monomial with exponent vector exps, refused with ValueError
        unless it has one int entry >= 0 per variable, and with
        ExponentTooLarge for an entry above MAX_EXPONENT."""
        m = tuple(exps)
        if len(m) != len(self.names):
            raise ValueError(
                f"exponent vector {m} has length {len(m)}; the ring has "
                f"{self.nvars} variables"
            )
        try:
            packed = int.from_bytes(self._layout.pack(*m), "little")
        except StructError:
            packed = None  # an entry < 0, >= 2^32 or not an int
        if packed is None or packed & self._guard:
            if not all(isinstance(e, int) for e in m):
                raise ValueError(f"exponent vector {m} has an entry that is not an int")
            if min(m) < 0:
                raise ValueError(f"exponent vector {m} has a negative entry")
            raise ExponentTooLarge(
                f"exponent vector {m} has an entry above {MAX_EXPONENT} = "
                "2^31 - 1, the largest exponent a monomial holds"
            )
        return packed

    def exponents(self, m: Mono) -> tuple[int, ...]:
        """The exponent vector of the packed monomial m, variable 0 first."""
        try:
            return self._layout.unpack(m.to_bytes(4 * len(self.names), "little"))
        except OverflowError:
            raise ValueError(f"{m} is not a monomial of {self!r}") from None

    def monomial(self, exps, coeff=1) -> "Polynomial":
        m = self.pack(exps)
        c = _coef(coeff)
        return Polynomial(self, {m: c} if c else {})

    def poly(self, terms: dict) -> "Polynomial":
        """The polynomial with terms {exponent vector: coefficient}."""
        cleaned = {}
        for exps, c in terms.items():
            m = self.pack(exps)
            c = _coef(c)
            if c:
                cleaned[m] = c
        return Polynomial(self, cleaned)

    def binomial(self, plus, minus) -> "Polynomial":
        return self.poly({plus: 1, minus: -1})

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialRing) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"PolynomialRing({', '.join(self.names)})"


_DISPLAY_CACHE: dict[int, "MonomialOrder"] = {}


class Polynomial:
    """Immutable-by-convention Q-polynomial; do not mutate .terms, a map
    from packed monomials to coefficients."""

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
        return Polynomial(
            self.ring,
            _add_terms({}, self.terms, mono, c, self.ring._guard) if c else {},
        )

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
        for name, e in zip(self.ring.names, self.ring.exponents(m)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
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


def _compile_key(nvars: int, block: int) -> Callable[[Mono], Key]:
    """The key of `MonomialOrder(nvars, block)`, (H << W) + T as the module
    docstring derives it. An int that is not a monomial on nvars variables
    raises ValueError naming it."""
    unpack = _LAYOUTS[nvars][0].unpack
    size = 4 * nvars
    bits = _WIDTH * nvars
    head_bits = _WIDTH * block
    head_mask = (1 << head_bits) - 1
    tail_bits = bits - head_bits
    width = tail_bits + _WIDTH + (nvars - block).bit_length()

    def key(m: Mono) -> Key:
        if m < 0 or m >> bits:
            raise ValueError(f"{m} is not a monomial on {nvars} variables")
        exps = unpack(m.to_bytes(size, "little"))
        head = (sum(exps[:block]) << head_bits) - (m & head_mask)
        tail = (sum(exps[block:]) << tail_bits) - (m >> head_bits)
        return (head << width) + tail

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
    Python frame and yields the memo's bound `__getitem__`, stored on the
    order when it is built.

    It stays callable on the class as `MonomialOrder.key(order, m)`, the form
    in which the benchmark's tracer wraps it to count key calls (a count
    `perfbench/counts.json` pins). A Python `__get__` would run a frame on
    every attribute read instead.
    """

    def __call__(self, order: "MonomialOrder", m: Mono):
        return self.fget(order)(m)


class MonomialOrder(FrozenRecord):
    """The block order on `nvars` variables whose first `block` variables
    dominate, with grevlex inside each block (x_1 > x_2 > ..., total degree
    first, then the smaller exponent on the last variable wins ties): a
    monomial is compared first by its head block, then by its tail. Block 0
    is grevlex; a block b > 0 eliminates the first b variables.

    Every key is one int (the module docstring gives the encoding). The key
    function is compiled once, when the order is built, and memoised per
    order (at most _KEY_MEMO_BOUND monomials); the memo takes no part in
    equality or hashing. nvars < 0 or a block outside [0, nvars] raises
    ValueError when the order is built.
    """

    _fields = ("nvars", "block")

    def __init__(self, nvars: int, block: int = 0) -> None:
        if nvars < 0 or not 0 <= block <= nvars:
            raise ValueError(
                f"no order on {nvars} variables with block {block}: "
                "need nvars >= 0 and 0 <= block <= nvars"
            )
        set_field(self, "nvars", nvars)
        set_field(self, "block", block)
        memo = _KeyMemo(_compile_key(nvars, block))
        set_field(self, "_memo", memo)
        # the memo's bound __getitem__, fetched once so reading `key` makes none
        set_field(self, "_lookup", memo.__getitem__)

    # monomial -> its sort key, read from the memo
    key = _KeyProperty(attrgetter("_lookup"))


def grevlex(n: int) -> MonomialOrder:
    return MonomialOrder(n)


def elimination_order(n_elim: int, n_total: int) -> MonomialOrder:
    return MonomialOrder(n_total, n_elim)


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[Mono, Coef]:
    """The term of f with the largest key, the first such in term order.
    One pass with one `order.key` call per term, as `max(..., key=)` makes,
    without its keyword-argument overhead."""
    terms = f.terms
    if not terms:
        raise ValueError("zero polynomial has no leading term")
    key = order.key
    top = None
    for m in terms:
        k = key(m)
        if top is None or k > top:
            lead, top = m, k
    return lead, terms[lead]


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
    guard = f.ring._guard
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        high = m | guard
        for r in reducers:
            lm = r[0]
            if (high - lm) & guard == guard:
                tail = r[2]
                if tail is None:
                    tail = r[2] = _add_terms({}, r[3].terms, c=_inverse(r[1]))
                    del tail[lm]
                _add_terms(work, tail, m - lm, -c, guard)
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
    guard = f.ring._guard
    gamma = _lcm(lmf, lmg, guard)
    terms = _add_terms({}, f.terms, gamma - lmf, _inverse(lcf), guard)
    _add_terms(terms, g.terms, gamma - lmg, -_inverse(lcg), guard)
    return Polynomial(f.ring, terms)


class GroebnerBasis(FrozenRecord):
    _fields = ("order", "elements")

    def __init__(self, order: MonomialOrder, elements: tuple[Polynomial, ...]) -> None:
        set_field(self, "order", order)
        set_field(self, "elements", elements)

    @property
    def ring(self) -> PolynomialRing:
        return self.elements[0].ring if self.elements else None

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _sort_basis(G: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """G by descending leading monomial. Both callers pass a reduced basis,
    whose leading monomials are distinct, so the keys never tie."""
    return sorted(G, key=lambda g: order.key(leading_monomial(g, order)), reverse=True)


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
    guard = G[0].ring._guard if G else 0
    # the pairs (i, j) in lexicographic order, and in the parallel list the
    # lcm of each pair's leading monomials, computed once when it is made;
    # the first least key is then the smallest pair among equal keys
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    lcms = [_lcm(lms[i], lms[j], guard) for i, j in pairs]
    while pairs:
        # keys are injective, so the first least lcm has the first least key
        at = lcms.index(min(lcms, key=order.key))
        i, j = pairs.pop(at)
        # coprime leading monomials are those whose lcm is their product
        if lcms.pop(at) == lms[i] + lms[j]:
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
            lcms.insert(at, _lcm(lms[t], lms[new], guard))
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
    for e, deg in zip(_fields(m), grading):
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

    # the elements free of t1, t2, with those two fields shifted out
    t_fields = (1 << (2 * _WIDTH)) - 1
    kept = []
    for p in gb.elements:
        if not any(m & t_fields for m in p.terms):
            kept.append(
                Polynomial(xring, {m >> (2 * _WIDTH): c for m, c in p.terms.items()})
            )
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
    if 0 in lms:
        return []  # unit ideal
    # x_v's exponent field; m is a pure power of x_v iff m != 0 lies in it
    steps = [1 << (_WIDTH * v) for v in range(n)]
    for v, step in enumerate(steps):
        field_v = step * ((1 << _WIDTH) - 1)
        if not any(m & field_v == m for m in lms):
            raise InfiniteDimension(
                f"no pure power of {ring.names[v]} among the leading terms"
            )
    guard = ring._guard

    def is_standard(m: Mono) -> bool:
        high = m | guard
        return not any((high - lm) & guard == guard for lm in lms)

    # every exponent of a standard monomial stays below a pure power's, so
    # a step never passes MAX_EXPONENT
    seen = {0}
    queue = [0]
    out = []
    while queue:
        m = queue.pop()
        out.append(m)
        if cap is not None and len(out) > cap:
            raise ValueError(f"staircase exceeds the cap of {cap} monomials")
        for step in steps:
            m2 = m + step
            if m2 not in seen and is_standard(m2):
                seen.add(m2)
                queue.append(m2)
    return sorted(out, key=G.order.key)


def is_quadratic(G: GroebnerBasis) -> bool:
    """Every term of every basis element has standard degree exactly 2."""
    return all(
        all(mono_degree(m) == 2 for m in g.terms) for g in G.elements
    )
