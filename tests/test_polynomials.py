import itertools
import re
from fractions import Fraction

import pytest

from apsemigroups import (
    ExponentTooLarge,
    InfiniteDimension,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    Vec2,
    buchberger,
    build_family,
    elimination_order,
    family_grading,
    family_ring,
    generating_set,
    gluing_data,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    is_quadratic,
    is_s_homogeneous,
    leading_term,
    multidegree,
    reduce,
    s_polynomial,
    standard_monomials,
    toric_kernel,
    vanishes_under_degree_map,
)
from apsemigroups import polynomials
from conftest import property_settings, random_family, time_limit


def ring_k(k):
    return PolynomialRing([f"x{i}" for i in range(1, k + 2)])


def pair_mono(ring, i, j):
    exps = [0] * ring.nvars
    exps[i - 1] += 1
    exps[j - 1] += 1
    return tuple(exps)


def pack(m):
    """The packed monomial of the exponent tuple m by plain arithmetic,
    e_i * 2^(32i) summed: the tests' own way into the engine's layout."""
    return sum(e << (32 * i) for i, e in enumerate(m))


def tuple_terms(p):
    """p's terms keyed by exponent tuples, decoded with `ring.exponents`."""
    return {p.ring.exponents(m): c for m, c in p.terms.items()}


def compare(order, m1, m2):
    """-1, 0 or 1 as the exponent tuple m1 sorts below, with or above m2
    under order, read off the engine's keys."""
    k1, k2 = order.key(pack(m1)), order.key(pack(m2))
    return (k1 > k2) - (k1 < k2)


class TestOrders:
    def test_grevlex_middle_square_beats_outer_product(self):
        # 4 variables, x1 > x2 > x3 > x4
        order = grevlex(4)
        assert compare(order, (0, 2, 0, 0), (1, 0, 1, 0)) == 1

    def test_equal_monomials(self):
        order = grevlex(3)
        assert compare(order, (1, 2, 0), (1, 2, 0)) == 0

    def test_grevlex_classic_degree_two_chain(self):
        order = grevlex(3)
        chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        for hi, lo in zip(chain, chain[1:]):
            assert compare(order, hi, lo) == 1

    def test_one_is_minimal(self):
        order = grevlex(3)
        for m in [(1, 0, 0), (0, 0, 1), (2, 1, 0)]:
            assert compare(order, m, (0, 0, 0)) == 1

    def test_order_axioms(self, rng):
        # totality, compatibility with multiplication, 1 minimal: the three
        # properties every order in the package relies on
        n = 4
        orders = [grevlex(n)] + [elimination_order(b, n) for b in range(n + 1)]
        monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(40)]
        one = (0,) * n

        for order in orders:
            for m1 in monos:
                assert compare(order, m1, m1) == 0
                if m1 != one:
                    assert compare(order, m1, one) == 1
                for m2 in monos:
                    c = compare(order, m1, m2)
                    assert c == -compare(order, m2, m1)
                    if m1 != m2:
                        assert c != 0 or m1 == m2
                    for m in monos[:5]:
                        shifted = tuple(a + b for a, b in zip(m1, m))
                        shifted2 = tuple(a + b for a, b in zip(m2, m))
                        assert compare(order, shifted, shifted2) == c


def reference_key(order, m):
    """The key of the exponent tuple m under MonomialOrder(n, b) by plain
    Horner arithmetic, with B = 2^32: a block e_1, ..., e_r has the grevlex
    key D * B^r - F, D = e_1 + ... + e_r and F = e_1 + B * (e_2 + B * (...
    + B * e_r)); the order's key is H * 2^W + T, with H and T the keys of
    m[:b] and m[b:] and W = 32t + 32 + bitlen(t) for t = n - b."""
    base = 2**32

    def grevlex_key(exps):
        fields = 0
        for e in reversed(exps):
            fields = fields * base + e
        return sum(exps) * base ** len(exps) - fields

    b, t = order.block, order.nvars - order.block
    width = 32 * t + 32 + t.bit_length()
    return grevlex_key(m[:b]) * 2**width + grevlex_key(m[b:])


def nested_reference_key(order, m):
    """The nested key formula the flat one replaced: the pair of the two
    blocks' grevlex keys, each (degree, negated exponents as an inner tuple,
    last variable first). The flat key must sort exactly as this one does."""

    def grevlex_key(exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    return (grevlex_key(m[: order.block]), grevlex_key(m[order.block :]))


def reference_lead(terms, order):
    """The leading exponent tuple of a tuple-keyed term dict and its
    coefficient, by the nested key, which sorts as the order does."""
    m = max(terms, key=lambda m: nested_reference_key(order, m))
    return m, terms[m]


def reference_reduce(f, G, order):
    """Division as the textbook step on exponent tuples: each step divides
    by the reducer's leading coefficient and subtracts every term of the
    shifted reducer, the leading one included. The oracle for `reduce`."""
    reducers = [
        (terms, *reference_lead(terms, order))
        for terms in map(tuple_terms, G)
        if terms
    ]
    work = tuple_terms(f)
    remainder = {}
    while work:
        m, c = reference_lead(work, order)
        for terms, lm, lc in reducers:
            if all(a <= b for a, b in zip(lm, m)):
                shift = tuple(b - a for a, b in zip(lm, m))
                factor = Fraction(c) / lc
                for gm, gc in terms.items():
                    mm = tuple(a + b for a, b in zip(gm, shift))
                    nc = work.get(mm, Fraction(0)) - factor * gc
                    if nc:
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return f.ring.poly(remainder)


def reference_s_polynomial(f, g, order):
    """(lcm / lt(f)) * f - (lcm / lt(g)) * g on exponent tuples, both scaled
    by Fractions. The oracle for `s_polynomial`."""
    out = {}
    lms = [reference_lead(tuple_terms(p), order)[0] for p in (f, g)]
    gamma = tuple(map(max, *lms))
    for p, lm, sign in ((f, lms[0], 1), (g, lms[1], -1)):
        terms = tuple_terms(p)
        scale = Fraction(sign) / terms[lm]
        for m, c in terms.items():
            mm = tuple(a + b - e for a, b, e in zip(m, gamma, lm))
            out[mm] = out.get(mm, Fraction(0)) + scale * c
    return f.ring.poly(out)


def reference_sum(f, g, sign=1):
    """f + sign * g by naive dict arithmetic on Fractions. The oracle for
    `+` and `-`."""
    out = {m: Fraction(c) for m, c in f.terms.items()}
    for m, c in g.terms.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return Polynomial(f.ring, {m: c for m, c in out.items() if c})


def reference_product(f, g):
    """f * g by naive dict arithmetic on exponent tuples and Fractions. The
    oracle for `*`."""
    out = {}
    for (m1, c1), (m2, c2) in itertools.product(
        tuple_terms(f).items(), tuple_terms(g).items()
    ):
        m = tuple(a + b for a, b in zip(m1, m2))
        out[m] = out.get(m, Fraction(0)) + Fraction(c1) * c2
    return f.ring.poly(out)


def reference_buchberger(gens, order):
    """Buchberger's completion with the pairs in a dict (pair -> lcm of the
    leading exponent tuples) and the next pair taken as the least (key,
    pair), by the nested key: the S-pair order `buchberger` must keep. It
    calls `polynomials.s_polynomial` through the module, so a spy patched
    there sees its pairs too."""
    G = [polynomials.monic(g, order) for g in gens if not g.is_zero()]
    lms = [reference_lead(tuple_terms(g), order)[0] for g in G]

    def lcm(u, v):
        return tuple(map(max, u, v))

    pairs = {
        (i, j): lcm(lms[i], lms[j])
        for i in range(len(G))
        for j in range(i + 1, len(G))
    }
    while pairs:
        _, (i, j) = min(
            (nested_reference_key(order, m), pair) for pair, m in pairs.items()
        )
        del pairs[i, j]
        if not any(map(min, lms[i], lms[j])):  # coprime
            continue
        r = reduce(polynomials.s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        G.append(polynomials.monic(r, order))
        lms.append(reference_lead(tuple_terms(r), order)[0])
        new = len(G) - 1
        pairs.update(((t, new), lcm(lms[t], lms[new])) for t in range(new))
    return GroebnerBasis(order, tuple(polynomials._interreduce(G, order)))


class TestCompiledKeys:
    N = 5

    def monomials(self, rng):
        return [tuple(rng.randint(0, 6) for _ in range(self.N)) for _ in range(30)]

    def orders(self, n=N):
        """grevlex(n) and the elimination order of every block size."""
        return [grevlex(n)] + [elimination_order(b, n) for b in range(n + 1)]

    @pytest.mark.parametrize("nvars", [0, 1, 2, N])
    def test_keys_match_reference_on_every_size(self, rng, nvars):
        for order in self.orders(nvars):
            for _ in range(30):
                m = tuple(rng.randint(0, 6) for _ in range(nvars))
                assert order.key(pack(m)) == reference_key(order, m)

    @pytest.mark.parametrize("block", range(N + 1))
    def test_elimination_blocks_match_reference(self, rng, block):
        order = elimination_order(block, self.N)
        for m in self.monomials(rng):
            assert order.key(pack(m)) == reference_key(order, m)

    def test_flat_keys_sort_as_the_nested_keys(self, rng):
        # every pair of sampled monomials, at every block
        monos = self.monomials(rng)
        for order in self.orders():
            for m1, m2 in itertools.product(monos, repeat=2):
                k1, k2 = order.key(pack(m1)), order.key(pack(m2))
                flat = (k1 > k2) - (k1 < k2)
                n1, n2 = (nested_reference_key(order, m) for m in (m1, m2))
                assert flat == (n1 > n2) - (n1 < n2)

    # exponents at byte and 16-bit boundaries and at the limit, 2^31 - 1
    WIDTH_DEGREES = [0, 255, 256, 65535, 65536, 2**31 - 2, 2**31 - 1]

    def width_monomials(self):
        """Pure powers and an even spread at each degree above, every
        exponent at the limit (a degree past one 32-bit field), and one
        monomial for every pair of those degrees on the first and last
        variables, so elimination blocks sit at different degrees."""
        n = self.N
        out = {(polynomials.MAX_EXPONENT,) * n}
        for d in self.WIDTH_DEGREES:
            out.update(tuple(d * (j == i) for j in range(n)) for i in range(n))
            q, r = divmod(d, n)
            out.add(tuple(q + (j < r) for j in range(n)))
        for d1, d2 in itertools.product(self.WIDTH_DEGREES, repeat=2):
            out.add((d1,) + (0,) * (n - 2) + (d2,))
        return sorted(out)

    def test_keys_across_field_widths(self):
        monos = self.width_monomials()
        for order in self.orders():
            keys = {m: order.key(pack(m)) for m in monos}
            for m in monos:
                assert keys[m] == reference_key(order, m)
            for m1, m2 in itertools.product(monos, repeat=2):
                k1, k2 = keys[m1], keys[m2]
                n1, n2 = (nested_reference_key(order, m) for m in (m1, m2))
                assert (k1 > k2) - (k1 < k2) == (n1 > n2) - (n1 < n2)

    # a negative exponent on the last variables (the tail block of
    # elimination_order(2, 5)), small and large, beside large positive ones
    @pytest.mark.parametrize(
        "m",
        [
            (1, 0, -1, 2, 0),
            (0, 0, -100, 300, 0),
            (0, 0, -1, 0, 300),
            (0, 0, -(2**20), 2**20 + 300, 0),
        ],
    )
    def test_negative_exponent_is_refused(self, m):
        # no packed monomial holds a negative exponent: the ring refuses the
        # vector where it enters, and every order's key refuses a negative int
        ring = PolynomialRing([f"x{i}" for i in range(self.N)])
        message = f"exponent vector {re.escape(str(m))} has a negative entry"
        with pytest.raises(ValueError, match=message):
            ring.pack(m)
        negative = -pack([abs(e) for e in m])
        for order in self.orders():
            with pytest.raises(
                ValueError, match=f"{negative} is not a monomial on 5 variables"
            ):
                order.key(negative)
            assert negative not in order._memo

    def test_monomial_wider_than_the_order_is_refused(self):
        # z, 1 and z^5 of a three-variable ring under a two-variable order:
        # z and z^5 have a field past the order's variables
        ring = PolynomialRing(["x", "y", "z"])
        x, y, z = (ring.var(i) for i in range(3))
        order = grevlex(2)
        assert order.key(0) == 0
        message = "is not a monomial on 2 variables"
        for m in ((0, 0, 1), (0, 0, 5), (1, 2, 1)):
            with pytest.raises(ValueError, match=f"^{pack(m)} {message}$"):
                order.key(pack(m))
            assert pack(m) not in order._memo
        with pytest.raises(ValueError, match=message):
            leading_term(z + ring.one(), order)
        with pytest.raises(ValueError, match=message):
            buchberger([x - z, y - z * z], order)
        # the same ideal under an order on all three variables
        gb = buchberger([x - z, y - z * z], grevlex(3))
        assert [str(g) for g in gb] == ["z^2 - y", "x - z"]

    def test_bad_order_is_refused_when_built(self):
        cases = [
            (lambda: grevlex(-2), -2, 0),
            (lambda: elimination_order(5, 3), 3, 5),
            (lambda: elimination_order(-1, 3), 3, -1),
            (lambda: MonomialOrder(2, 3), 2, 3),
            (lambda: MonomialOrder(-1, -1), -1, -1),
        ]
        for build, nvars, block in cases:
            message = f"no order on {nvars} variables with block {block}: "
            with pytest.raises(ValueError, match=message):
                build()

    def test_equality_and_hash_ignore_the_compiled_key(self):
        # one side's key memo is warm, the other's empty
        warm = grevlex(4)
        for m in itertools.product(range(3), repeat=4):
            warm.key(pack(m))
        assert len(warm._memo) == 81
        assert warm == grevlex(4) == MonomialOrder(4) == elimination_order(0, 4)
        assert hash(warm) == hash(grevlex(4))
        assert grevlex(4) != elimination_order(2, 4)
        assert grevlex(4) != grevlex(3)

    def test_warm_memo_gives_the_reference_key(self, rng):
        for order in self.orders():
            monos = self.monomials(rng)
            for _ in range(2):  # the second pass reads every key from the memo
                for m in monos:
                    assert order.key(pack(m)) == reference_key(order, m)

    def test_evicted_keys_are_recomputed_exactly(self, rng):
        bound = polynomials._KEY_MEMO_BOUND
        monos = list(itertools.product(range(8), repeat=self.N))[: bound + 1000]
        for order in self.orders():
            for m in monos:
                assert order.key(pack(m)) == reference_key(order, m)
                assert len(order._memo) <= bound
            # the first monomials were evicted; they come back exact
            assert pack(monos[0]) not in order._memo
            for m in monos[:50]:
                assert order.key(pack(m)) == reference_key(order, m)

    def test_key_is_looked_up_on_the_class(self):
        # instrumentation replaces MonomialOrder.key; an instance attribute
        # would shadow it
        assert "key" not in vars(grevlex(3))

    def test_key_is_callable_on_the_class(self, rng):
        for order in self.orders():
            for m in self.monomials(rng):
                assert (
                    MonomialOrder.key(order, pack(m))
                    == order.key(pack(m))
                    == reference_key(order, m)
                )

    def test_a_counter_on_the_class_sees_every_key_call(
        self, monkeypatch, example_one
    ):
        # a plain counting function over MonomialOrder.key, as the benchmark's
        # tracer installs it; the numbers are those of the method-based key
        original = MonomialOrder.__dict__["key"]
        calls = 0

        def key(order, m):
            nonlocal calls
            calls += 1
            return original(order, m)

        monkeypatch.setattr(MonomialOrder, "key", key)
        buchberger(list(generating_set(4).G), grevlex(5))
        assert calls == 444
        calls = 0
        toric_kernel(example_one)
        assert calls == 18528


def _orders(st, n):
    """grevlex(n) or the elimination order of any block size b in 0..n
    (block 0 is grevlex itself)."""
    return st.sampled_from(
        [grevlex(n)] + [elimination_order(b, n) for b in range(n + 1)]
    )


def _monomials(st, n, top):
    return st.tuples(*[st.integers(0, top)] * n)


class TestOrderProperties:
    def test_total_multiplicative_with_one_minimal(self, hypothesis):
        st = hypothesis.strategies

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 5))
            order = data.draw(_orders(st, n))
            # small exponents, mid ones, and ones so near the limit 2^31 - 1
            # that a degree passes one 32-bit field (a shift by m, at most
            # 70_000 per entry, stays within the limit)
            top = polynomials.MAX_EXPONENT - 70_000
            exps = st.one_of(
                st.integers(0, 6), st.integers(250, 70_000), st.integers(top - 2**20, top)
            )
            monos = st.tuples(*[exps] * n)
            m1, m2, m3, m = (data.draw(monos) for _ in range(4))
            one = (0,) * n

            def cmp(u, v):
                return compare(order, u, v)

            c = cmp(m1, m2)
            # total, antisymmetric and transitive
            assert (c == 0) == (m1 == m2)
            assert cmp(m2, m1) == -c
            if c <= 0 and cmp(m2, m3) <= 0:
                assert cmp(m1, m3) <= 0
            # multiplicative, with 1 the minimum
            s1, s2 = (tuple(a + b for a, b in zip(u, m)) for u in (m1, m2))
            assert cmp(s1, s2) == c
            assert cmp(m1, one) == (m1 != one)
            # the key sorts as the nested tuple key does
            n1, n2 = (nested_reference_key(order, u) for u in (m1, m2))
            assert c == (n1 > n2) - (n1 < n2)

        check()


class TestReduceProperties:
    def test_remainder_is_reduced_and_stable(self, hypothesis):
        st = hypothesis.strategies

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            k = data.draw(st.integers(2, 4))
            ring = ring_k(k)
            order = data.draw(_orders(st, k + 1))
            coefficients = st.integers(-4, 4).filter(bool)
            polys = st.dictionaries(
                _monomials(st, k + 1, 3), coefficients, min_size=1, max_size=5
            ).map(ring.poly)
            # the closed-form basis, or arbitrary nonzero polynomials
            G = data.draw(
                st.one_of(
                    st.just(list(generating_set(k, ring).G)),
                    st.lists(polys, min_size=1, max_size=3),
                )
            )
            f = data.draw(polys)
            r = reduce(f, G, order)
            lts = [ring.exponents(leading_term(g, order)[0]) for g in G]
            for m in tuple_terms(r):
                assert not any(all(a <= b for a, b in zip(lt, m)) for lt in lts)
            assert reduce(r, G, order) == r

        check()


class TestEngineMatchesReference:
    """`reduce` and `s_polynomial` against the textbook steps above, on
    non-monic reducers with non-integral coefficients, reducers that share a
    leading monomial (so the first match in list order must win), and zero
    polynomials among the reducers."""

    def test_reduce_and_s_polynomial_match_reference(self, hypothesis):
        st = hypothesis.strategies
        n = 4
        ring = PolynomialRing(["x", "y", "z", "w"])
        coefficients = st.builds(
            Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)
        )
        polys = st.dictionaries(
            _monomials(st, n, 3), coefficients, min_size=1, max_size=5
        ).map(ring.poly)

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            order = data.draw(_orders(st, n))
            G = data.draw(st.lists(polys, min_size=1, max_size=4))
            # a rival with the same leading monomial and a different tail
            lm = leading_term(G[0], order)[0]
            below = {
                ring.exponents(m): c
                for m, c in data.draw(polys).terms.items()
                if order.key(m) < order.key(lm)
            }
            rival = ring.poly({**below, ring.exponents(lm): data.draw(coefficients)})
            G.insert(data.draw(st.integers(0, len(G))), rival)
            for _ in range(data.draw(st.integers(0, 2))):
                G.insert(data.draw(st.integers(0, len(G))), ring.zero())
            # f: arbitrary, or a combination of G plus noise
            f = data.draw(polys)
            for g in data.draw(st.lists(st.sampled_from(G), max_size=3)):
                shift = pack(data.draw(_monomials(st, n, 2)))
                f = f + g.mul_monomial(shift, data.draw(coefficients))
            assert reduce(f, G, order) == reference_reduce(f, G, order)
            nonzero = [g for g in G if not g.is_zero()]
            for g in nonzero:
                largest = max(
                    g.terms.items(),
                    key=lambda t: reference_key(order, ring.exponents(t[0])),
                )
                assert leading_term(g, order) == largest
            for g1, g2 in itertools.combinations(nonzero, 2):
                assert s_polynomial(g1, g2, order) == reference_s_polynomial(
                    g1, g2, order
                )

        check()

    def test_sum_difference_product_match_reference(self, hypothesis):
        st = hypothesis.strategies
        ring = PolynomialRing(["x", "y", "z"])
        coefficients = st.builds(
            Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)
        )
        polys = st.one_of(
            st.just(ring.zero()),
            st.dictionaries(
                _monomials(st, 3, 2), coefficients, min_size=1, max_size=5
            ).map(ring.poly),
        )

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            f, g = data.draw(polys), data.draw(polys)
            # g shares terms with f, so sums and products can cancel
            g = g + f.scale(data.draw(coefficients))
            for a, b in ((f, g), (g, f), (f, f)):
                assert a + b == reference_sum(a, b)
                assert a - b == reference_sum(a, b, -1)
                assert a * b == reference_product(a, b)
            assert (f - f).is_zero()

        check()


def _only_exact_coefficients(*polys):
    """Every coefficient is an int when integral and a non-integral Fraction
    otherwise: never a float, which `int / int` would give, and never an
    integral Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for p in polys
        for c in p.terms.values()
    )


class TestCoefficientTypes:
    """Coefficients are ints where integral and Fractions otherwise, and no
    operation turns one into a float."""

    def test_no_operation_yields_a_float(self, hypothesis):
        st = hypothesis.strategies
        n = 3
        ring = PolynomialRing(["x", "y", "z"])
        # ints and non-integral Fractions, mixed within one polynomial
        coefficients = st.one_of(
            st.integers(-6, 6).filter(bool),
            st.builds(Fraction, st.integers(-6, 6), st.integers(2, 4)).filter(
                lambda c: c.denominator != 1
            ),
        )
        polys = st.dictionaries(
            _monomials(st, n, 2), coefficients, min_size=1, max_size=3
        ).map(ring.poly)

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            order = data.draw(_orders(st, n))
            f, g, h = (data.draw(polys) for _ in range(3))
            c = data.draw(coefficients)
            shift = pack(data.draw(_monomials(st, n, 2)))
            assert _only_exact_coefficients(
                reduce(f, [g, h], order),
                s_polynomial(f, g, order),
                polynomials.monic(f, order),
                f.scale(c),
                f.mul_monomial(shift, c),
                f + g,
                f - g,
                f * g,
                *buchberger([g, h], order),
            )
            # a float quotient would also show as an inexact value: a lead
            # that is not exactly 1, leading terms that fail to cancel
            assert leading_term(polynomials.monic(f, order), order)[1] == 1
            gamma = tuple(
                map(max, *(ring.exponents(leading_term(p, order)[0]) for p in (f, g)))
            )
            assert gamma not in tuple_terms(s_polynomial(f, g, order))

        check()
        # a sum and a product whose integral coefficients come from
        # non-integral ones
        x, y = ring.var(0), ring.var(1)
        half = x.scale(Fraction(1, 2))
        p = (x * x).scale(Fraction(1, 3)) + (y * y).scale(Fraction(2, 3))
        q = (x * y).scale(3) + (y * y).scale(Fraction(1, 3))
        assert _only_exact_coefficients(half + (half + y), p * q)

    def test_toric_relations_complete_on_ints(self, example_two, monkeypatch):
        # toric_kernel completes x_i - t^(g_i), a pure-difference binomial
        # ideal, so every coefficient of that basis is an int (+-1)
        bases = []

        def spy(gens, order):
            bases.append(buchberger(gens, order))
            return bases[-1]

        monkeypatch.setattr(polynomials, "buchberger", spy)
        toric_kernel(example_two)
        (gb,) = bases
        assert len(gb) > len(example_two.all_generators)
        assert all(
            type(c) is int and c in (1, -1) for g in gb for c in g.terms.values()
        )

    def test_integral_fraction_is_stored_as_its_int(self):
        ring = PolynomialRing(["x", "y"])
        m = (1, 2)
        p = ring.poly({m: Fraction(2)})
        assert p == ring.poly({m: 2})
        assert hash(p) == hash(ring.poly({m: 2}))
        assert type(p.terms[pack(m)]) is int
        assert type(ring.monomial(m, Fraction(6, 3)).terms[pack(m)]) is int
        assert type(ring.poly({m: Fraction(1, 2)}).terms[pack(m)]) is Fraction


class TestExponentVectors:
    """A ring refuses an exponent vector of the wrong length or with a
    negative entry where it enters, naming it, so no order key or `str()`
    ever meets one."""

    ring = PolynomialRing(["x", "y"])

    @pytest.mark.parametrize(
        "m, message",
        [
            ((1, 2, 3), r"exponent vector \(1, 2, 3\) has length 3; the ring has 2"),
            ((1,), r"exponent vector \(1,\) has length 1; the ring has 2"),
            ((-1, 2), r"exponent vector \(-1, 2\) has a negative entry"),
            ((0, -5), r"exponent vector \(0, -5\) has a negative entry"),
        ],
    )
    def test_bad_vector_is_refused_by_every_builder(self, m, message):
        ring = self.ring
        builders = [
            lambda: ring.pack(m),
            lambda: ring.poly({m: 1}),
            lambda: ring.poly({(0, 1): 1, m: 0}),  # refused with coefficient 0 too
            lambda: ring.monomial(m),
            lambda: ring.monomial(m, 0),
            lambda: ring.binomial(m, (0, 1)),
            lambda: ring.binomial((0, 1), m),
        ]
        for build in builders:
            with pytest.raises(ValueError, match=message):
                build()

    def test_good_vectors_are_stored_packed(self):
        ring = self.ring
        p = ring.poly({(1, 2): 1, (0, 0): 0, (3, 0): -2})
        assert p.terms == {pack((1, 2)): 1, pack((3, 0)): -2}
        assert tuple_terms(p) == {(1, 2): 1, (3, 0): -2}
        assert str(p) == "-2*x^3 + x*y^2"
        assert ring.monomial([2, 1]).terms == {pack((2, 1)): 1}
        assert ring.one().terms == {0: 1}
        assert ring.var(1).terms == {pack((0, 1)): 1}
        assert PolynomialRing([]).one().terms == {0: 1}
        assert PolynomialRing([]).exponents(0) == ()


class TestSPolynomial:
    def test_self_pair_vanishes(self):
        ring = ring_k(3)
        f = ring.binomial(pair_mono(ring, 2, 2), pair_mono(ring, 1, 3))
        order = grevlex(4)
        assert s_polynomial(f, f, order).is_zero()

    def test_hand_expanded_pair(self):
        ring = ring_k(3)
        order = grevlex(4)
        f = ring.binomial(pair_mono(ring, 2, 2), pair_mono(ring, 1, 3))
        g = ring.binomial(pair_mono(ring, 2, 3), pair_mono(ring, 1, 4))
        # x3*f - x2*g = -x1*(x3^2 - x2*x4), expanded by hand
        expected = ring.poly({(1, 0, 2, 0): -1, (1, 1, 0, 1): 1})
        assert s_polynomial(f, g, order) == expected

    def test_coprime_leading_terms_reduce_to_zero(self):
        k = 5
        G = list(generating_set(k).G)
        order = grevlex(k + 1)
        squares = [pack(pair_mono(ring_k(k), i, i)) for i in (2, 3)]
        f = next(g for g in G if leading_term(g, order)[0] == squares[0])
        g = next(g for g in G if leading_term(g, order)[0] == squares[1])
        assert reduce(s_polynomial(f, g, order), G, order).is_zero()


class TestReduce:
    def test_member_of_ideal_reduces_to_zero(self):
        k = 4
        G = list(generating_set(k).G)
        order = grevlex(k + 1)
        ring = G[0].ring
        combo = G[0] * ring.var(3) - 5 * G[2] * G[4] + G[5]
        assert reduce(combo, G, order).is_zero()

    def test_unit_is_already_reduced(self):
        k = 3
        G = list(generating_set(k).G)
        ring = G[0].ring
        one = ring.one()
        assert reduce(one, G, grevlex(4)) == one

    def test_all_pairs_for_k6_reduce_to_zero(self):
        G = list(generating_set(6).G)
        order = grevlex(7)
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                assert reduce(s_polynomial(G[i], G[j], order), G, order).is_zero()

    def test_remainder_has_no_divisible_terms(self, rng):
        k = 3
        G = list(generating_set(k).G)
        order = grevlex(k + 1)
        ring = G[0].ring
        lts = [ring.exponents(leading_term(g, order)[0]) for g in G]
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                mono = tuple(rng.randint(0, 3) for _ in range(k + 1))
                terms[mono] = rng.randint(-4, 4)
            r = reduce(ring.poly(terms), G, order)
            for m in tuple_terms(r):
                assert not any(
                    all(a <= b for a, b in zip(lt, m)) for lt in lts
                )


class TestBuchberger:
    def test_generating_sets_are_already_reduced(self):
        for k in range(2, 9):
            G = list(generating_set(k).G)
            order = grevlex(k + 1)
            out = buchberger(G, order)
            assert set(out.elements) == set(G)

    def test_single_binomial_k2(self):
        G = list(generating_set(2).G)
        out = buchberger(G, grevlex(3))
        assert list(out.elements) == G

    def test_linear_lex_example(self):
        # on linear forms grevlex with x > y > z orders the variables as lex
        # does, so the basis is the lex one
        ring = PolynomialRing(["x", "y", "z"])
        order = grevlex(3)
        f = ring.poly({(1, 0, 0): 1, (0, 1, 0): -1})  # x - y
        g = ring.poly({(0, 1, 0): 1, (0, 0, 1): -1})  # y - z
        out = buchberger([f, g], order)
        expected = {
            ring.poly({(1, 0, 0): 1, (0, 0, 1): -1}),
            ring.poly({(0, 1, 0): 1, (0, 0, 1): -1}),
        }
        assert set(out.elements) == expected

    def test_equal_keys_are_taken_in_pair_order(self, monkeypatch):
        # every pair below has lcm xy, so the pair indices alone decide; the
        # S-pair (0, 2) adds x as element 3, and (0, 3) then precedes the
        # older pair (1, 2). (1, 3) has coprime leading terms and is skipped.
        ring = PolynomialRing(["x", "y", "z"])
        xy, y, x = (ring.monomial(m) for m in [(1, 1, 0), (0, 1, 0), (1, 0, 0)])
        taken = []
        original = polynomials.s_polynomial

        def spy(f, g, o):
            taken.append((str(f), str(g)))
            return original(f, g, o)

        monkeypatch.setattr(polynomials, "s_polynomial", spy)
        out = buchberger([xy, y, xy - x], grevlex(3))
        assert taken == [
            ("x*y", "y"),
            ("x*y", "x*y - x"),
            ("x*y", "x"),
            ("y", "x*y - x"),
            ("x*y - x", "x"),
        ]
        assert set(out.elements) == {x, y}

    def test_pair_order_and_basis_match_reference(self, hypothesis, monkeypatch):
        # random inputs whose completion adds elements, so new pairs are
        # inserted among the old ones; the S-pair sequence and the basis
        # must be those of the dict-and-zip loop
        st = hypothesis.strategies
        n = 3
        ring = PolynomialRing(["x", "y", "z"])
        coefficients = st.sampled_from([-2, -1, 1, 3])
        polys = st.dictionaries(
            _monomials(st, n, 2), coefficients, min_size=1, max_size=3
        ).map(ring.poly)
        taken = []
        original = polynomials.s_polynomial

        def spy(f, g, o):
            taken.append((f, g))
            return original(f, g, o)

        monkeypatch.setattr(polynomials, "s_polynomial", spy)
        grew = []

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            order = data.draw(_orders(st, n))
            gens = data.draw(st.lists(polys, min_size=2, max_size=4))
            taken.clear()
            expected = reference_buchberger(gens, order)
            expected_pairs = list(taken)
            taken.clear()
            out = buchberger(gens, order)
            assert taken == expected_pairs
            assert out.elements == expected.elements
            inputs = {polynomials.monic(g, order) for g in gens if not g.is_zero()}
            grew.append(any(h not in inputs for pair in taken for h in pair))

        check()
        # 58 of the 150 examples add elements; insertion must not go untested
        assert sum(grew) >= 30

    @pytest.mark.parametrize("scale", [100, 2**20])
    def test_high_degree_pair_order_and_basis_match_reference(
        self, monkeypatch, scale
    ):
        # binomials of degree >= 300, and at scale 2^20 exponents past three
        # million, so no field fits a byte or 16 bits; x_i -> x_i^scale
        # keeps both orders, so the basis is the scaled one
        ring = PolynomialRing(["x", "y", "z"])
        small = [
            ((3, 0, 0), (1, 1, 1)),
            ((0, 2, 1), (2, 0, 1)),
            ((1, 2, 0), (0, 0, 3)),
        ]

        def binomials(c):
            return [
                ring.binomial(tuple(c * e for e in u), tuple(c * e for e in v))
                for u, v in small
            ]

        taken = []
        original = polynomials.s_polynomial

        def spy(f, g, o):
            taken.append((f, g))
            return original(f, g, o)

        monkeypatch.setattr(polynomials, "s_polynomial", spy)
        for order in (grevlex(3), elimination_order(1, 3)):
            taken.clear()
            expected = reference_buchberger(binomials(scale), order)
            expected_pairs = list(taken)
            taken.clear()
            out = buchberger(binomials(scale), order)
            assert taken == expected_pairs
            assert out.elements == expected.elements
            assert len(out) > len(small)
            scaled = [
                ring.poly({tuple(scale * e for e in m): c for m, c in tuple_terms(g).items()})
                for g in buchberger(binomials(1), order)
            ]
            assert list(out.elements) == scaled

    def test_idempotent_and_verified(self, rng):
        ring = PolynomialRing(["x", "y", "z"])
        order = grevlex(3)
        for _ in range(10):
            gens = []
            for _ in range(3):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    mono = tuple(rng.randint(0, 2) for _ in range(3))
                    terms[mono] = rng.randint(-3, 3)
                p = ring.poly(terms)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            gb = buchberger(gens, order)
            assert is_groebner_basis(list(gb.elements), order).holds
            again = buchberger(list(gb.elements), order)
            assert set(again.elements) == set(gb.elements)


class TestIsGroebnerBasis:
    def test_generating_sets_pass(self):
        for k in range(2, 9):
            G = list(generating_set(k).G)
            assert is_groebner_basis(G, grevlex(k + 1)).holds

    def test_missing_square_element_fails(self):
        # dropping x2^2 - x1*x3 from the k=3 set leaves a non-basis: the
        # remaining pair has the S-polynomial x4*(x2^2 - x1*x3) which does
        # not reduce, so completion must add an element
        ring = ring_k(3)
        order = grevlex(4)
        partial = [
            ring.binomial(pair_mono(ring, 2, 3), pair_mono(ring, 1, 4)),
            ring.binomial(pair_mono(ring, 3, 3), pair_mono(ring, 2, 4)),
        ]
        verdict = is_groebner_basis(partial, order)
        assert not verdict.holds
        completed = buchberger(partial, order)
        assert len(completed.elements) > len(partial)

    def test_dropping_middle_element_keeps_basis_property(self):
        # the two squares have coprime leading terms, so they form a basis
        # of the (strictly smaller) ideal they generate
        ring = ring_k(3)
        order = grevlex(4)
        partial = [
            ring.binomial(pair_mono(ring, 2, 2), pair_mono(ring, 1, 3)),
            ring.binomial(pair_mono(ring, 3, 3), pair_mono(ring, 2, 4)),
        ]
        assert is_groebner_basis(partial, order).holds

    def test_singleton(self):
        ring = ring_k(3)
        f = ring.binomial(pair_mono(ring, 2, 2), pair_mono(ring, 1, 3))
        assert is_groebner_basis([f], grevlex(4)).holds


class TestLeadingTermShape:
    def test_leading_terms_are_middle_products(self):
        # every leading term only involves x_2 .. x_k, never x_1 or x_{k+1}
        for k in range(2, 9):
            order = grevlex(k + 1)
            for g in generating_set(k).G:
                lt, coeff = leading_term(g, order)
                lt = g.ring.exponents(lt)
                assert coeff == 1
                assert lt[0] == 0 and lt[-1] == 0
                assert sum(lt) == 2


class TestToricKernel:
    def test_showcase_equals_closed_form(self, example_one):
        ker = toric_kernel(example_one)
        G = list(generating_set(3, family_ring(example_one)).G)
        assert ideal_equal(ker, G)

    def test_k2_principal(self, rng):
        f = random_family(rng, 2)
        ker = toric_kernel(f)
        assert len(ker.elements) == 1
        G = list(generating_set(2, family_ring(f)).G)
        assert ideal_equal(ker, G)

    def test_extended_showcase(self, example_two):
        ker = toric_kernel(example_two)
        ring = family_ring(example_two)
        gens = list(generating_set(3, ring).G)
        gens.append(gluing_data(example_two).extra_generator)
        assert ideal_equal(ker, gens)

    def test_output_is_s_homogeneous(self, rng):
        f = random_family(rng, 3, max_coord=4)
        grading = family_grading(f)
        for p in toric_kernel(f).elements:
            assert is_s_homogeneous(p, grading)
            assert vanishes_under_degree_map(p, grading)

    def test_random_families_match_closed_form(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k, max_coord=4)
            ker = toric_kernel(f)
            G = list(generating_set(k, family_ring(f)).G)
            assert ideal_equal(ker, G)


class TestIdealEqual:
    def test_different_powers_differ(self):
        ring = PolynomialRing(["x"])
        order = grevlex(1)
        gx = GroebnerBasis(order, (ring.poly({(1,): 1}),))
        assert not ideal_equal(gx, [ring.poly({(2,): 1})])

    def test_self_equality(self):
        k = 3
        G = list(generating_set(k).G)
        gb = buchberger(G, grevlex(k + 1))
        assert ideal_equal(gb, G)


class TestStandardMonomials:
    def test_base_staircase_is_one_and_singletons(self):
        for k in (2, 3, 4, 5):
            G = list(generating_set(k).G)
            ring = G[0].ring
            order = grevlex(k + 1)
            gb = buchberger(G + [ring.var(0), ring.var(k)], order)
            basis = [ring.exponents(m) for m in standard_monomials(gb)]
            assert len(basis) == k
            assert (0,) * (k + 1) in basis
            for i in range(1, k):
                mono = [0] * (k + 1)
                mono[i] = 1
                assert tuple(mono) in basis

    def test_extended_staircase_counts_mu(self, example_two):
        ring = family_ring(example_two)
        order = grevlex(ring.nvars)
        gens = list(generating_set(3, ring).G)
        gens.append(gluing_data(example_two).extra_generator)
        gb = buchberger(gens + [ring.var(0), ring.var(3)], order)
        assert len(standard_monomials(gb)) == 3 * 2

    def test_infinite_dimension_detected(self):
        ring = PolynomialRing(["x", "y"])
        order = grevlex(2)
        gb = GroebnerBasis(order, (ring.poly({(1, 0): 1}),))  # just <x>
        with pytest.raises(InfiniteDimension):
            standard_monomials(gb)

    def test_empty_basis_raises(self):
        with pytest.raises(InfiniteDimension):
            standard_monomials(GroebnerBasis(grevlex(1), ()))

    def test_unit_ideal_has_empty_staircase(self):
        ring = PolynomialRing(["x"])
        gb = GroebnerBasis(grevlex(1), (ring.one(),))
        assert standard_monomials(gb) == []

    def test_cap_guards_enumeration(self):
        G = list(generating_set(3).G)
        ring = G[0].ring
        order = grevlex(4)
        gb = buchberger(G + [ring.var(0), ring.var(3)], order)
        assert len(standard_monomials(gb, cap=10)) == 3
        with pytest.raises(ValueError):
            standard_monomials(gb, cap=2)


class TestGrading:
    def test_multidegree_showcase(self, example_one):
        grading = family_grading(example_one)
        assert multidegree(pack((0, 2, 0, 0)), grading) == Vec2(18, 26)

    def test_constant_monomial(self, example_one):
        grading = family_grading(example_one)
        assert multidegree(pack((0, 0, 0, 0)), grading) == Vec2(0, 0)

    def test_binomial_balance(self, example_one):
        grading = family_grading(example_one)
        assert multidegree(pack((0, 1, 1, 0)), grading) == multidegree(
            pack((1, 0, 0, 1)), grading
        )


class TestIsQuadratic:
    def test_generating_sets_quadratic(self):
        for k in (2, 4, 6):
            G = generating_set(k).G
            gb = GroebnerBasis(grevlex(k + 1), G)
            assert is_quadratic(gb)

    def test_extended_ideal_not_quadratic(self, example_two):
        ring = family_ring(example_two)
        gens = list(generating_set(3, ring).G)
        gens.append(gluing_data(example_two).extra_generator)
        gb = buchberger(gens, grevlex(ring.nvars))
        assert not is_quadratic(gb)

    def test_empty_basis_vacuous(self):
        assert is_quadratic(GroebnerBasis(grevlex(2), ()))


class TestPackedPrimitives:
    """The packed monomial primitives against plain tuple definitions, on
    rings of 0, 1, 2, 7 and 24 variables and exponents up to the limit."""

    def test_primitives_match_tuple_arithmetic(self, hypothesis):
        st = hypothesis.strategies
        limit = polynomials.MAX_EXPONENT
        exps = st.one_of(
            st.sampled_from([0, 1, limit - 1, limit]), st.integers(0, limit)
        )

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.sampled_from([0, 1, 2, 7, 24]))
            ring = PolynomialRing([f"x{i}" for i in range(n)])
            u, v = (data.draw(st.tuples(*[exps] * n)) for _ in range(2))
            pu, pv = ring.pack(u), ring.pack(v)
            assert (pu, pv) == (pack(u), pack(v))
            assert (ring.exponents(pu), ring.exponents(pv)) == (u, v)
            divides = all(a <= b for a, b in zip(u, v))
            assert polynomials.mono_divides(pu, pv) == divides
            if divides:
                # reduce's quotient: m - lm for a reducer lm dividing m
                assert pv - pu == pack(tuple(b - a for a, b in zip(u, v)))
            product = tuple(a + b for a, b in zip(u, v))
            if max(product, default=0) <= limit:
                x_u = ring.monomial(u)
                for p in (x_u.mul_monomial(pv), x_u * ring.monomial(v)):
                    assert ring.exponents(p.terms.popitem()[0]) == product
            else:
                for multiply in (
                    lambda: ring.monomial(u).mul_monomial(pv),
                    lambda: ring.monomial(u) * ring.monomial(v),
                ):
                    with pytest.raises(ExponentTooLarge, match="2147483647 = 2"):
                        multiply()
            # buchberger's lcm, and its coprime skip: lcm(u, v) == u + v
            lcm = polynomials._lcm(pu, pv, ring._guard)
            assert lcm == pack(tuple(map(max, u, v)))
            assert (lcm == pu + pv) == (not any(map(min, u, v)))
            assert polynomials.mono_degree(pu) == sum(u)
            # grevlex and an elimination order sort as their nested tuple keys
            orders = [grevlex(n), elimination_order(data.draw(st.integers(0, n)), n)]
            for order in orders:
                k1, k2 = order.key(pu), order.key(pv)
                n1, n2 = nested_reference_key(order, u), nested_reference_key(order, v)
                assert (k1 > k2) - (k1 < k2) == (n1 > n2) - (n1 < n2)

        check()

    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    def test_an_exponent_of_2_to_the_31_is_refused(self, n):
        ring = PolynomialRing([f"x{i}" for i in range(n)])
        m = (0,) * (n - 1) + (2**31,)
        message = r"has an entry above 2147483647 = 2\^31 - 1"
        for build in (lambda: ring.pack(m), lambda: ring.monomial(m), lambda: ring.poly({m: 1})):
            with pytest.raises(ExponentTooLarge, match=message):
                build()
        top = ring.pack((0,) * (n - 1) + (2**31 - 1,))
        with pytest.raises(ExponentTooLarge, match=r"exceeds 2147483647 = 2\^31 - 1"):
            ring.monomial((0,) * n).mul_monomial(top + ring.pack(m[:-1] + (1,)))

    def test_toric_kernel_refuses_a_coordinate_past_the_limit_at_once(self):
        f = build_family(Vec2(2**31, 1), Vec2(1, 0), 2)
        with time_limit(0.1), pytest.raises(ExponentTooLarge, match="2147483647"):
            toric_kernel(f)


class TestSortBasis:
    """`_sort_basis` orders by leading monomial alone: both of its callers
    pass a reduced basis, whose leading monomials are distinct, so no tie
    is left for a tie-break to settle."""

    @pytest.fixture
    def sorted_bases(self, monkeypatch):
        seen = []
        original = polynomials._sort_basis

        def spy(G, order):
            seen.append([leading_term(g, order)[0] for g in G])
            return original(G, order)

        monkeypatch.setattr(polynomials, "_sort_basis", spy)
        return seen

    def test_buchberger_passes_distinct_leading_monomials(self, hypothesis, sorted_bases):
        st = hypothesis.strategies
        ring = PolynomialRing(["x", "y", "z"])
        polys = st.dictionaries(
            _monomials(st, 3, 2), st.sampled_from([-2, -1, 1, 3]), min_size=1, max_size=3
        ).map(ring.poly)

        @property_settings(hypothesis)
        @hypothesis.given(st.data())
        def check(data):
            buchberger(data.draw(st.lists(polys, min_size=1, max_size=4)), data.draw(_orders(st, 3)))

        check()
        assert len(sorted_bases) >= 100
        assert all(len(set(lms)) == len(lms) for lms in sorted_bases)

    def test_toric_kernel_passes_distinct_leading_monomials(
        self, rng, example_one, example_two, sorted_bases
    ):
        for f in (example_one, example_two, random_family(rng, 3), random_family(rng, 4)):
            toric_kernel(f)
        # each kernel sorts the elimination basis, then its x-part
        assert len(sorted_bases) == 8
        assert all(len(set(lms)) == len(lms) for lms in sorted_bases)
