import itertools
from fractions import Fraction

import pytest

from apsemigroups import (
    InfiniteDimension,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    Vec2,
    buchberger,
    compare,
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
    lex_order,
    multidegree,
    reduce,
    s_polynomial,
    standard_monomials,
    toric_kernel,
    vanishes_under_degree_map,
)
from apsemigroups import polynomials
from conftest import property_settings, random_family


def ring_k(k):
    return PolynomialRing([f"x{i}" for i in range(1, k + 2)])


def pair_mono(ring, i, j):
    exps = [0] * ring.nvars
    exps[i - 1] += 1
    exps[j - 1] += 1
    return tuple(exps)


class TestOrders:
    def test_grevlex_middle_square_beats_outer_product(self):
        # 4 variables, x1 > x2 > x3 > x4
        order = grevlex(4)
        assert compare(order, (0, 2, 0, 0), (1, 0, 1, 0)) == 1

    def test_equal_monomials(self):
        order = grevlex(3)
        assert compare(order, (1, 2, 0), (1, 2, 0)) == 0

    def test_lex_with_custom_precedence(self):
        # x2 > x4 > x3 > x5 > x1 on 5 variables
        order = lex_order([1, 3, 2, 4, 0])
        assert compare(order, (0, 3, 0, 0, 0), (1, 1, 1, 0, 0)) == 1

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
        from apsemigroups import elimination_order

        n = 4
        orders = [grevlex(n), lex_order([2, 0, 3, 1]), elimination_order(2, n)]
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
    """The order key as the uncompiled flat formula, per kind: grevlex is
    (degree, -e_n, ..., -e_1) over the precedence, elim the concatenation
    of its blocks' grevlex keys."""

    def grevlex_key(idxs):
        return (sum(m[i] for i in idxs), *(-m[i] for i in reversed(idxs)))

    if order.kind == "grevlex":
        return grevlex_key(order.precedence)
    if order.kind == "lex":
        return tuple(m[i] for i in order.precedence)
    head = order.precedence[: order.block]
    tail = order.precedence[order.block :]
    return grevlex_key(head) + grevlex_key(tail)


def nested_reference_key(order, m):
    """The nested key formula the flat one replaced: grevlex as (degree,
    negated exponents as an inner tuple), elim as the pair of its blocks'
    grevlex keys. The flat key must sort exactly as this one does."""

    def grevlex_key(idxs):
        return (sum(m[i] for i in idxs), tuple(-m[i] for i in reversed(idxs)))

    if order.kind == "grevlex":
        return grevlex_key(order.precedence)
    if order.kind == "lex":
        return tuple(m[i] for i in order.precedence)
    head = order.precedence[: order.block]
    tail = order.precedence[order.block :]
    return (grevlex_key(head), grevlex_key(tail))


def reference_reduce(f, G, order):
    """Division as the textbook step: each step divides by the reducer's
    leading coefficient and subtracts every term of the shifted reducer, the
    leading one included. The oracle for `reduce`."""
    reducers = [(g, *leading_term(g, order)) for g in G if not g.is_zero()]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work[m]
        for g, lm, lc in reducers:
            if polynomials.mono_divides(lm, m):
                shift = polynomials.mono_div(m, lm)
                factor = Fraction(c) / lc
                for gm, gc in g.terms.items():
                    mm = polynomials.mono_mul(gm, shift)
                    nc = work.get(mm, Fraction(0)) - factor * gc
                    if nc:
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return Polynomial(f.ring, remainder)


def reference_s_polynomial(f, g, order):
    """(lcm / lt(f)) * f - (lcm / lt(g)) * g, both scaled by Fractions. The
    oracle for `s_polynomial`."""
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    gamma = polynomials.mono_lcm(lmf, lmg)
    return f.mul_monomial(
        polynomials.mono_div(gamma, lmf), Fraction(1) / lcf
    ) - g.mul_monomial(polynomials.mono_div(gamma, lmg), Fraction(1) / lcg)


def reference_buchberger(gens, order):
    """Buchberger's completion with the pairs in a dict (pair -> lcm) and the
    next pair taken as the least (key, pair) of `zip`: the S-pair order
    `buchberger` must keep. It calls `polynomials.s_polynomial` through the
    module, so a spy patched there sees its pairs too."""
    G = [polynomials.monic(g, order) for g in gens if not g.is_zero()]
    lms = [polynomials.leading_monomial(g, order) for g in G]
    lcm = polynomials.mono_lcm
    pairs = {
        (i, j): lcm(lms[i], lms[j])
        for i in range(len(G))
        for j in range(i + 1, len(G))
    }
    while pairs:
        _, (i, j) = min(zip(map(order.key, pairs.values()), pairs))
        del pairs[i, j]
        if polynomials.mono_coprime(lms[i], lms[j]):
            continue
        r = reduce(polynomials.s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        G.append(polynomials.monic(r, order))
        lms.append(polynomials.leading_monomial(r, order))
        new = len(G) - 1
        pairs.update(((t, new), lcm(lms[t], lms[new])) for t in range(new))
    return GroebnerBasis(order, tuple(polynomials._interreduce(G, order)))


class TestCompiledKeys:
    N = 5

    def monomials(self, rng):
        return [tuple(rng.randint(0, 6) for _ in range(self.N)) for _ in range(30)]

    @pytest.mark.parametrize("kind", ["grevlex", "lex"])
    @pytest.mark.parametrize("length", [0, 1, 2, N])
    def test_precedence_orders_match_reference(self, rng, kind, length):
        for _ in range(5):
            prec = tuple(rng.sample(range(self.N), length))
            order = MonomialOrder(kind, prec)
            for m in self.monomials(rng):
                assert order.key(m) == reference_key(order, m)

    @pytest.mark.parametrize("block", range(N + 1))
    def test_elimination_blocks_match_reference(self, rng, block):
        for _ in range(5):
            prec = tuple(rng.sample(range(self.N), self.N))
            order = MonomialOrder("elim", prec, block=block)
            for m in self.monomials(rng):
                assert order.key(m) == reference_key(order, m)

    def test_flat_keys_sort_as_the_nested_keys(self, rng):
        # every pair of sampled monomials, in every kind and at every block
        monos = self.monomials(rng)
        prec = tuple(rng.sample(range(self.N), self.N))
        orders = [MonomialOrder("grevlex", prec), MonomialOrder("lex", prec)]
        orders += [
            MonomialOrder("elim", prec, block=b) for b in range(self.N + 1)
        ]
        for order in orders:
            for m1, m2 in itertools.product(monos, repeat=2):
                flat = (order.key(m1) > order.key(m2)) - (
                    order.key(m1) < order.key(m2)
                )
                n1, n2 = (nested_reference_key(order, m) for m in (m1, m2))
                assert flat == (n1 > n2) - (n1 < n2)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown order kind 'deglex'"):
            MonomialOrder("deglex", (0, 1))

    def test_equality_and_hash_ignore_the_compiled_key(self):
        # one side's key memo is warm, the other's empty
        warm = grevlex(4)
        for m in itertools.product(range(3), repeat=4):
            warm.key(m)
        assert len(warm._memo) == 81
        assert warm == grevlex(4)
        assert hash(warm) == hash(grevlex(4))
        assert grevlex(4) != lex_order(range(4))

    def orders(self, rng):
        prec = tuple(rng.sample(range(self.N), self.N))
        return [
            MonomialOrder("grevlex", prec),
            MonomialOrder("lex", prec),
            MonomialOrder("elim", prec, block=2),
        ]

    def test_warm_memo_gives_the_reference_key(self, rng):
        for order in self.orders(rng):
            monos = self.monomials(rng)
            for _ in range(2):  # the second pass reads every key from the memo
                for m in monos:
                    assert order.key(m) == reference_key(order, m)

    def test_evicted_keys_are_recomputed_exactly(self, rng):
        bound = polynomials._KEY_MEMO_BOUND
        monos = list(itertools.product(range(8), repeat=self.N))[: bound + 1000]
        for order in self.orders(rng):
            for m in monos:
                assert order.key(m) == reference_key(order, m)
                assert len(order._memo) <= bound
            # the first monomials were evicted; they come back exact
            assert monos[0] not in order._memo
            for m in monos[:50]:
                assert order.key(m) == reference_key(order, m)

    def test_key_is_looked_up_on_the_class(self):
        # instrumentation replaces MonomialOrder.key; an instance attribute
        # would shadow it
        assert "key" not in vars(grevlex(3))

    def test_key_is_callable_on_the_class(self, rng):
        for order in self.orders(rng):
            for m in self.monomials(rng):
                assert (
                    MonomialOrder.key(order, m)
                    == order.key(m)
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
    """grevlex, lex and elimination orders on n variables, each with a random
    precedence (and a random block for elimination)."""
    perms = st.permutations(range(n)).map(tuple)
    return st.one_of(
        perms.map(lambda p: MonomialOrder("grevlex", p)),
        perms.map(lambda p: MonomialOrder("lex", p)),
        st.tuples(perms, st.integers(0, n)).map(
            lambda pb: MonomialOrder("elim", pb[0], block=pb[1])
        ),
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
            m1, m2, m3, m = (data.draw(_monomials(st, n, 6)) for _ in range(4))
            one = (0,) * n
            c = compare(order, m1, m2)
            # total, antisymmetric and transitive
            assert (c == 0) == (m1 == m2)
            assert compare(order, m2, m1) == -c
            if c <= 0 and compare(order, m2, m3) <= 0:
                assert compare(order, m1, m3) <= 0
            # multiplicative, with 1 the minimum
            s1, s2 = (tuple(a + b for a, b in zip(u, m)) for u in (m1, m2))
            assert compare(order, s1, s2) == c
            assert compare(order, m1, one) == (m1 != one)
            # the key sorts as compare does
            k1, k2 = order.key(m1), order.key(m2)
            assert c == (k1 > k2) - (k1 < k2)

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
            lts = [leading_term(g, order)[0] for g in G]
            for m in r.terms:
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
                m: c
                for m, c in data.draw(polys).terms.items()
                if order.key(m) < order.key(lm)
            }
            rival = ring.poly({**below, lm: data.draw(coefficients)})
            G.insert(data.draw(st.integers(0, len(G))), rival)
            for _ in range(data.draw(st.integers(0, 2))):
                G.insert(data.draw(st.integers(0, len(G))), ring.zero())
            # f: arbitrary, or a combination of G plus noise
            f = data.draw(polys)
            for g in data.draw(st.lists(st.sampled_from(G), max_size=3)):
                shift = data.draw(_monomials(st, n, 2))
                f = f + g.mul_monomial(shift, data.draw(coefficients))
            assert reduce(f, G, order) == reference_reduce(f, G, order)
            nonzero = [g for g in G if not g.is_zero()]
            for g1, g2 in itertools.combinations(nonzero, 2):
                assert s_polynomial(g1, g2, order) == reference_s_polynomial(
                    g1, g2, order
                )

        check()


def _only_exact_coefficients(*polys):
    """Every coefficient is exactly an int or a Fraction: never a float,
    which `int / int` would give."""
    return all(type(c) in (int, Fraction) for p in polys for c in p.terms.values())


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
            shift = data.draw(_monomials(st, n, 2))
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
            gamma = polynomials.mono_lcm(
                leading_term(f, order)[0], leading_term(g, order)[0]
            )
            assert gamma not in s_polynomial(f, g, order).terms

        check()

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
        assert type(p.terms[m]) is int
        assert type(ring.monomial(m, Fraction(6, 3)).terms[m]) is int
        assert type(ring.poly({m: Fraction(1, 2)}).terms[m]) is Fraction


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
        f = next(g for g in G if leading_term(g, order)[0] == pair_mono(ring_k(k), 2, 2))
        g = next(g for g in G if leading_term(g, order)[0] == pair_mono(ring_k(k), 3, 3))
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
        lts = [leading_term(g, order)[0] for g in G]
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                mono = tuple(rng.randint(0, 3) for _ in range(k + 1))
                terms[mono] = rng.randint(-4, 4)
            r = reduce(ring.poly(terms), G, order)
            for m in r.terms:
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
        ring = PolynomialRing(["x", "y", "z"])
        order = lex_order([0, 1, 2])
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
            basis = standard_monomials(gb)
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
        assert multidegree((0, 2, 0, 0), grading) == Vec2(18, 26)

    def test_constant_monomial(self, example_one):
        grading = family_grading(example_one)
        assert multidegree((0, 0, 0, 0), grading) == Vec2(0, 0)

    def test_binomial_balance(self, example_one):
        grading = family_grading(example_one)
        assert multidegree((0, 1, 1, 0), grading) == multidegree(
            (1, 0, 0, 1), grading
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
