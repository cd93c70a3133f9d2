import pytest

from apsemigroups import (
    BadIndex,
    EnumerationBox,
    NotHomogeneous,
    Polynomial,
    UnsupportedK,
    Vec2,
    apery_extended,
    build_family,
    extended_betti,
    extended_generating_set,
    family_grading,
    family_ring,
    gb_partition,
    generating_set,
    gluing_data,
    hilbert_numerator,
    hilbert_truncation_check,
    progression_ring,
    qf_extended,
    quasi_frobenius,
    regularity,
    regularity_from_resolution,
    resolution,
    s_degree,
    vanishes_under_degree_map,
    xi_family,
)
from apsemigroups.closed_forms import _column_degrees
from conftest import random_extended_family, random_family

# The base numerators as the paper prints them, for k = 2, 3, 4: an entry
# (sign, j, steps) stands for sign * (sum over i in steps of t^(j*a + i*d)).
PAPER_NUMERATORS = {
    2: [(1, 0, [0]), (-1, 2, [2])],
    3: [(1, 0, [0]), (-1, 2, range(2, 5)), (1, 3, range(4, 6))],
    4: [
        (1, 0, [0]),
        (-1, 2, range(2, 7)),
        (-1, 2, [4]),
        (1, 3, range(4, 9)),
        (1, 3, range(5, 8)),
        (-1, 4, range(7, 10)),
    ],
}


def paper_numerator(f):
    """The paper's numerator of the family, times (1 - t^(mu*b)) when it is
    glued (the one-step mapping cone)."""
    num = {}
    for sign, j, steps in PAPER_NUMERATORS[f.k]:
        for i in steps:
            deg = j * f.a + i * f.d
            num[deg] = num.get(deg, 0) + sign
    if f.is_extended:
        glue = f.extension_mu * f.extension
        for deg, c in list(num.items()):
            num[deg + glue] = num.get(deg + glue, 0) - c
    return {deg: c for deg, c in num.items() if c}


def pair_mono(ring, i, j):
    exps = [0] * ring.nvars
    exps[i - 1] += 1
    exps[j - 1] += 1
    return tuple(exps)


def binom(ring, lead, tail):
    return ring.binomial(pair_mono(ring, *lead), pair_mono(ring, *tail))


class TestXiFamilies:
    def test_k4_low_index(self):
        ring = progression_ring(4)
        assert xi_family(2, 4) == [
            binom(ring, (2, 2), (1, 3)),
            binom(ring, (2, 3), (1, 4)),
            binom(ring, (2, 4), (1, 5)),
        ]

    def test_k4_high_index(self):
        ring = progression_ring(4)
        assert xi_family(3, 4) == [
            binom(ring, (3, 3), (1, 5)),
            binom(ring, (3, 4), (2, 5)),
        ]
        assert xi_family(4, 4) == [binom(ring, (4, 4), (3, 5))]

    def test_k2(self):
        ring = progression_ring(2)
        assert xi_family(2, 2) == [binom(ring, (2, 2), (1, 3))]

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            xi_family(1, 4)
        with pytest.raises(BadIndex):
            xi_family(5, 4)

    def test_counts(self):
        # |xi_{k-ell}| = ell + 1 for ell in [0, k-2]
        for k in range(2, 9):
            gs = generating_set(k)
            for ell in range(0, k - 1):
                assert len(gs.xi[k - ell]) == ell + 1

    def test_s_homogeneous_and_quadratic(self, rng):
        f = random_family(rng, 5)
        grading = family_grading(f)
        for g in generating_set(5).G:
            deg = s_degree(g, grading)  # raises if inhomogeneous
            assert deg.is_nonnegative()
            assert all(sum(g.ring.exponents(m)) == 2 for m in g.terms)


class TestGeneratingSet:
    def test_sizes(self):
        assert len(generating_set(2).G) == 1
        assert len(generating_set(3).G) == 3
        assert len(generating_set(4).G) == 6
        for k in range(2, 9):
            assert len(generating_set(k).G) == k * (k - 1) // 2

    def test_k3_matches_showcase_ideal(self):
        ring = progression_ring(3)
        assert list(generating_set(3).G) == [
            binom(ring, (2, 2), (1, 3)),
            binom(ring, (2, 3), (1, 4)),
            binom(ring, (3, 3), (2, 4)),
        ]

    def test_minimality_no_member_reduces_to_zero(self):
        from apsemigroups import grevlex, reduce

        for k in (3, 4, 5):
            G = list(generating_set(k).G)
            order = grevlex(k + 1)
            for i, g in enumerate(G):
                others = G[:i] + G[i + 1 :]
                assert not reduce(g, others, order).is_zero()


class TestPartition:
    def test_partition_covers_disjointly(self):
        for k in range(2, 9):
            parts = gb_partition(k)
            flat = [g for block in parts.values() for g in block]
            assert len(flat) == k * (k - 1) // 2
            assert set(flat) == set(generating_set(k).G)

    def test_k4_block_b4(self):
        ring = progression_ring(4)
        parts = gb_partition(4)
        assert parts["B4"] == [
            binom(ring, (3, 3), (1, 5)),
            binom(ring, (4, 4), (3, 5)),
        ]

    def test_k2_single_element_lands_in_b4(self):
        # 2*ell = 4 > k+1 = 3, so the lone binomial sits in B4
        parts = gb_partition(2)
        ring = progression_ring(2)
        assert parts["B4"] == [binom(ring, (2, 2), (1, 3))]
        assert all(not parts[b] for b in ("B1", "B2", "B3", "B5"))

    def test_block_shapes(self):
        from apsemigroups import grevlex, leading_term

        for k in (5, 6, 7):
            parts = gb_partition(k)
            order = grevlex(k + 1)
            for name, block in parts.items():
                for g in block:
                    lead, _ = leading_term(g, order)
                    (tail,) = [g.ring.exponents(m) for m in g.terms if m != lead]
                    lead = g.ring.exponents(lead)
                    if name in ("B1", "B4"):
                        assert max(lead) == 2  # squares x_ell^2
                    else:
                        assert max(lead) == 1  # products x_ell x_{ell+i}
                    if name in ("B1", "B2"):
                        assert tail[0] == 1  # tail through x_1
                    else:
                        assert tail[-1] == 1  # tail through x_{k+1}

    def test_k4_block_b3_has_the_crossover(self):
        # ell=2, i=2 crosses to the x5 tail only when k-2*ell+2 < i
        parts = gb_partition(4)
        ring = progression_ring(4)
        assert parts["B3"] == []
        assert binom(ring, (2, 4), (1, 5)) in parts["B2"]


class TestResolutions:
    def test_k2_single_map(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 2)
        res = resolution(f)
        assert res.betti == (1, 1)
        ring = progression_ring(2)
        assert res.maps[0] == ((binom(ring, (2, 2), (1, 3)),),)
        assert res.shifts[1] == ((1, 2 * (f.a + f.d)),)

    def test_k3_second_map_matrix(self, example_one):
        res = resolution(example_one)
        ring = progression_ring(3)
        x = [None] + [ring.var(i) for i in range(4)]
        assert res.maps[1] == (
            (-x[3], x[4]),
            (x[2], -x[3]),
            (-x[1], x[2]),
        )
        assert res.betti == (1, 3, 2)

    def test_k4_shapes_and_first_row(self):
        f = build_family(Vec2(3, 1), Vec2(1, 3), 4)
        res = resolution(f)
        assert res.betti == (1, 6, 8, 3)
        ring = progression_ring(4)
        x = [None] + [ring.var(i) for i in range(5)]
        delta3 = res.maps[2]
        assert len(delta3) == 8 and len(delta3[0]) == 3
        assert delta3[0] == (x[4], -x[5], ring.zero())

    def test_shift_lists_match_formulas(self, rng):
        f3 = random_family(rng, 3)
        a, d = f3.a, f3.d
        res3 = resolution(f3)
        assert res3.shifts[1] == tuple(
            (1, 2 * a + i * d) for i in (2, 3, 4)
        )
        assert res3.shifts[2] == tuple((1, 3 * a + i * d) for i in (4, 5))

        f4 = random_family(rng, 4)
        a, d = f4.a, f4.d
        res4 = resolution(f4)
        expected_c1 = {
            (1, 2 * a + 2 * d),
            (1, 2 * a + 3 * d),
            (2, 2 * a + 4 * d),
            (1, 2 * a + 5 * d),
            (1, 2 * a + 6 * d),
        }
        assert set(res4.shifts[1]) == expected_c1
        expected_c2 = {
            (1, 3 * a + 4 * d),
            (2, 3 * a + 5 * d),
            (2, 3 * a + 6 * d),
            (2, 3 * a + 7 * d),
            (1, 3 * a + 8 * d),
        }
        assert set(res4.shifts[2]) == expected_c2
        assert set(res4.shifts[3]) == {(1, 4 * a + i * d) for i in (7, 8, 9)}

    def test_first_map_degrees_match_generators(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k)
            res = resolution(f)
            grading = family_grading(f)
            gen_degrees = sorted(
                s_degree(g, grading) for g in generating_set(k).G
            )
            assert sorted(res.column_degrees[0]) == gen_degrees

    def test_unsupported_k(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 5)
        with pytest.raises(UnsupportedK):
            resolution(f)


class TestHilbertNumerator:
    def test_showcase_exponents(self, example_one):
        form = hilbert_numerator(example_one)
        assert form.numerator == (
            (1, Vec2(0, 0)),
            (-1, Vec2(18, 26)),
            (-1, Vec2(22, 35)),
            (-1, Vec2(26, 44)),
            (1, Vec2(31, 48)),
            (1, Vec2(35, 57)),
        )
        assert form.denominator_factors == example_one.generators

    def test_k2_formula(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 2)
        form = hilbert_numerator(f)
        assert form.numerator_dict() == {Vec2(0, 0): 1, 2 * (f.a + f.d): -1}

    def test_alternating_shift_sum_matches(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k)
            res = resolution(f)
            acc = {}
            for i, layer in enumerate(res.shifts):
                for mult, deg in layer:
                    acc[deg] = acc.get(deg, 0) + (mult if i % 2 == 0 else -mult)
            acc = {deg: c for deg, c in acc.items() if c}
            assert acc == hilbert_numerator(f).numerator_dict()

    def test_extended_numerator_is_base_times_glue_factor(self, example_two):
        form = hilbert_numerator(example_two)
        base = build_family(example_two.a, example_two.d, 3)
        base_num = hilbert_numerator(base).numerator_dict()
        glue = example_two.extension_mu * example_two.extension
        expected = dict(base_num)
        for deg, c in base_num.items():
            expected[deg + glue] = expected.get(deg + glue, 0) - c
        expected = {deg: c for deg, c in expected.items() if c}
        assert form.numerator_dict() == expected
        assert len(form.denominator_factors) == 5

    def test_k6_numerator_passes_truncation(self):
        # no resolution is stored at k = 6; the numerator is checked against
        # the enumerated semigroup in a box holding its top degree
        f = build_family(Vec2(2, 1), Vec2(1, 2), 6)
        form = hilbert_numerator(f)
        assert form.denominator_factors == f.generators
        cover = EnumerationBox(*map(max, zip(*(d for _, d in form.numerator))))
        assert hilbert_truncation_check(f, form, cover).passed

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_paper_numerator(self, rng, k):
        for max_coord in (3, 6, 20):
            f = random_family(rng, k, max_coord)
            form = hilbert_numerator(f)
            expected = paper_numerator(f)
            assert form.numerator_dict() == expected
            assert [deg for _, deg in form.numerator] == sorted(expected)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_glued_matches_paper_numerator(self, rng, k):
        for _ in range(3):
            f = random_extended_family(rng, k)
            form = hilbert_numerator(f)
            expected = paper_numerator(f)
            assert form.numerator_dict() == expected
            assert [deg for _, deg in form.numerator] == sorted(expected)
            assert form.denominator_factors == f.all_generators


class TestColumnDegrees:
    def test_mixed_column_raises_under_both_gradings(self, example_one):
        ring = progression_ring(3)
        x1, x2, x3 = ring.var(0), ring.var(1), ring.var(2)
        matrix = ((x1,), (x2 * x3,))
        grading = family_grading(example_one)
        with pytest.raises(NotHomogeneous):
            _column_degrees(
                matrix, (Vec2(0, 0), Vec2(0, 0)), lambda p: s_degree(p, grading)
            )
        with pytest.raises(NotHomogeneous):
            _column_degrees(matrix, (0, 0), Polynomial.total_degree)


class TestRegularity:
    def test_always_two(self, rng):
        for k in (2, 3, 5, 8):
            assert regularity(random_family(rng, k)) == 2

    def test_matches_resolution_route(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k)
            assert regularity_from_resolution(f) == regularity(f) == 2

    def test_ring_regularity_is_one(self, example_one):
        assert regularity(example_one) - 1 == 1


class TestGluing:
    def test_showcase_data(self, example_two):
        data = gluing_data(example_two)
        assert data.mu == 2
        assert data.lam == (2, 0, 1, 1)
        assert data.glue_degree == Vec2(18, 22)
        ring = family_ring(example_two)
        assert data.extra_generator == ring.binomial(
            (0, 0, 0, 0, 2), (2, 0, 1, 1, 0)
        )

    def test_glue_binomial_vanishes_under_degree_map(self, example_two):
        data = gluing_data(example_two)
        assert vanishes_under_degree_map(
            data.extra_generator, family_grading(example_two)
        )

    def test_extended_apery_closed_form(self, example_two):
        ap = apery_extended(example_two)
        assert ap.elements == {
            Vec2(0, 0),
            Vec2(9, 11),
            Vec2(4, 5),
            Vec2(6, 7),
            Vec2(13, 16),
            Vec2(15, 18),
        }
        assert len(ap) == example_two.k * example_two.extension_mu

    def test_extended_qf(self, example_two):
        assert qf_extended(example_two) == {Vec2(3, 4), Vec2(5, 6)}
        assert qf_extended(example_two) == quasi_frobenius(example_two)

    def test_extended_generating_set(self, example_two):
        gens = extended_generating_set(example_two)
        assert len(gens) == 4
        assert gens[-1] == gluing_data(example_two).extra_generator

    def test_base_family_has_no_gluing(self, example_one):
        with pytest.raises(ValueError):
            gluing_data(example_one)

    def test_second_extension_family(self):
        # 2*(5,7) = 3a + (a+d) is the unique representation here
        f = build_family(Vec2(2, 3), Vec2(2, 2), 3, Vec2(5, 7))
        data = gluing_data(f)
        assert data.mu == 2
        assert data.lam == (3, 1, 0, 0)
        assert vanishes_under_degree_map(data.extra_generator, family_grading(f))
        from apsemigroups import apery_bruteforce

        assert apery_extended(f).elements == apery_bruteforce(f).elements
        assert qf_extended(f) == quasi_frobenius(f)


class TestExtendedBetti:
    def test_stored_values(self):
        assert extended_betti(2) == (1, 2, 1)
        assert extended_betti(3) == (1, 4, 5, 2)
        assert extended_betti(4) == (1, 7, 14, 11, 3)

    def test_matches_mapping_cone_arithmetic(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k)
            base = resolution(f).betti
            cone = tuple(
                (base[i] if i < len(base) else 0) + (base[i - 1] if i >= 1 else 0)
                for i in range(len(base) + 1)
            )
            assert cone == extended_betti(k)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            extended_betti(5)
