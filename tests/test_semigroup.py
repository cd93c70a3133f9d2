from fractions import Fraction

import pytest

from apsemigroups import (
    BadExtension,
    CapTooSmall,
    DependentDirections,
    FamilyError,
    OutsideCone,
    SemigroupFamily,
    Vec2,
    apery_bruteforce,
    apery_closed_form,
    build_family,
    cm_type,
    degree_in_rays,
    extremal_rays,
    is_cohen_macaulay,
    is_member,
    is_normal,
    member_certificate,
    quasi_frobenius,
)
from apsemigroups import semigroup
from conftest import random_extended_family, random_family


class TestBuildFamily:
    def test_showcase_generators(self, example_one):
        assert example_one.generators == (
            Vec2(5, 4),
            Vec2(9, 13),
            Vec2(13, 22),
            Vec2(17, 31),
        )

    def test_extension_accepted(self, example_two):
        assert example_two.extension == Vec2(9, 11)
        assert example_two.extension_mu == 2
        assert example_two.extension_lambda == (2, 0, 1, 1)

    def test_dependent_directions(self):
        with pytest.raises(DependentDirections):
            build_family(Vec2(1, 0), Vec2(1, 0), 2)

    def test_k_too_small(self):
        with pytest.raises(FamilyError):
            build_family(Vec2(1, 2), Vec2(2, 1), 1)

    def test_zero_vectors_rejected(self):
        with pytest.raises(FamilyError):
            build_family(Vec2(0, 0), Vec2(1, 2), 2)
        with pytest.raises(FamilyError):
            build_family(Vec2(1, 2), Vec2(0, 0), 2)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(FamilyError):
            build_family(Vec2(-1, 2), Vec2(2, 1), 2)

    def test_extension_inside_semigroup_rejected(self):
        with pytest.raises(BadExtension):
            build_family(Vec2(2, 3), Vec2(2, 2), 3, 2 * Vec2(2, 3))

    def test_extension_without_multiple_rejected(self):
        # every element of the base semigroup has y > x, so (1,0) never works
        with pytest.raises(BadExtension):
            build_family(Vec2(2, 3), Vec2(2, 2), 3, Vec2(1, 0), mu_bound=16)

    @pytest.mark.parametrize("b", [None, Vec2(9, 11)])
    @pytest.mark.parametrize("bound", [0, -4])
    def test_mu_bound_below_one_rejected(self, monkeypatch, b, bound):
        # rejected as a bound, before any membership search runs
        monkeypatch.setattr(semigroup, "member_certificate", None)
        with pytest.raises(FamilyError, match=f"^mu bound must be at least 1, got {bound}$"):
            build_family(Vec2(2, 3), Vec2(2, 2), 3, b, mu_bound=bound)

    def test_extension_without_qualifying_representation(self):
        # 2b = a+d is the only representation, and it avoids both rays
        with pytest.raises(BadExtension):
            build_family(Vec2(2, 4), Vec2(2, 2), 2, Vec2(2, 3))


class TestMembership:
    def test_zero_certificate(self, example_one):
        assert is_member(example_one, Vec2(0, 0)) == (0, 0, 0, 0)

    def test_showcase_double_of_extension(self, example_two_base):
        cert = is_member(example_two_base, Vec2(18, 22))
        assert cert == (2, 0, 1, 1)

    def test_extension_vector_not_member(self, example_two_base):
        assert is_member(example_two_base, Vec2(9, 11)) is None

    def test_certificate_resums(self, rng):
        f = random_family(rng, 4)
        gens = f.generators
        for _ in range(60):
            v = Vec2(rng.randint(0, 40), rng.randint(0, 40))
            cert = is_member(f, v)
            if cert is not None:
                total = Vec2(0, 0)
                for c, g in zip(cert, gens):
                    total = total + c * g
                assert total == v

    def test_none_answers_match_bruteforce_panel(self, rng):
        # compare against an independent bounded enumeration of sums
        f = random_family(rng, 3, max_coord=4)
        reachable = {Vec2(0, 0)}
        for _ in range(6):
            reachable |= {u + g for u in reachable for g in f.generators}
        cap = 12
        panel = {v for v in reachable if v.x <= cap and v.y <= cap}
        for x in range(cap + 1):
            for y in range(cap + 1):
                v = Vec2(x, y)
                assert (is_member(f, v) is not None) == (v in panel)

    def test_minimality_certificates_absent(self, rng):
        f = random_family(rng, 5)
        for j in range(f.k + 1):
            others = f.generators[:j] + f.generators[j + 1 :]
            assert member_certificate(others, f.generators[j]) is None

    def test_extended_membership_uses_extension(self, example_two):
        cert = is_member(example_two, Vec2(9, 11))
        assert cert == (0, 0, 0, 0, 1)

    def test_shared_memo_gives_the_fresh_certificate(self, rng):
        families = [random_family(rng, k) for k in (2, 3, 4) for _ in range(2)]
        families += [random_extended_family(rng, k) for k in (2, 3) for _ in range(2)]
        targets = [Vec2(x, y) for x in range(36) for y in range(36)]
        for f in families:
            gens = f.all_generators
            memo = {}
            rng.shuffle(targets)
            for v in targets:
                assert member_certificate(gens, v, memo) == member_certificate(gens, v)

    def test_memos_are_shared_within_one_generator_tuple_only(self, monkeypatch, rng):
        # build_family's minimality loop tests each generator against a
        # different tuple, so one memo there would break the contract
        from apsemigroups import semigroup, verify

        original = semigroup.member_certificate
        tuples_by_memo = {}
        memos = []  # keeps every memo alive, so no id is reused

        def spy(generators, target, memo=None):
            gens = tuple(generators)
            if memo is not None:
                memos.append(memo)
                assert tuples_by_memo.setdefault(id(memo), gens) == gens
            return original(gens, target, memo)

        monkeypatch.setattr(semigroup, "member_certificate", spy)
        monkeypatch.setattr(verify, "member_certificate", spy)
        f = build_family(Vec2(2, 3), Vec2(2, 2), 3, Vec2(9, 11))
        verify.full_report(f, verify.VerifyOptions(include_toric=False))
        for k in (2, 3, 4):
            quasi_frobenius(random_family(rng, k))
        first = len(memos)
        apery_bruteforce(f)
        assert len({id(m) for m in memos[first:]}) == 1


class TestExtremalRays:
    def test_showcase(self, example_one):
        assert extremal_rays(example_one) == (Vec2(5, 4), Vec2(17, 31))

    def test_direct_formula(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 2)
        assert extremal_rays(f) == (Vec2(2, 1), Vec2(4, 5))

    def test_extended(self, example_two):
        assert extremal_rays(example_two) == (Vec2(2, 3), Vec2(8, 9))


class TestApery:
    def test_closed_form_showcase(self, example_one):
        ap = apery_closed_form(example_one)
        assert ap.elements == {Vec2(0, 0), Vec2(9, 13), Vec2(13, 22)}

    def test_closed_form_k2(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 2)
        assert apery_closed_form(f).elements == {Vec2(0, 0), Vec2(3, 3)}

    def test_closed_form_size_is_k(self, rng):
        for k in (2, 3, 5, 7):
            f = random_family(rng, k)
            assert len(apery_closed_form(f)) == k

    def test_bruteforce_matches_closed_form(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k)
            assert (
                apery_bruteforce(f, cap=4).elements
                == apery_closed_form(f).elements
            )

    def test_bruteforce_extended_showcase(self, example_two):
        ap = apery_bruteforce(example_two, E=[Vec2(2, 3), Vec2(8, 9)], cap=6)
        expected = {
            Vec2(0, 0),
            Vec2(4, 5),
            Vec2(6, 7),
            Vec2(9, 11),
            Vec2(13, 16),
            Vec2(15, 18),
        }
        assert ap.elements == expected

    def test_defining_predicate(self, example_one):
        rays = extremal_rays(example_one)
        for e in apery_closed_form(example_one).elements:
            assert is_member(example_one, e) is not None
            for r in rays:
                assert is_member(example_one, e - r) is None

    def test_zero_base_element_rejected(self, example_one):
        with pytest.raises(ValueError):
            apery_bruteforce(example_one, E=[Vec2(0, 0)])

    def test_non_member_base_element_rejected(self, example_one):
        with pytest.raises(ValueError):
            apery_bruteforce(example_one, E=[Vec2(1, 1)])

    def test_cap_too_small_advisory(self, example_one):
        with pytest.warns(CapTooSmall) as record:
            apery_bruteforce(example_one, cap=1)
        # the warning names the caller's line, not the package's
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_rejected(self, example_two, cap):
        # a cap below 1 enumerates nothing; it must not pass for an empty set
        with pytest.raises(ValueError, match=f"apery cap must be at least 1, got {cap}"):
            apery_bruteforce(example_two, cap=cap)

    def test_monotone_in_cap(self, example_two):
        small = apery_bruteforce(example_two, cap=2).elements
        big = apery_bruteforce(example_two, cap=8).elements
        assert small <= big


class TestQuasiFrobenius:
    def test_showcase(self, example_one):
        assert quasi_frobenius(example_one) == {Vec2(-9, -13), Vec2(-13, -22)}

    def test_extended_showcase(self, example_two):
        assert quasi_frobenius(example_two) == {Vec2(3, 4), Vec2(5, 6)}

    def test_k2_single_element(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 2)
        assert quasi_frobenius(f) == {Vec2(-3, -3)}

    def test_closed_form_base(self, rng):
        f = random_family(rng, 6)
        expected = {-(f.a + i * f.d) for i in range(1, 6)}
        assert quasi_frobenius(f) == expected

    def test_matches_maximality_over_bruteforce_apery(self, rng, example_two):
        # recompute QF from the brute-force Apery set and the divisibility
        # order, independently of any closed form
        for f in (random_family(rng, 4), example_two):
            elements = apery_bruteforce(f).elements
            gens = f.all_generators
            maximal = {
                m
                for m in elements
                if not any(
                    m2 != m and member_certificate(gens, m2 - m) is not None
                    for m2 in elements
                )
            }
            ray_sum = f.generators[0] + f.generators[-1]
            assert {m - ray_sum for m in maximal} == quasi_frobenius(f)


class TestTypeAndFlags:
    def test_cm_type_values(self, example_one, example_two):
        assert cm_type(example_one) == 2
        assert cm_type(example_two) == 2
        assert cm_type(build_family(Vec2(2, 1), Vec2(1, 2), 2)) == 1

    def test_cm_type_is_k_minus_1(self, rng):
        for k in (2, 4, 6, 8):
            assert cm_type(random_family(rng, k)) == k - 1

    def test_cohen_macaulay(self, example_one, example_two, rng):
        assert is_cohen_macaulay(example_one).holds
        assert is_cohen_macaulay(example_two).holds
        assert is_cohen_macaulay(random_family(rng, 5)).holds

    def test_normal_base(self, example_one, rng):
        assert is_normal(example_one).holds
        assert is_normal(random_family(rng, 4)).holds

    def test_not_normal_extended_showcase(self, example_two):
        verdict = is_normal(example_two)
        assert not verdict.holds
        q, coords = verdict.witness
        assert q in quasi_frobenius(example_two)
        assert any(c <= 0 for c in coords)

    def test_random_extended_families(self, rng):
        from apsemigroups import apery_bruteforce
        from apsemigroups.closed_forms import apery_extended, qf_extended
        from conftest import random_extended_family

        for k in (2, 3):
            f = random_extended_family(rng, k)
            assert cm_type(f) == k - 1
            assert is_cohen_macaulay(f).holds
            assert quasi_frobenius(f) == qf_extended(f)
            closed = apery_extended(f).elements
            assert len(closed) == k * f.extension_mu
            assert closed == apery_bruteforce(f).elements

    def test_rosales_witness_on_rigged_family(self):
        # gluing by b = a makes b - 0 land in the ray lattice, so the
        # criterion must fail and name the offending pair
        f = SemigroupFamily(
            a=Vec2(2, 1),
            d=Vec2(1, 2),
            k=2,
            generators=(Vec2(2, 1), Vec2(3, 3), Vec2(4, 5)),
            extension=Vec2(2, 1),
            extension_mu=2,
            extension_lambda=(2, 0, 0),
        )
        verdict = is_cohen_macaulay(f)
        assert not verdict.holds
        x, y = verdict.witness
        assert {x, y} <= {Vec2(0, 0), Vec2(2, 1), Vec2(3, 3), Vec2(5, 4)}

    def test_boundary_counts_as_not_normal(self):
        # synthetic glued family whose -QF lands exactly on the first ray
        f = SemigroupFamily(
            a=Vec2(2, 1),
            d=Vec2(1, 2),
            k=2,
            generators=(Vec2(2, 1), Vec2(3, 3), Vec2(4, 5)),
            extension=Vec2(1, 2),
            extension_mu=2,
            extension_lambda=(1, 0, 1),
        )
        verdict = is_normal(f)
        assert not verdict.holds
        _, coords = verdict.witness
        assert 0 in coords


class TestDegreeInRays:
    def test_apery_elements_have_degree_one(self, example_one):
        k = example_one.k
        for i in range(1, k):
            coords, deg = degree_in_rays(example_one, example_one.a + i * example_one.d)
            assert deg == 1
            assert coords == (Fraction(k - i, k), Fraction(i, k))

    def test_zero(self, example_one):
        assert degree_in_rays(example_one, Vec2(0, 0)) == ((0, 0), 0)

    def test_ray_multiple(self, example_one):
        coords, deg = degree_in_rays(example_one, 2 * example_one.a)
        assert coords == (2, 0)
        assert deg == 2

    def test_outside_cone(self, example_one):
        with pytest.raises(OutsideCone):
            degree_in_rays(example_one, Vec2(0, 1))
