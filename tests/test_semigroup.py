import inspect
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from apsemigroups import (
    BadExtension,
    CapTooSmall,
    DependentDirections,
    FamilyError,
    OutsideCone,
    SemigroupFamily,
    Vec2,
    all_representations,
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
from conftest import random_extended_family, random_family, time_limit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

    def test_extension_outside_the_cone_rejected_before_the_mu_search(self):
        # (1,0) lies below the ray of (8,9); no bound makes a multiple fit
        with pytest.raises(
            BadExtension,
            match=r"^extension vector \(1,0\) lies outside the cone spanned by "
            r"\(2,3\) and \(8,9\)$",
        ):
            build_family(Vec2(2, 3), Vec2(2, 2), 3, Vec2(1, 0), mu_bound=10**12)

    @pytest.mark.parametrize(
        "b, mu, lam", [(Vec2(1, 2), 2, (1, 0, 0)), (Vec2(1, 1), 4, (0, 0, 1))]
    )
    def test_extension_on_a_boundary_ray_accepted(self, b, mu, lam):
        # b lies on the ray of (2,4) or of (4,4), the edges of the cone
        f = build_family(Vec2(2, 4), Vec2(1, 0), 2, b)
        assert (f.extension_mu, f.extension_lambda) == (mu, lam)

    def test_extension_on_a_boundary_ray_keeps_the_bound_message(self):
        with pytest.raises(
            BadExtension,
            match=r"^no multiple of \(1,1\) up to 3\*\(1,1\) lies in the base semigroup$",
        ):
            build_family(Vec2(2, 4), Vec2(1, 0), 2, Vec2(1, 1), mu_bound=3)

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

    def test_signature_is_generators_and_target(self):
        assert list(inspect.signature(member_certificate).parameters) == [
            "generators",
            "target",
        ]


class TestSearchPrecondition:
    """Each membership routine refuses, at once, a tuple outside its domain:
    the residual search takes nonzero generators in N^2, where its pruning of
    residuals outside N^2 is exact, and `all_representations` takes
    progressions a, ..., a+kd in N^2 with det(a, d) != 0."""

    @pytest.mark.parametrize(
        "gens, target, bad",
        [
            ((Vec2(0, 0), Vec2(1, 0)), Vec2(1, 0), r"\(0, 0\)"),
            ((Vec2(1, -1), Vec2(-1, 1)), Vec2(1, 1), r"\(1, -1\)"),
        ],
    )
    def test_member_certificate_refuses(self, gens, target, bad):
        start = time.perf_counter()
        with time_limit(0.5), pytest.raises(ValueError, match=f"generator {bad}"):
            member_certificate(gens, target)
        assert time.perf_counter() - start < 0.1

    def test_all_representations_refuses_the_zero_generator(self):
        start = time.perf_counter()
        with time_limit(0.5), pytest.raises(
            ValueError, match=r"^generators \(0, 0\), \(1, 0\) are not a progression"
        ):
            all_representations((Vec2(0, 0), Vec2(1, 0)), Vec2(1, 0))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "gens",
        [
            # glued: the showcase, base then b
            (Vec2(2, 3), Vec2(4, 5), Vec2(6, 7), Vec2(8, 9), Vec2(9, 11)),
            # in N^2 but no progression, a progression with det(a, d) = 0,
            # and a single generator
            (Vec2(3, 1), Vec2(1, 2), Vec2(2, 2), Vec2(1, 1)),
            (Vec2(1, 1), Vec2(2, 2), Vec2(3, 3)),
            (Vec2(2, 1),),
        ],
        ids=["glued", "no-progression", "collinear", "single"],
    )
    def test_all_representations_takes_progressions_only(self, gens):
        named = ", ".join(f"\\({x}, {y}\\)" for x, y in gens)
        start = time.perf_counter()
        with time_limit(0.5), pytest.raises(ValueError, match=f"^generators {named} "):
            all_representations(gens, Vec2(18, 22))
        assert time.perf_counter() - start < 0.1

    def test_generators_outside_n2_are_refused(self):
        # (1,1) = (2,-1) + (-1,2), yet a search that prunes residuals outside
        # N^2 answers None there; the progression's generators all have
        # coordinate sum 2, and its last, (-1, 3), leaves N^2
        cases = [
            ((Vec2(2, -1), Vec2(-1, 2)), Vec2(1, 1), r"\(2, -1\)"),
            (progression((2, 0), (-1, 1), 3), Vec2(4, 2), r"\(-1, 3\)"),
        ]
        for gens, target, bad in cases:
            assert semigroup._level_frame(gens) is None
            start = time.perf_counter()
            with time_limit(0.5):
                with pytest.raises(ValueError, match=f"^generator {bad} "):
                    member_certificate(gens, target)
                with pytest.raises(ValueError, match="^generators .* are not a progression"):
                    all_representations(gens, target)
            assert time.perf_counter() - start < 0.1


class TestSearchPremise:
    """Every membership call the package makes is answered by level
    coordinates, save the search over the k - 1 tuples that build_family's
    minimality loop makes by removing a middle generator (none at k = 2,
    where removing a+d leaves the progression a, a+2d)."""

    FAMILIES = [
        ["--a", "5,4", "--d", "4,9", "--k", "3"],
        ["--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11"],
        ["--a", "7,0", "--d", "4,3", "--k", "2", "--b", "9,2"],
    ]

    @pytest.mark.parametrize("argv", FAMILIES, ids=["base", "glued", "mu21"])
    def test_only_the_minimality_loop_searches(self, monkeypatch, capsys, argv):
        from apsemigroups import cli, verify

        original = semigroup.member_certificate
        calls = {}  # the tuples called over, as an ordered set

        def spy(generators, target):
            gens = tuple(generators)
            calls.setdefault(gens)
            return original(gens, target)

        monkeypatch.setattr(semigroup, "member_certificate", spy)
        monkeypatch.setattr(verify, "member_certificate", spy)

        def searched():
            out = [gens for gens in calls if semigroup._level_frame(gens) is None]
            calls.clear()
            return out

        f = cli._build(cli._parser().parse_args(["analyze"] + argv))
        gens, k = f.generators, f.k
        middles = [gens[:j] + gens[j + 1 :] for j in range(1, k)] if k > 2 else []
        assert searched() == middles
        verify.full_report(f)
        assert calls and searched() == []
        for command in ("analyze", "verify"):
            assert cli.main([command] + argv) == 0
            capsys.readouterr()
            assert calls and searched() == middles

    # seed-0 searches per workload: k - 1 per family with k >= 3
    @pytest.mark.parametrize(
        "workload, searches",
        [("analyze-sweep", 72), ("glued-verify", 2), ("wide-verify", 45)],
    )
    def test_every_benchmark_call_searches_only_in_the_minimality_loop(
        self, monkeypatch, capsys, workload, searches
    ):
        from apsemigroups import cli, verify

        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        calls = workloads.generate(workload, workloads.DEFAULT_SEED)
        original = semigroup.member_certificate
        searched = []  # (calling code, generator tuple) per call without a frame

        def spy(generators, target):
            gens = tuple(generators)
            if semigroup._level_frame(gens) is None:
                searched.append((sys._getframe(1).f_code, gens))
            return original(gens, target)

        monkeypatch.setattr(semigroup, "member_certificate", spy)
        monkeypatch.setattr(verify, "member_certificate", spy)

        loop = semigroup.build_family.__code__
        total = 0
        for argv in calls:
            args = cli._parser().parse_args(list(argv))
            a, d = cli._parse_vec(args.a), cli._parse_vec(args.d)
            k = args.k
            gens = tuple(a + i * d for i in range(k + 1))
            middles = [gens[:j] + gens[j + 1 :] for j in range(1, k)] if k > 2 else []
            assert cli.main(list(argv)) == 0
            capsys.readouterr()
            assert searched == [(loop, m) for m in middles], argv
            total += len(searched)
            searched.clear()
        assert total == searches

    # seed-0 enumerations per workload: one per glued family, over its base
    @pytest.mark.parametrize(
        "workload, enumerations",
        [("analyze-sweep", 0), ("glued-verify", 13), ("wide-verify", 0)],
    )
    def test_every_benchmark_enumeration_is_over_a_base_progression(
        self, monkeypatch, capsys, workload, enumerations
    ):
        from apsemigroups import cli

        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        calls = workloads.generate(workload, workloads.DEFAULT_SEED)
        original = semigroup.all_representations
        seen = []  # (calling code, level frame) per call

        def spy(generators, target):
            gens = tuple(generators)
            seen.append((sys._getframe(1).f_code, semigroup._level_frame(gens)))
            return original(gens, target)

        monkeypatch.setattr(semigroup, "all_representations", spy)

        for argv in calls:
            assert cli.main(list(argv)) == 0
            capsys.readouterr()
        caller = semigroup._validate_extension.__code__
        assert all(code is caller for code, _ in seen)
        assert all(frame is not None and frame.b is None for _, frame in seen)
        assert len(seen) == enumerations


def reference_member_certificate(generators, target, memo=None):
    """The membership search as it ran on Vec2 residuals, memo keyed by Vec2."""
    gens = tuple(generators)
    n = len(gens)
    if not target.is_nonnegative():
        return None
    if target.is_zero():
        return (0,) * n
    if memo is None:
        memo = {}
    unseen = object()
    stack = [[target, 0]]
    while stack:
        frame = stack[-1]
        u, i = frame
        if u in memo:
            stack.pop()
            continue
        pushed = False
        decided = False
        while i < n:
            w = u - gens[i]
            if w.is_nonnegative():
                if w.is_zero():
                    memo[u] = i
                    decided = True
                    break
                state = memo.get(w, unseen)
                if state is unseen:
                    frame[1] = i
                    stack.append([w, 0])
                    pushed = True
                    break
                if state != -1:
                    memo[u] = i
                    decided = True
                    break
            i += 1
        if pushed:
            continue
        if not decided:
            memo[u] = -1
        stack.pop()

    if memo[target] == -1:
        return None
    counts = [0] * n
    u = target
    while not u.is_zero():
        i = memo[u]
        counts[i] += 1
        u = u - gens[i]
    return tuple(counts)


class TestMembershipProperties:
    def test_certificates_match_the_vec2_search(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        vectors = st.builds(Vec2, st.integers(0, 6), st.integers(0, 6))
        generators = st.lists(
            vectors.filter(lambda v: not v.is_zero()), min_size=1, max_size=5
        ).map(tuple)
        targets = st.lists(
            st.builds(Vec2, st.integers(-2, 24), st.integers(-2, 24)),
            min_size=1,
            max_size=12,
        )

        @hypothesis.settings(
            max_examples=150, derandomize=True, database=None, deadline=None
        )
        @hypothesis.given(generators, targets)
        def check(gens, vs):
            memo = {}
            for v in vs:
                expected = reference_member_certificate(gens, v, memo)
                assert member_certificate(gens, v) == expected
                assert (expected is None) == (not reference_all_representations(gens, v))

        check()

    def test_certificate_is_the_largest_representation(self, hypothesis):
        # an oracle that shares no code with either search: the certificate
        # is the lexicographically largest of all representations, by the
        # unpruned enumeration
        st = hypothesis.strategies
        vectors = st.builds(Vec2, st.integers(0, 6), st.integers(0, 6))
        generators = st.lists(
            vectors.filter(lambda v: not v.is_zero()), min_size=1, max_size=5
        ).map(tuple)
        targets = st.lists(
            st.builds(Vec2, st.integers(-2, 30), st.integers(-2, 30)),
            min_size=1,
            max_size=12,
        )

        @hypothesis.settings(
            max_examples=600, derandomize=True, database=None, deadline=None
        )
        @hypothesis.given(generators, targets)
        def check(gens, vs):
            for v in vs:
                expected = max(reference_all_representations(gens, v), default=None)
                assert member_certificate(gens, v) == expected, (gens, v)

        check()

    # tuples with no level frame, so the search answers: the first runs 3,000
    # residuals deep, past Python's recursion limit, and the second decides
    # all 201 * 201 residuals below its target before it answers None
    @pytest.mark.parametrize(
        "gens, target, expected",
        [
            (((1, 1), (1, 0), (0, 1)), (3000, 3000), (3000, 0, 0)),
            (((2, 0), (0, 2), (2, 2), (4, 2)), (401, 401), None),
        ],
    )
    def test_deep_searches_run_on_the_explicit_stack(self, gens, target, expected):
        gens = tuple(Vec2(*g) for g in gens)
        assert semigroup._level_frame(gens) is None
        with time_limit(10):
            assert member_certificate(gens, Vec2(*target)) == expected


def reference_all_representations(generators, target):
    """Every representation by the unpruned search over all coefficient
    ranges, for any nonzero generators in N^2. It judges
    `all_representations` over progressions and the search's certificates
    over every tuple."""
    gens = tuple(generators)
    n = len(gens)
    out = []
    counts = [0] * n

    def rec(i, residual):
        if residual.is_zero():
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


def assert_certificates_match_the_search(gens, box):
    """The certificate equals the reference search's on every cell of the
    box, and a certificate resums to its target."""
    memo = {}
    for x in range(-1, box):
        for y in range(-1, box):
            cert = member_certificate(gens, Vec2(x, y))
            assert cert == reference_member_certificate(gens, Vec2(x, y), memo), (gens, x, y)
            if cert is not None:
                assert resum(gens, cert) == (x, y)


def resum(gens, cert):
    return (
        sum(c * g[0] for c, g in zip(cert, gens)),
        sum(c * g[1] for c, g in zip(cert, gens)),
    )


def progression(a, d, k, *extra):
    return tuple(Vec2(a[0] + i * d[0], a[1] + i * d[1]) for i in range(k + 1)) + tuple(
        Vec2(*e) for e in extra
    )


class TestLevelFrame:
    """Membership over progression tuples by level coordinates, against the
    residual search it replaces there."""

    def test_random_base_and_glued_families(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coords = st.tuples(st.integers(0, 9), st.integers(0, 9))
        extension = st.none() | st.tuples(st.integers(0, 15), st.integers(0, 15))

        @hypothesis.settings(
            max_examples=120, derandomize=True, database=None, deadline=None
        )
        @hypothesis.given(coords, coords, st.integers(2, 6), extension)
        def check(a, d, k, b):
            try:
                f = build_family(Vec2(*a), Vec2(*d), k, b and Vec2(*b), mu_bound=30)
            except FamilyError:
                hypothesis.assume(False)
            gens = f.all_generators
            frame = semigroup._level_frame(gens)
            assert frame is not None
            assert frame.b == f.extension
            if f.is_extended:
                assert frame.mu == f.extension_mu
            assert_certificates_match_the_search(gens, 36)

        check()

    @pytest.mark.parametrize(
        "gens, framed",
        [
            # k = 1
            (progression((2, 1), (1, 2), 1), True),
            # a decreasing progression, and the same points in reverse
            (progression((4, 0), (-1, 1), 2), True),
            (progression((2, 2), (1, -1), 2), True),
            # k = 1 followed by b
            (progression((3, 1), (0, 2), 1, (3, 2)), True),
            # b in S, and b repeating a generator
            (progression((1, 0), (0, 1), 2, (2, 3)), True),
            (progression((1, 0), (0, 1), 2, (1, 1)), True),
            # b on either ray of the cone (mu = 2)
            (progression((2, 0), (0, 1), 2, (1, 0)), True),
            (progression((2, 0), (0, 1), 2, (1, 1)), True),
            # b outside the cone: the search decides
            (progression((2, 1), (1, 2), 2, (1, 0)), False),
            (progression((2, 1), (1, 2), 2, (0, 3)), False),
            # a repeated generator that is not b, and no progression at all
            (progression((1, 0), (0, 1), 2, (1, 1), (1, 1)), False),
            ((Vec2(1, 0), Vec2(1, 0), Vec2(0, 1)), False),
            ((Vec2(3, 1), Vec2(1, 2), Vec2(2, 2), Vec2(1, 1)), False),
            # a progression with det(a, d) = 0, and a single generator
            (progression((1, 1), (1, 1), 2), False),
            ((Vec2(2, 1),), False),
        ],
    )
    def test_fixed_tuples(self, gens, framed):
        assert (semigroup._level_frame(gens) is not None) == framed
        assert_certificates_match_the_search(gens, 30)

    def test_apery_elements_are_vec2(self, example_two):
        # the layers are bare int pairs; the elements handed back are not
        elements = apery_bruteforce(example_two).elements
        assert len(elements) == 6
        assert all(type(e) is Vec2 for e in elements)

    def test_pruned_representations_match_the_unpruned_search(self, rng):
        tuples = [progression((4, 0), (-1, 1), 4), progression((2, 1), (1, 2), 1)]
        tuples += [random_family(rng, k).generators for k in (2, 3, 4, 5) for _ in range(3)]
        for gens in tuples:
            for x in range(-1, 40, 3):
                for y in range(-1, 40, 3):
                    v = Vec2(x, y)
                    assert all_representations(gens, v) == reference_all_representations(
                        gens, v
                    ), (gens, v)
        for k in (2, 3, 4):
            f = random_extended_family(rng, k)
            target = f.extension_mu * f.extension
            expected = reference_all_representations(f.generators, target)
            assert all_representations(f.generators, target) == expected
            # a glued tuple is no progression
            with pytest.raises(ValueError, match="are not a progression"):
                all_representations(f.all_generators, target)


class TestLevelFrameScale:
    """Membership at large coordinates and large mu costs the same as at
    small ones (ROADMAP aim 3)."""

    HUGE = 2**60

    @pytest.mark.parametrize("glued", [False, True])
    def test_certificates_near_2_to_the_60(self, glued):
        b = Vec2(9, 11) if glued else None
        small = build_family(Vec2(2, 3), Vec2(2, 2), 3, b).all_generators
        big = progression((self.HUGE + 3, 7), (5, self.HUGE - 1), 3, *([(3, 5)] if glued else []))
        for gens in (small, big):
            m, n = self.HUGE // 7, self.HUGE // 5
            base = Vec2(m * gens[0].x, m * gens[0].y) + n * (gens[1] - gens[0])
            targets = [base, base + Vec2(1, 0)]
            if glued:
                targets += [base + 3 * gens[-1], base + (2**59 + 1) * gens[-1]]
            start = time.perf_counter()
            certs = [member_certificate(gens, v) for v in targets]
            assert time.perf_counter() - start < 0.05
            assert certs[0] is not None
            for v, cert in zip(targets, certs):
                if cert is not None:
                    assert min(cert) >= 0
                    assert resum(gens, cert) == v

    def test_frame_does_not_grow_with_mu(self):
        # det(a, d) = 2^60 and b = (1, 1) has order 2^60 over Za + Zd
        gens = progression((1, 0), (0, self.HUGE), 2, (1, 1))
        start = time.perf_counter()
        frame = semigroup._level_frame.__wrapped__(gens)
        target = (self.HUGE + 5, 3 * self.HUGE - 1)
        cert = frame.certificate(target)
        assert time.perf_counter() - start < 0.05
        assert frame.mu == self.HUGE
        assert cert == (5, 0, 1, self.HUGE - 1)
        assert resum(gens, cert) == target
        # a fixed set of ints (plus b): no table indexed by j or by coordinates
        fields = {s: getattr(frame, s) for s in frame.__slots__ if s != "b"}
        assert all(type(v) is int for v in fields.values())

    def test_build_family_at_mu_93(self):
        a, d, b = Vec2(31, 0), Vec2(7, 9), Vec2(40, 3)
        best = float("inf")
        for _ in range(3):
            semigroup._level_frame.cache_clear()
            start = time.perf_counter()
            f = build_family(a, d, 10, b, mu_bound=100)
            best = min(best, time.perf_counter() - start)
        assert best < 0.1, f"build_family took {best:.3f}s"
        assert f.extension_mu == 93
        qualifying = [
            rep
            for rep in all_representations(f.generators, 93 * b)
            if rep[0] != 0 or rep[-1] != 0
        ]
        assert len(qualifying) == 4242
        assert f.extension_lambda == max(qualifying)


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
        with pytest.warns(CapTooSmall, match="enumeration depth 2"):
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
