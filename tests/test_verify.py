import math
import re
import time
import tracemalloc
from itertools import accumulate
from operator import add, neg

import pytest

from apsemigroups import (
    BoxTooLarge,
    EnumerationBox,
    HilbertSeriesForm,
    Vec2,
    build_family,
    complex_check,
    default_box,
    enumerate_semigroup,
    expand_series,
    full_report,
    gastinger_check,
    generating_set,
    hilbert_numerator,
    hilbert_truncation_check,
    member_certificate,
    resolution,
    VerifyOptions,
)
from apsemigroups import verify
from apsemigroups.verify import poly_matrix_det, _named_minors
from conftest import property_settings, random_family


def slowed(fn):
    """fn, 0.05 s slower on every call."""

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return fn(*args, **kwargs)

    return slow


def naive_series(form, box):
    """The nonzero coefficients by cell-by-cell geometric-series passes."""
    nx, ny = box.cap_x, box.cap_y
    grid = [[0] * (ny + 1) for _ in range(nx + 1)]
    for c, deg in form.numerator:
        if 0 <= deg.x <= nx and 0 <= deg.y <= ny:
            grid[deg.x][deg.y] += c
    for g in form.denominator_factors:
        for x in range(nx + 1):
            for y in range(ny + 1):
                px, py = x - g.x, y - g.y
                if px >= 0 and py >= 0:
                    grid[x][y] += grid[px][py]
    return {
        Vec2(x, y): grid[x][y]
        for x in range(nx + 1)
        for y in range(ny + 1)
        if grid[x][y]
    }


def reference_rows(form, box):
    """The series as one dense list of ints per row. Each denominator factor
    is an in-place pass, coefficient(v) += coefficient(v - g): with g.x > 0 a
    slice addition per row, row x from g.y on plus row x - g.x (skipped when
    that row is all zero); with g.x = 0 a running sum along each residue
    class of y mod g.y."""
    nx, ny = box.cap_x, box.cap_y
    rows = [[0] * (ny + 1) for _ in range(nx + 1)]
    for c, deg in form.numerator:
        if 0 <= deg.x <= nx and 0 <= deg.y <= ny:
            rows[deg.x][deg.y] += c
    for g in form.denominator_factors:
        if not g.is_nonnegative() or g.is_zero():
            raise ValueError(f"denominator factor 1 - t^{g} has no power series in N^2")
        if g.x > nx or g.y > ny:
            continue
        if g.x:
            for x in range(g.x, nx + 1):
                prev = rows[x - g.x]
                if any(prev):
                    row = rows[x]
                    row[g.y :] = map(add, row[g.y :], prev)
        else:
            for row in rows:
                for r in range(g.y):
                    row[r :: g.y] = accumulate(row[r :: g.y])
    return rows


def reference_expand_series(form, box):
    """The dense reference rows, packed: the oracle for `expand_series`."""
    return verify.TruncatedSeries.from_rows(box, reference_rows(form, box))


# (family, box): generators on the y-axis and on the x-axis, generators past
# the box edge in x and in y, and boxes far from square.
EDGE_CASES = [
    ((Vec2(0, 2), Vec2(1, 1), 3), EnumerationBox(12, 20)),
    ((Vec2(0, 3), Vec2(2, 1), 4), EnumerationBox(25, 9)),
    ((Vec2(2, 0), Vec2(1, 1), 3), EnumerationBox(20, 12)),
    ((Vec2(2, 0), Vec2(1, 2), 4), EnumerationBox(9, 25)),
    ((Vec2(2, 1), Vec2(1, 3), 3), EnumerationBox(4, 30)),
    ((Vec2(2, 1), Vec2(1, 3), 3), EnumerationBox(30, 6)),
    ((Vec2(5, 4), Vec2(4, 9), 3), EnumerationBox(1, 40)),
    ((Vec2(5, 4), Vec2(4, 9), 3), EnumerationBox(40, 1)),
]


# (family, box) at k >= 5, where no resolution is stored: each box holds the
# numerator's top degree.
HIGH_K = [
    ((Vec2(2, 1), Vec2(1, 2), 5), EnumerationBox(24, 33)),
    ((Vec2(1, 2), Vec2(1, 0), 6), EnumerationBox(26, 12)),
    ((Vec2(3, 1), Vec2(1, 3), 7), EnumerationBox(50, 90)),
    ((Vec2(1, 2), Vec2(2, 1), 8), EnumerationBox(78, 51)),
]


class TestEnumeration:
    def test_tiny_box_only_origin(self, example_one):
        assert enumerate_semigroup(example_one, EnumerationBox(1, 1)) == [Vec2(0, 0)]

    def test_showcase_membership_facts(self, example_two_base):
        points = set(enumerate_semigroup(example_two_base, EnumerationBox(20, 25)))
        assert Vec2(18, 22) in points
        assert Vec2(9, 11) not in points

    def test_monotone_in_box(self, example_one):
        small = set(enumerate_semigroup(example_one, EnumerationBox(30, 30)))
        large = set(enumerate_semigroup(example_one, EnumerationBox(50, 50)))
        assert small <= large
        assert small == {v for v in large if v.x <= 30 and v.y <= 30}

    def test_extended_semigroup_contains_extension(self, example_two):
        points = set(enumerate_semigroup(example_two, EnumerationBox(20, 25)))
        assert Vec2(9, 11) in points

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            EnumerationBox(0, 5)

    def test_agrees_with_membership_search(self, rng):
        # two independent membership routes: grid DP vs memoized DFS
        from apsemigroups import Vec2, is_member
        from conftest import random_family

        f = random_family(rng, 3, max_coord=4)
        box = EnumerationBox(15, 15)
        points = set(enumerate_semigroup(f, box))
        for x in range(16):
            for y in range(16):
                v = Vec2(x, y)
                assert (v in points) == (is_member(f, v) is not None)


class TestRowOracles:
    @pytest.mark.parametrize("params,box", EDGE_CASES)
    def test_enumeration_matches_membership(self, params, box):
        f = build_family(*params)
        points = enumerate_semigroup(f, box)
        assert points == sorted(points)
        members = set(points)
        for x in range(box.cap_x + 1):
            for y in range(box.cap_y + 1):
                v = Vec2(x, y)
                found = member_certificate(f.all_generators, v) is not None
                assert (v in members) == found, v

    @pytest.mark.parametrize("params,box", EDGE_CASES)
    def test_series_matches_naive_expansion(self, params, box):
        f = build_family(*params)
        form = hilbert_numerator(f)
        series = expand_series(form, box)
        expected = naive_series(form, box)
        assert series.coefficients == expected
        for x in range(-1, box.cap_x + 2):
            for y in range(-1, box.cap_y + 2):
                v = Vec2(x, y)
                assert series.coefficient(v) == expected.get(v, 0)

    @pytest.mark.parametrize("params,box", EDGE_CASES + HIGH_K)
    def test_truncation_passes(self, params, box):
        f = build_family(*params)
        assert hilbert_truncation_check(f, hilbert_numerator(f), box).passed

    @pytest.mark.parametrize(
        "factors",
        [
            (Vec2(0, 3),),
            (Vec2(2, 0),),
            (Vec2(0, 1), Vec2(0, 2)),
            (Vec2(3, 0), Vec2(0, 4), Vec2(2, 5)),
            (Vec2(11, 1), Vec2(1, 13), Vec2(30, 30)),
        ],
    )
    def test_single_axis_and_outside_factors(self, factors):
        form = HilbertSeriesForm(
            numerator=((1, Vec2(0, 0)), (-2, Vec2(1, 2)), (3, Vec2(4, 1))),
            denominator_factors=factors,
        )
        box = EnumerationBox(10, 12)
        assert expand_series(form, box).coefficients == naive_series(form, box)

    def test_zero_factor_rejected(self):
        form = HilbertSeriesForm(
            numerator=((1, Vec2(0, 0)),), denominator_factors=(Vec2(0, 0),)
        )
        with pytest.raises(ValueError):
            expand_series(form, EnumerationBox(3, 3))

    @pytest.mark.parametrize("factor", [Vec2(-1, 2), Vec2(2, -1)])
    def test_negative_factor_rejected(self, factor):
        form = HilbertSeriesForm(
            numerator=((1, Vec2(0, 0)),), denominator_factors=(Vec2(1, 1), factor)
        )
        with pytest.raises(ValueError, match="has no power series"):
            expand_series(form, EnumerationBox(3, 3))

    @pytest.mark.parametrize("term", [Vec2(-1, 0), Vec2(0, -1)])
    def test_negative_numerator_term_rejected(self, term):
        # t^(-1,0) / (1 - t^(1,0)) has coefficient 1 at every (x, 0) of the
        # box; dropping the term would expand it to all zeros
        form = HilbertSeriesForm(
            numerator=((1, Vec2(0, 0)), (1, term)),
            denominator_factors=(Vec2(1, 0), Vec2(0, 1)),
        )
        with pytest.raises(ValueError, match=re.escape(f"numerator term 1*t^{term}")):
            expand_series(form, EnumerationBox(3, 3))

    def test_dropped_numerator_term_witness(self, example_one):
        form = hilbert_numerator(example_one)
        broken = HilbertSeriesForm(
            numerator=form.numerator[:-1],
            denominator_factors=form.denominator_factors,
        )
        result = hilbert_truncation_check(example_one, broken, EnumerationBox(60, 90))
        assert result.witness == "coefficient at (35,57) is 0, expected 1"


class TestSeriesExpansion:
    def test_single_factor_is_indicator_of_multiples(self):
        form = HilbertSeriesForm(
            numerator=((1, Vec2(0, 0)),), denominator_factors=(Vec2(2, 3),)
        )
        series = expand_series(form, EnumerationBox(10, 12))
        expected = {Vec2(0, 0): 1, Vec2(2, 3): 1, Vec2(4, 6): 1, Vec2(6, 9): 1, Vec2(8, 12): 1}
        assert series.coefficients == expected

    def test_counts_match_enumeration(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k, max_coord=4)
            box = default_box(f)
            series = expand_series(hilbert_numerator(f), box)
            points = enumerate_semigroup(f, box)
            assert sum(series.coefficients.values()) == len(points)


# Numerator coefficients around the 64- and 128-bit field edges: a field one
# bit too narrow misreads them.
LARGE_COEFFICIENTS = (2**62, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**127, 2**128)


def _series_cases(st):
    """(form, box): boxes down to one cap, numerator terms inside and outside
    the box with small, large and negative coefficients (a degree may repeat),
    and factors on either axis, inside and outside the box."""

    @st.composite
    def case(draw):
        nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        coefficient = st.one_of(
            st.integers(-3, 3),
            st.sampled_from(LARGE_COEFFICIENTS),
            st.sampled_from(LARGE_COEFFICIENTS).map(neg),
        )
        degree = st.builds(Vec2, st.integers(-1, nx + 1), st.integers(-1, ny + 1))
        # a factor's coordinate: 0 (an axis), small (many passes) or past the box
        def step(cap):
            return st.one_of(st.just(0), st.integers(1, 2), st.integers(0, cap + 2))

        factor = st.builds(Vec2, step(nx), step(ny)).filter(lambda g: not g.is_zero())
        terms = st.lists(st.tuples(coefficient, degree), min_size=1, max_size=5)
        form = HilbertSeriesForm(
            numerator=tuple(draw(terms)),
            denominator_factors=tuple(draw(st.lists(factor, max_size=4))),
        )
        return form, EnumerationBox(nx, ny)

    return case()


class TestPackedRows:
    def test_matches_reference(self, hypothesis):
        @property_settings(hypothesis)
        @hypothesis.given(_series_cases(hypothesis.strategies))
        def check(case):
            form, box = case
            # a term with a negative exponent is refused; the rest of the
            # form must still expand as the reference does
            kept = tuple((c, d) for c, d in form.numerator if d.is_nonnegative())
            if kept != form.numerator:
                with pytest.raises(ValueError, match="negative exponent"):
                    expand_series(form, box)
                form = HilbertSeriesForm(kept, form.denominator_factors)
            expected = reference_expand_series(form, box).rows
            assert expand_series(form, box).rows == expected

        check()

    def test_coefficients_past_64_bits(self):
        # coefficient of t^(200, 0) in 1 / (1 - t^(1,0))^14 is C(213, 13)
        form = HilbertSeriesForm(
            numerator=((1, Vec2(0, 0)), (-1, Vec2(3, 2))),
            denominator_factors=(Vec2(1, 0),) * 14 + (Vec2(0, 1), Vec2(2, 3)),
        )
        box = EnumerationBox(200, 40)
        series = expand_series(form, box)
        assert series.coefficient(Vec2(200, 0)) == math.comb(213, 13) > 2**63
        assert series.rows == reference_expand_series(form, box).rows

    def test_bump_past_64_bits_caught(self, example_one, monkeypatch):
        # 2^64 vanishes mod 2^64: fixed 64-bit fields would pass this form
        form = hilbert_numerator(example_one)
        box = EnumerationBox(60, 90)
        deg = max(d for _, d in form.numerator if d.x <= box.cap_x and d.y <= box.cap_y)
        broken = bumped(form, deg, by=2**64)
        result = hilbert_truncation_check(example_one, broken, box)
        monkeypatch.setattr(verify, "expand_series", reference_expand_series)
        expected = hilbert_truncation_check(example_one, broken, box)
        assert not expected.passed
        assert (result.passed, result.witness) == (False, expected.witness)

    def test_peak_memory_at_most_the_reference(self):
        form = hilbert_numerator(build_family(Vec2(2, 3), Vec2(2, 2), 4))
        box = EnumerationBox(600, 600)

        def peak(expand):
            tracemalloc.start()
            try:
                expand(form, box)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(expand_series) <= peak(reference_rows)


# Rows for the TruncatedSeries round trip, with the field width that packs
# them: negative entries, a negative field under a positive one, all-zero
# rows, and entries at the 64- and 128-bit field edges.
ROUND_TRIP_ROWS = [
    ([[1, -1, 0], [0, 0, 0], [-3, 5, -1]], 64),
    ([[-1, 1, 2], [5, -7, 7], [-1, -1, 1]], 64),
    ([[0, 0], [0, 0]], 64),
    ([[2**63 - 1, -(2**63 - 1)], [0, 1]], 64),
    ([[2**63, -1, 1], [0, 0, 0], [-(2**64), 2**64, -(2**127 - 1)]], 128),
    ([[-(2**63), 2**63], [0, 0]], 128),
    ([[2**127, -1], [-(2**127), 1]], 192),
]


class TestTruncatedSeries:
    @pytest.mark.parametrize("rows, w", ROUND_TRIP_ROWS)
    def test_from_rows_round_trip(self, rows, w):
        box = EnumerationBox(len(rows) - 1, len(rows[0]) - 1)
        series = verify.TruncatedSeries.from_rows(box, rows)
        assert series.w == w
        assert series.rows == rows
        for x, row in enumerate(rows):
            assert (series.packed[x] == 0) == (not any(row))
            for y, c in enumerate(row):
                assert series.coefficient(Vec2(x, y)) == c
        assert series.coefficients == {
            Vec2(x, y): c for x, row in enumerate(rows) for y, c in enumerate(row) if c
        }
        assert series.coefficient(Vec2(box.cap_x + 1, 0)) == 0
        assert series.coefficient(Vec2(0, -1)) == 0

    def test_from_rows_round_trip_property(self, hypothesis):
        st = hypothesis.strategies
        entry = st.one_of(
            st.integers(-3, 3),
            st.sampled_from(LARGE_COEFFICIENTS),
            st.sampled_from(LARGE_COEFFICIENTS).map(neg),
        )

        @property_settings(hypothesis)
        @hypothesis.given(st.integers(1, 5), st.integers(1, 5), st.data())
        def check(nx, ny, data):
            row = st.lists(entry, min_size=ny + 1, max_size=ny + 1)
            rows = data.draw(st.lists(row, min_size=nx + 1, max_size=nx + 1))
            series = verify.TruncatedSeries.from_rows(EnumerationBox(nx, ny), rows)
            assert series.rows == rows

        check()

    def test_expansion_matches_from_rows(self, example_one):
        # expand_series may pick a wider field than the rows need, but it
        # encodes the same coefficients
        form = hilbert_numerator(example_one)
        box = EnumerationBox(60, 90)
        series = expand_series(form, box)
        packed = verify.TruncatedSeries.from_rows(box, series.rows)
        assert packed.w == series.w == 64
        assert packed.packed == series.packed

    def test_equality_is_by_coefficient(self):
        # the bound counts 2^63 + 2^63 + 1, so expand_series packs the one
        # nonzero coefficient into 128-bit fields
        form = HilbertSeriesForm(
            numerator=((2**63, Vec2(0, 0)), (-(2**63), Vec2(0, 0)), (1, Vec2(0, 0))),
            denominator_factors=(),
        )
        box = EnumerationBox(2, 3)
        series = expand_series(form, box)
        rows = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        assert series.w == 128
        assert series == verify.TruncatedSeries.from_rows(box, rows)
        rows[2][3] = -1
        assert series != verify.TruncatedSeries.from_rows(box, rows)
        assert series != verify.TruncatedSeries.from_rows(EnumerationBox(3, 3), rows + [[0] * 4])


def _witness_grid(f, box):
    """Broken numerators of f's Hilbert form: +-1 on each numerator term in
    the box, and +-1 and +-2^64 (a 128-bit field) on a numerator term, on a
    semigroup point (a 2 there), on the top cell of row 0, on a cell of the
    last row and on the last cell. A -1 off the semigroup is a negative field."""
    form = hilbert_numerator(f)
    points = set(enumerate_semigroup(f, box))
    inside = [d for _, d in form.numerator if d.x <= box.cap_x and d.y <= box.cap_y]
    point = min(p for p in points if p.x > 0)
    # the top of row 0, so that a bump there reaches no other row
    row_0 = max(Vec2(0, y) for y in range(box.cap_y + 1) if Vec2(0, y) not in points)
    last_row = next(
        Vec2(box.cap_x, y) for y in range(box.cap_y + 1) if Vec2(box.cap_x, y) not in points
    )
    last_cell = Vec2(box.cap_x, box.cap_y)
    cases = [(d, by) for d in inside for by in (1, -1)]
    for d in (inside[-1], point, row_0, last_row, last_cell):
        cases += [(d, by) for by in (1, -1, 2**64, -(2**64))]
    return [bumped(form, d, by) for d, by in cases]


def reference_witness(f, form, box):
    """(passed, witness) of the truncation check, cell by cell: the first
    cell in x-major order where the reference series differs from the 0/1
    indicator of the enumerated semigroup."""
    points = set(enumerate_semigroup(f, box))
    for x, row in enumerate(reference_expand_series(form, box).rows):
        for y, c in enumerate(row):
            want = int(Vec2(x, y) in points)
            if c != want:
                return False, f"coefficient at {Vec2(x, y)} is {c}, expected {want}"
    return True, None


class TestPackedCheck:
    @pytest.mark.parametrize(
        "params, box",
        [
            ((Vec2(5, 4), Vec2(4, 9), 3), EnumerationBox(60, 90)),
            ((Vec2(2, 1), Vec2(1, 2), 2), EnumerationBox(14, 9)),
        ],
    )
    def test_witness_matches_the_reference(self, params, box, monkeypatch):
        f = build_family(*params)
        forms = _witness_grid(f, box)
        got = [hilbert_truncation_check(f, form, box) for form in forms]
        monkeypatch.setattr(verify, "expand_series", reference_expand_series)
        patched = [hilbert_truncation_check(f, form, box) for form in forms]
        want = [reference_witness(f, form, box) for form in forms]
        assert not any(passed for passed, _ in want)
        assert [(r.passed, r.witness) for r in got] == want
        assert [(r.passed, r.witness) for r in patched] == want

    def test_passing_check_decodes_no_row(self, example_one, monkeypatch):
        def refuse(*args):
            raise AssertionError("a row was decoded")

        monkeypatch.setattr(verify, "_decode_row", refuse)
        wide = build_family(Vec2(40, 11), Vec2(20, 3), 4)
        for f, box in [
            (example_one, EnumerationBox(60, 90)),
            (example_one, default_box(example_one)),
            (wide, default_box(wide)),
        ]:
            assert hilbert_truncation_check(f, hilbert_numerator(f), box).passed
        # the patch is live: a failing check decodes the row it names
        broken = bumped(hilbert_numerator(example_one), Vec2(35, 57))
        with pytest.raises(AssertionError, match="a row was decoded"):
            hilbert_truncation_check(example_one, broken, EnumerationBox(60, 90))


class TestTruncation:
    def test_showcase_box(self, example_one):
        form = hilbert_numerator(example_one)
        result = hilbert_truncation_check(example_one, form, EnumerationBox(60, 90))
        assert result.passed

    def test_k2_family(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 2)
        result = hilbert_truncation_check(f, hilbert_numerator(f), default_box(f))
        assert result.passed

    def test_extended_showcase(self, example_two):
        form = hilbert_numerator(example_two)
        result = hilbert_truncation_check(example_two, form, default_box(example_two))
        assert result.passed

    def test_perturbed_numerator_detected(self, example_one):
        form = hilbert_numerator(example_one)
        broken = HilbertSeriesForm(
            numerator=form.numerator[:-1],  # drop the top correction term
            denominator_factors=form.denominator_factors,
        )
        result = hilbert_truncation_check(example_one, broken, EnumerationBox(60, 90))
        assert not result.passed
        assert "coefficient at" in result.witness


def bumped(form, deg, by=5):
    """form with `by` added to the numerator coefficient of t^deg (0 when
    the numerator has no such term)."""
    num = form.numerator_dict()
    num[deg] = num.get(deg, 0) + by
    return HilbertSeriesForm(
        numerator=tuple((c, d) for d, c in num.items()),
        denominator_factors=form.denominator_factors,
    )


# default_box is 3x the largest generator coordinate, which leaves the top
# numerator terms of these families outside it: a wrong coefficient there goes
# unseen by the truncation check.
OUTSIDE_DEFAULT_BOX = [
    ((Vec2(2, 3), Vec2(2, 2), 3, Vec2(9, 11)), Vec2(34, 41)),
    ((Vec2(9, 5), Vec2(1, 2), 4, None), Vec2(45, 38)),
    ((Vec2(1, 2), Vec2(1, 0), 6, None), Vec2(26, 12)),
    ((Vec2(2, 3), Vec2(2, 2), 5, Vec2(7, 9)), Vec2(52, 61)),
]


class TestDefaultBoxCoverage:
    @pytest.mark.xfail(
        strict=True,
        reason="default_box misses Hilbert-numerator terms at k = 4, at k >= 5 and "
        "for glued families; widening it changes the benchmark's pinned box cells",
    )
    @pytest.mark.parametrize("params, deg", OUTSIDE_DEFAULT_BOX)
    def test_perturbed_top_term_caught_by_default_box(self, params, deg):
        f = build_family(*params)
        broken = bumped(hilbert_numerator(f), deg)
        assert not hilbert_truncation_check(f, broken, default_box(f)).passed

    @pytest.mark.parametrize("params, deg", OUTSIDE_DEFAULT_BOX)
    def test_perturbed_top_term_caught_by_a_covering_box(self, params, deg):
        f = build_family(*params)
        form = hilbert_numerator(f)
        cover = EnumerationBox(*map(max, zip(*(d for _, d in form.numerator))))
        result = hilbert_truncation_check(f, bumped(form, deg), cover)
        assert not result.passed
        assert result.witness == f"coefficient at {deg} is 6, expected 1"


class TestComplexCheck:
    def test_passes_for_stored_resolutions(self, rng):
        for k in (2, 3, 4):
            f = random_family(rng, k)
            assert complex_check(resolution(f)).passed

    def test_named_minor_values_k4(self):
        f = build_family(Vec2(3, 1), Vec2(1, 3), 4)
        res = resolution(f)
        ring = res.maps[0][0][0].ring
        x = [None] + [ring.var(i) for i in range(5)]
        # |R4 R6 R8 | C1 C2 C3| of the third map is x2^3 - x1*x2*x3 exactly
        sub = [[res.maps[2][i][j] for j in (0, 1, 2)] for i in (3, 5, 7)]
        det = poly_matrix_det(sub)
        assert det == x[2] * x[2] * x[2] - x[1] * x[2] * x[3]

    def test_named_minor_values_k3(self, example_one):
        res = resolution(example_one)
        ring = res.maps[0][0][0].ring
        x = [None] + [ring.var(i) for i in range(4)]
        top = poly_matrix_det([[res.maps[1][i][j] for j in (0, 1)] for i in (0, 1)])
        bottom = poly_matrix_det([[res.maps[1][i][j] for j in (0, 1)] for i in (1, 2)])
        assert top == x[3] * x[3] - x[2] * x[4]
        assert bottom == x[2] * x[2] - x[1] * x[3]

    def test_minor_catalog_sizes(self):
        assert len(_named_minors(2)) == 0
        assert len(_named_minors(3)) == 2
        assert len(_named_minors(4)) == 5

    def test_broken_matrix_detected(self, example_one):
        import dataclasses

        res = resolution(example_one)
        ring = res.maps[0][0][0].ring
        bad_delta2 = tuple(
            tuple(ring.var(1) if (i, j) == (0, 0) else res.maps[1][i][j] for j in range(2))
            for i in range(3)
        )
        broken = dataclasses.replace(res, maps=(res.maps[0], bad_delta2))
        assert not complex_check(broken).passed


class TestGastinger:
    def test_random_base_families(self, rng):
        for k in (3, 4, 5, 6):
            f = random_family(rng, k)
            result = gastinger_check(f)
            assert result.passed

    def test_extended_showcase_dimension(self, example_two):
        assert gastinger_check(example_two).passed

    def test_removed_generator_detected(self, rng):
        f = random_family(rng, 4)
        G = list(generating_set(4).G)
        # dropping a middle product keeps pure powers but inflates the count
        dropped = [g for g in G if g is not G[1]]
        result = gastinger_check(f, gens=dropped)
        assert not result.passed
        assert "dimension" in result.witness

    def test_removed_square_reported_as_infinite(self, rng):
        f = random_family(rng, 3)
        G = list(generating_set(3).G)
        result = gastinger_check(f, gens=G[1:])
        assert not result.passed
        assert "finite" in result.witness


class TestFullReport:
    def test_showcase_all_pass(self, example_one):
        report = full_report(example_one)
        assert report.ok
        names = {c.name for c in report.checks}
        assert "hilbert_truncation" in names
        assert "ideal_equals_toric_kernel" in names
        assert "leading_terms_are_middle_products" in names
        assert report.flags == {
            "cohen_macaulay": True,
            "gorenstein": False,
            "normal": True,
            "koszul": True,
        }

    def test_extended_showcase_flags(self, example_two):
        report = full_report(example_two)
        assert report.ok
        assert report.flags["cohen_macaulay"] is True
        assert report.flags["normal"] is False
        assert report.flags["gorenstein"] is False
        names = {c.name for c in report.checks}
        assert "gluing_consistency" in names
        assert "extended_betti_match_mapping_cone" in names

    def test_k2_gorenstein(self):
        f = build_family(Vec2(2, 1), Vec2(1, 2), 2)
        report = full_report(f)
        assert report.ok
        assert report.flags["gorenstein"] is True

    def test_options_can_skip_heavy_checks(self, example_one):
        report = full_report(
            example_one, VerifyOptions(include_toric=False, include_truncation=False)
        )
        names = {c.name for c in report.checks}
        assert "ideal_equals_toric_kernel" not in names
        assert "hilbert_truncation" not in names
        assert report.ok

    def test_check_timer_covers_its_computation(self, example_one):
        # each check's elapsed time must include the oracle it calls
        for oracle, name in [
            ("is_groebner_basis", "generating_set_is_groebner"),
            ("expand_series", "hilbert_truncation"),
            ("poly_matrix_det", "complex_check"),
            ("standard_monomials", "gastinger"),
        ]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, oracle, slowed(getattr(verify, oracle)))
                report = full_report(example_one, VerifyOptions(include_toric=False))
            (check,) = [c for c in report.checks if c.name == name]
            assert (check.passed, check.witness) == (True, None), oracle
            assert check.elapsed >= 0.05, oracle

    def test_random_extended_families(self, rng):
        from conftest import random_extended_family

        for k in (2, 3):
            f = random_extended_family(rng, k)
            report = full_report(f)
            assert report.ok, [
                (c.name, c.witness) for c in report.checks if not c.passed
            ]
            assert report.flags["cohen_macaulay"] is True


HEAD = [
    "apery_closed_vs_bruteforce",
    "cm_type_is_k_minus_1",
    "cohen_macaulay",
    "gorenstein_iff_k_is_2",
]
IDEAL = [
    "apery_elements_have_ray_degree_1",
    "leading_terms_are_middle_products",
    "generating_set_is_groebner",
    "buchberger_adds_nothing",
    "ideal_equals_toric_kernel",
    "gastinger",
]
# family -> every check name full_report gives it, in order, with the toric
# and truncation oracles on; k = 5 has no stored resolution
FULL_CHECKS = {
    (Vec2(5, 4), Vec2(4, 9), 3, None): HEAD
    + ["normality_of_base_family", *IDEAL, "hilbert_truncation", "complex_check"]
    + ["numerator_equals_shift_sum", "regularity_is_2"],
    (Vec2(5, 4), Vec2(4, 9), 5, None): HEAD
    + ["normality_of_base_family", *IDEAL, "hilbert_truncation", "regularity_is_2"],
    (Vec2(2, 3), Vec2(2, 2), 2, Vec2(3, 4)): HEAD
    + [*IDEAL, "hilbert_truncation", "extended_betti_match_mapping_cone"]
    + ["gluing_consistency"],
    (Vec2(2, 3), Vec2(2, 2), 5, Vec2(3, 4)): HEAD
    + [*IDEAL, "hilbert_truncation", "gluing_consistency"],
}
# the toric oracle takes about 2 s at k = 5, so it runs there once
SHAPES = [
    (params, toric, truncation)
    for params in FULL_CHECKS
    for toric in (True, False)
    for truncation in (True, False)
    if params[2] < 5 or not toric or truncation
]


class TestReportShape:
    @pytest.mark.parametrize("params, toric, truncation", SHAPES)
    def test_ordered_check_names(self, params, toric, truncation):
        report = full_report(
            build_family(*params),
            VerifyOptions(include_toric=toric, include_truncation=truncation),
        )
        dropped = {
            "ideal_equals_toric_kernel": not toric,
            "hilbert_truncation": not truncation,
        }
        expected = [name for name in FULL_CHECKS[params] if not dropped.get(name)]
        assert [c.name for c in report.checks] == expected
        assert report.ok

    @pytest.mark.parametrize("k, witness", [(3, "apery 3, resolution 2"), (5, "apery 3")])
    def test_regularity_witness_names_each_route_taken(self, monkeypatch, k, witness):
        # the resolution route exists only where a resolution is stored
        monkeypatch.setattr(verify, "regularity", lambda f: 3)
        report = full_report(
            build_family(Vec2(5, 4), Vec2(4, 9), k),
            VerifyOptions(include_toric=False, include_truncation=False),
        )
        (check,) = [c for c in report.checks if c.name == "regularity_is_2"]
        assert (check.passed, check.witness) == (False, witness)


class TestBoxBudget:
    @pytest.fixture
    def no_box_oracles(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the box was allocated")

        monkeypatch.setattr(verify, "enumerate_semigroup", refuse)
        monkeypatch.setattr(verify, "expand_series", refuse)

    def test_budget_is_checked_before_any_check(self, example_one, monkeypatch):
        monkeypatch.setattr(verify, "_BOX_CELL_BUDGET", 100)
        # the first check calls it, so the report fails if any check runs
        monkeypatch.setattr(verify, "apery_bruteforce", None)
        opts = VerifyOptions(box=EnumerationBox(10, 9), include_toric=False)
        message = "11 x 10 has 110 cells, over the limit of 100 cells"
        with pytest.raises(BoxTooLarge, match=message):
            full_report(example_one, opts)

    def test_budget_edge_is_inclusive(self, example_one, monkeypatch):
        monkeypatch.setattr(verify, "_BOX_CELL_BUDGET", 100)
        opts = VerifyOptions(box=EnumerationBox(9, 9), include_toric=False)
        assert full_report(example_one, opts).ok

    def test_no_budget_without_the_truncation_check(self, example_one, no_box_oracles):
        huge = EnumerationBox(1 << 20, 1 << 20)
        opts = VerifyOptions(box=huge, include_toric=False, include_truncation=False)
        assert full_report(example_one, opts).ok
        # with the check, the budget holds at every k, stored resolution or not
        k5 = build_family(Vec2(5, 4), Vec2(4, 9), 5)
        with pytest.raises(BoxTooLarge, match="over the limit"):
            full_report(k5, VerifyOptions(box=huge, include_toric=False))

    def test_cli_exits_2_on_a_default_box_over_budget(self, capsys, no_box_oracles):
        from apsemigroups.cli import main

        argv = ["--a", "600,1", "--d", "599,599", "--k", "2"]
        start = time.perf_counter()
        code = main(["verify", "--skip-toric"] + argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "5395 x 5395 has 29106025 cells, over the limit of 16777216 cells" in err
        assert elapsed < 5
        assert main(["analyze"] + argv) == 0
