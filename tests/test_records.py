"""The package's record classes behave as plain value records: construction
by position or keyword with the documented defaults, type-strict equality,
hashing exactly where a record is frozen and holds only hashable values,
`AttributeError` on assignment to a frozen record, and a repr that names
every field in order."""

import pytest

from apsemigroups import (
    AperySet,
    CheckResult,
    EnumerationBox,
    GeneratorFamily,
    GluingData,
    GradedResolution,
    GroebnerBasis,
    HilbertSeriesForm,
    MonomialOrder,
    Report,
    SemigroupFamily,
    TruncatedSeries,
    Vec2,
    Witnessed,
    build_family,
    generating_set,
    gluing_data,
    grevlex,
    resolution,
)

BASE = build_family(Vec2(1, 2), Vec2(1, 0), 2)
GLUED = build_family(Vec2(2, 3), Vec2(2, 2), 3, Vec2(9, 11))
XI = generating_set(2)
GLUE = gluing_data(GLUED)
RES = resolution(BASE)
BOX = EnumerationBox(1, 1)

# class, its fields in order, one value per field, frozen, hashable
RECORDS = [
    (
        SemigroupFamily,
        ("a", "d", "k", "generators", "extension", "extension_mu", "extension_lambda"),
        (GLUED.a, GLUED.d, 3, GLUED.generators, Vec2(9, 11), 2, GLUED.extension_lambda),
        True,
        True,
    ),
    (AperySet, ("base", "elements"), ((Vec2(1, 0),), frozenset({Vec2(0, 0)})), True, True),
    (Witnessed, ("holds", "witness"), (False, Vec2(1, 1)), True, True),
    (MonomialOrder, ("nvars", "block"), (3, 1), True, True),
    (GroebnerBasis, ("order", "elements"), (grevlex(3), tuple(XI.G)), True, True),
    (GeneratorFamily, ("k", "xi", "G"), (2, XI.xi, XI.G), True, False),
    (
        GradedResolution,
        ("k", "betti", "maps", "column_degrees", "shifts", "grading"),
        (RES.k, RES.betti, RES.maps, RES.column_degrees, RES.shifts, RES.grading),
        True,
        True,
    ),
    (
        HilbertSeriesForm,
        ("numerator", "denominator_factors"),
        (((1, Vec2(0, 0)), (-1, Vec2(4, 4))), BASE.generators),
        True,
        True,
    ),
    (
        GluingData,
        ("mu", "lam", "glue_degree", "extra_generator"),
        (GLUE.mu, GLUE.lam, GLUE.glue_degree, GLUE.extra_generator),
        True,
        True,
    ),
    (EnumerationBox, ("cap_x", "cap_y"), (3, 4), True, True),
    (TruncatedSeries, ("box", "packed", "w"), (BOX, [1, 2], 8), True, False),
    (CheckResult, ("name", "passed", "witness", "elapsed"), ("x", False, "w", 0.5), False, False),
    (Report, ("family", "checks", "flags"), (BASE, [], {"glued": False}), False, False),
]


@pytest.fixture(params=RECORDS, ids=[case[0].__name__ for case in RECORDS])
def record(request):
    return request.param


def test_record_behaviour(record):
    cls, names, values, frozen, hashable = record
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(by_position, n) for n in names) == values
    assert by_position == by_keyword and not by_position != by_keyword
    # equality is type-strict: the same values in a tuple are not the record
    assert by_position != values and values != by_position
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(by_position) == f"{cls.__name__}({fields})"
    if hashable:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(by_position, names[0], values[0])
    else:
        setattr(by_position, names[0], "changed")
        assert getattr(by_position, names[0]) == "changed"
        assert by_position != by_keyword


def test_defaults():
    f = SemigroupFamily(BASE.a, BASE.d, 2, BASE.generators)
    assert (f.extension, f.extension_mu, f.extension_lambda) == (None, None, None)
    assert f == BASE
    assert Witnessed(True) == Witnessed(True, None)
    assert MonomialOrder(3) == MonomialOrder(3, 0) == grevlex(3)
    assert CheckResult("x", True) == CheckResult("x", True, None, 0.0)
    one, two = Report(BASE), Report(BASE)
    assert one.checks == [] and one.flags == {}
    assert one.checks is not two.checks and one.flags is not two.flags


def test_exact_reprs():
    assert repr(MonomialOrder(3)) == "MonomialOrder(nvars=3, block=0)"
    assert repr(CheckResult("x", True)) == (
        "CheckResult(name='x', passed=True, witness=None, elapsed=0.0)"
    )
    assert repr(EnumerationBox(3, 4)) == "EnumerationBox(cap_x=3, cap_y=4)"
    assert repr(Witnessed(True)) == "Witnessed(holds=True, witness=None)"
    assert repr(TruncatedSeries.from_rows(BOX, [[1, 2], [3, 4]])) == (
        "TruncatedSeries(box=EnumerationBox(cap_x=1, cap_y=1), "
        "packed=[513, 1027], w=8)"
    )
    assert repr(generating_set(2)) == (
        "GeneratorFamily(k=2, xi={2: (<x2^2 - x1*x3>,)}, G=(<x2^2 - x1*x3>,))"
    )


def test_mutable_records_compare_by_value_after_a_change():
    a, b = Report(BASE), Report(BASE)
    a.checks.append(CheckResult("x", True))
    assert a != b
    b.checks.append(CheckResult("x", True))
    assert a == b
    a.flags["glued"] = True
    assert a != b


@pytest.mark.parametrize("caps", [(0, 1), (1, 0), (-2, 3)])
def test_enumeration_box_rejects_non_positive_caps(caps):
    with pytest.raises(ValueError, match="box caps must be positive"):
        EnumerationBox(*caps)


def test_truncated_series_equality_ignores_field_width():
    narrow = TruncatedSeries.from_rows(BOX, [[1, -2], [3, 4]])
    assert narrow.w == 8
    full = (1 << (128 * 2)) - 1
    wide = TruncatedSeries(
        BOX, [sum(c << (128 * y) for y, c in enumerate(row)) & full for row in narrow.rows], 128
    )
    assert wide == narrow and wide.rows == narrow.rows
    assert TruncatedSeries.from_rows(BOX, [[1, -2], [3, 5]]) != narrow
    assert TruncatedSeries.from_rows(EnumerationBox(1, 2), [[1, -2, 0], [3, 4, 0]]) != narrow
    with pytest.raises(TypeError):
        hash(narrow)


def test_monomial_order_equality_ignores_its_key_memo():
    used, fresh = grevlex(3), grevlex(3)
    used.key(5)
    assert used == fresh and hash(used) == hash(fresh)
    assert MonomialOrder(3, 1) != fresh


def test_generator_family_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type"):
        hash(generating_set(3))
