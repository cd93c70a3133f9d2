from fractions import Fraction

import pytest

from apsemigroups import Vec2, det, in_lattice, ray_coordinates
from conftest import property_settings


def test_vector_arithmetic():
    a, d = Vec2(5, 4), Vec2(4, 9)
    assert a + 3 * d == Vec2(17, 31)
    assert a - d == Vec2(1, -5)
    assert tuple(-a) == (-5, -4)
    assert a.dominates(Vec2(5, 3))
    assert not a.dominates(Vec2(6, 0))


def test_vec2_is_its_int_pair(hypothesis):
    """Hashing, order, equality, arithmetic, str and repr are those the output
    depends on: a point behaves as the pair (x, y) everywhere."""
    st = hypothesis.strategies
    coords = st.integers(-(2**70), 2**70)
    pairs = st.lists(st.tuples(coords, coords), min_size=1, max_size=8)

    @property_settings(hypothesis)
    @hypothesis.given(pairs, st.integers(-50, 50))
    def check(pairs, n):
        points = [Vec2(x, y) for x, y in pairs]
        for (x, y), v in zip(pairs, points):
            assert hash(v) == hash((x, y))
            assert v == (x, y) and (x, y) == v and tuple(v) == (x, y)
            assert str(v) == f"({x},{y})"
            assert repr(v) == f"Vec2(x={x}, y={y})"
            for w in (-v, n * v, v * n):
                assert type(w) is Vec2
            assert -v == (-x, -y)
            assert n * v == v * n == (n * x, n * y)
            assert v.is_zero() == (x == 0 and y == 0)
            assert v.is_nonnegative() == (x >= 0 and y >= 0)
            assert v.coord_sum() == x + y
        assert sorted(points) == sorted(pairs)
        assert list(set(points)) == list(set(pairs))
        (ux, uy), (wx, wy) = pairs[0], pairs[-1]
        u, w = points[0], points[-1]
        assert type(u + w) is Vec2 and u + w == (ux + wx, uy + wy)
        assert type(u - w) is Vec2 and u - w == (ux - wx, uy - wy)
        assert u.dominates(w) == (ux >= wx and uy >= wy)

    check()


def test_det():
    assert det(Vec2(5, 4), Vec2(4, 9)) == 29
    assert det(Vec2(1, 0), Vec2(2, 0)) == 0


def test_ray_coordinates_exact():
    r1, r2 = Vec2(5, 4), Vec2(17, 31)
    c1, c2 = ray_coordinates(Vec2(9, 13), r1, r2)
    assert (c1, c2) == (Fraction(2, 3), Fraction(1, 3))
    assert c1 * r1.x + c2 * r2.x == 9
    assert c1 * r1.y + c2 * r2.y == 13


def test_ray_coordinates_dependent_rays():
    with pytest.raises(ZeroDivisionError):
        ray_coordinates(Vec2(1, 1), Vec2(1, 0), Vec2(2, 0))


def test_in_lattice():
    r1, r2 = Vec2(5, 4), Vec2(17, 31)
    assert in_lattice(r1 + r2, r1, r2)
    assert in_lattice(r1 - 5 * r2, r1, r2)
    # (9,13) = (2/3, 1/3) in the ray basis: rational but not integral
    assert not in_lattice(Vec2(9, 13), r1, r2)
