"""Exact plane lattice arithmetic: Z^2 vectors, ray coordinates, lattice tests.

A point is one value everywhere in the package: `Vec2` is the int pair
(x, y) itself, a named tuple that hashes, sorts, unpacks and compares equal
as that pair, with vector arithmetic on top.

Everything is integer or Fraction; no floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Vec2(NamedTuple):
    """A point of Z^2 (callers enforce nonnegativity where N^2 is required)."""

    x: int
    y: int

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __rmul__(self, n: int) -> "Vec2":
        return Vec2(n * self.x, n * self.y)

    def __mul__(self, n: int) -> "Vec2":
        return Vec2(n * self.x, n * self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_nonnegative(self) -> bool:
        return self.x >= 0 and self.y >= 0

    def coord_sum(self) -> int:
        return self.x + self.y

    def dominates(self, other: "Vec2") -> bool:
        """Componentwise >=."""
        return self.x >= other.x and self.y >= other.y

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


ZERO = Vec2(0, 0)


def det(u: Vec2, v: Vec2) -> int:
    return u.x * v.y - u.y * v.x


def ray_coordinates(v: Vec2, r1: Vec2, r2: Vec2) -> tuple[Fraction, Fraction]:
    """Solve v = c1*r1 + c2*r2 over Q by Cramer's rule.

    Requires det(r1, r2) != 0; the family invariants guarantee this for the
    extremal rays.
    """
    d = det(r1, r2)
    if d == 0:
        raise ZeroDivisionError("rays are linearly dependent")
    c1 = Fraction(v.x * r2.y - v.y * r2.x, d)
    c2 = Fraction(r1.x * v.y - r1.y * v.x, d)
    return c1, c2


def in_lattice(v: Vec2, r1: Vec2, r2: Vec2) -> bool:
    """Whether v lies in the subgroup of Z^2 generated by r1 and r2."""
    c1, c2 = ray_coordinates(v, r1, r2)
    return c1.denominator == 1 and c2.denominator == 1
