"""Exact arithmetic on rank-2 intersection lattices Z[H] + Z[L].

A basis (g, r, d) fixes the Gram matrix [[2g-2, d], [d, 2r-2]], i.e.
H^2 = 2g-2, H.L = d, L^2 = 2r-2.  Everything here is plain Python
integer arithmetic, so pairings stay exact at any size.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt


class LatticeClass(namedtuple("LatticeClass", "a b")):
    """An integer class a*H + b*L.  As a tuple it orders as (a, b); the
    arithmetic operators below replace tuple concatenation and repetition."""

    __slots__ = ()

    def __add__(self, other: "LatticeClass") -> "LatticeClass":
        return LatticeClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "LatticeClass") -> "LatticeClass":
        return LatticeClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "LatticeClass":
        return LatticeClass(-self.a, -self.b)

    def __mul__(self, n: int) -> "LatticeClass":
        return LatticeClass(n * self.a, n * self.b)

    __rmul__ = __mul__

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)

    @property
    def xy(self) -> tuple[int, int]:
        """The same class written xH - yL (so x = a, y = -b)."""
        return (self.a, -self.b)

    def __str__(self) -> str:
        if self.a == 0 and self.b == 0:
            return "0"
        parts = []
        if self.a:
            parts.append({1: "H", -1: "-H"}.get(self.a, f"{self.a}H"))
        if self.b:
            sign = "+" if (self.b > 0 and parts) else ""
            parts.append(sign + {1: "L", -1: "-L"}.get(self.b, f"{self.b}L"))
        return "".join(parts)


H = LatticeClass(1, 0)
L = LatticeClass(0, 1)
ZERO = LatticeClass(0, 0)


class LatticeBasis(namedtuple("LatticeBasis", "g r d")):
    """The lattice Z[H] + Z[L] with H^2 = 2g-2, H.L = d, L^2 = 2r-2."""

    __slots__ = ()

    def __new__(cls, g: int, r: int, d: int):
        if g < 2 or r < 0 or d < 0:
            raise ValueError(f"invalid lattice basis ({g}, {r}, {d})")
        return tuple.__new__(cls, (g, r, d))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: keep it validating
        return cls(*iterable)

    @property
    def h_square(self) -> int:
        return 2 * self.g - 2

    @property
    def l_square(self) -> int:
        return 2 * self.r - 2

    @property
    def discriminant(self) -> int:
        return delta(self.g, self.r, self.d)

    def __str__(self) -> str:
        return f"Lambda^{self.r}_({self.g},{self.d})"


def delta(g: int, r: int, d: int) -> int:
    """4(g-1)(r-1) - d^2; a K3 with this Picard lattice and nef H exists iff < 0."""
    return 4 * (g - 1) * (r - 1) - d * d


def pair(basis: LatticeBasis, u: LatticeClass, v: LatticeClass) -> int:
    """Intersection pairing u.v under the Gram matrix of ``basis``."""
    return (
        u.a * v.a * basis.h_square
        + (u.a * v.b + u.b * v.a) * basis.d
        + u.b * v.b * basis.l_square
    )


def floor_sqrt_ratio(num: int, den: int) -> int:
    """Largest integer m >= 0 with m*m*den <= num (num >= 0, den >= 1).

    As m*m is an integer, m*m*den <= num iff m*m <= num // den, so the
    answer is isqrt(num // den), exactly; no floating point anywhere.
    """
    if num < 0:
        raise ValueError("num must be >= 0")
    return isqrt(num // den)
