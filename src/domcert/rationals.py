"""Exact magnitude arithmetic: rationals together with their real n-th roots.

Norms in this package are either rational-valued or of the form q**(1/p) for a
rational q >= 0 and an integer p >= 1 (p-convexifications, Baernstein norms,
l_p norms).  `Mag` stores the pair (q, p) and supports exact comparison,
multiplication and division, so optimization and acceptance checks never touch
floating point.  `MAG_INF` is the one infinite magnitude: the value of a least
constant that does not exist.  It compares above every finite value, and
products, quotients and powers involving it raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


def integer_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor of n**(1/k) for n >= 0, k >= 1, plus exactness flag."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    hi = 1
    while hi**k <= n:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo, lo**k == n


def _perfect_root(q: Fraction, k: int) -> Fraction | None:
    rn, okn = integer_nth_root(q.numerator, k)
    if not okn:
        return None
    rd, okd = integer_nth_root(q.denominator, k)
    if not okd:
        return None
    return Fraction(rn, rd)


def parse_fraction(text: str) -> Fraction:
    """Parse 'num/den' or 'num' (optionally signed) into a Fraction."""
    return Fraction(text.strip())


def format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


MagLike = Union["Mag", Fraction, int]


@dataclass(frozen=True)
class Mag:
    """A nonnegative real number power**(1/root) with rational power, or
    +infinity, stored as power 1 and root 0 (`MAG_INF`)."""

    power: Fraction
    root: int = 1

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError("Mag is a magnitude; power must be >= 0")
        if self.root < 1:
            if self.root < 0 or self.power != 1:
                raise ValueError("root must be >= 1, or 0 with power 1 for infinity")
            return
        power, root = self.power, self.root
        # reduce: pull out perfect d-th powers for divisors d of root
        d = 2
        while d <= root:
            if root % d == 0:
                r = _perfect_root(power, d)
                if r is not None:
                    power, root = r, root // d
                    continue
            d += 1
        if power in (0, 1):
            root = 1
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "root", root)

    @staticmethod
    def of(value: MagLike) -> "Mag":
        if isinstance(value, Mag):
            return value
        value = Fraction(value)
        if value < 0:
            raise ValueError("magnitudes are nonnegative")
        return Mag(value, 1)

    @property
    def is_finite(self) -> bool:
        return self.root != 0

    @property
    def is_rational(self) -> bool:
        return self.root == 1

    def as_fraction(self) -> Fraction:
        if self.root != 1:
            raise ValueError(f"{self} is {'irrational' if self.root else 'infinite'}")
        return self.power

    def _cmp_key(self, other: "Mag") -> tuple[Fraction, Fraction]:
        if not (self.root and other.root):
            return Fraction(not self.root), Fraction(not other.root)
        r = math.lcm(self.root, other.root)
        return self.power ** (r // self.root), other.power ** (r // other.root)

    def _common_root(self, other: "Mag") -> int:
        if not (self.root and other.root):
            raise ValueError("no products or quotients with an infinite magnitude")
        return math.lcm(self.root, other.root)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            if other < 0:
                return False
            other = Mag.of(other)
        if not isinstance(other, Mag):
            return NotImplemented
        return self.power == other.power and self.root == other.root

    def __hash__(self) -> int:
        return hash((self.power, self.root))

    def __lt__(self, other: MagLike) -> bool:
        if isinstance(other, (int, Fraction)) and other < 0:
            return False
        a, b = self._cmp_key(Mag.of(other))
        return a < b

    def __le__(self, other: MagLike) -> bool:
        if isinstance(other, (int, Fraction)) and other < 0:
            return False
        a, b = self._cmp_key(Mag.of(other))
        return a <= b

    def __gt__(self, other: MagLike) -> bool:
        return not self.__le__(other)

    def __ge__(self, other: MagLike) -> bool:
        return not self.__lt__(other)

    def __mul__(self, other: MagLike) -> "Mag":
        other = Mag.of(other)
        r = self._common_root(other)
        return Mag(self.power ** (r // self.root) * other.power ** (r // other.root), r)

    __rmul__ = __mul__

    def __truediv__(self, other: MagLike) -> "Mag":
        other = Mag.of(other)
        if other.power == 0:
            raise ZeroDivisionError("division by zero magnitude")
        r = self._common_root(other)
        return Mag(self.power ** (r // self.root) / other.power ** (r // other.root), r)

    def __pow__(self, k: int) -> "Mag":
        if k < 0:
            raise ValueError("negative powers unsupported")
        if not self.root:
            raise ValueError("no powers of an infinite magnitude")
        if k == 0:
            return Mag(Fraction(1))
        return Mag(self.power**k, self.root)

    def __float__(self) -> float:
        if not self.root:
            return math.inf
        return float(self.power) ** (1.0 / self.root)

    def approx(self, digits: int = 12) -> str:
        """Decimal approximation to `digits` fractional digits, truncated."""
        scale = 10**digits
        # floor of value*scale: integer root of power * scale**root
        num = self.power.numerator * scale**self.root
        den = self.power.denominator
        r, _ = integer_nth_root(num // den, self.root)
        # correct potential off-by-one from the division floor
        while (r + 1) ** self.root * den <= num:
            r += 1
        whole, frac = divmod(r, scale)
        return f"{whole}.{frac:0{digits}d}"

    def __str__(self) -> str:
        if not self.root:
            return "inf"
        if self.root == 1:
            return format_fraction(self.power)
        return f"{format_fraction(self.power)}^(1/{self.root})"


MAG_ZERO = Mag(Fraction(0))
MAG_ONE = Mag(Fraction(1))
MAG_INF = Mag(Fraction(1), 0)


def mag_max(values) -> Mag:
    best = MAG_ZERO
    for v in values:
        v = Mag.of(v)
        if v > best:
            best = v
    return best
