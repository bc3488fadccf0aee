"""Finitely supported vectors with exact rational coefficients."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .rationals import format_fraction, parse_fraction


@dataclass(frozen=True)
class Vector:
    entries: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        prev = 0
        for idx, coeff in self.entries:
            if idx < 1:
                raise ValueError("indices are positive integers")
            if idx <= prev:
                raise ValueError("indices must be strictly increasing")
            if coeff == 0:
                raise ValueError("zero coefficients are not stored")
            prev = idx

    @staticmethod
    def of(data: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]]) -> "Vector":
        items = data.items() if isinstance(data, Mapping) else data
        cleaned = [(i, Fraction(c)) for i, c in items if Fraction(c) != 0]
        return Vector(tuple(sorted(cleaned)))

    @staticmethod
    def basis(index: int, coeff: Fraction | int = 1) -> "Vector":
        return Vector.of({index: coeff})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def coeff(self, index: int) -> Fraction:
        for i, c in self.entries:
            if i == index:
                return c
        return Fraction(0)

    def scale(self, factor: Fraction) -> "Vector":
        factor = Fraction(factor)
        if factor == 0:
            return Vector()
        return Vector(tuple((i, c * factor) for i, c in self.entries))

    def __add__(self, other: "Vector") -> "Vector":
        acc: dict[int, Fraction] = dict(self.entries)
        for i, c in other.entries:
            acc[i] = acc.get(i, Fraction(0)) + c
        return Vector.of(acc)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + other.scale(Fraction(-1))

    def abs_powers(self, p: int) -> "Vector":
        return Vector(tuple((i, abs(c) ** p) for i, c in self.entries))

    def dot(self, other: "Vector") -> Fraction:
        small, big = (self, other) if len(self.entries) <= len(other.entries) else (other, self)
        lookup = dict(big.entries)
        return sum((c * lookup[i] for i, c in small.entries if i in lookup), Fraction(0))

    def max_abs(self) -> Fraction:
        return max((abs(c) for _, c in self.entries), default=Fraction(0))

    def l1(self) -> Fraction:
        return sum((abs(c) for _, c in self.entries), Fraction(0))

    def to_json(self) -> dict:
        return {"entries": [[i, format_fraction(c)] for i, c in self.entries]}

    @staticmethod
    def from_json(data: dict) -> "Vector":
        return Vector.of([(int(i), parse_fraction(str(c))) for i, c in data["entries"]])

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @staticmethod
    def loads(text: str) -> "Vector":
        return Vector.from_json(json.loads(text))

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return "+".join(f"{format_fraction(c)}*e{i}" for i, c in self.entries)


def combine(vectors: Iterable[Vector], coeffs: Iterable[Fraction]) -> Vector:
    acc: dict[int, Fraction] = {}
    for v, a in zip(vectors, coeffs):
        if a != 0:
            a = Fraction(a)
            for i, c in v.entries:
                acc[i] = acc.get(i, 0) + a * c
    return Vector(tuple(sorted((i, c) for i, c in acc.items() if c != 0)))
