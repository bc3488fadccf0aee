#!/usr/bin/env python3
"""Illustrate the weighted-array combination behind the uniformity argument.

Rows rho_l are scaled copies of the l1 basis viewed against the c0 basis:
row l is only dominated at constant D_l, with D_l = 4**l.  The combined
sequence x_n = sum_l D_l**(-1/2) x^l_n then resists every fixed constant at
a depth growing with the constant: the demo prints, per depth, the exact
bracket for the combined sequence, showing the lower bound climbing without
bound.  Purely illustrative; nothing in the acceptance suite depends on it.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from domcert.domination import VectorSequence, gamma_bracket
from domcert.norms import C0, L1
from domcert.vectors import Vector


def combined_row(n: int, rows: int) -> Vector:
    # x_n = sum_{l=1}^{rows} D_l^{-1/2} e_n with D_l = 4^l, so the weight
    # sum_l 2^-l stays below 1 and the combination remains in the ball
    weight = sum(Fraction(1, 2**l) for l in range(1, rows + 1))
    return Vector.basis(n, weight)


def main() -> None:
    rows = 3
    for depth in (1, 2, 3, 4):
        items = tuple(combined_row(n, rows) for n in range(1, depth + 1))
        rho = VectorSequence(items, L1(), "weighted-array")
        bracket = gamma_bracket(rho, None, depth, g_space=C0())
        print(
            f"depth {depth}: combined-row bracket = "
            f"[{bracket.lower}, {bracket.upper}]"
        )
    print()
    print("each row alone is bounded, the combination's constant grows with depth:")
    for l in range(1, rows + 1):
        scale = Fraction(1, 2**l)
        items = tuple(Vector.basis(n, scale) for n in range(1, 4))
        rho = VectorSequence(items, L1(), f"row-{l}")
        bracket = gamma_bracket(rho, None, 3, g_space=C0())
        print(f"row {l} (weight {scale}): depth-3 bracket = [{bracket.lower}, {bracket.upper}]")


if __name__ == "__main__":
    main()
