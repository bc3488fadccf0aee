#!/usr/bin/env python3
"""Sweep finite-depth domination brackets across families and depths.

Prints, for a few (rho, target) pairs, how the depth-N bracket on the least
certificate constant evolves: the l1-against-c0 instance grows linearly with
depth, self-domination instances pin 1, and the level-0 family is free.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from domcert.domination import basis_sequence, gamma_bracket
from domcert.families import Schreier
from domcert.norms import C0, Combinatorial, L1
from domcert.ordinals import from_int


def show(label, rho, xi, depth, **kw):
    bracket = gamma_bracket(rho, xi, depth, **kw)
    upper = str(bracket.upper)
    print(f"{label:<38} depth={depth}  bracket=[{bracket.lower}, {upper}]")


def main() -> None:
    X1 = Combinatorial(Schreier(from_int(1)))
    for depth in (1, 2, 3, 4):
        show(
            f"l1 basis vs c0 target (ALL)",
            basis_sequence(L1(), depth),
            None,
            depth,
            g_space=C0(),
        )
    print()
    for xi in (from_int(0), from_int(1), from_int(2)):
        show(
            f"X[S[1]] self-domination at level {xi}",
            basis_sequence(X1, 5),
            xi,
            5,
        )
    print()
    for depth in (2, 3, 4):
        show(
            "c0 basis vs X[S[1]] target (ALL)",
            basis_sequence(C0(), depth),
            None,
            depth,
            g_space=X1,
        )


if __name__ == "__main__":
    main()
