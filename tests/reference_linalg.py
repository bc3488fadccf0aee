"""Reference exact linear algebra for the test oracles: reduced row echelon
form over `Fraction`, one row division and one row subtraction at a time.

`domcert.linprog` eliminates over integer rows, fraction-free; the brute
oracles solve their vertex systems here instead, so that a fault in that
elimination cannot hide in an oracle's answer too.  Not a test module: the
tests import it by name.
"""

from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """The reduced row echelon form of `rows` and its pivot columns."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_nullspace(rows: Sequence[Sequence[Fraction]], n: int) -> list[Row]:
    """Basis of {v : row . v = 0 for all rows} in dimension n, one vector per
    free column f with v[f] = 1 and zeros on the other free columns."""
    if not rows:
        return [[Fraction(i == j) for j in range(n)] for i in range(n)]
    m, pivots = rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def ref_solve_square(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[Row]:
    """The solution of a square system, or None when it is singular."""
    n = len(a)
    m, pivots = rref([[*row, rhs] for row, rhs in zip(a, b)])
    # n rows reach n pivots short of the last column only when a is nonsingular
    if pivots != list(range(n)):
        return None
    return [row[n] for row in m]
