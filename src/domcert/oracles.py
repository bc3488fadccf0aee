"""Independent brute-force oracles.

These follow the recursive family definitions literally (try every witness,
try every split) with none of the memoized machinery of `families`.  They
exist so that the production code can be checked against a second, plainly
readable implementation.
"""

from __future__ import annotations

from .families import FinSet, QSchedule, Q_DEFAULT
from .ordinals import OMEGA, Ordinal, from_int, fundamental_sequence


def oracle_fine_member(xi: Ordinal, f: FinSet, q: QSchedule = Q_DEFAULT) -> bool:
    if not f:
        return True
    kind = xi.classify()
    if kind == "zero":
        return False
    if kind == "successor":
        rest = f[1:]
        return (not rest or f[0] < rest[0]) and oracle_fine_member(xi.pred(), rest, q)
    for n in range(1, f[0] + 1):
        level = from_int(q(n)) if xi == OMEGA else fundamental_sequence(xi, n)
        if oracle_fine_member(level, f, q):
            return True
    return False


def _splits(f: FinSet, parts: int):
    """All ways to cut f into exactly `parts` consecutive nonempty pieces."""
    if parts == 1:
        yield [f]
        return
    for i in range(1, len(f) - parts + 2):
        for rest in _splits(f[i:], parts - 1):
            yield [f[:i]] + rest


def oracle_schreier_member(xi: Ordinal, f: FinSet, q: QSchedule = Q_DEFAULT) -> bool:
    if not f:
        return True
    kind = xi.classify()
    if kind == "zero":
        return len(f) <= 1
    if kind == "successor":
        pred = xi.pred()
        for t in range(1, min(f[0], len(f)) + 1):
            for blocks in _splits(f, t):
                if all(oracle_schreier_member(pred, b, q) for b in blocks):
                    return True
        return False
    for n in range(1, f[0] + 1):
        level = from_int(q(n)) if xi == OMEGA else fundamental_sequence(xi, n)
        if oracle_schreier_member(level, f, q):
            return True
    return False
