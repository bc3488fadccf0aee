"""Finite-stage spreading model estimation and the omega-level bridge.

The iterated limit lim_{l_1} ... lim_{l_m} |sum a_n x_{l_n}| is replaced by a
geometric index schedule with stability detection: stage s evaluates indices
L(s*2^n), for strictly increasing stages s, where L is one `SubseqSpec` map
(an explicit prefix continued in equal steps).  For combinatorial spaces the
admissible subsets of {1..m} are monotone along spreads, so exact tail values
are available: a subset eventually contributes exactly when the family
contains some set of its cardinality.

`check_main2_bridge` shares one certificate search and one estimated table
of rho between its two direction checks, each a flat function that returns
its report and whether it is inconclusive.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .domination import (
    Certificate,
    SearchOutcome,
    VectorSequence,
    search_certificate,
    verify_certificate,
)
from .families import QSchedule, Q_DEFAULT, Schreier
from .norms import Combinatorial, SpaceSpec, norm
from .ordinals import OMEGA, Ordinal
from .rationals import Mag, MAG_INF, MAG_ZERO, format_fraction, mag_max
from .vectors import Vector, combine


class SpreadingError(ValueError):
    pass


# largest universe scanned for a witness set, and largest stage offset tried
SCAN_BOUND = 64


@dataclass(frozen=True)
class SubseqSpec:
    """Strictly increasing index map: the prefix, then on from its last entry
    (0 when it is empty) in steps of `step`.  SubseqSpec() is the identity and
    SubseqSpec((s,), d) the affine map n -> s + d*(n-1)."""

    prefix: tuple[int, ...] = ()
    step: int = 1

    def __post_init__(self) -> None:
        prev = (0,) + self.prefix
        if self.step < 1 or any(a >= b for a, b in zip(prev, self.prefix)):
            raise SpreadingError(
                "not a subsequence: need start >= 1, step >= 1 and a strictly "
                "increasing prefix of positive integers"
            )

    def __call__(self, n: int) -> int:
        if n < 1:
            raise SpreadingError("subsequence index starts at 1")
        k = min(n, len(self.prefix))
        return ((0,) + self.prefix)[k] + self.step * (n - k)

    @staticmethod
    def parse(text: str) -> "SubseqSpec":
        text = text.strip()
        if text in ("identity", "id"):
            return SubseqSpec()
        if text.startswith("affine(") and text.endswith(")"):
            start, step = (int(v) for v in text[7:-1].split(","))
            return SubseqSpec((start,), step)
        return SubseqSpec(tuple(int(v) for v in text.split(",") if v.strip()))


Generator = Callable[[int], Vector]


def default_probes(m: int, seed: int = 0, extra: int = 64) -> list[tuple[Fraction, ...]]:
    """{0,1,-1}-vectors (simplex corners included), plus seeded rationals."""
    probes: list[tuple[Fraction, ...]] = []
    for pattern in itertools.product((0, 1, -1), repeat=m):
        if any(pattern):
            probes.append(tuple(Fraction(v) for v in pattern))
    rng = random.Random(seed)
    for _ in range(extra):
        probes.append(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(m))
        )
    return probes


@dataclass
class SpreadingTable:
    m: int
    stage: int
    probes: tuple[tuple[Fraction, ...], ...]
    values: dict[tuple[Fraction, ...], Mag]
    exact: bool = False

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "stage": self.stage,
            "probes": [[format_fraction(c) for c in p] for p in self.probes],
            "values": [str(self.values[p]) for p in self.probes],
            "exact": self.exact,
        }


@dataclass
class EstimateReport:
    tables: list[SpreadingTable]
    stable: bool
    max_discrepancy_desc: str


def estimate_spreading(
    space: SpaceSpec,
    gen: Generator,
    subseq: SubseqSpec,
    m: int,
    stages: Sequence[int],
    probes: Optional[Sequence[Sequence[Fraction]]] = None,
    seed: int = 0,
) -> EstimateReport:
    """Evaluate |sum a_n x_{L(s*2^n)}| per probe at each stage offset s."""
    if m < 1:
        raise SpreadingError("m must be >= 1")
    if any(a >= b for a, b in zip(stages, stages[1:])):
        raise SpreadingError("stages must be strictly increasing")
    probes = (
        [tuple(Fraction(v) for v in p) for p in probes]
        if probes is not None
        else default_probes(m, seed)
    )
    for p in probes:
        if len(p) != m:
            raise SpreadingError("probe length must equal m")
    tables = []
    for s in stages:
        vectors = [gen(subseq(s * 2**n)) for n in range(1, m + 1)]
        values = {
            p: norm(space, combine(vectors, p)) for p in map(tuple, probes)
        }
        tables.append(
            SpreadingTable(m, s, tuple(map(tuple, probes)), values, False)
        )
    stable = len(tables) >= 2 and all(
        tables[-1].values[p] == tables[-2].values[p] for p in tables[-1].probes
    )
    if stable:
        desc = "0 (last two stages exactly equal)"
    elif len(tables) >= 2:
        diffs = [
            abs(float(tables[-1].values[p]) - float(tables[-2].values[p]))
            for p in tables[-1].probes
        ]
        desc = f"~{max(diffs):.3g} (approximate; values not all equal)"
    else:
        desc = "n/a (single stage)"
    return EstimateReport(tables, stable, desc)


@dataclass
class ExactSpreadingResult:
    value: Mag
    stability_threshold: Optional[int]
    stable: bool


def exact_spreading_combinatorial(
    xi: Ordinal,
    subseq: SubseqSpec,
    m: int,
    a: Sequence[Fraction],
    q: QSchedule = Q_DEFAULT,
) -> ExactSpreadingResult:
    """Exact iterated-limit value for the Schreier-space basis along a
    subsequence.

    Far enough out, a subset of {1..m} is admissible exactly when the family
    contains some set of its size (spreads preserve membership), so the limit
    is the best mass of min(m, maxcard) coefficients; the returned threshold
    is a stage at which the admissible pattern has already stabilized.
    """
    if m < 1 or len(a) != m:
        raise SpreadingError("need m >= 1 coefficients")
    cap, stage = _tail_stage(xi, subseq, m, q)
    return ExactSpreadingResult(_top_mass(a, cap), stage, stage is not None)


def _top_mass(a: Sequence[Fraction], cap: int) -> Mag:
    ordered = sorted((abs(Fraction(v)) for v in a), reverse=True)
    return Mag.of(sum(ordered[:cap], Fraction(0)))


def _tail_stage(
    xi: Ordinal, subseq: SubseqSpec, m: int, q: QSchedule
) -> tuple[int, Optional[int]]:
    """The number cap of coefficients that count in the limit, and a stage
    past a witness set of each size up to cap (None when the scan finds
    none); both are independent of the coefficients."""
    fam = Schreier(xi, q)
    cap = 1 if xi.is_zero else m  # S[0] has only singletons, higher levels every size

    # find a witness set of each needed size, then a stage past its maximum
    witness_max = 0
    for size in range(1, cap + 1):
        found = None
        n = max(2 * size, 2)
        while found is None and n <= SCAN_BOUND:
            for f in itertools.combinations(range(1, n + 1), size):
                if fam.member(f):
                    found = f
                    break
            n *= 2
        if found is None:
            return cap, None
        witness_max = max(witness_max, found[-1])
    stage = 1
    while subseq(2 * stage) <= witness_max and stage <= SCAN_BOUND:
        stage += 1
    return cap, stage


@dataclass
class EquivalenceResult:
    lower: Mag
    upper: Mag
    exact: bool


def equivalence_constant(t1: SpreadingTable, t2: SpreadingTable) -> EquivalenceResult:
    """Smallest K with mutual K-domination of the two tables over the shared
    probes: max over probes of the two directional ratios."""
    if t1.m != t2.m or t1.probes != t2.probes:
        raise SpreadingError("tables must share m and the probe set")
    best: Mag = MAG_ZERO
    for p in t1.probes:
        v1, v2 = t1.values[p], t2.values[p]
        if v1 == MAG_ZERO and v2 == MAG_ZERO:
            continue
        if v1 == MAG_ZERO or v2 == MAG_ZERO:
            return EquivalenceResult(MAG_ZERO, MAG_INF, t1.exact and t2.exact)
        best = mag_max([best, v1 / v2, v2 / v1])
    return EquivalenceResult(best, best, t1.exact and t2.exact)


def exact_table(
    xi: Ordinal,
    subseq: SubseqSpec,
    m: int,
    probes: Sequence[Sequence[Fraction]],
    q: QSchedule = Q_DEFAULT,
) -> SpreadingTable:
    values = {}
    tail = None
    for p in map(tuple, probes):
        if m < 1 or len(p) != m:
            raise SpreadingError("need m >= 1 coefficients")
        cap, stage = tail = tail or _tail_stage(xi, subseq, m, q)
        if stage is None:
            raise SpreadingError("tail stability not detected")
        values[p] = _top_mass(p, cap)
    return SpreadingTable(
        m, tail[1] if tail else 0, tuple(map(tuple, probes)), values, True
    )


@dataclass
class BridgeReport:
    direction_a: dict
    direction_b: dict
    inconclusive: bool

    @property
    def ok(self) -> bool:
        return (
            not self.inconclusive
            and self.direction_a.get("pass", False)
            and self.direction_b.get("pass", False)
        )


def check_main2_bridge(
    rho: VectorSequence,
    g_xi: Ordinal,
    C: Fraction,
    depth: int,
    q: QSchedule = Q_DEFAULT,
    seed: int = 0,
) -> BridgeReport:
    """Finite shadow of the two checkable directions of the omega-level
    equivalence between certificates and spreading-model domination.

    (a) a verified omega-certificate at C forces the estimated spreading
        table of rho to be C-dominated by the exact table of the g-basis
        subsequence it uses;
    (b) spreading-table domination at C plus stage stability yields a
        verified omega-certificate at 1 + 2*C.

    The tables have probes of length 3.
    """
    C = Fraction(C)
    m = 3
    g_fam = Schreier(g_xi, q)
    for n in range(1, depth):
        if q(n) > q(n + 1):
            raise SpreadingError("q schedule must be non-decreasing")

    probes = default_probes(m, seed, extra=16)
    out = search_certificate(rho, OMEGA, C, depth, Combinatorial(g_fam), q, node_budget=500_000)
    # both directions read the same stages of rho's estimated table
    stages = [s for s in (1, 2, 3) if s * 2**m <= len(rho)]
    est = estimate_spreading(rho.space, lambda n: rho.items[n - 1], SubseqSpec(), m, stages, probes)
    report_a, open_a = _direction_a(out, C, est, g_fam)
    report_b, open_b = _direction_b(rho, est, g_fam, depth)
    return BridgeReport(report_a, report_b, open_a or open_b)


def _direction_a(
    out: SearchOutcome, C: Fraction, est: EstimateReport, g_fam: Schreier
) -> tuple[dict, bool]:
    """Direction (a) of the bridge: its report, and whether it is inconclusive.
    A search that ran out of its budget leaves it open; an exhausted one
    refutes it."""
    if out.status != "found":
        reason = f"no certificate at C={C} ({out.status})"
        return {"pass": False, "reason": reason}, out.status == "budget"
    if len(est.tables) < 2:
        return {"pass": False, "reason": "rho prefix too short for stages"}, True
    rho_tab, bound = est.tables[-1], Mag.of(C)
    g_sub = SubseqSpec(out.certificate.L)
    gtab = exact_table(g_fam.xi, g_sub, rho_tab.m, rho_tab.probes, g_fam.q)
    bad = [p for p in gtab.probes if not rho_tab.values[p] <= bound * gtab.values[p]]
    return {
        "pass": not bad and est.stable,
        "certificate": out.certificate.to_json(),
        "stable": est.stable,
        "violating_probes": [[str(c) for c in p] for p in bad],
    }, not est.stable


def _direction_b(
    rho: VectorSequence, est: EstimateReport, g_fam: Schreier, depth: int
) -> tuple[dict, bool]:
    """Direction (b) of the bridge: its report, and whether it is inconclusive."""
    if len(est.tables) < 2:
        return {"pass": False, "reason": "rho prefix too short for stability"}, True
    rho_tab = est.tables[-1]
    gtab = exact_table(g_fam.xi, SubseqSpec(), rho_tab.m, rho_tab.probes, g_fam.q)
    if not est.stable:
        return {"pass": False, "reason": "stage stability not reached"}, True
    ratios = []
    for p in gtab.probes:
        v_rho, v_g = rho_tab.values[p], gtab.values[p]
        if v_g != MAG_ZERO:
            ratios.append(v_rho / v_g)
        elif v_rho > MAG_ZERO:
            return {"pass": False, "reason": "g table vanishes"}, False
    c_dom = mag_max(ratios)
    if not c_dom.is_rational:
        return {"pass": False, "reason": "irrational table ratio"}, True
    c_target = 1 + 2 * c_dom.as_fraction()
    offset = max(gtab.stage, 1)
    if offset + depth > len(rho):
        return {"pass": False, "reason": "rho prefix too short for the shifted certificate"}, True
    m_idx = tuple(range(offset + 1, offset + depth + 1))
    cert = Certificate(OMEGA, m_idx, m_idx, c_target, Combinatorial(g_fam), rho.name)
    rep = verify_certificate(cert, rho, g_fam.q)
    return {
        "pass": rep.ok,
        "table_domination": str(c_dom),
        "certificate_constant": str(c_target),
        "worst_ratio": str(rep.worst_ratio),
    }, False
