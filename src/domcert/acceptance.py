"""The acceptance suite: twelve exact desk-scale checks, one per criterion.

Each criterion is a function returning a CriterionResult, entered in CRITERIA
by the @criterion decorator; the runner prints one PASS/FAIL line per
criterion with deterministic output for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Callable

from .domination import (
    VectorSequence,
    basis_sequence,
    domination_lower_bound,
    gamma_bracket,
    right_dominance_defect,
    search_certificate,
)
from .families import (
    FineSchreier,
    Schreier,
    check_regular,
    enumerate_family,
    find_order_embedding,
    rank_restricted,
)
from .norms import C0, Combinatorial, L1, Baernstein, Tsirelson, TsirelsonEngine, norm
from .oracles import oracle_fine_member, oracle_schreier_member
from .ordinals import OMEGA, from_int, parse_ordinal
from .rationals import MAG_ONE, Mag
from .spreading import (
    SubseqSpec,
    check_main2_bridge,
    default_probes,
    equivalence_constant,
    exact_spreading_combinatorial,
    exact_table,
)
from .transfer import (
    block_certificate,
    limit_combine,
    merge_subsequence_certificates,
    shift_certificate,
    sum_combine,
)
from .vectors import Vector


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str = ""


CRITERIA: dict[str, Callable[[int], CriterionResult]] = {}


def criterion(
    cid: str, name: str
) -> Callable[[Callable[[int], tuple[bool, str]]], Callable[[int], CriterionResult]]:
    """Register a criterion body, which returns (passed, detail), in CRITERIA
    as a function returning the CriterionResult named cid and name."""

    def register(body: Callable[[int], tuple[bool, str]]) -> Callable[[int], CriterionResult]:
        @wraps(body)
        def run(seed: int = 0) -> CriterionResult:
            return CriterionResult(cid, name, *body(seed))

        CRITERIA[cid] = run
        return run

    return register


def _subsets(universe: range):
    items = list(universe)
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


@criterion("01", "family-oracle-equivalence")
def criterion_01_family_oracle(seed: int = 0) -> tuple[bool, str]:
    """Membership agrees with the definitional unfolding oracle on {1..10}."""
    fine_levels = [
        from_int(0), from_int(1), from_int(2), from_int(3),
        OMEGA, parse_ordinal("w+1"), parse_ordinal("w*2"), parse_ordinal("w^2"),
    ]
    levels = [(xi, FineSchreier(xi), oracle_fine_member) for xi in fine_levels]
    levels += [(xi, Schreier(xi), oracle_schreier_member) for xi in map(from_int, range(3))]
    checked = 0
    for xi, fam, oracle in levels:
        for f in _subsets(range(1, 11)):
            if fam.member(f) != oracle(xi, f):
                return False, f"{fam} disagrees with the oracle at {f}"
            checked += 1
    return True, f"{checked} membership pairs agree"


@criterion("02", "restricted-ranks")
def criterion_02_ranks(seed: int = 0) -> tuple[bool, str]:
    """Fine Schreier ranks k+1 at N=12; exact Schreier(1) ranks for 2 <= N <= 12.

    The rank of a hereditary family cut to {1..N} is its longest member plus
    one.  The longest member of S[1] inside {1..N} is {m..N} with
    m >= (N+1)/2, so rank(S[1]|N) = floor((N+1)/2)+1.  Each value must equal
    that closed form and one plus the longest subset of {1..N} accepted by
    the definitional oracle.  The growth follows from the closed form, which
    gives rank(S[1]|N+2) = rank(S[1]|N)+1 for every N and so needs no check
    of its own: S[1]|{1..N} exceeds rank(F[k]|12) = k+1 from N = 2k+1 on, and
    the restrictions outgrow every fine level, as the rank w+1 of S[1]
    requires.
    """
    for k in range(7):
        got = rank_restricted(FineSchreier(from_int(k)), 12)
        if got != k + 1:
            return False, f"rank(F[{k}]|12) = {got} != {k+1}"
    one = from_int(1)
    longest = [0] * 13  # longest[n]: longest oracle-accepted subset of {1..n}
    for f in _subsets(range(1, 13)):
        if f and oracle_schreier_member(one, f):
            for n in range(f[-1], 13):
                longest[n] = max(longest[n], len(f))
    ns = range(2, 13)
    ranks = {n: rank_restricted(Schreier(one), n) for n in ns}
    for n in ns:
        if ranks[n] != longest[n] + 1:
            return False, (
                f"rank(S[1]|{n}) = {ranks[n]} != 1 + {longest[n]}, the longest "
                f"subset of {{1..{n}}} the oracle accepts"
            )
        closed = (n + 1) // 2 + 1
        if ranks[n] != closed:
            return False, f"rank(S[1]|{n}) = {ranks[n]} != floor(({n}+1)/2)+1 = {closed}"
    return True, (
        f"F[k]|12 ranks k+1 for k=0..6; S[1] ranks {list(ranks.values())} for "
        "N=2..12 equal floor((N+1)/2)+1 and 1 + the longest oracle member, "
        "rising by 1 every 2 steps"
    )


REGULARITY_TEST_SET: list[str] = [
    "F[0]", "F[1]", "F[2]", "F[3]", "F[w]", "F[w+1]", "F[w*2]", "F[w^2]",
    "S[0]", "S[1]", "S[2]", "ALL", "SUM(1;2)", "SUM(2;1)",
    "NFOLD(S[1];2)", "NFOLD(S[1];3)",
]


@criterion("03", "regularity")
def criterion_03_regularity(seed: int = 0) -> tuple[bool, str]:
    from .families import parse_family

    for text in REGULARITY_TEST_SET:
        report = check_regular(parse_family(text), 10)
        if not report.ok:
            return False, f"{text} fails at N=10: {report.counterexample}"
    return True, f"{len(REGULARITY_TEST_SET)} families regular at N=10"


def _all_spreads(m: tuple[int, ...], cap: int):
    def rec(i: int, prev: int):
        if i == len(m):
            yield ()
            return
        for v in range(max(m[i], prev + 1), cap + 1):
            for rest in rec(i + 1, v):
                yield (v,) + rest

    yield from rec(0, 0)


@criterion("04", "one-right-dominance")
def criterion_04_right_dominance(seed: int = 0) -> tuple[bool, str]:
    """1-right dominance of the Schreier space bases on every spread pair
    with entries <= 8 and length <= 4, exact; a seeded sample is re-checked
    on the LP engine."""
    pairs = []
    for k in range(1, 5):
        for m in itertools.combinations(range(1, 9), k):
            pairs.extend((m, l) for l in _all_spreads(m, 8))
    spaces = [
        ("X[S[1]]", Combinatorial(Schreier(from_int(1)))),
        ("X[S[2]]", Combinatorial(Schreier(from_int(2)))),
    ]
    for name, space in spaces:
        for m, l in pairs:
            rep = right_dominance_defect(space, m, l, Fraction(1))
            if not rep.ok:
                return False, f"{name}: constant {rep.constant} > 1 at m={m}, l={l}"
    rng = random.Random(seed)
    for m, l in rng.sample(pairs, 40):
        for name, space in spaces:
            fast = right_dominance_defect(space, m, l, Fraction(1), engine="auto")
            slow = right_dominance_defect(space, m, l, Fraction(1), engine="lp")
            if fast.constant != slow.constant:
                return False, f"{name}: engines disagree at m={m}, l={l}"
    return True, f"{2*len(pairs)} spread pairs at constant <= 1; 80 LP cross-checks"


def _seeded_blocks(
    rng: random.Random,
    count: int,
    max_support: int,
    space,
    schreier_aligned: bool,
    max_width: int = 3,
) -> list[Vector]:
    """Consecutive normalized blocks with exactly rational norms."""
    blocks: list[Vector] = []
    pos = 1
    for _ in range(count):
        width = rng.randint(1, max_width)
        if schreier_aligned and width > 1:
            pos = max(pos, width)  # keep the support set inside Schreier(1)
        hi = pos + width - 1
        if hi > max_support:
            break
        coeffs = {}
        for i in range(pos, hi + 1):
            c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            coeffs[i] = c if rng.random() < 0.7 else -c
        v = Vector.of(coeffs)
        total = norm(space, v)
        if not total.is_rational:
            v = Vector.of({i: abs(c) for i, c in coeffs.items()})
            total = norm(space, v)
        if not total.is_rational or total.as_fraction() == 0:
            continue
        blocks.append(v.scale(1 / total.as_fraction()))
        pos = hi + 1
    return blocks


@criterion("05", "block-domination")
def criterion_05_block_domination(seed: int = 0) -> tuple[bool, str]:
    """Normalized blocks in X[S[1]] certify at C=1 against the basis at
    support maxima."""
    rng = random.Random(seed)
    s1 = Schreier(from_int(1))
    space = Combinatorial(s1)
    runs = 0
    while runs < 50:
        count = rng.randint(1, 4)
        blocks = _seeded_blocks(rng, count, 10, space, schreier_aligned=False)
        if not blocks:
            continue
        cert, rho = block_certificate(s1, blocks)
        if not cert.verified or cert.C != 1:
            return False, f"run {runs}: {cert.to_json()}"
        if cert.L != tuple(v.support[-1] for v in blocks):
            return False, f"run {runs}: wrong L {cert.L}"
        runs += 1
    return True, "50 block certificates at C=1"


@criterion("06", "baernstein-bound")
def criterion_06_baernstein(seed: int = 0) -> tuple[bool, str]:
    """Sound lower bounds never exceed 4 for blocks in Baernstein(1,2)
    against the basis at support maxima."""
    rng = random.Random(seed)
    space = Baernstein(from_int(1), 2)
    runs = 0
    while runs < 50:
        count = rng.randint(1, 3)
        blocks = _seeded_blocks(rng, count, 12, space, schreier_aligned=True)
        if not blocks:
            continue
        xs = VectorSequence(tuple(blocks), space, "baernstein-blocks")
        ys = VectorSequence(
            tuple(Vector.basis(v.support[-1]) for v in blocks), space
        )
        res = domination_lower_bound(xs, ys, trials=40, seed=seed + runs)
        if res.status != "ok" or not res.value <= Mag.of(Fraction(4)):
            return False, f"run {runs}: lower bound {res.value} exceeds 4"
        runs += 1
    return True, "50 runs bounded by 4"


@criterion("07", "tsirelson-lower-bound")
def criterion_07_tsirelson(seed: int = 0) -> tuple[bool, str]:
    """theta-lower l1 estimate for blocks in Tsirelson(1,1/2) along Schreier
    sets, with fixpoint idempotence on every evaluated vector."""
    rng = random.Random(seed)
    theta = Fraction(1, 2)
    space = Tsirelson(from_int(1), theta)
    s1 = Schreier(from_int(1))
    f_sets = [
        f
        for f in enumerate_family(s1, 6)
        if f
    ]
    sequences = 0
    evaluated = 0
    while sequences < 8:
        blocks = _seeded_blocks(rng, 6, 12, space, schreier_aligned=False, max_width=2)
        if len(blocks) < 6:
            continue
        sequences += 1
        for f in f_sets:
            size = len(f)
            probes = {p[:size] for p in itertools.product((0, 1, -1), repeat=3)}
            probes = {p for p in probes if any(p)}
            for _ in range(3):
                probes.add(
                    tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size))
                )
            for a in probes:
                x = Vector()
                for idx, coeff in zip(f, a):
                    x = x + blocks[idx - 1].scale(Fraction(coeff))
                engine = TsirelsonEngine(from_int(1), theta, x)
                value = engine.norm()
                target = theta * sum((abs(Fraction(c)) for c in a), Fraction(0))
                if value < target:
                    return False, f"|sum| = {value} < {target} at F={f}, a={a}"
                if not engine.check_idempotent():
                    return False, f"fixpoint not idempotent at F={f}, a={a}"
                evaluated += 1
    return True, f"{evaluated} evaluations over 8 block sequences"


@criterion("08", "combinator-soundness")
def criterion_08_combinators(seed: int = 0) -> tuple[bool, str]:
    """Seeded transformer runs re-verify with the exact claimed constants."""
    rng = random.Random(seed)
    s1 = Schreier(from_int(1))
    spaces = [Combinatorial(s1), C0(), L1()]
    runs = 0
    detail_counts = {"shift": 0, "sum": 0, "limit": 0, "merge": 0}
    while runs < 100:
        space = spaces[rng.randrange(3)]
        op = ("shift", "sum", "limit", "merge")[rng.randrange(4)]
        depth = rng.randint(3, 6)
        prefix = rng.randint(depth + 2, depth + 6)
        rho = basis_sequence(space, prefix)
        r = Fraction(1)
        try:
            if op == "shift":
                hi = rng.choice([from_int(2), from_int(3), None])
                lo = from_int(1) if hi is None else from_int(hi.as_int() - 1)
                out = search_certificate(rho, hi, Fraction(1), depth)
                cert = shift_certificate(out.certificate, rho, lo, rng.randint(0, 1))
                ok = cert.verified and cert.C == out.certificate.C
            elif op == "sum":
                z, x = rng.choice([(1, 1), (1, 2), (2, 1)])
                o1 = search_certificate(rho, from_int(z), Fraction(1), depth)
                o2 = search_certificate(
                    rho, from_int(x), Fraction(1), depth, constraint=o1.certificate.M
                )
                cert = sum_combine(o1.certificate, o2.certificate, rho, r)
                ok = cert.verified and cert.C == r * (o1.certificate.C + o2.certificate.C)
            elif op == "limit":
                o1 = search_certificate(rho, from_int(1), Fraction(1), depth)
                o2 = search_certificate(
                    rho, from_int(2), Fraction(1), depth, constraint=o1.certificate.M
                )
                cert = limit_combine([o1.certificate, o2.certificate], rho, OMEGA, r)
                ok = cert.verified and cert.C <= r * max(
                    o1.certificate.C, o2.certificate.C
                )
            else:
                o1 = search_certificate(rho, from_int(2), Fraction(1), depth)
                o2 = search_certificate(
                    rho, from_int(1), Fraction(1), depth, constraint=o1.certificate.M
                )
                merged = merge_subsequence_certificates(
                    o1.certificate, [o2.certificate], rho, r
                )
                ok = (
                    merged.base_constant == r * o1.certificate.C
                    and merged.level_constants[0][1]
                    == r * o2.certificate.C + 1 / r
                )
        except Exception as exc:  # any transformer failure fails the criterion
            return False, f"run {runs} ({op}): {exc}"
        if not ok:
            return False, f"run {runs} ({op}): constant drifted"
        detail_counts[op] += 1
        runs += 1
    return True, "100 runs: " + ", ".join(f"{k}={v}" for k, v in sorted(detail_counts.items()))


@criterion("09", "order-embedding")
def criterion_09_embedding(seed: int = 0) -> tuple[bool, str]:
    src = FineSchreier(OMEGA)
    dst = Schreier(from_int(1))
    res = find_order_embedding(src, dst, 8)
    if not res.found:
        return False, "no embedding found"
    mapping = res.mapping
    for f in enumerate_family(src, 8):
        image = tuple(mapping[i - 1] for i in f)
        if not dst.member(image):
            return False, f"image {image} of {f} escapes S[1]"
    return True, f"P = {mapping} verified exhaustively"


@criterion("10", "spreading-models")
def criterion_10_spreading(seed: int = 0) -> tuple[bool, str]:
    """Exact spreading tables of the X[S[1]] basis are the l1 tables, and two
    different subsequence specs are 1-equivalent."""
    for m in range(1, 6):
        probes = default_probes(m, seed, extra=8)
        for a in probes:
            res = exact_spreading_combinatorial(from_int(1), SubseqSpec(), m, a)
            expect = sum((abs(Fraction(v)) for v in a), Fraction(0))
            if not (res.stable and res.value == Mag.of(expect)):
                return False, f"m={m}, a={a}: value {res.value} != l1 mass {expect}"
    probes = default_probes(3, seed, extra=8)
    t1 = exact_table(from_int(1), SubseqSpec(), 3, probes)
    t2 = exact_table(from_int(1), SubseqSpec("affine", 4, 5), 3, probes)
    eq = equivalence_constant(t1, t2)
    if not (eq.exact and eq.lower == MAG_ONE and eq.upper == MAG_ONE):
        return False, f"equivalence constant {eq.lower} != 1"
    return True, "l1 tables for m <= 5; subsequence equivalence 1"


@criterion("11", "main2-bridge")
def criterion_11_bridge(seed: int = 0) -> tuple[bool, str]:
    rho = basis_sequence(Combinatorial(Schreier(from_int(1))), 24)
    report = check_main2_bridge(rho, from_int(1), Fraction(1), 6, seed=seed)
    if not report.ok:
        return False, f"a={report.direction_a}, b={report.direction_b}"
    constant = Fraction(report.direction_b["certificate_constant"])
    if constant > 1 + 2 * Fraction(1):
        return False, f"certificate constant {constant} > 1+2C"
    return True, f"both directions pass; (i)=>(iii) constant {constant} <= 3"


@criterion("12", "gamma-brackets")
def criterion_12_gamma_brackets(seed: int = 0) -> tuple[bool, str]:
    rho = basis_sequence(L1(), 3)
    bracket = gamma_bracket(rho, None, 3, g_space=C0())
    if not (bracket.lower >= 3):
        return False, f"l1 vs c0 lower {bracket.lower} < 3"
    resolution = Fraction(1, 16)
    zero = gamma_bracket(rho, from_int(0), 3, resolution=resolution, g_space=C0())
    if not (zero.lower == 0 and zero.upper <= resolution):
        return False, f"xi=0 bracket [{zero.lower}, {zero.upper}] not within [0, {resolution}]"
    return True, f"l1/c0 depth-3 lower {bracket.lower}; xi=0 bracket [0, {zero.upper}]"

SUITES: dict[str, list[str]] = {
    "families": ["01", "02", "03"],
    "domination": ["04", "05", "06", "07"],
    "transfer": ["08", "09"],
    "spreading": ["10", "11", "12"],
    "all": list(CRITERIA),
}


def run_suite(name: str, seed: int = 0) -> list[CriterionResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [CRITERIA[cid](seed) for cid in SUITES[name]]


def format_results(results: list[CriterionResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.cid} {res.name}: {res.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
