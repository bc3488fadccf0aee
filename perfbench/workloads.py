"""Seeded inputs, the domcert call of each job, and the independent check of
each job's output, for the four benchmark workloads.

A workload is a list of job templates.  One cycle draws one job from every
template, with seeded parameters, in a seeded order.  The benchmark runs whole
cycles, so every run sees the same mix of templates and two seeds differ only
in the drawn inputs; a heavy template cannot be over-drawn by one seed and
missed by another.

Jobs call domcert through module attributes (``transfer.block_certificate``,
not a name bound at import) so that the tracer's wrappers are seen.  Checks
run outside the job's timed interval and use `domcert.oracles` or closed-form
bounds rather than the code path under test wherever the workload allows.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from domcert import domination, families, norms, oracles, ordinals, spreading, transfer
from domcert.vectors import Vector

ONE = Fraction(1)
S1 = families.Schreier(ordinals.from_int(1))
X_S1 = norms.Combinatorial(S1)
BASES = {"X[S[1]]": X_S1, "C0": norms.C0(), "L1": norms.L1()}


@dataclass(frozen=True)
class Job:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Template:
    """One kind of job: how to draw its inputs, run it, check it and print it.

    `check` returns None when the output is right, else a one-line reason.
    `canon` gives the canonical text of an output for the output digest.
    """

    kind: str
    make: Callable[[random.Random], tuple]
    run: Callable[..., Any]
    check: Callable[[tuple, Any], Optional[str]]
    canon: Callable[[Any], str]


class Workload:
    """A cycle draws one job per entry of `templates`; a template listed twice
    is drawn twice."""

    def __init__(self, name: str, templates: list[Template]):
        self.name = name
        self.templates = templates
        self.by_kind = {t.kind: t for t in templates}

    def cycle(self, rng: random.Random) -> list[Job]:
        jobs = [Job(t.kind, t.make(rng)) for t in self.templates]
        rng.shuffle(jobs)
        return jobs

    def run(self, job: Job) -> Any:
        return self.by_kind[job.kind].run(*job.args)

    def check(self, job: Job, out: Any) -> Optional[str]:
        return self.by_kind[job.kind].check(job.args, out)

    def canon(self, job: Job, out: Any) -> str:
        return self.by_kind[job.kind].canon(out)


def _dumps(data: Any) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True, default=str)


def _signed_coeff(rng: random.Random, negative: bool) -> Fraction:
    c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return -c if negative else c


def normalized_blocks(
    rng: random.Random, widths: tuple[int, ...], negatives: int, space
) -> list[Vector]:
    """Consecutive blocks of the given widths from index 1, with coefficients
    +-p/q (p <= 6, q <= 4) of which `negatives`, at seeded places, are
    negative; each block is scaled to norm 1 in `space`."""
    size = sum(widths)
    signs = set(rng.sample(range(size), negatives))
    coeffs = [_signed_coeff(rng, k in signs) for k in range(size)]
    blocks = []
    pos = 1
    for width in widths:
        v = Vector.of({i: coeffs[i - 1] for i in range(pos, pos + width)})
        blocks.append(v.scale(1 / norms.norm(space, v).as_fraction()))
        pos += width
    return blocks


def _bounds_reason(value, x: Vector) -> Optional[str]:
    """A norm normalizing the unit vectors lies between sup and l1 norms."""
    lo, hi = x.max_abs(), x.l1()
    if not (value >= lo and value <= hi):
        return f"value {value} outside [{lo}, {hi}]"
    return None


# -- block-certify ----------------------------------------------------------

# Criterion 05's generator (widths 1-3, support <= 10, 30 % negative
# coefficients) mixes 1 ms and 10 s jobs, and the cost of a job is set almost
# entirely by its block widths and its number of negative coefficients.  Each
# template fixes those two, so that a 20 s run holds the same mix for every
# seed; the seed draws the magnitudes and which coefficients are negative.
# 13 of the 49 coefficients (27 %) are negative; the all-positive set takes
# the orthant LP route, signed ones the general one.  Four blocks over 7
# points take 1-2 s each, which would leave too few jobs in a run.  The
# heaviest shape comes twice, so that with 11 jobs a cycle both the median
# and the 90th percentile fall inside one shape's narrow spread of times
# rather than in a gap between two shapes.
BLOCK_SHAPES = [
    ((2,), 1), ((3,), 1), ((1, 2), 1), ((1, 1, 2), 1), ((2, 2), 1), ((2, 1, 2), 0),
    ((2, 3), 2), ((1, 2, 2), 1), ((2, 2, 2), 2), ((1, 2, 1, 2), 2), ((1, 2, 1, 2), 2),
]
LOWER_BOUND_TRIALS = 6
# one job in LOWER_BOUND_EVERY gets the sampled lower-bound check, which costs
# a fifth of a job; every job gets the others
LOWER_BOUND_EVERY = 4


def _block_template(widths: tuple[int, ...], negatives: int) -> Template:
    def make(rng):
        blocks = normalized_blocks(rng, widths, negatives, X_S1)
        return (tuple(blocks), rng.randrange(2**31))

    def run(blocks, _seed):
        cert, _rho = transfer.block_certificate(S1, blocks)
        return cert

    def check(args, cert):
        blocks, seed = args
        if not cert.verified or cert.C != 1:
            return f"certificate not verified at C=1: {cert.dumps()}"
        maxima = tuple(v.support[-1] for v in blocks)
        if cert.L != maxima or cert.M != tuple(range(1, len(blocks) + 1)):
            return f"wrong M/L {cert.M}/{cert.L} for maxima {maxima}"
        if seed % LOWER_BOUND_EVERY:
            return None
        xs = domination.VectorSequence(blocks, X_S1)
        ys = domination.VectorSequence(tuple(Vector.basis(i) for i in maxima), X_S1)
        lb = domination.domination_lower_bound(xs, ys, trials=LOWER_BOUND_TRIALS, seed=seed)
        if lb.status != "ok" or not lb.value <= 1:
            return f"sampled lower bound {lb.value} exceeds 1"
        return None

    kind = "blocks-" + "".join(map(str, widths)) + f"-neg{negatives}"
    return Template(kind, make, run, check, lambda cert: cert.dumps())


BLOCK_CERTIFY = Workload("block-certify", [_block_template(w, n) for w, n in BLOCK_SHAPES])


# -- cert-search ------------------------------------------------------------


def _search(rho, xi, depth, constraint=None):
    out = domination.search_certificate(rho, xi, ONE, depth, constraint=constraint)
    if out.status != "found":
        raise RuntimeError(f"search at level {xi} ended {out.status}")
    return out.certificate


def _transform_template(op: str, space: str) -> Template:
    """Criterion 08: search certificates on a basis, transform, re-verify."""

    def make(rng):
        depth = rng.randint(3, 6)
        prefix = rng.randint(depth + 2, depth + 6)
        if op == "shift":
            extra = (rng.choice([2, 3, None]), rng.randint(0, 1))
        elif op == "sum":
            extra = rng.choice([(1, 1), (1, 2), (2, 1)])
        else:
            extra = ()
        return (depth, prefix, extra)

    def run(depth, prefix, extra):
        rho = domination.basis_sequence(BASES[space], prefix)
        lvl = ordinals.from_int
        if op == "shift":
            hi, shift = extra
            lo = lvl(1) if hi is None else lvl(hi - 1)
            c1 = _search(rho, None if hi is None else lvl(hi), depth)
            return c1, transfer.shift_certificate(c1, rho, lo, shift)
        first, second = {"sum": extra, "limit": (1, 2), "merge": (2, 1)}[op]
        c1 = _search(rho, lvl(first), depth)
        c2 = _search(rho, lvl(second), depth, constraint=c1.M)
        if op == "sum":
            return c1, c2, transfer.sum_combine(c1, c2, rho, ONE)
        if op == "limit":
            return c1, c2, transfer.limit_combine([c1, c2], rho, ordinals.OMEGA, ONE)
        return c1, c2, transfer.merge_subsequence_certificates(c1, [c2], rho, ONE)

    def check(args, out):
        if op == "shift":
            c1, cert = out
            ok = cert.verified and cert.C == c1.C
        elif op == "sum":
            c1, c2, cert = out
            ok = cert.verified and cert.C == c1.C + c2.C
        elif op == "limit":
            c1, c2, cert = out
            ok = cert.verified and cert.C == max(c1.C, c2.C)
        else:
            c1, c2, merged = out
            ok = (
                merged.base_constant == c1.C
                and merged.level_constants[0][1] == c2.C + 1
                and all(r.ok for r in merged.reports)
            )
        return None if ok else f"{op}: constant differs from its formula"

    def canon(out):
        if op == "merge":
            c1, c2, m = out
            return _dumps([c1.to_json(), c2.to_json(), m.K, m.N, m.base_constant,
                           [c for _, c in m.level_constants]])
        return _dumps([c.to_json() for c in out])

    return Template(f"{op}-{space}", make, run, check, canon)


def _bracket_json(b) -> str:
    cert = b.certificate.to_json() if b.certificate is not None else None
    return _dumps([str(b.lower), str(b.upper), cert])


def _l1_c0_bracket() -> Template:
    """Criterion 12: the l1 basis against c0 has depth-N constant N."""

    def run(depth):
        rho = domination.basis_sequence(norms.L1(), depth)
        return domination.gamma_bracket(rho, None, depth, g_space=norms.C0())

    def check(args, b):
        (depth,) = args
        ok = b.lower >= depth and b.upper >= b.lower
        return None if ok else f"l1/c0 bracket [{b.lower}, {b.upper}] below depth {depth}"

    return Template(
        "bracket-l1-c0", lambda rng: (rng.randint(3, 4),), run, check, _bracket_json
    )


def _self_bracket() -> Template:
    """A basis against its own space is 1-dominated and no better."""

    def make(rng):
        depth = rng.randint(3, 4)
        return (rng.choice(sorted(BASES)), rng.randint(1, 2), depth, depth + rng.randint(1, 3))

    def run(space, xi, depth, prefix):
        rho = domination.basis_sequence(BASES[space], prefix)
        return domination.gamma_bracket(rho, ordinals.from_int(xi), depth)

    def check(args, b):
        ok = b.lower <= 1 <= b.upper
        return None if ok else f"self bracket [{b.lower}, {b.upper}] misses 1"

    return Template("bracket-self", make, run, check, _bracket_json)


def _bridge() -> Template:
    """Criterion 11: both directions of the omega-level bridge."""

    def make(rng):
        return (rng.randint(24, 28), rng.randint(5, 6), rng.randrange(1000))

    def run(length, depth, seed):
        rho = domination.basis_sequence(X_S1, length)
        return spreading.check_main2_bridge(rho, ordinals.from_int(1), ONE, depth, seed=seed)

    def check(args, report):
        if not report.ok:
            return f"bridge failed: {report.direction_a} / {report.direction_b}"
        constant = Fraction(report.direction_b["certificate_constant"])
        return None if constant <= 3 else f"bridge constant {constant} > 1+2C"

    def canon(report):
        return _dumps([report.direction_a, report.direction_b, report.inconclusive])

    return Template("bridge", make, run, check, canon)


CERT_SEARCH = Workload(
    "cert-search",
    [_transform_template(op, space) for op in ("shift", "sum", "limit", "merge") for space in BASES]
    + [_l1_c0_bracket(), _self_bracket(), _bridge()],
)


# -- wn-select --------------------------------------------------------------

WN_XI = ordinals.from_int(1)
WN_EPS = Fraction(1, 2)
WN_PHI = Fraction(1, 8)


def _select(xs, depth):
    try:
        return transfer.wn_select(xs, WN_XI, WN_EPS, WN_PHI, depth)
    except transfer.ShadowFailure as exc:
        return exc


def _wn_check(expect_shadow: bool):
    def check(args, out):
        depth = args[-1]
        if isinstance(out, transfer.ShadowFailure):
            if not expect_shadow:
                return f"unexpected shadow failure at level {out.k}"
            if out.witness is None or oracles.oracle_schreier_member(WN_XI, out.witness):
                return f"shadow witness {out.witness} lies in S[{WN_XI}]"
            return None
        if expect_shadow:
            return "expected a shadow failure, got a selection"
        trace, cert = out
        partial = sum((k * WN_PHI ** (k - 1) for k in range(1, depth + 1)), Fraction(0))
        total = 1 / (1 - WN_PHI) ** 2
        if not (trace.bound_partial_sum == partial and trace.bound_total == total
                and partial <= total <= 1 + WN_EPS):
            return "selection bounds do not hold"
        if not (cert.verified and cert.C == 1 + WN_EPS and cert.M == trace.M
                and len(trace.M) == depth):
            return f"selection certificate wrong: {cert.dumps()}"
        return None

    return check


def _wn_canon(out) -> str:
    if isinstance(out, transfer.ShadowFailure):
        return _dumps(["shadow", out.k, out.witness])
    trace, cert = out
    return trace.dumps() + cert.dumps()


def _wn_basis(kind: str, space, length: int, depth: int, expect_shadow: bool = False) -> Template:
    def run(length, depth):
        return _select(domination.basis_sequence(space, length), depth)

    return Template(
        kind, lambda rng: (length, depth), run, _wn_check(expect_shadow), _wn_canon
    )


def _wn_signed_blocks() -> Template:
    """Signed, sup-normalized c0 blocks take the sign-enumeration path."""

    def make(rng):
        blocks = normalized_blocks(rng, (1, 1, 2, 1), 2, norms.C0())
        return (tuple(blocks), 2)

    def run(blocks, depth):
        return _select(domination.VectorSequence(blocks, norms.C0(), "blocks"), depth)

    return Template("c0-signed-blocks", make, run, _wn_check(False), _wn_canon)


# The lengths 8-10 of the paper-scale examples take 0.2-1.2 s per job here,
# and the X[S[1]] basis at length 10 two minutes.  These sizes keep a cycle
# near 1 s, so that a run holds over 100 jobs.  At them about a quarter of
# the time goes to the max-min LPs of frak_f_epsilon (the LP(2) path has
# none); the share falls as the length grows, because the candidate sets
# double with each index while the distinct LPs grow linearly.
# Basis inputs have no random part, so only the signed blocks and the order
# of a cycle depend on the seed.
WN_SELECT = Workload(
    "wn-select",
    [
        _wn_basis("c0-basis", norms.C0(), 8, 4),
        _wn_basis("lp2-basis-8", norms.Lp(2), 8, 4),
        _wn_basis("lp2-basis-9", norms.Lp(2), 9, 4),
        _wn_basis("l1-basis", norms.L1(), 6, 3),
        _wn_basis("l1-shadow", norms.L1(), 6, 4, expect_shadow=True),
        _wn_basis("xs1-basis", X_S1, 4, 2),
        _wn_signed_blocks(),
    ],
)


# -- norm-eval --------------------------------------------------------------

THETA = Fraction(1, 2)
TSIRELSON = norms.Tsirelson(ordinals.from_int(1), THETA)
S1_TRIPLES = [f for f in families.enumerate_family(S1, 6) if len(f) == 3]


def _tsirelson() -> Template:
    """Criterion 07: a combination of normalized Tsirelson blocks along an
    S[1] set, its norm and a replay of the fixed-point operator."""

    def make(rng):
        blocks = normalized_blocks(rng, (2, 1, 2, 1, 2, 1), 3, TSIRELSON)
        f = rng.choice(S1_TRIPLES)
        a = tuple(_signed_coeff(rng, rng.random() < 0.5) for _ in f)
        x = Vector()
        for idx, coeff in zip(f, a):
            x = x + blocks[idx - 1].scale(coeff)
        return (x, a)

    def run(x, a):
        engine = norms.TsirelsonEngine(ordinals.from_int(1), THETA, x)
        return engine.norm(), engine.check_idempotent()

    def check(args, out):
        x, a = args
        value, idempotent = out
        if not idempotent:
            return "fixed point not idempotent"
        target = THETA * sum((abs(c) for c in a), Fraction(0))
        if value < target:
            return f"theta-lower estimate fails: {value} < {target}"
        return _bounds_reason(value, x)

    return Template("tsirelson", make, run, check, lambda out: _dumps(out))


def _norm_template(space_text: str, size: int) -> Template:
    """The norm of a random vector on `size` of the indices 1..16."""
    space = norms.parse_space(space_text)

    def make(rng):
        support = rng.sample(range(1, 17), size)
        return (Vector.of({i: _signed_coeff(rng, rng.random() < 0.3) for i in support}),)

    def run(x):
        return norms.norm(space, x)

    def check(args, value):
        return _bounds_reason(value, args[0])

    return Template(space_text, make, run, check, str)


MEMBER_QUERIES = 100


def _member(kind: str, levels: list[str]) -> Template:
    """Membership of random sets with elements up to 40, so that most are new
    to the process-wide membership caches."""
    oracle = oracles.oracle_fine_member if kind == "F" else oracles.oracle_schreier_member

    def make(rng):
        return (tuple(
            (rng.choice(levels), tuple(sorted(rng.sample(range(1, 41), rng.randint(1, 6)))))
            for _ in range(MEMBER_QUERIES)
        ),)

    def run(queries):
        return [families.parse_family(f"{kind}[{lvl}]").member(f) for lvl, f in queries]

    def check(args, answers):
        for (lvl, f), got in zip(args[0], answers):
            if oracle(ordinals.parse_ordinal(lvl), f) != got:
                return f"{kind}[{lvl}] membership of {f} disagrees with the oracle"
        return None

    return Template(f"member-{kind}", make, run, check, _dumps)


# criterion 03's family list
REGULARITY_SET = [
    "F[0]", "F[1]", "F[2]", "F[3]", "F[w]", "F[w+1]", "F[w*2]", "F[w^2]",
    "S[0]", "S[1]", "S[2]", "ALL", "SUM(1;2)", "SUM(2;1)",
    "NFOLD(S[1];2)", "NFOLD(S[1];3)",
]


def _oracle_for(text: str):
    if text[:2] in ("F[", "S[") and text.endswith("]"):
        xi = ordinals.parse_ordinal(text[2:-1])
        oracle = oracles.oracle_fine_member if text[0] == "F" else oracles.oracle_schreier_member
        return lambda f: oracle(xi, f)
    return None


def _family() -> Template:
    """Enumeration or regularity check of one criterion-03 family."""

    def make(rng):
        return (rng.choice(["enumerate", "regular"]), rng.choice(REGULARITY_SET), rng.randint(8, 10))

    def run(op, text, n):
        fam = families.parse_family(text)
        if op == "enumerate":
            return families.enumerate_family(fam, n)
        return families.check_regular(fam, n).ok

    def check(args, out):
        op, text, n = args
        if op == "regular":
            return None if out is True else f"{text} not regular at N={n}"
        members = set(out)
        if () not in members or any(f[:-1] not in members for f in members if f):
            return f"enumeration of {text} is not prefix closed"
        oracle = _oracle_for(text)
        if oracle is None:
            return None
        for f in members:
            if not oracle(f):
                return f"enumeration of {text} lists non-member {f}"
            for x in range(f[-1] + 1 if f else 1, n + 1):
                if f + (x,) not in members and oracle(f + (x,)):
                    return f"enumeration of {text} misses {f + (x,)}"
        return None

    return Template("family", make, run, check, _dumps)


NORM_EVAL = Workload(
    "norm-eval",
    [
        _tsirelson(),
        _norm_template("BAERNSTEIN(1;2)", 12),
        *(_norm_template(f"X[{fam}]", 10) for fam in ("F[w^2]", "S[2]", "NFOLD(S[1];3)", "SUM(1;2)")),
        _member("F", ["1", "2", "3", "w", "w+1", "w*2", "w^2"]),
        _member("S", ["0", "1", "2", "w"]),
        _family(),
    ],
)


WORKLOADS = {w.name: w for w in (BLOCK_CERTIFY, CERT_SEARCH, WN_SELECT, NORM_EVAL)}
