"""Certificate transformers and the functional-witness family machinery.

Each transformer rebuilds indices the way the corresponding proof step does
and then re-verifies the claimed constant exactly rather than trusting the
arithmetic: shifting into an almost-monotone window, diagonalizing nested
certificates at a limit level, gluing two levels along an order embedding of
the sum family, merging a tower of nested certificates into one index pair,
and reading off block-sequence certificates.

`frak_f_epsilon` computes the family of index sets simultaneously witnessed
above eps by one dual-ball element.  Membership of F depends on eps only
through a threshold on an eps-free score, its max-min value z (for l_2,
z^2 = 1/m with m the squared minimum norm of the witness polyhedron at
threshold 1), so `wn_select` builds one score table whose hereditary sweep
records the level each member enters at, and passes it to the
`frak_f_epsilon` call of every level phi^k.
The table is read from `norms.functional_rows`, the one builder of every
phi(v) table, in integers over its denominator.  The max-min is
`linprog.max_min_over_simplex`, posed like every domcert LP as a support
function over a row list `(rows, rhs)`, {a : rows[k].a <= rhs[k]}.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .domination import (
    EXACT_DIM_BOUND,
    Certificate,
    VectorSequence,
    VerifyReport,
    right_dominance_defect,
    verify_certificate,
)
from .families import (
    Explicit,
    Family,
    FinSet,
    FineSchreier,
    QSchedule,
    Q_DEFAULT,
    Schreier,
    SumFamily,
    almost_monotone_witness,
    as_finset,
    find_order_embedding,
)
from .linprog import max_min_over_simplex, solve_square
from .norms import (
    Combinatorial,
    Lp,
    format_space,
    functional_rows,
    is_polyhedral,
    norm,
)
from .ordinals import OMEGA, Ordinal, format_ordinal, from_int, fundamental_sequence
from .rationals import MAG_ONE, format_fraction
from .vectors import Vector


class TransferError(ValueError):
    pass


def _require_verified(cert: Certificate, rho: VectorSequence, q: QSchedule) -> None:
    if not verify_certificate(cert, rho, q).ok:
        raise TransferError("input certificate fails verification")


def _verified(cert: Certificate, rho: VectorSequence, q: QSchedule) -> Certificate:
    report = verify_certificate(cert, rho, q)
    if not report.ok:
        raise TransferError(
            f"transformed certificate fails at F={report.violation.F} with "
            f"ratio {report.violation.ratio}"
        )
    return replace(cert, verified=True)


def shift_certificate(
    cert: Certificate,
    rho: VectorSequence,
    target: Ordinal,
    shift: int,
    q: QSchedule = Q_DEFAULT,
) -> Certificate:
    """Drop the first `shift` index pairs to pass from level xi down to a
    smaller level: M'(n) = M(n+shift), L'(n) = L(n+shift), same constant.

    `shift` must cover the almost-monotone window of (target, xi) at the
    remaining depth.
    """
    if cert.xi is not None and not target < cert.xi:
        raise TransferError("target level must be below the certificate level")
    new_depth = cert.depth - shift
    if new_depth < 1:
        raise TransferError("insufficient depth for the requested shift")
    witness = almost_monotone_witness(target, cert.xi, new_depth, q)
    if witness is None or shift < witness:
        raise TransferError(
            f"shift {shift} below the almost-monotone witness {witness}"
        )
    out = Certificate(
        target,
        cert.M[shift:],
        cert.L[shift:],
        cert.C,
        cert.g_space,
        cert.rho_ref,
    )
    return _verified(out, rho, q)


def _majorant(chain: Sequence[Certificate], m: int) -> int:
    """The largest L over a nested chain of certificates at the position of m
    in each M, m lying in every M: the index that majorizes every level's L
    at m."""
    return max(cert.L[cert.M.index(m)] for cert in chain)


def limit_combine(
    certs: Sequence[Certificate],
    rho: VectorSequence,
    xi: Ordinal,
    r: Fraction,
    q: QSchedule = Q_DEFAULT,
) -> Certificate:
    """Diagonalize nested certificates at the approximating levels of a limit
    ordinal: M(n) = M_n(n), L(n) = max_k L_k(s^n_k) over k <= n, constant
    r * max C_k."""
    if xi.classify() != "limit":
        raise TransferError("limit_combine needs a limit ordinal")
    if not certs:
        raise TransferError("no certificates given")
    for k, cert in enumerate(certs, start=1):
        expected = from_int(q(k)) if xi == OMEGA else fundamental_sequence(xi, k)
        if cert.xi != expected:
            raise TransferError(
                f"certificate {k} sits at {cert.xi}, expected level "
                f"{format_ordinal(expected)} of {format_ordinal(xi)}"
            )
    for a, b in zip(certs, certs[1:]):
        if not set(b.M) <= set(a.M):
            raise TransferError("certificate index sets must be nested")
        _require_verified(a, rho, q)
    _require_verified(certs[-1], rho, q)

    m_out: list[int] = []
    l_out: list[int] = []
    for n, cert_n in enumerate(certs, start=1):
        if cert_n.depth < n:
            raise TransferError(f"certificate {n} has depth below {n}")
        m_out.append(cert_n.M[n - 1])
        l_out.append(_majorant(certs[:n], m_out[-1]))
    if any(a >= b for a, b in zip(l_out, l_out[1:])):
        raise TransferError("merged L failed to increase; deepen the inputs")

    # the proof step leans on r-right dominance along the touched spreads
    for k, cert_k in enumerate(certs, start=1):
        spread_m = [cert_k.L[cert_k.M.index(m)] for m in m_out[k - 1 :]]
        pairs = sorted(set(zip(spread_m, l_out[k - 1 :])))
        mm = tuple(p[0] for p in pairs)
        ll = tuple(p[1] for p in pairs)
        increasing = all(a < b for a, b in zip(mm, mm[1:])) and all(
            a < b for a, b in zip(ll, ll[1:])
        )
        if increasing and len(mm) <= EXACT_DIM_BOUND:
            rep = right_dominance_defect(certs[0].g_space, mm, ll, r)
            if not rep.ok:
                raise TransferError(
                    f"basis is not {r}-right dominant on spread {mm} -> {ll}"
                )

    c_out = Fraction(r) * max(c.C for c in certs)
    out = Certificate(xi, tuple(m_out), tuple(l_out), c_out, certs[0].g_space, certs[0].rho_ref)
    return _verified(out, rho, q)


def sum_combine(
    cert1: Certificate,
    cert2: Certificate,
    rho: VectorSequence,
    r: Fraction,
    q: QSchedule = Q_DEFAULT,
) -> Certificate:
    """Glue a level-zeta and a level-xi certificate (M2 nested in M1) into a
    level-(zeta+xi) certificate with constant r*(C1+C2), routing indices
    through an order embedding of the fine family into the sum family."""
    if cert1.xi is None or cert2.xi is None:
        raise TransferError("sum_combine needs ordinal-level certificates")
    if not set(cert2.M) <= set(cert1.M):
        raise TransferError("M2 must be nested in M1")
    _require_verified(cert1, rho, q)
    _require_verified(cert2, rho, q)
    zeta, xi = cert1.xi, cert2.xi
    if cert2.depth == 0:
        # nothing to glue: the xi part of every sum-family set is forced
        # empty, so cert1 carries the claim at the combined constant
        out = replace(cert1, C=Fraction(r) * (cert1.C + cert2.C))
        return _verified(out, rho, q)
    total = zeta + xi
    depth = cert2.depth
    target_fam = FineSchreier(total, q)
    sum_fam = SumFamily(zeta, xi, q)
    emb = find_order_embedding(target_fam, sum_fam, depth)
    if not emb.found:
        raise TransferError("no order embedding into the sum family within budget")
    p = emb.mapping
    if max(p) > cert2.depth:
        raise TransferError("embedding image exceeds certificate depth")
    l3 = [_majorant((cert1, cert2), m) for m in cert2.M]
    m_out = tuple(cert2.M[p[n] - 1] for n in range(depth))
    l_out = tuple(l3[p[n] - 1] for n in range(depth))
    if any(a >= b for a, b in zip(l_out, l_out[1:])):
        raise TransferError("merged L failed to increase; deepen the inputs")
    c_out = Fraction(r) * (cert1.C + cert2.C)
    out = Certificate(total, m_out, l_out, c_out, cert1.g_space, cert1.rho_ref)
    return _verified(out, rho, q)


@dataclass
class MergeResult:
    K: FinSet
    N: FinSet
    base_constant: Fraction
    level_constants: tuple[tuple[Ordinal, Fraction], ...]
    reports: tuple[VerifyReport, ...]


def merge_subsequence_certificates(
    base: Certificate,
    extras: Sequence[Certificate],
    rho: VectorSequence,
    r: Fraction,
    q: QSchedule = Q_DEFAULT,
) -> MergeResult:
    """Collapse a tower base, extras[0], extras[1], ... with nested index
    sets into one pair (K, N): K is the innermost M and N(n) majorizes every
    level's L at the matching position.  Re-verifies the base level at r*C
    and each extra level at r*C_i + 1/r."""
    chain = [base, *extras]
    for a, b in zip(chain, chain[1:]):
        if not set(b.M) <= set(a.M):
            raise TransferError("certificate index sets must be nested")
    for cert in chain:
        _require_verified(cert, rho, q)
    k_out = chain[-1].M
    n_out = tuple(_majorant(chain, m) for m in k_out)
    if any(a >= b for a, b in zip(n_out, n_out[1:])):
        raise TransferError("merged N failed to increase; deepen the inputs")

    reports = []
    base_c = Fraction(r) * base.C
    cert0 = Certificate(base.xi, k_out, n_out, base_c, base.g_space, base.rho_ref)
    rep0 = verify_certificate(cert0, rho, q)
    if not rep0.ok:
        raise TransferError("merged base level fails verification")
    reports.append(rep0)
    levels = []
    for cert in extras:
        c_i = Fraction(r) * cert.C + Fraction(1) / Fraction(r)
        cert_i = Certificate(cert.xi, k_out, n_out, c_i, cert.g_space, cert.rho_ref)
        rep_i = verify_certificate(cert_i, rho, q)
        if not rep_i.ok:
            raise TransferError("merged extra level fails verification")
        reports.append(rep_i)
        levels.append((cert.xi, c_i))
    return MergeResult(k_out, n_out, base_c, tuple(levels), tuple(reports))


def block_certificate(
    fam: Family,
    blocks: Sequence[Vector],
    q: QSchedule = Q_DEFAULT,
) -> tuple[Certificate, VectorSequence]:
    """Certificate for: normalized consecutive blocks in the combinatorial
    space over fam are 1-dominated by the basis at their support maxima."""
    if not blocks:
        raise TransferError("no blocks given")
    space = Combinatorial(fam)
    last = 0
    for v in blocks:
        if v.is_zero:
            raise TransferError("blocks must be nonzero")
        if v.support[0] <= last:
            raise TransferError("block supports must be strictly increasing")
        last = v.support[-1]
        if norm(space, v) != MAG_ONE:
            raise TransferError(f"block {v} is not normalized")
    rho = VectorSequence(tuple(blocks), space, "blocks")
    l_out = tuple(v.support[-1] for v in blocks)
    cert = Certificate(
        None,
        tuple(range(1, len(blocks) + 1)),
        l_out,
        Fraction(1),
        space,
        rho.name,
    )
    return _verified(cert, rho, q), rho


class _WitnessScores:
    """The eps-free witness scores of the index sets of xs[:n], for the span
    of one `frak_f_epsilon` or `wn_select` call.  F is in frak_eps when some
    sign pattern sigma has z(F, sigma) = max over the dual ball of
    min_i sigma_i x*(x_i) >= eps, or z^2 = 1/m >= eps^2 in l_2.  The
    functional-by-vector table, the integer rows of `norms.functional_rows`
    (the Gram matrix for l_2), and the max-min LPs are shared by every eps.

    One hereditary sweep serves a descending list of thresholds.  It grows
    the family at the loosest and gives each member its entry level, the
    first threshold whose family holds it; z is antitone in F, so frak at
    threshold k is {F : entry(F) <= k}.  A candidate is tried at c, the
    largest entry level of its immediate subsets, its patterns in order up
    to the first that meets threshold c, as a sweep per threshold tries them,
    and enters at the first threshold from c on that its best score meets."""

    def __init__(self, xs: VectorSequence, n: int, thresholds: Sequence[Fraction]):
        if n > len(xs):
            raise TransferError("n exceeds the available prefix")
        vectors = xs.items[:n]
        self.n = n
        self.l2 = isinstance(xs.space, Lp) and xs.space.p == 2
        # every polyhedral space here is 1-unconditional, so for nonnegative
        # vectors |x*| witnesses whatever x* does: one sign pattern, over the
        # absolute functionals
        self.unconditional = not self.l2 and all(c >= 0 for v in vectors for _, c in v.entries)
        # both scores are positively homogeneous of degree 1 in the table, so
        # it is kept in integers over one denominator and the thresholds scaled
        if self.l2:
            gram = [[u.dot(v) for v in vectors] for u in vectors]
            self.scale = math.lcm(*(c.denominator for row in gram for c in row))
            self.table = [[int(c * self.scale) for c in row] for row in gram]
        elif not is_polyhedral(xs.space):
            raise TransferError(f"{format_space(xs.space)} has no finite dual description")
        else:
            # the signed rows and their negations are the rows of every
            # norming functional, repeats kept
            self.table, self.scale = functional_rows(xs.space, vectors, not self.unconditional)
            if not self.unconditional:
                self.table += [tuple(-u for u in row) for row in self.table]
        self._maxmin: dict[tuple, Fraction] = {}
        self.thresholds = list(thresholds)
        self.entry = self._sweep(self.thresholds)

    def family(self, eps: Fraction) -> Explicit:
        """frak_eps restricted to {1..n}, eps one of the sweep's thresholds."""
        k = self.thresholds.index(eps)
        return Explicit(frozenset(f for f, level in self.entry.items() if level <= k))

    def _sweep(self, thresholds: list[Fraction]) -> dict[FinSet, int]:
        bars = [self.scale * (eps * eps if self.l2 else eps) for eps in thresholds]
        entry: dict[FinSet, int] = {(): 0}
        level: list[FinSet] = [()]
        while level:
            level = [
                f + (x,)
                for f in level
                for x in range(f[-1] + 1 if f else 1, self.n + 1)
                if self._enter(f + (x,), entry, bars)
            ]
        return entry

    def _enter(self, f: FinSet, entry: dict[FinSet, int], bars: list[Fraction]) -> bool:
        below = [entry.get(f[:i] + f[i + 1 :]) for i in range(len(f))]
        if None in below:
            return False
        c = max(below)
        # flipping the sign of an l_2 witness orthogonal to the others
        # changes no score
        orthogonal = self.l2 and all(
            self.table[i - 1][j - 1] == 0 for i, j in itertools.combinations(f, 2)
        )
        patterns = (
            [(1,) * len(f)]
            if self.unconditional or orthogonal
            else ((1,) + s for s in itertools.product((1, -1), repeat=len(f) - 1))
        )
        best = -1
        for sigma in patterns:
            score = self._l2_score(f, sigma, orthogonal) if self.l2 else self._max_min(f, sigma)
            best = max(best, score)
            if best >= bars[c]:
                break
        k = next((k for k in range(c, len(bars)) if best >= bars[k]), None)
        if k is not None:
            entry[f] = k
        return k is not None

    def _max_min(self, f: FinSet, sigma: tuple[int, ...]) -> Fraction:
        cols = [[s * row[i - 1] for s, i in zip(sigma, f)] for row in self.table]
        live = [tuple(col) for col in cols if any(col)]
        if not live:
            return Fraction(0)
        # the optimum is invariant under permuting constraint coordinates and
        # generator columns, and under dropping all-zero generators;
        # canonicalizing lets isomorphic candidates share one solve
        key = tuple(sorted(zip(*sorted(zip(*sorted(live))))))
        if key not in self._maxmin:
            self._maxmin[key] = max_min_over_simplex(live)
        return self._maxmin[key]

    def _l2_score(self, f: FinSet, sigma: tuple[int, ...], orthogonal: bool) -> Fraction:
        """1/m for m = min |y|_2^2 over {y : sigma_i <y, x_i> >= 1 for i in
        F}, or 0 when that set is empty.  Every KKT point of this convex
        problem is its unique min-norm point y, with |y|^2 the sum of its
        multipliers, so the search over active sets ends at the first."""
        if orthogonal:
            # 1 / sum(1/g) over one common multiple, 0 when some g is 0
            diagonal = [self.table[i - 1][i - 1] for i in f]
            common = math.lcm(*diagonal)
            return Fraction(common, sum(common // g for g in diagonal)) if common else Fraction(0)
        signed = [
            [sigma[a] * sigma[b] * self.table[i - 1][j - 1] for b, j in enumerate(f)]
            for a, i in enumerate(f)
        ]
        for size in range(len(f), 0, -1):
            for subset in itertools.combinations(range(len(f)), size):
                mu = solve_square([[signed[a][b] for b in subset] for a in subset], [1] * size)
                # a KKT point when mu >= 0 and the projection meets every
                # constraint, not only the active ones
                if mu is not None and all(v >= 0 for v in mu) and all(
                    sum(m * row[b] for m, b in zip(mu, subset)) >= 1 for row in signed
                ):
                    return 1 / sum(mu)
        return Fraction(0)


def frak_f_epsilon(
    xs: VectorSequence, eps: Fraction, n: int, scores: Optional[_WitnessScores] = None
) -> Explicit:
    """The restriction to {1..n} of the family of index sets F admitting one
    dual-ball element x* with |x*(x_i)| >= eps > 0 for every i in F: one
    hereditary sweep of a witness-score table, `scores` (built for (xs, n)
    with eps among its thresholds) or else a fresh one."""
    eps = Fraction(eps)
    if eps <= 0:
        raise TransferError(f"eps must be positive, got {format_fraction(eps)}")
    if scores is None:
        scores = _WitnessScores(xs, n, [eps])
    return scores.family(eps)


@dataclass
class SelectionStep:
    k: int
    threshold: Fraction
    kept: FinSet
    removed: FinSet
    witness: Optional[FinSet]


@dataclass
class SelectionTrace:
    M: FinSet
    phi: Fraction
    steps: tuple[SelectionStep, ...]
    bound_partial_sum: Fraction
    bound_total: Fraction

    def to_json(self) -> dict:
        return {
            "M": list(self.M),
            "phi": format_fraction(self.phi),
            "steps": [
                {
                    "k": s.k,
                    "threshold": format_fraction(s.threshold),
                    "kept": list(s.kept),
                    "removed": list(s.removed),
                    "witness": list(s.witness) if s.witness is not None else None,
                }
                for s in self.steps
            ],
            "bound_partial_sum": format_fraction(self.bound_partial_sum),
            "bound_total": format_fraction(self.bound_total),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


class ShadowFailure(TransferError):
    def __init__(self, k: int, witness: Optional[FinSet], message: str):
        super().__init__(message)
        self.k = k
        self.witness = witness


def wn_select(
    xs: VectorSequence,
    xi: Ordinal,
    eps: Fraction,
    phi: Fraction,
    depth: int,
    q: QSchedule = Q_DEFAULT,
) -> tuple[SelectionTrace, Certificate]:
    """Finite selection mirroring the weak-nullity subsequence extraction.

    For k = 1..depth the infinite refinement step is replaced by a search for
    a nested index set M_k inside which every frak_{phi^k} member lies in
    Schreier(xi).  The levels differ only in the threshold phi^k, so their
    `frak_f_epsilon` calls read one sweep of one eps-free score table, built
    here for phi^1..phi^depth.  The diagonal choice
    M(k) in M_k yields the claimed certificate (x_{M(n)}) <=_{1+eps}
    (g_{M(n)}) in the Schreier space, verified exactly.  Failure to reach
    `depth` reports the level and the witnessing family member, the finite
    trace of the l1-spreading-model alternative.
    """
    eps, phi = Fraction(eps), Fraction(phi)
    if not (0 < phi < 1):
        raise TransferError("phi must lie in (0,1)")
    if (1 - phi) ** 2 * (1 + eps) <= 1:
        raise TransferError("need (1-phi)^2 (1+eps) > 1")
    universe = len(xs)
    target = Schreier(xi, q)
    m_current = tuple(range(1, universe + 1))
    steps: list[SelectionStep] = []
    # every level reads one score table; depth 0 builds none
    thresholds = [phi**k for k in range(1, depth + 1)]
    scores = _WitnessScores(xs, universe, thresholds) if depth > 0 else None
    for k, threshold in enumerate(thresholds, start=1):
        fam_k = frak_f_epsilon(xs, threshold, universe, scores)
        removed: list[int] = []
        witness: Optional[FinSet] = None
        # one pass suffices: dropping an index from M_k cannot make a set
        # that was skipped or passed fail later
        for f in sorted(fam_k.members, key=lambda t: (len(t), t)):
            if f and set(f) <= set(m_current) and not target.member(f):
                witness = f
                removed.append(f[0])
                m_current = tuple(v for v in m_current if v != f[0])
        steps.append(SelectionStep(k, threshold, m_current, tuple(removed), witness))

    selection: list[int] = []
    for k in range(1, depth + 1):
        pool = [v for v in steps[k - 1].kept if not selection or v > selection[-1]]
        if not pool:
            wit = next(
                (s.witness for s in reversed(steps) if s.witness is not None), None
            )
            raise ShadowFailure(
                k,
                wit,
                f"refinement at level {k} leaves no selectable index; "
                f"finite witness of the l1 spreading-model alternative: {wit}",
            )
        selection.append(pool[0])

    partial = sum((Fraction(k) * phi ** (k - 1) for k in range(1, depth + 1)), Fraction(0))
    total = 1 / (1 - phi) ** 2
    if not partial <= total <= 1 + eps:
        raise TransferError("selection arithmetic violates the claimed constant")

    m_sel = as_finset(selection)
    if isinstance(xs.space, Lp) and xs.space.p >= 2:
        # the exact check of an l_p left side splits the norm over supports
        for i, j in itertools.combinations(m_sel, 2):
            if set(xs.items[i - 1].support) & set(xs.items[j - 1].support):
                raise TransferError(
                    f"selected vectors {i} and {j} have overlapping supports; "
                    f"{format_space(xs.space)} needs pairwise disjoint ones"
                )
    trace = SelectionTrace(m_sel, phi, tuple(steps), partial, total)
    g_space = Combinatorial(Schreier(xi, q))
    cert = Certificate(None, m_sel, m_sel, 1 + eps, g_space, xs.name)
    return trace, _verified(cert, xs, q)
