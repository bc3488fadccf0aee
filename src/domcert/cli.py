"""Command-line entry point.

Thin adapters over the library: every numerical decision lives in the core
modules.  Exit codes: 0 success, 1 usage or parse error, 2 property violation
found, 3 search or budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from . import acceptance as acc
from .domination import (
    Certificate,
    VectorSequence,
    basis_sequence,
    domination_constant_exact,
    domination_lower_bound,
    gamma_bracket,
    search_certificate,
    verify_certificate,
)
from .families import (
    BudgetError,
    QSchedule,
    almost_monotone_witness,
    as_finset,
    check_regular,
    enumerate_family,
    find_order_embedding,
    parse_family,
    rank_restricted,
)
from .norms import norm, parse_space
from .ordinals import compare, fundamental_sequence, parse_ordinal
from .rationals import Mag, format_fraction, parse_fraction
from .spreading import (
    SubseqSpec,
    check_main2_bridge,
    default_probes,
    equivalence_constant,
    estimate_spreading,
    exact_spreading_combinatorial,
    exact_table,
)
from .transfer import (
    ShadowFailure,
    block_certificate,
    frak_f_epsilon,
    limit_combine,
    merge_subsequence_certificates,
    shift_certificate,
    sum_combine,
    wn_select,
)
from .vectors import Vector

OK, USAGE, VIOLATION, EXHAUSTED = 0, 1, 2, 3


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError (exit 1) instead of exiting with 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _require(value, what: str):
    if value is None:
        raise CliError(f"missing {what}")
    return value


def _parse_q(text: str | None) -> QSchedule:
    """Schedule grammar: 'n' (default), 'an+b', or 'v1,v2,...;an+b'."""
    if not text or text == "n":
        return QSchedule()
    prefix: tuple[int, ...] = ()
    tail = text
    if ";" in text:
        head, _, tail = text.partition(";")
        prefix = tuple(int(v) for v in head.split(",") if v.strip())
    tail = tail.strip() or "n"
    slope, offset = 1, 0
    if "n" in tail:
        a, _, b = tail.partition("n")
        slope = int(a) if a and a != "+" else 1
        offset = int(b) if b else 0
    else:
        raise CliError(f"cannot parse schedule {text!r}")
    return QSchedule(prefix, slope, offset)


def _load_json(path: str, parse: Callable):
    """parse(data) for the JSON in the file at path.  A KeyError, TypeError or
    IndexError raised by parse means the file is malformed: a usage error."""
    data = json.loads(Path(path).read_text())
    try:
        return parse(data)
    except (KeyError, TypeError, IndexError) as exc:
        raise CliError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def _load_sequence(spec: str, q: QSchedule) -> VectorSequence:
    """'basis:<space>:<length>' or a path to a sequence JSON file."""
    if spec.startswith("basis:"):
        _, space_text, length = spec.split(":")
        return basis_sequence(parse_space(space_text, q), int(length))
    return _load_json(spec, lambda data: VectorSequence.from_json(data, q))


def _load_vector(spec: str) -> Vector:
    return _load_json(spec, Vector.from_json)


def _load_certificate(path: str, q: QSchedule) -> Certificate:
    return _load_json(path, lambda data: Certificate.from_json(data, q))


def _finset(text: str):
    parts = text.replace(",", " ").split()
    return as_finset(int(v) for v in parts)


def _emit(payload, args) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")


def _mag_json(value) -> dict:
    value = Mag.of(value)
    if not value.is_finite:
        return {"kind": "infinite"}
    if value.is_rational:
        return {"kind": "rational", "value": format_fraction(value.as_fraction())}
    return {
        "kind": "root",
        "power": format_fraction(value.power),
        "root": value.root,
        "approx": value.approx(12),
    }


def cmd_ord(args) -> int:
    if args.action in ("add", "cmp", "fs"):
        _require(args.b, f"second argument of ord {args.action}")
    if args.action == "parse":
        _emit(str(parse_ordinal(args.a)), args)
    elif args.action == "add":
        _emit(str(parse_ordinal(args.a) + parse_ordinal(args.b)), args)
    elif args.action == "cmp":
        _emit(compare(parse_ordinal(args.a), parse_ordinal(args.b)), args)
    elif args.action == "classify":
        o = parse_ordinal(args.a)
        kind = o.classify()
        _emit(kind if kind != "successor" else f"successor({o.pred()})", args)
    elif args.action == "fs":
        _emit(str(fundamental_sequence(parse_ordinal(args.a), int(args.b))), args)
    return OK


def cmd_fam(args) -> int:
    q = _parse_q(args.q)
    # enum/rank/regular take (family, n); the others take three positionals
    if args.action in ("enum", "rank", "regular") and args.n is None:
        args.n = args.set
    if args.action != "member" and args.n is None:
        raise CliError("missing universe bound N")
    if args.action == "member":
        fam = parse_family(args.family, q)
        _emit("true" if fam.member(_finset(_require(args.set, "set"))) else "false", args)
        return OK
    if args.action == "enum":
        fam = parse_family(args.family, q)
        members = enumerate_family(fam, int(args.n))
        _emit([list(f) for f in members], args)
        return OK
    if args.action == "rank":
        fam = parse_family(args.family, q)
        _emit(str(rank_restricted(fam, int(args.n))), args)
        return OK
    if args.action == "regular":
        fam = parse_family(args.family, q)
        report = check_regular(fam, int(args.n))
        _emit(
            {
                "spreading_ok": report.spreading_ok,
                "hereditary_ok": report.hereditary_ok,
                "counterexample": [list(f) for f in report.counterexample]
                if report.counterexample
                else None,
            },
            args,
        )
        return OK if report.ok else VIOLATION
    if args.action == "am-witness":
        zeta = parse_ordinal(args.family)
        xi = None if args.set == "ALL" else parse_ordinal(args.set)
        witness = almost_monotone_witness(zeta, xi, int(args.n), q)
        _emit("none" if witness is None else str(witness), args)
        return OK
    if args.action == "embed":
        src = parse_family(args.family, q)
        dst = parse_family(args.set, q)
        res = find_order_embedding(src, dst, int(args.n))
        if res.found:
            _emit({"mapping": list(res.mapping), "nodes": res.nodes}, args)
            return OK
        _emit({"mapping": None, "nodes": res.nodes, "exhausted": True}, args)
        return EXHAUSTED
    raise CliError(f"unknown fam action {args.action!r}")


def cmd_norm(args) -> int:
    q = _parse_q(args.q)
    space = parse_space(args.space, q)
    vec = _load_vector(args.vector)
    value = norm(space, vec)
    if value.is_rational:
        _emit(format_fraction(value.as_fraction()), args)
    else:
        _emit(
            f"{format_fraction(value.power)}^(1/{value.root})"
            f" ~= {value.approx(int(args.precision))}",
            args,
        )
    return OK


def cmd_dominate(args) -> int:
    q = _parse_q(args.q)
    xs = _load_sequence(args.xs, q)
    ys = _load_sequence(args.ys, q)
    if args.action == "exact":
        res = domination_constant_exact(xs, ys)
        payload = {"constant": _mag_json(res.value)}
        if res.witness is not None:
            payload["witness"] = [format_fraction(c) for c in res.witness]
        _emit(payload, args)
        return OK
    res = domination_lower_bound(xs, ys, trials=int(args.trials), seed=int(args.seed))
    payload = {"lower_bound": _mag_json(res.value), "status": res.status}
    if res.witness is not None:
        payload["witness"] = [format_fraction(c) for c in res.witness]
    _emit(payload, args)
    return OK


def _xi_arg(text: str):
    return None if text == "ALL" else parse_ordinal(text)


def cmd_certify(args) -> int:
    q = _parse_q(args.q)
    # `verify` takes (cert, rho); `search`/`bracket` take (rho,)
    if args.action != "verify":
        if args.rho is None:
            args.rho = args.cert
    _require(args.rho, "rho sequence")
    if args.action == "verify":
        cert = _load_certificate(args.cert, q)
        rho = _load_sequence(args.rho, q)
        report = verify_certificate(cert, rho, q)
        payload = {
            "ok": report.ok,
            "worst_ratio": _mag_json(report.worst_ratio),
            "checked": report.checked,
        }
        if report.violation is not None:
            payload["violation"] = {
                "F": list(report.violation.F),
                "ratio": _mag_json(report.violation.ratio),
                "scalars": [format_fraction(c) for c in report.violation.scalars]
                if report.violation.scalars
                else None,
            }
        _emit(payload, args)
        return OK if report.ok else VIOLATION
    if args.action == "search":
        rho = _load_sequence(args.rho, q)
        out = search_certificate(
            rho,
            _xi_arg(args.xi),
            parse_fraction(args.C),
            int(args.depth),
            q=q,
            l_max=int(args.l_max) if args.l_max else None,
            constraint=_finset(args.constraint) if args.constraint else None,
            node_budget=int(args.node_budget),
            time_budget=float(args.time_budget),
            g_space=parse_space(args.g_space, q) if args.g_space else None,
        )
        if out.status == "found":
            _emit(out.certificate.to_json(), args)
            return OK
        _emit({"status": out.status, "nodes": out.nodes}, args)
        return EXHAUSTED
    if args.action == "bracket":
        rho = _load_sequence(args.rho, q)
        bracket = gamma_bracket(
            rho,
            _xi_arg(args.xi),
            int(args.depth),
            resolution=parse_fraction(args.resolution),
            q=q,
            l_max=int(args.l_max) if args.l_max else None,
            node_budget=int(args.node_budget),
            time_budget=float(args.time_budget),
            g_space=parse_space(args.g_space, q) if args.g_space else None,
        )
        payload = {
            "xi": args.xi,
            "depth": bracket.depth,
            "lower": format_fraction(bracket.lower),
            "upper": str(bracket.upper),
            "budget": {k: v for k, v in bracket.budget_report.items()},
        }
        if bracket.certificate is not None:
            payload["certificate"] = bracket.certificate.to_json()
        _emit(payload, args)
        return OK if "exhausted" not in bracket.budget_report else EXHAUSTED
    raise CliError(f"unknown certify action {args.action!r}")


def cmd_transfer(args) -> int:
    q = _parse_q(args.q)
    needed = 2 if args.action == "sum" else 1
    if len(args.inputs) < needed:
        raise CliError(f"transfer {args.action} needs {needed} input file(s)")
    if args.action in ("shift", "sum", "limit", "merge"):
        _require(args.rho, "--rho")
    if args.action in ("shift", "block"):
        _require(args.target, "--target")
    rho = _load_sequence(args.rho, q) if args.rho else None
    try:
        if args.action == "shift":
            cert = _load_certificate(args.inputs[0], q)
            out = shift_certificate(cert, rho, parse_ordinal(args.target), int(args.shift), q)
            _emit(out.to_json(), args)
        elif args.action == "sum":
            c1 = _load_certificate(args.inputs[0], q)
            c2 = _load_certificate(args.inputs[1], q)
            out = sum_combine(c1, c2, rho, parse_fraction(args.r), q)
            _emit(out.to_json(), args)
        elif args.action == "limit":
            certs = [_load_certificate(p, q) for p in args.inputs]
            out = limit_combine(certs, rho, parse_ordinal(args.xi), parse_fraction(args.r), q)
            _emit(out.to_json(), args)
        elif args.action == "merge":
            base = _load_certificate(args.inputs[0], q)
            extras = [_load_certificate(p, q) for p in args.inputs[1:]]
            res = merge_subsequence_certificates(base, extras, rho, parse_fraction(args.r), q)
            _emit(
                {
                    "K": list(res.K),
                    "N": list(res.N),
                    "base_constant": format_fraction(res.base_constant),
                    "levels": [
                        {"xi": str(xi), "constant": format_fraction(c)}
                        for xi, c in res.level_constants
                    ],
                },
                args,
            )
        elif args.action == "block":
            fam = parse_family(args.target, q)
            vectors = _load_json(args.inputs[0], lambda data: [Vector.from_json(v) for v in data])
            cert, _ = block_certificate(fam, vectors, q)
            _emit(cert.to_json(), args)
        elif args.action == "frak":
            xs = _load_sequence(args.inputs[0], q)
            fam = frak_f_epsilon(xs, parse_fraction(args.eps), int(args.depth))
            _emit(
                [list(f) for f in sorted(fam.members, key=lambda t: (len(t), t))], args
            )
        elif args.action == "select":
            xs = _load_sequence(args.inputs[0], q)
            trace, cert = wn_select(
                xs,
                parse_ordinal(args.xi),
                parse_fraction(args.eps),
                parse_fraction(args.phi),
                int(args.depth),
                q,
            )
            _emit({"trace": trace.to_json(), "certificate": cert.to_json()}, args)
        else:
            raise CliError(f"unknown transfer action {args.action!r}")
    except ShadowFailure as exc:
        _emit(
            {
                "error": "shadow-failure",
                "k": exc.k,
                "witness": list(exc.witness) if exc.witness else None,
                "message": str(exc),
            },
            args,
        )
        return VIOLATION
    return OK


def cmd_spread(args) -> int:
    q = _parse_q(args.q)
    if args.action == "estimate":
        space = parse_space(args.space, q)
        m = int(args.m)
        stages = [int(s) for s in args.stages.split(",")]
        report = estimate_spreading(
            space,
            lambda n: Vector.basis(n),
            SubseqSpec.parse(args.subseq),
            m,
            stages,
            probes=None,
            seed=int(args.seed),
        )
        _emit(
            {
                "stable": report.stable,
                "discrepancy": report.max_discrepancy_desc,
                "tables": [t.to_json() for t in report.tables],
            },
            args,
        )
        return OK
    if args.action == "exact":
        xi = parse_ordinal(args.space)
        coeffs = [parse_fraction(v) for v in args.coeffs.split(",")]
        res = exact_spreading_combinatorial(
            xi, SubseqSpec.parse(args.subseq), len(coeffs), coeffs, q
        )
        _emit(
            {
                "value": _mag_json(res.value),
                "stable": res.stable,
                "stability_threshold": res.stability_threshold,
            },
            args,
        )
        return OK
    if args.action == "equiv":
        xi = parse_ordinal(args.space)
        m = int(args.m)
        probes = default_probes(m, int(args.seed), extra=8)
        t1 = exact_table(xi, SubseqSpec.parse(args.subseq), m, probes, q)
        t2 = exact_table(xi, SubseqSpec.parse(args.subseq2), m, probes, q)
        eq = equivalence_constant(t1, t2)
        _emit(
            {
                "lower": _mag_json(eq.lower),
                "upper": _mag_json(eq.upper),
                "exact": eq.exact,
            },
            args,
        )
        return OK
    if args.action == "bridge":
        rho = _load_sequence(args.space, q)
        report = check_main2_bridge(
            rho,
            parse_ordinal(args.g_xi),
            parse_fraction(args.C),
            int(args.depth),
            q,
            seed=int(args.seed),
        )
        _emit(
            {
                "ok": report.ok,
                "inconclusive": report.inconclusive,
                "direction_a": report.direction_a,
                "direction_b": report.direction_b,
            },
            args,
        )
        if report.inconclusive:
            return EXHAUSTED
        return OK if report.ok else VIOLATION
    raise CliError(f"unknown spread action {args.action!r}")


def cmd_acceptance(args) -> int:
    if args.list:
        _emit(sorted(acc.SUITES), args)
        return OK
    results = acc.run_suite(args.suite, int(args.seed))
    _emit(acc.format_results(results), args)
    return OK if all(r.passed for r in results) else VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="domcert",
        description="Schreier-type families, combinatorial norms, and "
        "domination certificates with exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q=False, seed=False, budgets=False):
        p.add_argument("--out", help="also write the output to this file")
        if q:
            p.add_argument("--q", default="n", help="omega-level schedule, e.g. 'n' or '2n+1'")
        if seed:
            p.add_argument("--seed", default="0")
        if budgets:
            p.add_argument("--node-budget", default="1000000")
            p.add_argument("--time-budget", default="60")

    p = sub.add_parser("ord", help="ordinal arithmetic")
    p.add_argument("action", choices=["parse", "add", "cmp", "classify", "fs"])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    common(p)
    p.set_defaults(func=cmd_ord)

    p = sub.add_parser("fam", help="family operations")
    p.add_argument(
        "action", choices=["member", "enum", "rank", "regular", "am-witness", "embed"]
    )
    p.add_argument("family", help="family grammar, or zeta for am-witness")
    p.add_argument("set", nargs="?", help="finite set, xi, or target family")
    p.add_argument("n", nargs="?", help="universe bound")
    common(p, q=True)
    p.set_defaults(func=cmd_fam)

    p = sub.add_parser("norm", help="norm evaluation")
    p.add_argument("action", choices=["eval"])
    p.add_argument("space")
    p.add_argument("vector", help="vector JSON file")
    p.add_argument("--precision", default="12")
    common(p, q=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("dominate", help="domination constants")
    p.add_argument("action", choices=["exact", "lb"])
    p.add_argument("xs", help="sequence file or basis:<space>:<len>")
    p.add_argument("ys")
    p.add_argument("--trials", default="100")
    common(p, q=True, seed=True)
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("certify", help="certificate search, verify, brackets")
    p.add_argument("action", choices=["search", "verify", "bracket"])
    p.add_argument("cert", nargs="?", help="certificate JSON (verify)")
    p.add_argument("rho", nargs="?", help="rho sequence spec")
    p.add_argument("--xi", default="ALL")
    p.add_argument("--C", default="1")
    p.add_argument("--depth", default="4")
    p.add_argument("--resolution", default="1/16")
    p.add_argument("--l-max", dest="l_max")
    p.add_argument("--constraint")
    p.add_argument("--g-space", dest="g_space")
    common(p, q=True, budgets=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("transfer", help="certificate transformers")
    p.add_argument(
        "action", choices=["shift", "sum", "limit", "merge", "block", "frak", "select"]
    )
    p.add_argument("inputs", nargs="*", help="certificate/sequence files")
    p.add_argument("--rho")
    p.add_argument("--target", help="target ordinal (shift) or family (block)")
    p.add_argument("--shift", default="0")
    p.add_argument("--xi", default="w")
    p.add_argument("--r", default="1")
    p.add_argument("--eps", default="1/2")
    p.add_argument("--phi", default="1/8")
    p.add_argument("--depth", default="4")
    common(p, q=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("spread", help="spreading model estimation")
    p.add_argument("action", choices=["estimate", "exact", "equiv", "bridge"])
    p.add_argument("space", help="space / ordinal / rho depending on action")
    p.add_argument("--m", default="3")
    p.add_argument("--stages", default="2,3")
    p.add_argument("--subseq", default="identity")
    p.add_argument("--subseq2", default="affine(2,3)")
    p.add_argument("--coeffs", default="1,1,1")
    p.add_argument("--g-xi", dest="g_xi", default="1")
    p.add_argument("--C", default="1")
    p.add_argument("--depth", default="6")
    common(p, q=True, seed=True)
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("acceptance", help="run acceptance suites")
    p.add_argument("suite", nargs="?", default="all", choices=sorted(acc.SUITES))
    p.add_argument("--list", action="store_true")
    common(p, seed=True)
    p.set_defaults(func=cmd_acceptance)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        code = getattr(exc, "code", USAGE)
        print(f"error: {exc}", file=sys.stderr)
        return code
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
