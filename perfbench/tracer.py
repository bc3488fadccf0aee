"""Spans and exact counts around the domcert modules, installed from outside.

`Tracer.install` replaces every public module-level function of the traced
domcert modules, plus the methods and private helpers that a per-layer metric
needs, with a wrapper that records a span (name, start, end, parent) and
keeps running totals: calls, total time and self time (span time minus the
time of its child spans) per name, and call counts per (parent, child) pair.
The wrapper is put in place of the original everywhere it is bound inside
`domcert`, including names copied by ``from .linprog import support_function``,
so that calls from one module into another are seen.

Generator functions are not wrapped (a span would close before the work is
done); their work is charged to the caller's span.  `Vector.dot` is counted
without a span: it is called millions of times and only its count is needed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = (
    "ordinals", "rationals", "vectors", "families", "norms",
    "linprog", "domination", "transfer", "spreading",
)

# methods and private helpers that a per-layer metric needs
EXTRA = {
    "families": ("Family.member", "Explicit.member"),
    "norms": (
        "TsirelsonEngine.norm", "TsirelsonEngine.check_idempotent",
        "_tsirelson_abs_functionals",
    ),
    "domination": ("DominationOracle.constant", "_support_function_nonneg"),
}
COUNT_ONLY = {"vectors": ("Vector.dot",)}

# spans kept for the span file; totals are exact beyond it
SPAN_CAP = 100_000


def _observe_lp(sums, args, kwargs, result):
    a = args[0]
    sums["lp_cells"] += len(a) * (len(a[0]) if a else 0)
    sums["lp_optimal"] += result.status == "optimal"


def _observe_len(key):
    def observe(sums, args, kwargs, result):
        sums[key] += len(result)

    return observe


def _observe_verify(sums, args, kwargs, result):
    sums["members_checked"] += result.checked


def _observe_search(sums, args, kwargs, result):
    sums["search_nodes"] += result.nodes
    sums["search_found"] += result.status == "found"


def _observe_frak(sums, args, kwargs, result):
    sums["frak_members"] += len(result.members)


# exact work counts read off results, by span name
OBSERVE = {
    "linprog.solve_lp": _observe_lp,
    "norms.norming_functionals": _observe_len("functionals"),
    "families.enumerate_family": _observe_len("enum_members"),
    "domination.verify_certificate": _observe_verify,
    "domination.search_certificate": _observe_search,
    "transfer.frak_f_epsilon": _observe_frak,
}


def _targets() -> dict:
    """Map each function object to wrap to (span name, count only)."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"domcert.{short}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)
            ):
                found[obj] = (f"{short}.{name}", False)
        for dotted in EXTRA.get(short, ()) + COUNT_ONLY.get(short, ()):
            owner, _, attr = dotted.rpartition(".")
            obj = vars(getattr(mod, owner))[attr] if owner else vars(mod)[attr]
            found[obj] = (f"{short}.{dotted}", dotted in COUNT_ONLY.get(short, ()))
    return found


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.edges: Counter = Counter()
        self.sums: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [name, span id, child time, parent id]
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        self.edges[(parent[0] if parent else None, name)] += 1
        frame = [name, self._next_id, 0.0, parent[1] if parent else 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        name, span_id, child, parent_id = frame
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        frame = self.enter(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame, start, time.perf_counter())

    def _wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        enter, exit_, clock, sums = self.enter, self.exit, time.perf_counter, self.sums

        def wrapper(*args, **kwargs):
            frame = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, start, clock())
            if observe is not None:
                observe(sums, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        targets = _targets()
        wrappers = {
            obj: (self._count if count_only else self._wrap)(name, obj)
            for obj, (name, count_only) in targets.items()
        }
        owners = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "domcert"]
        owners += [c for m in owners for c in vars(m).values() if inspect.isclass(c)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def module_self(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, value in self.self_time.items():
            out[name.split(".")[0]] += value
        return dict(out)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_time),
            "module_self_s": self.module_self(),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "sums": dict(self.sums),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }


def _ratio(num: float, den: float):
    return num / den if den else None


def layer_metrics(summary: dict, cache: dict) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value or None when not applicable, unit).

    `cache` holds the hit and miss deltas of the membership lru caches over
    the traced jobs.
    """
    calls = Counter(summary["calls"])
    self_s = Counter(summary["self_s"])
    sums = Counter(summary["sums"])
    mod = Counter(summary["module_self_s"])
    edges = Counter({(p, c): n for p, c, n in summary["edges"]})

    def calls_of(*names):
        return sum(calls[n] for n in names)

    def self_of(*names):
        return sum(self_s[n] for n in names)

    member = ("families.Family.member", "families.Explicit.member")
    tsirelson = (
        "norms.TsirelsonEngine.norm", "norms.TsirelsonEngine.check_idempotent",
        "norms.tsirelson_norm", "norms._tsirelson_abs_functionals",
    )
    combine = (
        "transfer.shift_certificate", "transfer.limit_combine",
        "transfer.sum_combine", "transfer.merge_subsequence_certificates",
    )
    lookups = calls["domination.DominationOracle.constant"]
    misses = edges[("domination.DominationOracle.constant", "domination.domination_constant_exact")]
    searches = calls["domination.search_certificate"]
    solves = calls["linprog.solve_lp"]
    spreading_calls = sum(n for name, n in calls.items() if name.startswith("spreading."))
    hits, missed = cache["hits"], cache["misses"]

    s, c, r = "s", "count", "ratio"
    return {
        "ordinals.fs_calls": (calls["ordinals.fundamental_sequence"], c),
        "ordinals.fs_self_s": (self_s["ordinals.fundamental_sequence"], s),
        "families.member_calls": (calls_of(*member), c),
        "families.member_self_s": (self_of(*member), s),
        "families.member_cache_hit_ratio": (_ratio(hits, hits + missed), r),
        "families.enum_calls": (calls["families.enumerate_family"], c),
        "families.enum_members": (sums["enum_members"], c),
        "families.enum_self_s": (self_s["families.enumerate_family"], s),
        "families.embed_self_s": (self_s["families.find_order_embedding"], s),
        "norms.norm_calls": (calls["norms.norm"], c),
        "norms.norm_self_s": (self_s["norms.norm"], s),
        "norms.functional_calls": (calls["norms.norming_functionals"], c),
        "norms.functionals": (sums["functionals"], c),
        "norms.functionals_self_s": (self_s["norms.norming_functionals"], s),
        "norms.tsirelson_self_s": (self_of(*tsirelson), s),
        "linprog.lp_solves": (solves, c),
        "linprog.lp_cells": (sums["lp_cells"], c),
        "linprog.lp_self_s": (self_s["linprog.solve_lp"], s),
        "linprog.lp_optimal_ratio": (_ratio(sums["lp_optimal"], solves), r),
        "linprog.support_calls": (
            calls_of("linprog.support_function", "domination._support_function_nonneg"), c
        ),
        "linprog.maxmin_calls": (calls["linprog.max_min_over_simplex"], c),
        "linprog.square_calls": (calls["linprog.solve_square"], c),
        "linprog.square_self_s": (self_s["linprog.solve_square"], s),
        "domination.exact_calls": (calls["domination.domination_constant_exact"], c),
        "domination.exact_self_s": (self_s["domination.domination_constant_exact"], s),
        "domination.oracle_lookups": (lookups, c),
        "domination.oracle_hit_ratio": (_ratio(lookups - misses, lookups), r),
        "domination.verify_calls": (calls["domination.verify_certificate"], c),
        "domination.members_checked": (sums["members_checked"], c),
        "domination.verify_self_s": (self_s["domination.verify_certificate"], s),
        "domination.search_calls": (searches, c),
        "domination.search_nodes": (sums["search_nodes"], c),
        "domination.search_found_ratio": (_ratio(sums["search_found"], searches), r),
        "domination.search_self_s": (self_s["domination.search_certificate"], s),
        "domination.lower_bound_self_s": (self_s["domination.domination_lower_bound"], s),
        "transfer.block_self_s": (self_s["transfer.block_certificate"], s),
        "transfer.frak_calls": (calls["transfer.frak_f_epsilon"], c),
        "transfer.frak_members": (sums["frak_members"], c),
        "transfer.frak_self_s": (self_s["transfer.frak_f_epsilon"], s),
        "transfer.select_self_s": (self_s["transfer.wn_select"], s),
        "transfer.combine_self_s": (self_of(*combine), s),
        "spreading.calls": (spreading_calls, c),
        "spreading.self_s": (mod["spreading"], s),
        "vectors.dot_calls": (calls["vectors.Vector.dot"], c),
        **{f"self_s.{m}": (mod[m], s) for m in MODULES + ("job",) if m != "spreading"},
    }
