"""Self-tests of the benchmark's tracer and workers.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload runs one or two job cycles in
fresh worker processes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# counters that must be non-zero on the workload built to stress their layer;
# support_calls and maxmin_calls also catch a wrapper missing on a name that
# domination and transfer bind with `from .linprog import ...`
STRESSED = {
    "block-certify": [
        "linprog.lp_solves", "linprog.lp_cells", "linprog.support_calls",
        "domination.exact_calls", "norms.functionals", "transfer.block_self_s",
    ],
    "cert-search": [
        "domination.search_calls", "domination.search_nodes", "domination.oracle_lookups",
        "domination.members_checked", "transfer.combine_self_s", "spreading.calls",
        "families.enum_calls", "linprog.lp_solves",
    ],
    "wn-select": [
        "transfer.frak_calls", "transfer.frak_members", "linprog.maxmin_calls",
        "vectors.dot_calls", "transfer.select_self_s",
    ],
    "norm-eval": [
        "families.member_calls", "families.member_self_s", "ordinals.fs_calls",
        "norms.norm_calls", "norms.tsirelson_self_s", "families.enum_members",
    ],
}
EXACT = [
    "linprog.lp_solves", "linprog.lp_cells", "domination.search_nodes",
    "domination.members_checked", "transfer.frak_members", "norms.functionals",
    "vectors.dot_calls", "families.member_calls", "families.enum_members",
]


def traced_run(workload: str, seed: int, cycles: int) -> dict:
    deadline = time.monotonic() + run.RUN_LIMIT_S
    _, summary = run.spawn(deadline, *fixed_args(workload, seed, cycles), "--trace")
    return summary


# runs of block-certify with and without an injected cost, alternated
INJECT_CYCLES = 5
INJECT_PAIRS = 4


def slowed_worker(argv: list[str]) -> None:
    """Body of a worker process in which every linprog.solve_lp call runs
    twice, patched where domcert binds it, as the tracer patches.  Prints the
    wall time of the repeats made in the job loop on a line after the
    worker's summary."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from domcert import linprog

    original = linprog.solve_lp
    state = {"extra_s": 0.0}

    def solve_lp(*args, **kwargs):
        start = time.perf_counter()
        original(*args, **kwargs)
        state["extra_s"] += time.perf_counter() - start
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "domcert":
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, solve_lp)
    run_cycles = worker.run_cycles

    def timed_loop(*args):
        state["extra_s"] = 0.0
        return run_cycles(*args)

    worker.run_cycles = timed_loop
    sys.argv = ["worker.py", *argv]
    worker.main()
    print(json.dumps({"extra_s": state["extra_s"]}), flush=True)


def fixed_args(workload: str, seed: int, cycles: int) -> list[str]:
    return [
        "--workload", workload, "--seed", str(seed), "--mode", "fixed",
        "--cycles", str(cycles), "--seconds", str(run.RUN_LIMIT_S),
    ]


class TracerUnitTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        t = tracer.Tracer()

        def child():
            time.sleep(0.02)

        def parent():
            t.span("b.child", child)
            time.sleep(0.01)

        t.span("a.parent", parent)
        self.assertEqual(t.calls["a.parent"], 1)
        self.assertGreaterEqual(t.total["a.parent"], 0.03)
        self.assertLess(t.self_time["a.parent"], 0.02)
        self.assertGreaterEqual(t.self_time["b.child"], 0.02)
        self.assertEqual(t.edges[("a.parent", "b.child")], 1)
        (child_span,) = [s for s in t.spans if s[2] == "b.child"]
        (parent_span,) = [s for s in t.spans if s[2] == "a.parent"]
        self.assertEqual(child_span[1], parent_span[0])

    def test_install_wraps_rebound_names_and_uninstall_restores(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        from domcert import domination, linprog, transfer

        originals = (linprog.support_function, domination.support_function,
                     transfer.max_min_over_simplex)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIs(domination.support_function, linprog.support_function)
            self.assertIs(domination.support_function.__wrapped__, originals[1])
            self.assertIs(transfer.max_min_over_simplex.__wrapped__, originals[2])
        finally:
            t.uninstall()
        self.assertEqual(
            (linprog.support_function, domination.support_function,
             transfer.max_min_over_simplex),
            originals,
        )


class WorkloadTraceTest(unittest.TestCase):
    def test_layers_record_work_and_counts_repeat(self):
        for workload, stressed in STRESSED.items():
            with self.subTest(workload=workload):
                first = traced_run(workload, 7, 2)
                second = traced_run(workload, 7, 2)
                self.assertEqual(first["counts"]["ok"], first["jobs"], first["first_failure"])
                m1 = tracer.layer_metrics(first["trace"], first["cache"])
                m2 = tracer.layer_metrics(second["trace"], second["cache"])
                for name in stressed:
                    self.assertGreater(m1[name][0], 0, name)
                for name in EXACT:
                    self.assertEqual(m1[name][0], m2[name][0], name)
                self.assertEqual(first["trace"]["calls"], second["trace"]["calls"])
                self.assertEqual(first["digest"], second["digest"])



class ScalingTest(unittest.TestCase):
    """Times are scaled by the speed of the benchmark's own reference loop,
    measured in the process that runs domcert; a real slowdown of domcert must
    still show in the scaled figures, by the share of time it adds.  Single
    runs differ by up to a fifth on a shared host, so the test takes the
    median of alternated pairs."""

    def test_injected_cost_shows_in_scaled_jobs_per_s(self):
        args = fixed_args("block-certify", 3, INJECT_CYCLES)
        code = ("import sys; sys.path.insert(0, 'perfbench'); import selftest; "
                "selftest.slowed_worker(sys.argv[1:])")
        observed, expected = [], []
        for pair in range(INJECT_PAIRS):
            if pair % 2:
                _, base = run.spawn(time.monotonic() + run.RUN_LIMIT_S, *args)
            proc = subprocess.run(
                [sys.executable, "-c", code, *args], cwd=run.ROOT, capture_output=True,
                text=True, timeout=run.RUN_LIMIT_S, check=True,
            )
            *_, line, extra = proc.stdout.strip().splitlines()
            slow = json.loads(line)
            if not pair % 2:
                _, base = run.spawn(time.monotonic() + run.RUN_LIMIT_S, *args)
            self.assertEqual(slow["digest"], base["digest"])
            self.assertEqual(slow["counts"]["ok"], slow["jobs"], slow["first_failure"])
            # jobs_per_s is ok jobs over the scaled phase time; both runs do
            # the same jobs, so its fall is one minus the ratio of the phases
            observed.append(1 - base["phase_s"] / slow["phase_s"])
            expected.append(json.loads(extra)["extra_s"] / slow["raw_phase_s"])
        observed, expected = statistics.median(observed), statistics.median(expected)
        self.assertGreater(expected, 0.3)
        self.assertAlmostEqual(observed, expected, delta=0.1)


if __name__ == "__main__":
    unittest.main()
