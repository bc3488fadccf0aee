"""Benchmark of the domcert exact certificate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; domcert is imported from its ``src/``.
Workloads (see workloads.py): block-certify, cert-search, wn-select,
norm-eval.  Each runs in fresh worker processes (worker.py), as a closed loop
with one client that submits one job at a time.

``--trace 0`` prints the end-to-end metrics: two set-up-only processes and
then the measured process, which times whole job cycles for S seconds.
``--trace 1`` prints the per-layer metrics: one untraced and one traced
process run the same fixed job list, so that their counts repeat exactly for
one seed and their wall times give the tracing overhead.

Every time is scaled to a reference CPU speed, as worker.py explains: the
shared hosts drift by up to 2x within a minute, which no bound of 25 % could
absorb.  The line before the result gives the unscaled figures too.

The last stdout line is the JSON result; the line before it gives the output
digest, the failure ratio and, for a traced run, the metrics that do not
apply to the workload (reported as 0).  Spans of a traced run are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("block-certify", "cert-search", "wn-select", "norm-eval")
SETUP_ONLY_RUNS = 4
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, *worker_args: str) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time (start to its ready line) and
    its final JSON summary (None for a set-up-only worker)."""
    cmd = [sys.executable, str(WORKER), *worker_args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if not line.strip():
            raise BenchError(f"worker gave no ready line: {' '.join(worker_args)}")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker overran the run limit: {' '.join(worker_args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(worker_args)}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _failed(summary: dict) -> int:
    return summary["jobs"] - summary["counts"]["ok"]


def _correct(summary: dict) -> bool:
    """Correct when no job gave a wrong output, raised or hit its time limit."""
    return _failed(summary) == 0


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    raw_setups, setups = [], []
    for mode in ["setup"] * SETUP_ONLY_RUNS + ["timed"]:
        setup_s, summary = spawn(deadline, *base, "--mode", mode)
        raw_setups.append(setup_s)
        setups.append(setup_s * summary["setup_speed"])
    durations = summary["durations"]
    if len(durations) < worker.MIN_JOBS:
        print(f"perfbench: only {len(durations)} jobs by the hard stop; p90 rests on fewer"
              " than 10", file=sys.stderr)
    metrics = {
        "jobs_per_s": (summary["counts"]["ok"] / summary["phase_s"], "1/s"),
        "job_p50_s": (statistics.median(durations), "s"),
        "job_p90_s": (statistics.quantiles(durations, n=10)[8], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    detail = {
        "speed": summary["speed"],
        "setup_samples_s": setups,
        "unscaled": {
            "jobs_per_s": summary["counts"]["ok"] / summary["raw_phase_s"],
            "setup_s": statistics.median(raw_setups),
        },
    }
    return summary, metrics, detail


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    import tracer

    cycles = worker.fixed_cycles(args.workload, args.seconds)
    span_file = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
    base = [
        "--workload", args.workload, "--seed", str(args.seed), "--mode", "fixed",
        "--cycles", str(cycles), "--seconds", str(RUN_LIMIT_S),
    ]
    _, plain = spawn(deadline, *base)
    _, traced = spawn(deadline, *base, "--trace", "--span-file", str(span_file))
    if traced["digest"] != plain["digest"]:
        traced["counts"]["wrong"] += 1
        traced["first_failure"] = "traced outputs differ from untraced outputs"
    metrics = tracer.layer_metrics(traced["trace"], traced["cache"])
    not_applicable = sorted(name for name, (value, _) in metrics.items() if value is None)
    metrics = {
        name: ((value or 0) * (traced["speed"] if unit == "s" else 1), unit)
        for name, (value, unit) in metrics.items()
    }
    metrics["trace.overhead_ratio"] = (traced["phase_s"] / plain["phase_s"] - 1, "ratio")
    detail = {
        "cycles": cycles,
        "speed": traced["speed"],
        "untraced_s": plain["phase_s"],
        "traced_s": traced["phase_s"],
        "not_applicable": not_applicable,
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return traced, metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "domcert" / "__init__.py").is_file():
        print(f"perfbench: no src/domcert under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        summary, metrics, detail = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "jobs": summary["jobs"],
        "counts": summary["counts"],
        "fail_ratio": _failed(summary) / summary["jobs"],
        "first_failure": summary["first_failure"],
        "digest": summary["digest"],
        "digest_jobs": summary["digest_jobs"],
        **detail,
    }))
    print(json.dumps({
        "correct": _correct(summary),
        "attempted": summary["jobs"],
        "failed": _failed(summary),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
