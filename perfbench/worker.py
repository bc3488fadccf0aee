"""One workload in one fresh process: a closed loop with a single client.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--seconds S] [--cycles K] [--trace]

The process imports domcert from ``src/`` of the checkout it lives in, runs
one warm-up cycle drawn from a seed stream of its own, draws its inputs from
``--seed`` and prints a ``{"ready": true}`` line; the parent times set-up up
to that line.  MODE ``setup`` stops there.  MODE ``timed`` then runs whole
cycles of jobs, one job at a time, until ``--seconds`` have passed; MODE
``fixed`` runs exactly ``--cycles`` cycles, so that two runs do the same work.
A timed run goes on past ``--seconds`` until it holds MIN_JOBS jobs, so that
its 90th percentile has ten jobs beyond it on a slow host, and stops at three
times ``--seconds`` in any case.
Each job runs under a wall-time limit.  Outputs are checked after the loop,
outside every job's timed interval, and the last stdout line is a JSON
summary.  With ``--trace`` the tracer wraps domcert for the loop only.

Times are reported at a reference CPU speed.  The hosts this runs on share
their cores, and their speed drifts by up to a factor of two within a minute;
every time measured here moves with it.  So the worker also times a fixed
piece of exact arithmetic (`reference`, the benchmark's own code, never
domcert's) right after set-up and after every cycle, and scales each time
by REFERENCE_S over the median reference time measured around it, raised to
SENSITIVITY: a cycle's jobs by the samples of the five cycles centred on it,
set-up by samples taken at its start and its end.  The raw times are
reported beside the scaled ones.

SENSITIVITY is measured, not assumed.  From one run to the next the
reference time moves more than domcert's does: over runs of identical work,
and over 160 timed runs of the four workloads, the log of domcert's wall time
rose by 0.46 to 0.70 times the log of the reference time.  Scaling in full
(an exponent of 1) overcorrects: a run on a slow host would read faster than
the same run on a fast one.  selftest.py checks that an injected cost still
shows in the scaled figures by its own share.

Peak RSS is read after `fixed_cycles` cycles, so that it covers the same jobs
however fast the host runs; the membership caches grow with every job.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOB_LIMIT_S = 10.0
DIGEST_JOBS = 100
MIN_JOBS = 100
WARMUP_SEED = "perfbench-warm-up"
# input cycles drawn during set-up per measured second; more are drawn, off
# the clock, if a faster program runs out of them
CYCLES_PER_S = 4
# one `reference` call takes this long on a 2-core x86-64 sandbox with
# Python 3.11 at its fastest; measured times are scaled to that speed
REFERENCE_S = 0.0016
# of the exponents 0.5 to 1 tried on 16 sets of ten timed runs on that
# sandbox, this one gave the smallest largest quartile spread of jobs_per_s
SENSITIVITY = 0.55
SETUP_SAMPLES = 10  # at the start and again at the end of set-up
CYCLE_SAMPLES = 3
WINDOW = 2  # cycles on each side whose samples scale a cycle
# job cycles per second of --seconds in the fixed job list of a traced run,
# about half of what the untraced loop completes on a 2-core x86-64 sandbox
# with Python 3.11; a timed run reads its peak RSS after as many cycles
FIXED_CYCLES_PER_S = {
    "block-certify": 1.0, "cert-search": 0.8, "wn-select": 0.6, "norm-eval": 3.0,
}


class JobTimeout(BaseException):
    """Raised in the job by the alarm; a BaseException so that no handler in
    the library mistakes it for a failure of its own."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def fixed_cycles(workload: str, seconds: float) -> int:
    return max(1, round(FIXED_CYCLES_PER_S[workload] * seconds))


def reference() -> int:
    """Fixed work in the benchmark's own code that uses the interpreter the
    way domcert does: Gauss-Jordan elimination of a 7x8 rational matrix (the
    Fraction and list work of the LP layer), then a depth-first enumeration
    of the sets |F| <= min F within 1..12 with a memoized recursive test on
    tuples (the work of the family layer)."""
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    memo: dict[tuple, bool] = {}

    def admissible(f: tuple) -> bool:
        if f not in memo:
            memo[f] = len(f) <= f[0] and (len(f) == 1 or admissible(f[1:]))
        return memo[f]

    def extend(prefix: tuple) -> int:
        found = 0
        for x in range(prefix[-1] + 1 if prefix else 1, 13):
            if admissible(prefix + (x,)):
                found += 1 + extend(prefix + (x,))
        return found

    return extend(())


def reference_samples(count: int) -> list[float]:
    """Times of `count` reference calls, with the garbage collector held off
    so that a collection owed to the jobs does not land in a sample."""
    gc.disable()
    try:
        out = []
        for _ in range(count):
            start = time.perf_counter()
            reference()
            out.append(time.perf_counter() - start)
        return out
    finally:
        gc.enable()


def speed(samples: list[float]) -> float:
    """Factor that scales a time measured alongside `samples` to the speed at
    which `reference` takes REFERENCE_S."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY


def import_domcert():
    src = ROOT / "src"
    if not (src / "domcert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no domcert package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import domcert

    if Path(domcert.__file__).resolve().parent != (src / "domcert").resolve():
        sys.exit(f"perfbench: imported domcert from {domcert.__file__}, not {src}")


def run_job(workload, job, tracer=None):
    """(status, output, seconds) of one job under the wall-time limit."""
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(job)
        else:
            out = tracer.span(f"job.{job.kind}", workload.run, job)
        status = "ok"
    except JobTimeout:
        out, status = None, "timeout"
    except Exception as exc:  # a raised job is a failed job, reported by type
        out, status = f"{type(exc).__name__}: {exc}", "error"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, out, elapsed


def membership_cache_info():
    from domcert import families

    infos = [families._fine_member.cache_info(), families._schreier_member.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cycles(workload, cycles, rng, args, tracer):
    """The closed loop.  Returns the job records (cycle index, job, status,
    output, seconds), each cycle's wall time and reference samples, and the
    peak RSS after `fixed_cycles` cycles."""
    records, walls, samples = [], [], []
    peak_rss_mb = None
    rss_cycles = fixed_cycles(args.workload, args.seconds)
    hard_stop = time.perf_counter() + 3 * args.seconds
    for index in itertools.count():
        if args.mode == "fixed" and index == args.cycles:
            break
        if index == len(cycles):
            cycles.append(workload.cycle(rng))
        start = time.perf_counter()
        for job in cycles[index]:
            records.append((index, job, *run_job(workload, job, tracer)))
            if time.perf_counter() > hard_stop:
                break
        walls.append(time.perf_counter() - start)
        if index + 1 == rss_cycles:
            peak_rss_mb = rss_mb()
        samples.append(reference_samples(CYCLE_SAMPLES))
        if time.perf_counter() > hard_stop:
            break
        if args.mode == "timed" and sum(walls) >= args.seconds and len(records) >= MIN_JOBS:
            break
    return records, walls, samples, peak_rss_mb or rss_mb()


def check_outputs(workload, records) -> tuple[dict, str | None, str]:
    """Status counts, the first failure and the digest of the first
    DIGEST_JOBS canonical outputs; checks run after the loop, off the clock."""
    counts = {"ok": 0, "wrong": 0, "error": 0, "timeout": 0}
    first_failure = None
    digest = hashlib.sha256()
    for i, (_, job, status, out, _) in enumerate(records):
        if status == "ok":
            reason = workload.check(job, out)
            if reason is not None:
                status, out = "wrong", reason
        counts[status] += 1
        if status != "ok" and first_failure is None:
            first_failure = f"{job.kind}: {status}: {out}"
        if i < DIGEST_JOBS:
            text = workload.canon(job, out) if status == "ok" else status
            digest.update(f"{job.kind}\t{status}\t{text}\n".encode())
    return counts, first_failure, digest.hexdigest()


def write_spans(tracer, path: Path) -> None:
    names = sorted({s[2] for s in tracer.spans})
    index_of = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "fields": ["id", "parent", "name", "start", "end"],
        "names": names,
        "spans": [[i, p, index_of[n], a, b] for i, p, n, a, b in tracer.spans],
        "dropped": tracer.dropped,
    }))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--span-file")
    args = parser.parse_args()

    start_samples = reference_samples(SETUP_SAMPLES)
    import_domcert()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    for job in workload.cycle(random.Random(WARMUP_SEED)):
        run_job(workload, job)
    rng = random.Random(args.seed)
    planned = args.cycles if args.mode == "fixed" else int(CYCLES_PER_S * args.seconds)
    cycles = [workload.cycle(rng) for _ in range(planned)]
    print(json.dumps({"ready": True}), flush=True)
    setup_speed = speed(start_samples + reference_samples(SETUP_SAMPLES))
    if args.mode == "setup":
        print(json.dumps({"setup_speed": setup_speed}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    cache_before = membership_cache_info()
    records, walls, samples, peak_rss_mb = run_cycles(workload, cycles, rng, args, tracer)
    cache_after = membership_cache_info()
    if tracer is not None:
        tracer.uninstall()
    cycle_speed = [
        speed([t for near in samples[max(0, i - WINDOW): i + WINDOW + 1] for t in near])
        for i in range(len(walls))
    ]
    counts, first_failure, digest = check_outputs(workload, records)
    summary = {
        "jobs": len(records),
        "counts": counts,
        "first_failure": first_failure,
        "phase_s": sum(w * f for w, f in zip(walls, cycle_speed)),
        "raw_phase_s": sum(walls),
        "durations": [r[4] * cycle_speed[r[0]] for r in records],
        "speed": statistics.median(cycle_speed),
        "setup_speed": setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "digest_jobs": min(len(records), DIGEST_JOBS),
    }
    if tracer is not None:
        summary["trace"] = tracer.summary()
        summary["cache"] = {
            "hits": cache_after[0] - cache_before[0],
            "misses": cache_after[1] - cache_before[1],
        }
        if args.span_file:
            write_spans(tracer, Path(args.span_file))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
