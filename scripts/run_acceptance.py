#!/usr/bin/env python3
"""Run the acceptance suites and print one PASS/FAIL line per criterion.

Equivalent to `domcert acceptance all`; exits nonzero when any criterion
fails.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from domcert import acceptance


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("suite", nargs="?", default="all", choices=sorted(acceptance.SUITES))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    results = []
    for cid in acceptance.SUITES[args.suite]:
        t0 = time.monotonic()
        result = acceptance.CRITERIA[cid](args.seed)
        elapsed = time.monotonic() - t0
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.cid} {result.name} ({elapsed:.1f}s)")
        print(f"     {result.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 2


if __name__ == "__main__":
    sys.exit(main())
