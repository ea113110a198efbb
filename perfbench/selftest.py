"""Counter self-test: two traced passes at one seed must agree exactly.

    python3 perfbench/selftest.py

For each of the three workloads at seed 0 it runs two traced passes in fresh
interpreters and requires identical per-layer counts and ratios, an
identical output digest, and a digest equal to that of an untraced pass.
It also checks that the traced pass yields every per-layer metric that
BENCHMARK.json declares.  Exits 0 when every check holds.  Takes about
three minutes for all three workloads.
"""
from __future__ import annotations

import json
import sys
import time

import run

SEED = 0


def check_workload(workload: str) -> list[str]:
    deadline = time.monotonic() + 600
    first = run.worker(workload, SEED, "traced", deadline)
    second = run.worker(workload, SEED, "traced", deadline)
    plain = run.worker(workload, SEED, "pipeline", deadline)
    problems = []
    counts = [{k: v for k, v in p["layers"].items() if not run.is_time(k)} for p in (first, second)]
    for name in sorted(counts[0]):
        if counts[0][name] != counts[1].get(name):
            problems.append(f"{name}: {counts[0][name]} != {counts[1].get(name)}")
    digests = {p["digest_sha256"] for p in (first, second, plain)}
    if len(digests) != 1:
        problems.append(f"output digests differ: {sorted(digests)}")
    for p in (first, second, plain):
        if p["failed"]:
            problems.append(f"{p['mode']} pass failed {p['failed']} of {p['attempted']} operations")
    declared = set(run.declared_metrics(trace=True))
    produced = set(first["layers"]) | {"trace.overhead_s", "failed_frac"}
    if declared != produced:
        problems.append(f"declared but not measured: {sorted(declared - produced)}; "
                        f"measured but not declared: {sorted(produced - declared)}")
    print(f"{workload} seed {SEED}: {len(counts[0])} counts compared, digest "
          f"{first['digest_sha256'][:16]}, {'ok' if not problems else 'FAILED'}")
    return problems


def main() -> int:
    failed = False
    for workload in run.WORKLOADS:
        for problem in check_workload(workload):
            failed = True
            print(f"  {problem}", file=sys.stderr)
    print(json.dumps({"selftest": "failed" if failed else "passed"}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
