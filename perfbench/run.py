"""nscsg benchmark: the entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs from the root of a checkout and imports the library from its ``src``.
Every pass of the workload runs in a fresh interpreter (``worker.py``), one
at a time, so set-up time and peak memory belong to that pass alone.  The
run repeats passes until ``--seconds`` is used up (at least one pass) and
reports medians.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead (traced minus untraced ``pipeline_s``).
Per-pass records, output digests and spans go to ``perfbench/results/``.
The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("parking-k8", "vcas-t5", "small-games")

#: Set-up is sampled in at least this many fresh interpreters per run.
MIN_SETUP_SAMPLES = 5
#: A run gives up after this long, so that it always ends within 180 s.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        # one caller, one core: no BLAS or OpenMP worker threads
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(ROOT / "src"),
    })
    return env


def worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def repeat(seconds: float, deadline: float, one_round) -> list:
    """Call ``one_round()`` until another round would overrun ``seconds``."""
    out = []
    started = time.monotonic()
    while True:
        t = time.monotonic()
        out.append(one_round())
        now = time.monotonic()
        last = now - t
        if now - started + last > seconds or now + last > deadline:
            return out


def outcome(passes: list) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, problems) over pipeline passes."""
    problems = []
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for op in p["failures"]:
            problems.append(f"{op['op']}: {'; '.join(op['failures'])}")
    digests = {p["digest_sha256"] for p in passes}
    if len(digests) > 1:
        problems.append(f"passes at one seed gave {len(digests)} different output digests")
    return not problems, attempted, failed, problems


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def untraced(args, deadline) -> tuple[tuple, dict]:
    """Pipeline passes with tracing off, topped up with set-up-only passes."""
    passes = repeat(args.seconds, deadline,
                    lambda: worker(args.workload, args.seed, "pipeline", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(worker(args.workload, args.seed, "setup", deadline)["setup_s"])
    correct, attempted, failed, problems = outcome(passes)
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(p["pipeline_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "solved_frac": (attempted - failed) / attempted,
    }
    record = {"passes": passes, "setup_samples": setups}
    return (correct, attempted, failed, problems, values), record


def traced(args, deadline) -> tuple[tuple, dict]:
    """Alternating untraced and traced passes; per-layer metrics from the latter."""
    rounds = repeat(args.seconds, deadline, lambda: (
        worker(args.workload, args.seed, "pipeline", deadline),
        worker(args.workload, args.seed, "traced", deadline)))
    plain = [r[0] for r in rounds]
    with_trace = [r[1] for r in rounds]
    correct, attempted, failed, problems = outcome(plain + with_trace)
    layers = [p["layers"] for p in with_trace]
    values = {}
    for name in layers[0]:
        samples = [lay[name] for lay in layers]
        if is_time(name):
            values[name] = statistics.median(samples)
        elif any(s != samples[0] for s in samples):
            problems.append(f"count {name} differs between traced passes: {samples}")
            correct = False
            values[name] = samples[0]
        else:
            values[name] = samples[0]
    values["trace.overhead_s"] = (statistics.median(p["pipeline_s"] for p in with_trace)
                                  - statistics.median(p["pipeline_s"] for p in plain))
    values["failed_frac"] = failed / attempted
    record = {"untraced_passes": plain, "traced_passes": with_trace}
    return (correct, attempted, failed, problems, values), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nscsg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "nscsg" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'nscsg'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    try:
        summary, record = (traced if args.trace else untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed, problems, values = summary

    missing = set(declared) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"args": vars(args), "correct": correct, "problems": problems,
                                    "metrics": values, **record}, indent=1))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    digests = sorted({p["digest_sha256"] for p in record.get("passes", record.get("untraced_passes"))})
    print(f"{args.workload} seed {args.seed}: digest {' '.join(digests)}; details in {out_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
