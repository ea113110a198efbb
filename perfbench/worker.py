"""One measured pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

Modes:
  setup     import the library and build the workload's inputs
  pipeline  set up, then run the whole pipeline once with tracing off
  traced    the same pass with every layer entry point traced; writes the
            spans to ``perfbench/results/`` and reports the per-layer metrics

Prints one JSON object as its last line.  ``run.py`` starts this program;
it runs on its own for debugging.  The library is imported from ``src``
of the checkout, which ``run.py`` puts on ``PYTHONPATH``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

#: Where the traced pass writes its spans.
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pipeline", "traced"), required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports the library: part of the set-up time

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op("setup")
    setup = workload.setup(args.seed)
    setup_s = time.perf_counter() - t0
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    run = workloads.Pass()
    if tracer is not None:
        tracer.begin_op(None)
        tracer.start_pipeline()
        setup = workload.with_rewards(setup, tracer.wrap_rewards)
        run = workloads.Pass(tracer.begin_op)
    t1 = time.perf_counter()
    workload.pipeline(setup, args.seed, run)
    pipeline_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()

    digest_text = json.dumps(run.digest, sort_keys=True, separators=(",", ":"))
    result.update({
        "pipeline_s": pipeline_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(run.ops),
        "failed": sum(not op["ok"] for op in run.ops),
        "failures": [op for op in run.ops if not op["ok"]],
        "digest_sha256": hashlib.sha256(digest_text.encode()).hexdigest(),
        "digest": run.digest,
    })
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write_spans(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
