"""Command-line front end.

Subcommands: ``unfold`` (build a tree or region graph and print its size),
``solve`` (run one of the solvers and export the strategy), ``verify``
(check a strategy file against the definition-level checkers) and
``plotdata`` (altitude curves and welfare traces as CSV).

Exit codes: 0 success, 2 model error, 3 resource limit, 4 solver failure.
All numbers print with nine significant digits; primary outputs (files) are
byte-identical across identical seeded invocations.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import benchmarks
from .errors import ModelError, ResourceLimitError, SolverError
from .fsi import FsiConfig, run_fsi, write_trace_csv
from .gbi import run_gbi, run_minimax, solution_from_json, solution_to_json
from .model import load_model_json
from .speprog import solve_exact_grid
from .unfold import stats, unfold_regions, unfold_tree
from .verify import check_spce, check_spne

_BUILTINS = ("counterexample", "parking", "vcas")


def _formatter(precision: int):
    """Number formatter with ``precision`` significant digits (at least one)."""
    spec = f".{max(1, precision)}g"
    return lambda x: format(float(x), spec)


def _load(model_ref: str, params_blob):
    params = {}
    if params_blob:
        if Path(params_blob).exists():
            params = json.loads(Path(params_blob).read_text())
        else:
            params = json.loads(params_blob)
    if model_ref in _BUILTINS:
        return benchmarks.build(model_ref, params)
    bundle = load_model_json(model_ref)
    if "horizon" in params:
        bundle = replace(bundle, horizon=int(params["horizon"]))
    return bundle


def _unfold(bundle, horizon, mode, max_nodes=None):
    kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
    if mode == "region":
        return unfold_regions(bundle.model, bundle.initial, horizon, **kwargs)
    return unfold_tree(bundle.model, bundle.initial, horizon, **kwargs)


def cmd_unfold(args, fmt) -> int:
    bundle = _load(args.model, args.params)
    horizon = bundle.horizon if args.horizon is None else args.horizon
    structure = _unfold(bundle, horizon, args.mode, args.max_nodes)
    st = stats(structure)
    print(f"{st['nodes']},{st['transitions']},{fmt(st['build_time'])}")
    if args.out:
        structure.to_json(args.out)
    return 0


def cmd_solve(args, fmt) -> int:
    bundle = _load(args.model, args.params)
    horizon = bundle.horizon if args.horizon is None else args.horizon
    structure = _unfold(bundle, horizon, args.mode, args.max_nodes)
    t0 = time.perf_counter()
    trace = None
    if args.algo == "gbi":
        solution = run_gbi(structure, bundle.rewards, args.type, policy=args.policy, seed=args.seed)
    elif args.algo == "fsi":
        cfg = FsiConfig(
            m_max=args.mmax,
            policy=args.history_policy,
            epsilon=args.epsilon,
            seed=args.seed,
            solver=args.np_solver,
            solver_rounds=args.solver_rounds,
            grid_resolution=args.grid_res,
        )
        solution, trace = run_fsi(structure, bundle.rewards, args.type, cfg)
    elif args.algo == "exact":
        result = solve_exact_grid(structure, bundle.rewards, args.type, args.grid_res)
        if result.solution is None:
            raise SolverError("no feasible grid point found")
        solution = result.solution
    else:  # minimax
        mm = run_minimax(structure, bundle.rewards)
        elapsed = time.perf_counter() - t0
        print(f"{fmt(mm.values[0, 0])},{fmt(mm.values[0, 1])},{fmt(mm.values[0].sum())},{fmt(elapsed)}")
        return 0
    elapsed = time.perf_counter() - t0
    v = solution.values[0]
    print(f"{fmt(v.sum())},{fmt(v[0])},{fmt(v[1])},{fmt(elapsed)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        solution_to_json(structure, solution, out / "solution.json")
        if trace is not None:
            write_trace_csv(trace, out / "sw_trace.csv")
    return 0


def cmd_verify(args, fmt) -> int:
    bundle = _load(args.model, args.params)
    horizon = bundle.horizon if args.horizon is None else args.horizon
    structure = _unfold(bundle, horizon, args.mode, args.max_nodes)
    solution = solution_from_json(structure, args.solution)
    check = check_spne if solution.kind == "ne" else check_spce
    report = check(structure, bundle.rewards, solution, tol=args.tol)
    print(f"{'pass' if report.passed else 'fail'},{fmt(report.max_gap)}")
    if args.out:
        report.to_json(args.out)
    return 0 if report.passed else 4


def cmd_plotdata(args, fmt) -> int:
    runs = json.loads(Path(args.runs).read_text()) if Path(args.runs).exists() else json.loads(args.runs)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)

    altitude_rows = []
    for spec in runs.get("altitude", []):
        params = dict(spec.get("params", {}))
        bundle_eq = benchmarks.build("vcas", params)
        structure = _unfold(bundle_eq, bundle_eq.horizon, spec.get("mode", "tree"))
        eq = run_gbi(structure, bundle_eq.rewards, spec.get("type", "ne"), seed=args.seed)
        params_zs = dict(params)
        params_zs["zero_sum"] = True
        bundle_zs = benchmarks.build("vcas", params_zs)
        structure_zs = _unfold(bundle_zs, bundle_zs.horizon, spec.get("mode", "tree"))
        zs = run_minimax(structure_zs, bundle_zs.rewards)
        k = spec.get("instant_k", params.get("instant_k", bundle_eq.horizon))
        altitude_rows.append((spec.get("label", f"t{bundle_eq.horizon}"), k,
                              float(eq.values[0, 0]), float(zs.values[0, 0])))
    with open(out / "altitude.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "k", "h_equilibria", "h_zero_sum"])
        for label, k, he, hz in altitude_rows:
            writer.writerow([label, k, fmt(he), fmt(hz)])

    for spec in runs.get("sw_trace", []):
        bundle = _load(spec["model"], json.dumps(spec.get("params", {})))
        horizon = spec.get("horizon", bundle.horizon)
        structure = _unfold(bundle, horizon, spec.get("mode", "region"))
        cfg = FsiConfig(m_max=spec.get("m_max", 10), seed=args.seed,
                        solver=spec.get("solver", "reinduce"))
        _, trace = run_fsi(structure, bundle.rewards, spec.get("type", "ne"), cfg)
        write_trace_csv(trace, out / f"sw_trace_{spec.get('label', spec['model'])}.csv")
    print(str(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nscsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode_default="tree"):
        p.add_argument("--model", required=True, help="builtin name or model JSON file")
        p.add_argument("--params", default=None, help="JSON parameter blob or file")
        p.add_argument("-K", "--horizon", type=int, default=None)
        p.add_argument("--mode", choices=["tree", "region"], default=mode_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--precision", type=int, default=9)
        p.add_argument("--max-nodes", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("unfold", help="build a game tree or region graph")
    common(p)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("solve", help="synthesise an equilibrium")
    common(p)
    p.add_argument("--algo", choices=["gbi", "fsi", "exact", "minimax"], default="gbi")
    p.add_argument("--type", choices=["ne", "ce"], default="ne")
    p.add_argument("--policy", default="sw-optimal",
                   choices=["sw-optimal", "first-found", "seeded-random"])
    p.add_argument("--mmax", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--grid-res", type=int, default=5)
    p.add_argument("--history-policy", default="uniform-last-stage",
                   choices=["uniform-last-stage", "max-sw"])
    p.add_argument("--np-solver", default="reinduce",
                   choices=["reinduce", "coordinate-ascent", "grid"])
    p.add_argument("--solver-rounds", type=int, default=4)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a strategy file")
    common(p)
    p.add_argument("--solution", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plotdata", help="emit plot-ready CSV data")
    p.add_argument("--runs", required=True, help="JSON runs specification or file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="plotdata")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fmt = _formatter(getattr(args, "precision", 9))
    try:
        return args.func(args, fmt)
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
