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
from .fsi import SOLVERS, FsiConfig, run_fsi, write_trace_csv
from .gbi import run_gbi, run_minimax, solution_from_json, solution_to_json
from .model import load_model_json
from .speprog import solve_exact_grid
from .unfold import DEFAULT_NODE_CAP, stats, unfold_regions, unfold_tree
from .verify import check_spce, check_spne

_BUILTINS = ("counterexample", "parking", "vcas")


def _formatter(precision: int):
    """Number formatter with ``precision`` significant digits (at least one)."""
    spec = f".{max(1, precision)}g"
    return lambda x: format(float(x), spec)


def _json_arg(blob: str):
    """A JSON argument given inline or as the path of a file holding it."""
    try:
        is_file = Path(blob).exists()
    except OSError:  # e.g. longer than a file name may be: inline JSON
        is_file = False
    try:
        return json.loads(Path(blob).read_text() if is_file else blob)
    except (OSError, ValueError) as exc:  # unreadable file, or malformed JSON
        raise ModelError(f"cannot read JSON argument: {exc}") from None


def _object(doc, what: str) -> dict:
    """``doc`` if it is a JSON object, else a :class:`ModelError` naming ``what``."""
    if not isinstance(doc, dict):
        raise ModelError(f"{what} holds {type(doc).__name__}, not a JSON object")
    return doc


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool), else a
    :class:`ModelError` naming ``what``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def _load(model_ref: str, params):
    """The model ``model_ref`` names, built with the parsed ``params``."""
    if model_ref in _BUILTINS:
        return benchmarks.build(model_ref, params)
    _object(params, "--params")
    bundle = load_model_json(model_ref)
    if "horizon" in params:
        bundle = replace(bundle, horizon=_integer(params["horizon"], "--params horizon"))
    return bundle


def _unfold(bundle, horizon=None, mode="tree", max_nodes=DEFAULT_NODE_CAP):
    """Unfold ``bundle`` up to ``horizon``, by default the model's own."""
    horizon = bundle.horizon if horizon is None else horizon
    unfold = unfold_regions if mode == "region" else unfold_tree
    return unfold(bundle.model, bundle.initial, horizon, max_nodes)


def _load_structure(args):
    """The model that ``args`` names and its unfolding."""
    bundle = _load(args.model, _json_arg(args.params) if args.params else {})
    return bundle, _unfold(bundle, args.horizon, args.mode, args.max_nodes)


def cmd_unfold(args, fmt) -> int:
    _, structure = _load_structure(args)
    st = stats(structure)
    print(f"{st['nodes']},{st['transitions']},{fmt(st['build_time'])}")
    if args.out:
        structure.to_json(args.out)
    return 0


def cmd_solve(args, fmt) -> int:
    bundle, structure = _load_structure(args)
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
        solution = run_minimax(structure, bundle.rewards)
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
    bundle, structure = _load_structure(args)
    solution = solution_from_json(structure, args.solution)
    check = check_spne if solution.kind == "ne" else check_spce
    report = check(structure, bundle.rewards, solution, tol=args.tol)
    print(f"{'pass' if report.passed else 'fail'},{fmt(report.max_gap)}")
    if args.out:
        report.to_json(args.out)
    return 0 if report.passed else 4


def _check_spec(key: str, spec: dict) -> None:
    """Raise a :class:`ModelError` for the first field of a ``--runs`` entry
    under ``key`` that holds a value of the wrong kind."""
    where = f"--runs {key} entry"
    choices = {"type": ("ne", "ce"), "mode": ("tree", "region")}
    if key == "sw_trace":
        if "model" not in spec:
            raise ModelError(f"{where} lacks field 'model'")
        model = spec["model"]
        if not isinstance(model, str):
            raise ModelError(f"{where} field 'model' must be a string, not {json.dumps(model)}")
        for name in ("horizon", "m_max"):
            if name in spec:
                _integer(spec[name], f"{where} field {name!r}")
        choices["solver"] = SOLVERS
    if "params" in spec:
        _object(spec["params"], f"{where} field 'params'")
    for name, values in choices.items():
        if name in spec and spec[name] not in values:
            raise ModelError(f"{where} field {name!r} must be one of {', '.join(values)}, "
                             f"not {json.dumps(spec[name])}")


def cmd_plotdata(args, fmt) -> int:
    runs = _object(_json_arg(args.runs), "--runs")
    for key in ("altitude", "sw_trace"):
        specs = runs.get(key, [])
        if not isinstance(specs, list) or not all(isinstance(spec, dict) for spec in specs):
            raise ModelError(f"--runs field {key!r} must be a list of JSON objects")
        for spec in specs:
            _check_spec(key, spec)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)

    altitude_rows = []
    for spec in runs.get("altitude", []):
        params = spec.get("params", {})
        bundle_eq = benchmarks.build("vcas", params)
        structure = _unfold(bundle_eq, mode=spec.get("mode", "tree"))
        eq = run_gbi(structure, bundle_eq.rewards, spec.get("type", "ne"), seed=args.seed)
        # the zero-sum twin differs only in its rewards, so it shares the unfolding
        bundle_zs = benchmarks.build("vcas", {**params, "zero_sum": True})
        zs = run_minimax(structure, bundle_zs.rewards)
        k = spec.get("instant_k", params.get("instant_k", bundle_eq.horizon))
        altitude_rows.append((spec.get("label", f"t{bundle_eq.horizon}"), k,
                              float(eq.values[0, 0]), float(zs.values[0, 0])))
    with open(out / "altitude.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "k", "h_equilibria", "h_zero_sum"])
        for label, k, he, hz in altitude_rows:
            writer.writerow([label, k, fmt(he), fmt(hz)])

    for spec in runs.get("sw_trace", []):
        bundle = _load(spec["model"], spec.get("params", {}))
        structure = _unfold(bundle, spec.get("horizon"), spec.get("mode", "region"))
        cfg = FsiConfig(m_max=spec.get("m_max", 10), seed=args.seed,
                        solver=spec.get("solver", "reinduce"))
        _, trace = run_fsi(structure, bundle.rewards, spec.get("type", "ne"), cfg)
        write_trace_csv(trace, out / f"sw_trace_{spec.get('label', spec['model'])}.csv")
    print(str(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nscsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="builtin name or model JSON file")
        p.add_argument("--params", default=None, help="JSON parameter blob or file")
        p.add_argument("-K", "--horizon", type=int, default=None)
        p.add_argument("--mode", choices=["tree", "region"], default="tree")
        p.add_argument("--precision", type=int, default=9)
        p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_CAP)
        p.add_argument("--out", default=None)

    p = sub.add_parser("unfold", help="build a game tree or region graph")
    common(p)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("solve", help="synthesise an equilibrium")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", choices=["gbi", "fsi", "exact", "minimax"], default="gbi")
    p.add_argument("--type", choices=["ne", "ce"], default="ne")
    p.add_argument("--policy", default="sw-optimal",
                   choices=["sw-optimal", "first-found", "seeded-random"])
    p.add_argument("--mmax", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--grid-res", type=int, default=5)
    p.add_argument("--history-policy", default="uniform-last-stage",
                   choices=["uniform-last-stage", "max-sw"])
    p.add_argument("--np-solver", default="reinduce", choices=SOLVERS)
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
