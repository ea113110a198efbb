"""The benchmark's workloads: set-up, the pipeline, self-checks and digest.

Each workload drives the library only through its public API:
``build`` -> ``unfold_*`` -> ``run_gbi`` -> ``run_fsi`` / ``solve_exact_grid``
-> ``check_spne`` / ``check_spce``.  A pass records one outcome per
operation (one model-and-kind solve) and a digest of every output that a
faster implementation must leave unchanged.
"""
from __future__ import annotations

import dataclasses
import sys
import traceback
from contextlib import contextmanager

from nscsg import (
    FsiConfig,
    build,
    run_fsi,
    run_gbi,
    social_welfare,
    solve_exact_grid,
    unfold_regions,
    unfold_tree,
)
from nscsg.gbi import StageGameCache
from nscsg.verify import check_spce, check_spne

import randgames

#: Checker tolerance of every verification step.
CHECK_TOL = 1e-6
#: Digest rounding: values agree when they agree to 1e-12.
DIGITS = 12
#: Random models per small-games pass, as in the criterion-4 suite.
SMALL_MODELS = 100

PARKING = {"horizon": 8, "reward_structure": 2}
VCAS = {"t0": 5, "eps_own": 0.0, "eps_int": 0.0, "reward": "instant-altitude", "stub_seed": 0}
PHI = -10.0

# Where one FSI run's sampled histories set the size of the work, its FSI
# seed is fixed rather than taken from the benchmark seed: over FSI seeds
# 0..39 the parking FSI time ranges 1.5-5.0 s (coefficient of variation
# 0.21), and on the counterexample a history draw either does or skips a
# 1,296-point grid.  Seed 0 is the one the parking welfare check pins and
# seed 1 the one with which the grid solver reaches the optimum 7.
PARKING_FSI_SEED = 0
COUNTEREXAMPLE_FSI_SEED = 1


def rounded(x):
    """``x`` with every float rounded to the digest precision; -0.0 becomes 0.0."""
    if isinstance(x, (list, tuple)):
        return [rounded(v) for v in x]
    if isinstance(x, dict):
        return {k: rounded(v) for k, v in x.items()}
    if hasattr(x, "tolist"):
        return rounded(x.tolist())
    if isinstance(x, float):
        return round(x, DIGITS) + 0.0
    return x


class Pass:
    """Outcomes and digest of one pipeline pass.

    ``begin_op(name)`` is told when an operation starts (``None`` when it
    ends), so a tracer can tag its spans with the operation id.
    """

    def __init__(self, begin_op=None):
        self.ops: list[dict] = []
        self.digest: dict = {}
        self._begin_op = begin_op or (lambda name: None)

    @contextmanager
    def op(self, name: str):
        """Run one operation; it fails when it raises or a check in it fails."""
        failures: list[str] = []
        self._begin_op(name)
        try:
            yield failures
        except Exception as exc:  # an operation's failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failures.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            self._begin_op(None)
        self.ops.append({"op": name, "ok": not failures, "failures": failures})

    def record(self, key: str, value) -> None:
        self.digest[key] = rounded(value)


def expect(failures: list, ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def near(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol


def verify(failures, structure, rewards, solution) -> float:
    """Run the definition-level checker of the solution's kind; return max_gap."""
    checker = check_spne if solution.kind == "ne" else check_spce
    report = checker(structure, rewards, solution, tol=CHECK_TOL)
    expect(failures, report.passed, f"{checker.__name__} max_gap {report.max_gap:.3g}")
    return report.max_gap


def fsi_trace(failures, trace) -> list[float]:
    """The welfare trace, checked to be nondecreasing."""
    sws = [row.social_welfare for row in trace]
    expect(failures, all(b >= a - 1e-9 for a, b in zip(sws, sws[1:])), f"trace decreases: {sws}")
    return sws


def structure_digest(structure) -> dict:
    return {"nodes": len(structure.nodes), "transitions": structure.n_transitions()}


def bundle_rewards(bundle, wrap):
    """``bundle`` with its reward structures passed through ``wrap``."""
    return dataclasses.replace(bundle, rewards=wrap(bundle.rewards))


# ---------------------------------------------------------------------------
# parking-k8


def parking_setup(seed: int):
    return build("parking", PARKING)


def parking_pipeline(bundle, seed: int, run: Pass) -> None:
    rewards = bundle.rewards
    graph = unfold_regions(bundle.model, bundle.initial, bundle.horizon)
    sizes = structure_digest(graph)
    run.record("structure", sizes)
    for kind in ("ne", "ce"):
        with run.op(f"parking-k8/{kind}") as failures:
            expect(failures, (sizes["nodes"], sizes["transitions"]) == (385, 1624),
                   f"region graph has {sizes}, expected 385/1624")
            gbi = run_gbi(graph, rewards, kind, "sw-optimal", cache=StageGameCache())
            gbi_gap = verify(failures, graph, rewards, gbi)
            cfg = FsiConfig(m_max=4, seed=PARKING_FSI_SEED, solver_rounds=3)
            sol, trace = run_fsi(graph, rewards, kind, cfg, cache=StageGameCache())
            sws = fsi_trace(failures, trace)
            fsi_gap = verify(failures, graph, rewards, sol)
            expect(failures, near(social_welfare(gbi), -5.0) and near(sws[-1], -4.5),
                   f"welfare {social_welfare(gbi)} -> {sws[-1]}, expected -5.0 -> -4.5")
            run.record(kind, {"gbi_root": gbi.values[0], "fsi_root": sol.values[0],
                              "fsi_trace": sws, "gbi_max_gap": gbi_gap, "fsi_max_gap": fsi_gap})


# ---------------------------------------------------------------------------
# vcas-t5


def vcas_setup(seed: int):
    return build("vcas", VCAS)


def vcas_pipeline(bundle, seed: int, run: Pass) -> None:
    rewards = bundle.rewards
    graph = unfold_regions(bundle.model, bundle.initial, bundle.horizon)
    sizes = structure_digest(graph)
    run.record("structure", sizes)
    for kind in ("ne", "ce"):
        with run.op(f"vcas-t5/gbi-{kind}") as failures:
            expect(failures, (sizes["nodes"], sizes["transitions"]) == (36089, 53685),
                   f"region graph has {sizes}, expected 36089/53685")
            gbi = run_gbi(graph, rewards, kind, "sw-optimal", cache=StageGameCache())
            gap = verify(failures, graph, rewards, gbi)
            run.record(f"gbi-{kind}", {"root": gbi.values[0], "max_gap": gap})
    with run.op("vcas-t5/fsi-ne") as failures:
        sol, trace = run_fsi(graph, rewards, "ne", FsiConfig(m_max=4, seed=seed),
                             cache=StageGameCache())
        sws = fsi_trace(failures, trace)
        gap = verify(failures, graph, rewards, sol)
        run.record("fsi-ne", {"root": sol.values[0], "fsi_trace": sws, "max_gap": gap})


# ---------------------------------------------------------------------------
# small-games

#: (kind, history policy, inner solver) of every FSI run on a random model.
SMALL_CONFIGS = (
    ("ne", "uniform-last-stage", "reinduce"),
    ("ne", "max-sw", "reinduce"),
    ("ce", "uniform-last-stage", "reinduce"),
    ("ce", "max-sw", "reinduce"),
    ("ne", "uniform-last-stage", "coordinate-ascent"),
    ("ce", "uniform-last-stage", "coordinate-ascent"),
)


def small_setup(seed: int):
    models = [(s, randgames.random_game(s)) for s in randgames.model_seeds(seed, SMALL_MODELS)]
    return {"models": models, "counterexample": build("counterexample", {"phi": PHI})}


def small_rewards(setup, wrap):
    """The set-up with every bundle's rewards passed through ``wrap``."""
    return {"models": [(s, bundle_rewards(b, wrap)) for s, b in setup["models"]],
            "counterexample": bundle_rewards(setup["counterexample"], wrap)}


def small_pipeline(setup, seed: int, run: Pass) -> None:
    for model_seed, bundle in setup["models"]:
        tree = unfold_tree(bundle.model, bundle.initial, bundle.horizon)
        entry = {"structure": structure_digest(tree)}
        for kind, policy, solver in SMALL_CONFIGS:
            name = f"{kind}/{policy}/{solver}"
            with run.op(f"small-games/model-{model_seed}/{name}") as failures:
                checker = check_spne if kind == "ne" else check_spce
                gaps = []

                def audit(m, sol, _checker=checker, _gaps=gaps, _failures=failures):
                    rep = _checker(tree, bundle.rewards, sol, tol=CHECK_TOL)
                    _gaps.append(rep.max_gap)
                    expect(_failures, rep.passed, f"iteration {m}: max_gap {rep.max_gap:.3g}")

                cfg = FsiConfig(m_max=3, seed=model_seed, policy=policy, epsilon=0.2, solver=solver)
                sol, trace = run_fsi(tree, bundle.rewards, kind, cfg, on_iteration=audit)
                sws = fsi_trace(failures, trace)
                entry[name] = {"root": sol.values[0], "fsi_trace": sws,
                               "max_gap": max(gaps, default=0.0)}
        run.record(f"model-{model_seed}", entry)
    counterexample_pipeline(setup["counterexample"], run)


def counterexample_pipeline(bundle, run: Pass) -> None:
    tree = unfold_tree(bundle.model, bundle.initial, bundle.horizon)
    rewards = bundle.rewards
    run.record("counterexample/structure", structure_digest(tree))
    for kind in ("ne", "ce"):
        with run.op(f"small-games/counterexample/gbi-{kind}") as failures:
            gbi = run_gbi(tree, rewards, kind, "sw-optimal", cache=StageGameCache())
            gap = verify(failures, tree, rewards, gbi)
            expect(failures, near(social_welfare(gbi), 2 + PHI, 1e-9),
                   f"GBI welfare {social_welfare(gbi)}, expected {2 + PHI}")
            run.record(f"counterexample/gbi-{kind}", {"root": gbi.values[0], "max_gap": gap})
    for kind, resolution, optimum in (("ne", 10, 7.0), ("ce", 5, 7.8)):
        with run.op(f"small-games/counterexample/grid-{kind}") as failures:
            grid = solve_exact_grid(tree, rewards, kind, resolution)
            expect(failures, grid.social_welfare is not None and near(grid.social_welfare, optimum),
                   f"grid welfare {grid.social_welfare}, expected {optimum}")
            run.record(f"counterexample/grid-{kind}",
                       {"welfare": grid.social_welfare, "checked": grid.checked,
                        "feasible": grid.feasible})
    with run.op("small-games/counterexample/fsi-grid") as failures:
        cfg = FsiConfig(m_max=5, seed=COUNTEREXAMPLE_FSI_SEED, solver="grid", grid_resolution=5)
        sol, trace = run_fsi(tree, rewards, "ne", cfg)
        sws = fsi_trace(failures, trace)
        expect(failures, near(sws[-1], 7.0), f"FSI-grid welfare {sws[-1]}, expected 7.0")
        gap = verify(failures, tree, rewards, sol)
        run.record("counterexample/fsi-grid", {"root": sol.values[0], "fsi_trace": sws,
                                                "max_gap": gap})


# ---------------------------------------------------------------------------
# registry


@dataclasses.dataclass(frozen=True)
class Workload:
    """``setup(seed)`` builds the inputs; ``pipeline(setup, seed, run)`` solves
    and checks them; ``with_rewards(setup, wrap)`` swaps in wrapped reward
    callbacks for a traced pass."""

    setup: object
    pipeline: object
    with_rewards: object


WORKLOADS = {
    "parking-k8": Workload(parking_setup, parking_pipeline, bundle_rewards),
    "vcas-t5": Workload(vcas_setup, vcas_pipeline, bundle_rewards),
    "small-games": Workload(small_setup, small_pipeline, small_rewards),
}
