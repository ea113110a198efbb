"""Frozen subgame improvement.

Starting from the social-welfare optimal backward-induction equilibrium,
each iteration samples a late-stage history, freezes every strategy and
value variable off the histories leading to it, and re-optimises the
remaining free part with a feasibility-preserving solver.  The root social
welfare never decreases and the solution stays subgame perfect after every
iteration.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelError
from .gbi import EquilibriumSolution, StageGameCache, run_gbi
from .speprog import (_closure, _free_part, _grid_search, coordinate_ascent_solve,
                      evaluate_values, reinduction_solve)
from .unfold import Node, Structure


@dataclass(frozen=True)
class FsiConfig:
    """Iteration budget, history selection policy and inner solver choice.

    ``policy`` is "uniform-last-stage" or "max-sw" (a welfare-greedy walk
    with exploration rate ``epsilon``).  ``solver`` is one of "reinduce"
    (equilibrium re-seeding plus re-induction), "coordinate-ascent" (LP block
    steps) or "grid" (exact grid search on the free part at
    ``grid_resolution``, tiny instances only).  ``solver_rounds`` bounds the
    passes of the first two.
    """

    m_max: int = 10
    policy: str = "uniform-last-stage"
    epsilon: float = 0.1
    seed: int = 0
    solver: str = "reinduce"
    solver_rounds: int = 4
    grid_resolution: int = 4

    def __post_init__(self):
        if self.m_max < 0:
            raise ModelError("m_max must be nonnegative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ModelError("epsilon must lie in [0, 1]")
        if self.policy not in ("uniform-last-stage", "max-sw"):
            raise ModelError(f"unknown history policy {self.policy!r}")
        if self.solver not in ("reinduce", "coordinate-ascent", "grid"):
            raise ModelError(f"unknown solver {self.solver!r}")


def sample_history_uniform(candidates: list[Node], rng: np.random.Generator) -> Node:
    """Uniform draw from a nonempty list of histories."""
    if not candidates:
        raise ModelError("cannot sample from an empty history set")
    return candidates[int(rng.integers(len(candidates)))]


def select_history_max_sw(structure: Structure, solution: EquilibriumSolution,
                          epsilon: float, rng: np.random.Generator) -> Node:
    """Walk from the root towards the last decision stage, following the
    successor with the largest value sum and exploring uniformly with
    probability ``epsilon``; ties split uniformly among the maximisers."""
    node = structure.root
    while node.stage < structure.horizon - 1:
        succ = structure.succ(node)
        if rng.uniform() > epsilon:
            sums = np.array([solution.values[s.id].sum() for s in succ])
            best = np.nonzero(sums >= sums.max() - 1e-12)[0]
            node = succ[int(best[rng.integers(len(best))])] if len(best) > 1 else succ[int(best[0])]
        else:
            node = succ[int(rng.integers(len(succ)))]
    return node


def freeze_partition(structure: Structure, node_id: int) -> tuple[set, set]:
    """Free and frozen history sets for an improvement step at ``node_id``.

    On a tree the free set is the chain of prefixes of the sampled history.
    On a region graph it is every node lying on some history that reaches the
    sampled state at its stage, i.e. the backward closure through all
    parents.  Leaves carry no decision variables and belong to neither set.
    """
    if node_id < 0 or node_id >= len(structure.nodes):
        raise ModelError(f"unknown history {node_id}")
    nonleaf = set(structure.nonleaf_ids())
    free = _closure(structure, node_id) & nonleaf
    return free, nonleaf - free


@dataclass
class FsiTraceRow:
    iteration: int
    social_welfare: float
    selected_node: int
    status: str


def write_trace_csv(trace: list[FsiTraceRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "social_welfare", "selected_history", "status"])
        for row in trace:
            writer.writerow([row.iteration, f"{row.social_welfare:.9g}", row.selected_node, row.status])


def run_fsi(structure: Structure, rewards, kind: str, cfg: FsiConfig = FsiConfig(),
            cache: Optional[StageGameCache] = None, on_iteration=None):
    """Frozen subgame improvement; returns the final solution and the
    per-iteration social-welfare trace (nondecreasing).

    ``on_iteration(m, solution)`` is called after every merge, mainly so
    test harnesses can audit intermediate solutions.
    """
    rng = np.random.default_rng(cfg.seed)
    cache = cache or StageGameCache()
    current = run_gbi(structure, rewards, kind, "sw-optimal", cache=cache)
    sw = float(current.values[0].sum())
    trace = [FsiTraceRow(0, sw, -1, "init")]
    if structure.horizon == 0:
        return current, trace

    last_stage = structure.stage_nodes(structure.horizon - 1)
    for m in range(1, cfg.m_max + 1):
        if cfg.policy == "uniform-last-stage":
            picked = sample_history_uniform(last_stage, rng)
        else:
            picked = select_history_max_sw(structure, current, cfg.epsilon, rng)
        free, frozen = freeze_partition(structure, picked.id)

        if cfg.solver == "grid":
            result = solve_exact_grid_on_free(structure, rewards, kind, frozen, current, cfg)
            status = "grid"
        elif cfg.solver == "coordinate-ascent":
            result = coordinate_ascent_solve(structure, rewards, kind, frozen, current,
                                             rounds=cfg.solver_rounds)
            status = "ascent"
        else:
            result = reinduction_solve(structure, rewards, kind, frozen, current,
                                       rounds=cfg.solver_rounds, cache=cache)
            status = "reinduce"

        new_sw = float(result.values[0].sum())
        if new_sw >= sw - 1e-12:
            current = result
            sw = max(sw, new_sw)
        else:  # inner solvers should never regress; keep the incumbent if one does
            status += ":kept-incumbent"
        trace.append(FsiTraceRow(m, sw, picked.id, status))
        if on_iteration is not None:
            on_iteration(m, current)
    return current, trace


def solve_exact_grid_on_free(structure: Structure, rewards, kind: str, frozen: set,
                             current: EquilibriumSolution, cfg: FsiConfig) -> EquilibriumSolution:
    """Grid search restricted to the free nodes, keeping frozen data fixed.

    Unlike the standalone grid program, a candidate here must not be less
    feasible than the incumbent (the iteration loop guarantees an exact
    equilibrium after every step), so only grid points that are equilibria
    themselves can replace it.  Falls back to the incumbent otherwise.
    """
    order, _ = _free_part(structure, frozen)
    _, gaps = evaluate_values(structure, rewards, current)
    tol = max(gaps.max(initial=0.0), 1e-9)
    nodes = [structure.nodes[nid] for nid in sorted(order)]
    return _grid_search(structure, rewards, kind, nodes, cfg.grid_resolution, current, tol,
                        max_points=2_000_000).solution
