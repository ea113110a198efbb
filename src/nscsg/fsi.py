"""Frozen subgame improvement.

Starting from the social-welfare optimal backward-induction equilibrium,
each iteration samples a late-stage history, freezes every strategy and
value variable off the histories leading to it, and re-optimises the
remaining free part with a feasibility-preserving solver.  The root social
welfare never decreases and the solution stays subgame perfect after every
iteration.

A Nash step runs no inner solver when no free node's stage game has more
than one extreme equilibrium (:attr:`EquilibriumSolution.ne_counts`): the
deepest free node's game is fixed by its frozen continuation, so its one
equilibrium stays, and so on up the free part; nothing can move.  A
correlated step runs none when every free node's stage game is 1x1 or
one-sided with a best response that passes the margin of
:func:`nscsg.nfg._pure_ce`: each such game has one correlated equilibrium,
and the same argument holds.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError
from .gbi import EquilibriumSolution, StageGameCache, run_gbi, stage_games
from .nfg import _pure_ce
from .speprog import (_closure, _free_part, _grid_search, coordinate_ascent_solve,
                      evaluate_values, reinduction_solve)
from .unfold import Node, Structure


#: The inner solvers an FSI step can use.
SOLVERS = ("reinduce", "coordinate-ascent", "grid")


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
        if self.solver_rounds < 0:
            raise ModelError("solver_rounds must be nonnegative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ModelError("epsilon must lie in [0, 1]")
        if self.policy not in ("uniform-last-stage", "max-sw"):
            raise ModelError(f"unknown history policy {self.policy!r}")
        if self.solver not in SOLVERS:
            raise ModelError(f"unknown solver {self.solver!r}")
        if self.grid_resolution < 1:
            raise ModelError("grid resolution must be at least 1")


def sample_history_uniform(candidates: Sequence, rng: np.random.Generator):
    """Uniform draw from a nonempty sequence of histories (nodes or ids)."""
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
    reached = np.arange(len(structure.nodes)) == node_id
    free = _closure(structure, reached)[:structure.bounds[structure.horizon]]
    return set(np.flatnonzero(free).tolist()), set(np.flatnonzero(~free).tolist())


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

    A Nash step whose free part has no node with more than one extreme
    equilibrium (:attr:`EquilibriumSolution.ne_counts`), and a correlated
    step whose free nodes' games all have one correlated equilibrium
    (:func:`_single_correlated`), keep the incumbent without running the
    inner solver or building the partition, and are traced ``unique``;
    after an accepted Nash step the counts are brought up to date under the
    new values.  ``on_iteration(m, solution)`` is called
    after every iteration, mainly so test harnesses can audit intermediate
    solutions.
    """
    rng = np.random.default_rng(cfg.seed)
    cache = cache or StageGameCache()
    current = run_gbi(structure, rewards, kind, "sw-optimal", cache=cache)
    sw = float(current.values[0].sum())
    trace = [FsiTraceRow(0, sw, -1, "init")]
    if structure.horizon == 0:
        return current, trace

    last_stage = range(*structure.bounds[structure.horizon - 1:structure.horizon + 1])
    for m in range(1, cfg.m_max + 1):
        if cfg.policy == "uniform-last-stage":
            picked = sample_history_uniform(last_stage, rng)
        else:
            picked = select_history_max_sw(structure, current, cfg.epsilon, rng).id
        counts = current.ne_counts
        free = _closure(structure, np.arange(len(structure.nodes)) == picked)
        if ((counts[free] <= 1).all() if counts is not None else
                kind == "ce" and _single_correlated(structure, rewards, current.values, free)):
            status = "unique"  # no free stage game has a second equilibrium
        else:
            free, frozen = freeze_partition(structure, picked)
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
                if counts is not None:
                    result.ne_counts = _moved_counts(structure, rewards, current, result.values,
                                                     cache)
                current = result
                sw = max(sw, new_sw)
            else:  # inner solvers should never regress; keep the incumbent if one does
                status += ":kept-incumbent"
        trace.append(FsiTraceRow(m, sw, picked, status))
        if on_iteration is not None:
            on_iteration(m, current)
    return current, trace


def _single_correlated(structure: Structure, rewards, values: np.ndarray,
                       free: np.ndarray) -> bool:
    """Whether every node of the mask ``free`` has a stage game with one
    correlated equilibrium under ``values``: a 1x1 game, or a one-sided game
    whose chooser's best action passes :func:`nscsg.nfg._pure_ce`.  Every
    free group's menu shape is read before any stage game is built, and a
    two-sided one answers no."""
    rows = [(group, np.flatnonzero(free[group.ids]))
            for groups in structure.groups for group in groups]
    rows = [(group, r) for group, r in rows if len(r)]
    if any(1 not in group.succ.shape[1:3] for group, _ in rows):
        return False
    for group, r in rows:
        if group.succ.shape[1:3] != (1, 1):
            z = stage_games(structure, rewards, group, values, r)
            if not _pure_ce(z[0], z[1])[1].all():
                return False
    return True


def _moved_counts(structure: Structure, rewards, current: EquilibriumSolution,
                  values: np.ndarray, cache: StageGameCache) -> np.ndarray:
    """``current.ne_counts`` under ``values`` in place of ``current.values``:
    a node's stage game changes only with its successors' values, so only
    the nodes with a successor whose value moved are counted again, read
    from ``cache`` under the keys the inner solver filled.  Every node is
    looked at, not only the free ones: a solver's re-evaluation can move a
    frozen node's value in its last bits."""
    moved = (values != current.values).any(axis=1)
    moved[0] = False  # padded outcomes point at the root, which is no node's successor
    if not moved.any():
        return current.ne_counts
    counts = current.ne_counts.copy()
    for group in (g for groups in structure.groups for g in groups):
        rows = np.flatnonzero(moved[group.succ].any(axis=(1, 2, 3)))
        if len(rows):
            counts[group.ids[rows]] = cache.ne_counts(stage_games(structure, rewards, group,
                                                                  values, rows))
    return counts


def solve_exact_grid_on_free(structure: Structure, rewards, kind: str, frozen: set,
                             current: EquilibriumSolution, cfg: FsiConfig) -> EquilibriumSolution:
    """Grid search restricted to the free nodes, keeping frozen data fixed.

    Unlike the standalone grid program, a candidate here must not be less
    feasible than the incumbent (the iteration loop guarantees an exact
    equilibrium after every step), so only grid points that are equilibria
    themselves can replace it.  Falls back to the incumbent otherwise.
    """
    order = _free_part(structure, frozen)
    _, gaps = evaluate_values(structure, rewards, current)
    tol = max(gaps.max(initial=0.0), 1e-9)
    nodes = [structure.nodes[nid] for nid in sorted(order)]
    return _grid_search(structure, rewards, kind, nodes, cfg.grid_resolution, current, tol,
                        max_points=2_000_000).solution
