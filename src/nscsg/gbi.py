"""Backward induction over an unfolded structure.

Works on trees and region graphs alike: leaf values are the final state
rewards, and every interior node is solved as an induced one-shot game whose
entries combine the immediate rewards with the probability-weighted successor
values.  On a region graph this computes strategies that depend on the state
and the stage only.

The stage games are read from the structure's stage groups and reward
arrays (:class:`nscsg.unfold.Structure`): each reward callback runs once per
node or (node, joint) for a structure and reward structure.  :func:`stage_games`
builds the matrices of one stage group in one array step and
:func:`stage_matrices` those of one node.  :func:`induce_stages` (one step
per stage) and its per-group form :func:`induce_groups` are the one
bottom-up pass, so every solver and checker differs only in its step.

:func:`run_gbi` solves each stage group as one stack
(:meth:`StageGameCache.solve_stack`, whose one-row form is
:meth:`StageGameCache.solve`): it rounds the group's stage games once, keys
every row from the rounded bytes, and passes the distinct missed games to
:func:`nscsg.nfg.any_equilibria` in one call.  The number of extreme Nash
equilibria that call enumerated for a game is kept under the game's key,
and the NE pass returns it as :attr:`EquilibriumSolution.ne_counts`.  FSI's
re-induction scores a round's trials as one such stack per stage group and
block of trials, and reads the candidate equilibria of every free node of
one menu shape as one :meth:`StageGameCache.stage_candidates_stack`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelError, ResourceLimitError, SolverError
from .model import RewardStructure, row_bytes
from .nfg import (BimatrixGame, StageSolution, _ce_arrays, _counted_equilibria, any_equilibrium,
                  enumerate_ne_stack, zero_sum_values)
from .unfold import Node, StageGroup, Structure, node_json, write_json


def stage_games(structure: Structure, rewards, group: StageGroup, values: np.ndarray,
                rows=slice(None)) -> np.ndarray:
    """Stage matrices of ``group``'s nodes (``rows`` of them) under each reward
    structure, shape ``(len(rewards), *batch, n, m1, m2)`` for ``values`` of
    shape ``(*batch, n_nodes, len(rewards))``.

    Entry (a, b) is the action reward plus the node's state reward, then
    p * v added one outcome of joint action (a, b) at a time: the order of a
    per-joint loop, so a batch of nodes or of value tables gives every node
    the bits it would get alone.
    """
    succ, prob = group.succ[rows], group.prob[rows]
    z = np.empty((len(rewards),) + values.shape[:-2] + succ.shape[:-1])
    for i, r in enumerate(rewards):
        z[i] = structure.rewards(r)[1][group.index][rows]
        column = values[..., i]
        for j, live in enumerate(group.live):
            np.add(z[i], prob[..., j] * column[..., succ[..., j]], out=z[i],
                   where=live if live is True else live[rows])
    return z


def stage_matrices(structure: Structure, rewards, node: Node, values: np.ndarray):
    """Per-agent payoff matrices of the game induced at ``node``.

    Entry (a, b) is the action reward plus the node's state reward plus the
    expected continuation value under joint action (a, b).
    """
    group, row = structure.locate(node.id)
    return tuple(stage_games(structure, rewards, group, values, slice(row, row + 1))[:, 0])


def _leaf_values(structure: Structure, rewards, batch=()) -> np.ndarray:
    """Values of shape (*batch, n_nodes, len(rewards)): a leaf's state rewards,
    zero elsewhere."""
    values = np.zeros((len(structure.nodes), len(rewards)))
    for i, r in enumerate(rewards):
        values[structure.bounds[structure.horizon]:, i] = structure.rewards(r)[0]
    return np.broadcast_to(values, batch + values.shape).copy()


def _require(structure: Structure, profiles: Optional[dict]) -> None:
    """Raise for the first nonleaf node, bottom-up, without strategy data."""
    if profiles is None:
        return
    for nid in structure.bottom_up.tolist():
        if nid not in profiles:
            raise ModelError(f"strategy data missing at history {nid}")


def induce_stages(structure: Structure, rewards, step, profiles: Optional[dict] = None,
                  batch: tuple = ()) -> np.ndarray:
    """The one bottom-up pass, one stage at a time: values of shape
    (*batch, n_nodes, len(rewards)).

    ``step(groups, zs)`` gets the stage's groups and each group's
    :func:`stage_games`, and returns each group's values, shape
    (*batch, n, len(rewards)).  With ``profiles`` (strategy data by node
    id), a nonleaf node without an entry is an error, the first in
    (-stage, id) order named; ``batch`` adds leading axes, e.g. one per grid
    point.
    """
    _require(structure, profiles)
    values = _leaf_values(structure, rewards, batch)
    for groups in reversed(structure.groups):
        zs = [stage_games(structure, rewards, g, values) for g in groups]
        for g, v in zip(groups, step(groups, zs)):
            values[..., g.ids, :] = v
    return values


def induce_groups(structure: Structure, rewards, step, profiles: Optional[dict] = None,
                  batch: tuple = ()) -> np.ndarray:
    """:func:`induce_stages` with ``step(group, z)`` called on each stage
    group in turn, returning the group's values."""
    return induce_stages(structure, rewards, lambda groups, zs: map(step, groups, zs),
                         profiles, batch)


@dataclass
class EquilibriumSolution:
    """Per-node strategy data and value vectors for a whole structure.

    ``ne_counts`` holds, for a Nash solution from :func:`run_gbi` under a
    deterministic policy (and from :func:`nscsg.fsi.run_fsi`), the number
    of extreme Nash equilibria of each node's stage game under ``values``:
    one int per node, 0 at leaves.  A game with one extreme equilibrium has
    exactly one Nash equilibrium, so where every nonleaf count is 1 the
    solution is the unique subgame-perfect Nash equilibrium.  It is ``None``
    where nothing counted: correlated, minimax, "seeded-random" and loaded
    solutions.
    """

    kind: str  # "ne" | "ce"
    values: np.ndarray  # shape (n_nodes, 2)
    profiles: dict[int, StageSolution]
    policy: str = "sw-optimal"
    ne_counts: Optional[np.ndarray] = None

    def copy(self) -> "EquilibriumSolution":
        return EquilibriumSolution(self.kind, self.values.copy(), dict(self.profiles), self.policy,
                                   None if self.ne_counts is None else self.ne_counts.copy())


def _candidates_stack(p1: np.ndarray, p2: np.ndarray, kind: str) -> list[list[StageSolution]]:
    """:func:`_stage_candidates` of each game (p1[k], p2[k]) of a stack of
    games of one shape: their Nash equilibria enumerated together, or the
    LPs of their five objectives each solved as one stack and a game's
    repeated distributions (equal after rounding to 9 decimals) dropped as
    one array step."""
    if kind == "ne":
        return enumerate_ne_stack(p1, p2)
    g, m, n = p1.shape
    objectives = np.stack((p1 + p2, -p1, -p2, p1, p2), axis=1).reshape(5 * g, m * n)
    mu, payoffs = _ce_arrays(np.repeat(p1, 5, axis=0), np.repeat(p2, 5, axis=0), objectives)
    keys = np.round(mu, 9).reshape(g, 5, m * n)
    # an objective's distribution is kept unless an earlier one of its game equals it
    earlier = np.tril((keys[:, :, None] == keys[:, None]).all(axis=-1), -1)
    kept = np.flatnonzero(~earlier.any(axis=-1).ravel())
    sols = [StageSolution("ce", None, None, mu[k], payoffs[k]) for k in kept.tolist()]
    ends = np.cumsum(np.bincount(kept // 5, minlength=g)).tolist()
    return [sols[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _stage_candidates(game: BimatrixGame, kind: str) -> list[StageSolution]:
    """Alternative equilibria of one stage game: every Nash equilibrium, or
    the distinct correlated equilibria of five linear objectives: welfare,
    each agent's payoff negated, then each agent's payoff."""
    return _candidates_stack(game.p1[None], game.p2[None], kind)[0]


def _candidates_or_errors(z: np.ndarray, kind: str) -> list:
    """:func:`_candidates_stack` of the games of ``z`` (2, n, m1, m2), with
    the error in place of a game whose candidates raise
    :class:`SolverError` or :class:`ResourceLimitError`: when the stack
    raises, its games are solved again one at a time."""
    try:
        return _candidates_stack(z[0], z[1], kind)
    except (SolverError, ResourceLimitError) as exc:
        if z.shape[1] == 1:
            return [exc]
        return [_candidates_or_errors(z[:, row:row + 1], kind)[0] for row in range(z.shape[1])]


class StageGameCache:
    """Memoises stage-game solutions keyed by rounded payoff matrices, with
    the number of extreme Nash equilibria of each game whose equilibria were
    enumerated, and the candidate equilibria of a stage game keyed by its
    exact payoffs."""

    def __init__(self):
        self._store = {}
        self._ne_counts = {}  # menu shape -> solve key -> extreme Nash equilibria
        self.hits = 0
        self.misses = 0
        self._candidates = {}
        self.candidate_hits = 0
        self.candidate_misses = 0

    def stage_candidates(self, game: BimatrixGame, kind: str) -> list[StageSolution]:
        """:func:`_stage_candidates` of the game, computed on the first
        request: the one-row :meth:`stage_candidates_stack`, which raises
        the game's error."""
        out, = self.stage_candidates_stack(np.stack((game.p1, game.p2))[:, None], kind)
        if isinstance(out, Exception):
            raise out
        return out

    def stage_candidates_stack(self, z: np.ndarray, kind: str) -> list:
        """:meth:`stage_candidates` of each game of the stack ``z`` (shape
        (2, n, m1, m2)) in row order, counted as row-by-row calls count.

        The key holds the exact payoff bytes, so a hit returns what
        recomputing would.  The distinct games not yet stored are solved
        together (:func:`_candidates_or_errors`); each is one miss and every
        other row a hit, except that a game whose candidates raise
        :class:`SolverError` or :class:`ResourceLimitError` is not stored: it
        gets its error in place of a list, and each of its rows is a miss.
        """
        candidates = self._candidates.setdefault((kind, z.shape[2:]), {})
        keys = _row_keys(z)
        missed: dict = {}  # key -> first row
        for row, key in enumerate(keys):
            if key not in candidates:
                missed.setdefault(key, row)
        failed = {}
        if missed:
            for key, out in zip(missed, _candidates_or_errors(z[:, list(missed.values())], kind)):
                if isinstance(out, Exception):
                    failed[key] = out
                else:
                    candidates[key] = out
        misses = len(missed) - len(failed) + sum(key in failed for key in keys)
        self.candidate_misses += misses
        self.candidate_hits += len(keys) - misses
        return [failed[key] if key in failed else candidates[key] for key in keys]

    def solve(self, game: BimatrixGame, kind: str, policy: str) -> StageSolution:
        """A solution of ``game`` under ``policy``: the one-row :meth:`solve_stack`."""
        return self.solve_stack(np.stack((game.p1, game.p2))[:, None], kind, policy)[0]

    def solve_stack(self, z: np.ndarray, kind: str, policy: str) -> list[StageSolution]:
        """A solution of each game of the stack ``z`` (shape (2, n, m1, m2))
        in row order, under "sw-optimal" or "first-found", memoised by the
        game's payoffs rounded to 12 decimals.  Each distinct key not yet
        stored is one miss and every other row a hit; the missed games are
        solved in one call, and a Nash game's count of extreme equilibria is
        kept under its key."""
        return self._solve_counted(z, kind, policy)[0]

    def _solve_counted(self, z: np.ndarray, kind: str, policy: str):
        """:meth:`solve_stack`'s solutions, and for "ne" each row's number of
        extreme equilibria (``None`` for "ce")."""
        store = self._store.setdefault((kind, policy, z.shape[2:]), {})
        keys = _row_keys(np.round(z, 12))
        sols = [store.get(key) for key in keys]
        missed: dict = {}  # key -> first row
        for row, (key, sol) in enumerate(zip(keys, sols)):
            if sol is None:
                missed.setdefault(key, row)
        self.misses += len(missed)
        self.hits += len(sols) - len(missed)
        if missed:
            rows = list(missed.values())
            solved, counts = _counted_equilibria(z[0, rows], z[1, rows], kind, policy)
            store.update(zip(missed, solved))
            if counts is not None:
                self._ne_counts.setdefault(z.shape[2:], {}).update(zip(missed, counts))
            sols = [store[key] if sol is None else sol for key, sol in zip(keys, sols)]
        if kind != "ne":
            return sols, None
        counts = self._ne_counts.setdefault(z.shape[2:], {})
        return sols, [counts[key] for key in keys]

    def ne_counts(self, z: np.ndarray) -> list[int]:
        """The number of extreme Nash equilibria of each game of the stack
        ``z`` (2, n, m1, m2), read under :meth:`solve_stack`'s key where a
        Nash solve or an earlier count kept it; the other distinct games are
        enumerated together and their counts kept.  Solutions are not
        stored and the hit and miss counts do not move."""
        counts = self._ne_counts.setdefault(z.shape[2:], {})
        keys = _row_keys(np.round(z, 12))
        missed: dict = {}  # key -> first row
        for row, key in enumerate(keys):
            if key not in counts:
                missed.setdefault(key, row)
        if missed:
            rows = list(missed.values())
            counts.update(zip(missed, map(len, enumerate_ne_stack(z[0, rows], z[1, rows]))))
        return [counts[key] for key in keys]


def _row_keys(z: np.ndarray) -> list[bytes]:
    """One bytes object per game of the stack ``z`` (2, n, m1, m2): agent
    1's payoff bytes, then agent 2's."""
    return row_bytes(z.transpose(1, 0, 2, 3).reshape(z.shape[1], 2 * z.shape[2] * z.shape[3]))


def run_gbi(
    structure: Structure,
    rewards: tuple[RewardStructure, ...],
    kind: str = "ne",
    policy: str = "sw-optimal",
    seed: Optional[int] = None,
    cache: Optional[StageGameCache] = None,
) -> EquilibriumSolution:
    """Bottom-up equilibrium synthesis; subgame perfect by construction.

    ``policy`` selects the equilibrium solved at each node ("sw-optimal",
    "first-found" or "seeded-random").  Each stage group is solved as one
    stack (:meth:`StageGameCache.solve_stack`); "seeded-random" draws from
    its generator node by node, in id order within each stage.  A Nash pass
    under a deterministic policy also returns each node's count of extreme
    equilibria (:attr:`EquilibriumSolution.ne_counts`), read off the same
    enumeration.
    """
    if len(rewards) != 2:
        raise ModelError("backward induction is implemented for two agents")
    rng = np.random.default_rng(seed)
    cache = cache or StageGameCache()
    profiles: dict[int, StageSolution] = {}
    counts = (np.zeros(len(structure.nodes), dtype=np.intp)
              if kind == "ne" and policy != "seeded-random" else None)

    def step(groups, zs):
        if policy == "seeded-random":
            sols = [[None] * len(g.ids) for g in groups]
            for _, k, row in sorted((nid, k, row) for k, g in enumerate(groups)
                                    for row, nid in enumerate(g.ids.tolist())):
                z = zs[k][:, row]
                sols[k][row] = any_equilibrium(BimatrixGame(z[0], z[1]), kind, policy, rng)
        else:
            sols = []
            for g, z in zip(groups, zs):
                group_sols, group_counts = cache._solve_counted(z, kind, policy)
                sols.append(group_sols)
                if counts is not None:
                    counts[g.ids] = group_counts
        for g, group_sols in zip(groups, sols):
            profiles.update(zip(g.ids.tolist(), group_sols))
        return [np.array([sol.payoffs for sol in group_sols]) for group_sols in sols]

    values = induce_stages(structure, rewards, step)
    return EquilibriumSolution(kind, values, profiles, policy, counts)


def run_minimax(structure: Structure, rewards: tuple[RewardStructure, ...]) -> EquilibriumSolution:
    """Zero-sum baseline: agent 1 maximises its reward, agent 2 minimises it.

    Only agent 1's reward structure is consulted: the pass builds agent 1's
    stage matrices alone, and agent 2's value is the negation.  A stage
    group's maximin LPs are solved as two stacks
    (:func:`nscsg.nfg.zero_sum_values`).
    """
    profiles: dict[int, StageSolution] = {}

    def step(group, z):
        x, y, v = zero_sum_values(z[0])
        for row, nid in enumerate(group.ids.tolist()):
            profiles[nid] = StageSolution("ne", x[row], y[row], None, np.array([v[row], -v[row]]))
        return v[:, None]

    values = induce_groups(structure, rewards[:1], step)
    return EquilibriumSolution("ne", np.hstack((values, -values)), profiles, "minimax")


def social_welfare(solution, node: int = 0) -> float:
    """Sum of the agents' values at ``node`` (default: the root)."""
    if node < 0 or node >= solution.values.shape[0]:
        raise ModelError(f"unknown history {node}")
    return float(solution.values[node].sum())


# ---------------------------------------------------------------------------
# serialisation


def solution_to_json(structure: Structure, solution: EquilibriumSolution, path=None):
    nodes = []
    for node in structure.nodes:
        entry = {**node_json(node), "value": solution.values[node.id].tolist()}
        prof = solution.profiles.get(node.id)
        if prof is not None:
            m1, m2 = node.menus
            if solution.kind == "ne":
                entry["mu1"] = {lab: float(p) for lab, p in zip(m1, prof.mu1)}
                entry["mu2"] = {lab: float(p) for lab, p in zip(m2, prof.mu2)}
            else:
                entry["mu"] = {
                    f"{la}|{lb}": float(prof.mu_joint[a, b])
                    for a, la in enumerate(m1)
                    for b, lb in enumerate(m2)
                }
        nodes.append(entry)
    return write_json({"kind": solution.kind, "policy": solution.policy, "mode": structure.mode,
                       "horizon": structure.horizon, "nodes": nodes}, path)


def solution_from_json(structure: Structure, doc) -> EquilibriumSolution:
    """Rebuild a solution against a freshly unfolded ``structure``.

    The node ids must match the deterministic unfolding that produced the
    file, each id once; mismatched menus, missing fields, a mixture or joint
    distribution that is not a probability distribution, and a path that
    cannot be read or parsed, raise :class:`ModelError`.
    """
    if isinstance(doc, str):
        try:
            with open(doc) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelError(f"cannot read solution file {doc}: {exc}") from exc
    kind, entries = _field(doc, "kind", "solution"), _field(doc, "nodes", "solution")
    if kind not in ("ne", "ce"):
        raise ModelError(f"solution kind {kind!r} is neither 'ne' nor 'ce'")
    n = len(structure.nodes)
    if not isinstance(entries, list):
        raise ModelError(f"solution field 'nodes' holds {type(entries).__name__}, not a list")
    if len(entries) != n:
        raise ModelError(f"solution has {len(entries)} nodes, structure has {n}")
    values = np.zeros((n, 2))
    profiles: dict[int, StageSolution] = {}
    seen = set()
    for entry in entries:
        nid = _field(entry, "id", "solution node")
        if not isinstance(nid, int) or isinstance(nid, bool) or not 0 <= nid < n:
            raise ModelError(f"solution node id {nid!r} outside 0..{n - 1}")
        if nid in seen:
            raise ModelError(f"solution node id {nid} appears twice")
        seen.add(nid)
        node = structure.nodes[nid]
        where = f"solution node {nid}"
        try:
            values[nid] = _field(entry, "value", where)
            if structure.is_leaf(node):
                continue
            m1, m2 = node.menus
            if kind == "ne":
                mu1, mu2 = _distribution(entry, "mu1", m1, where), _distribution(entry, "mu2", m2, where)
                profiles[nid] = StageSolution("ne", mu1, mu2, None, values[nid].copy())
            else:
                mu = _distribution(entry, "mu", [f"{la}|{lb}" for la in m1 for lb in m2], where)
                profiles[nid] = StageSolution("ce", None, None, mu.reshape(len(m1), len(m2)),
                                              values[nid].copy())
        except (TypeError, ValueError) as exc:  # numbers that are not numbers, or the wrong count
            raise ModelError(f"{where}: {exc}") from None
    return EquilibriumSolution(kind, values, profiles, doc.get("policy", "unknown"))


def _distribution(entry, name: str, labels, where: str) -> np.ndarray:
    """The probabilities ``entry[name][label]`` of the ``labels``, which must be
    finite and nonnegative and sum to 1 within 1e-9 (else :class:`ModelError`)."""
    mu = _field(entry, name, where)
    mu = np.array([_field(mu, lab, f"{where} {name}") for lab in labels], dtype=float)
    if not (np.isfinite(mu).all() and (mu >= 0).all() and abs(mu.sum() - 1.0) <= 1e-9):
        raise ModelError(f"{where} {name} is not a probability distribution: {mu.tolist()}")
    return mu


def _field(doc, name: str, where: str):
    """``doc[name]``, or a :class:`ModelError` naming the missing field."""
    try:
        return doc[name]
    except (KeyError, TypeError, IndexError):
        raise ModelError(f"{where} lacks field {name!r}") from None
