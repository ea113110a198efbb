"""Backward induction over an unfolded structure.

Works on trees and region graphs alike: leaf values are the final state
rewards, and every interior node is solved as an induced one-shot game whose
entries combine the immediate rewards with the probability-weighted successor
values.  On a region graph this computes strategies that depend on the state
and the stage only.

:func:`stage_matrices` is the one stage-game kernel (the only reader of the
reward callbacks and ``node.children``) and :func:`induce` the one bottom-up
pass over it: every solver and checker differs only in its per-node step.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelError
from .model import RewardStructure
from .nfg import BimatrixGame, StageSolution, any_equilibrium, zero_sum_value
from .unfold import Node, Structure


def stage_matrices(structure: Structure, rewards, node: Node, values: np.ndarray):
    """Per-agent payoff matrices of the game induced at ``node``.

    Entry (a, b) is the action reward plus the node's state reward plus the
    expected continuation value under joint action (a, b).
    """
    m1, m2 = node.menus
    z = np.zeros((2, len(m1), len(m2)))
    state_rewards = [r.state_reward(node.state) for r in rewards]
    for a, lab1 in enumerate(m1):
        for b, lab2 in enumerate(m2):
            joint = (lab1, lab2)
            pairs = node.children[joint]
            for i, r in enumerate(rewards):
                acc = r.action_reward(node.state, joint) + state_rewards[i]
                for p, cid in pairs:
                    acc += p * values[cid, i]
                z[i, a, b] = acc
    return z[0], z[1]


def induce(structure: Structure, rewards, step, profiles: Optional[dict] = None,
           games: Optional[dict] = None) -> np.ndarray:
    """The one bottom-up pass: values of shape (n_nodes, 2), stage by stage.

    A leaf's value is its state rewards; every other node's value is
    ``step(node, z1, z2)`` on its stage matrices.  With ``profiles``
    (strategy data by node id), a nonleaf node without an entry is an error;
    ``games`` receives the stage matrices as ``games[(node id, agent)]``.
    """
    values = np.zeros((len(structure.nodes), 2))
    for stage in range(structure.horizon, -1, -1):
        for node in structure.stage_nodes(stage):
            if structure.is_leaf(node):
                values[node.id] = [r.state_reward(node.state) for r in rewards]
                continue
            if profiles is not None and node.id not in profiles:
                raise ModelError(f"strategy data missing at history {node.id}")
            z1, z2 = stage_matrices(structure, rewards, node, values)
            if games is not None:
                games[(node.id, 0)], games[(node.id, 1)] = z1, z2
            values[node.id] = step(node, z1, z2)
    return values


@dataclass
class EquilibriumSolution:
    """Per-node strategy data and value vectors for a whole structure."""

    kind: str  # "ne" | "ce"
    values: np.ndarray  # shape (n_nodes, 2)
    profiles: dict[int, StageSolution]
    policy: str = "sw-optimal"

    def copy(self) -> "EquilibriumSolution":
        return EquilibriumSolution(self.kind, self.values.copy(), dict(self.profiles), self.policy)


class StageGameCache:
    """Memoises stage-game solutions keyed by rounded payoff matrices."""

    def __init__(self):
        self._store = {}
        self.hits = 0
        self.misses = 0

    def solve(self, game: BimatrixGame, kind: str, policy: str, rng) -> StageSolution:
        if policy == "seeded-random":
            return any_equilibrium(game, kind, policy, rng)
        key = (kind, policy, game.p1.shape, np.round(game.p1, 12).tobytes(), np.round(game.p2, 12).tobytes())
        hit = self._store.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        sol = any_equilibrium(game, kind, policy)
        self._store[key] = sol
        return sol


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
    "first-found" or "seeded-random").
    """
    if len(rewards) != 2:
        raise ModelError("backward induction is implemented for two agents")
    rng = np.random.default_rng(seed)
    cache = cache or StageGameCache()
    profiles: dict[int, StageSolution] = {}

    def step(node, z1, z2):
        sol = profiles[node.id] = cache.solve(BimatrixGame(z1, z2), kind, policy, rng)
        return sol.payoffs

    values = induce(structure, rewards, step)
    return EquilibriumSolution(kind, values, profiles, policy)


@dataclass
class MinimaxSolution:
    values: np.ndarray  # (n_nodes, 2); agent 2's value is the negation
    profiles: dict[int, StageSolution]


def run_minimax(structure: Structure, rewards: tuple[RewardStructure, ...]) -> MinimaxSolution:
    """Zero-sum baseline: agent 1 maximises its reward, agent 2 minimises it.

    Only agent 1's reward structure is consulted.
    """
    profiles: dict[int, StageSolution] = {}

    def step(node, z1, _):
        x, y, v = zero_sum_value(z1)
        profiles[node.id] = StageSolution("ne", x, y, None, np.array([v, -v]))
        return v, v

    values = induce(structure, (rewards[0], rewards[0]), step)
    values[:, 1] = -values[:, 0]
    return MinimaxSolution(values, profiles)


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
        entry = {
            "id": node.id,
            "stage": node.stage,
            "env": node.state.env.tolist(),
            "agents": [
                {"loc": a.loc.tolist(), "per": a.per.tolist()} for a in node.state.agent_states
            ],
            "value": solution.values[node.id].tolist(),
        }
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
    doc = {"kind": solution.kind, "policy": solution.policy, "mode": structure.mode,
           "horizon": structure.horizon, "nodes": nodes}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return doc


def solution_from_json(structure: Structure, doc) -> EquilibriumSolution:
    """Rebuild a solution against a freshly unfolded ``structure``.

    The node ids must match the deterministic unfolding that produced the
    file; mismatched menus raise :class:`ModelError`.
    """
    if isinstance(doc, str):
        with open(doc) as fh:
            doc = json.load(fh)
    kind = doc["kind"]
    n = len(structure.nodes)
    if len(doc["nodes"]) != n:
        raise ModelError(f"solution has {len(doc['nodes'])} nodes, structure has {n}")
    values = np.zeros((n, 2))
    profiles: dict[int, StageSolution] = {}
    for entry in doc["nodes"]:
        node = structure.nodes[entry["id"]]
        values[node.id] = entry["value"]
        if structure.is_leaf(node):
            continue
        m1, m2 = node.menus
        if kind == "ne":
            mu1 = np.array([entry["mu1"][lab] for lab in m1])
            mu2 = np.array([entry["mu2"][lab] for lab in m2])
            profiles[node.id] = StageSolution("ne", mu1, mu2, None, values[node.id].copy())
        else:
            mu = np.array([[entry["mu"][f"{la}|{lb}"] for lb in m2] for la in m1])
            profiles[node.id] = StageSolution("ce", None, None, mu, values[node.id].copy())
    return EquilibriumSolution(kind, values, profiles, doc.get("policy", "unknown"))
