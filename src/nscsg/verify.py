"""Independent equilibrium checkers and strategy rollouts.

The checkers work directly from the definition: a profile passes when no
agent can improve at any history, measured either against a best-response
dynamic program (independent mixtures) or against all one-shot action swaps
(joint recommendations).  They recompute every value from the strategy data
rather than trusting the values stored in a solution.  Both read the stage
games through the one bottom-up pass :func:`nscsg.gbi.induce`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .gbi import EquilibriumSolution, induce
from .speprog import evaluate_values, one_shot_gaps
from .unfold import Path, Structure, path_value


def _best_responses(structure: Structure, rewards, solution: EquilibriumSolution) -> np.ndarray:
    """Best-response values of both agents, shape (n_nodes, 2), in one pass."""
    if solution.kind != "ne":
        raise ModelError("best responses are defined against independent mixtures")

    def step(node, z1, z2):
        prof = solution.profiles[node.id]
        return (z1 @ prof.mu2).max(), (prof.mu1 @ z2).max()

    return induce(structure, rewards, step, solution.profiles)


def best_response_value(structure: Structure, rewards, solution: EquilibriumSolution,
                        agent: int) -> np.ndarray:
    """Best value the agent can secure at every node against the opponent's
    fixed mixtures, optimising over all of its own behaviours."""
    return _best_responses(structure, rewards, solution)[:, agent]


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    max_gap: float
    gaps: dict  # (node id, agent) -> gap
    tolerance: float

    def worst(self):
        if not self.gaps:
            return None
        return max(self.gaps, key=self.gaps.get)

    def to_json(self, path=None):
        doc = {
            "passed": bool(self.passed),
            "max_gap": float(self.max_gap),
            "tolerance": self.tolerance,
            "gaps": [
                {"node": nid, "agent": agent, "gap": float(g)}
                for (nid, agent), g in sorted(self.gaps.items())
            ],
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh)
        return doc


def check_spne(structure: Structure, rewards, solution: EquilibriumSolution,
               tol: float = 1e-6) -> CheckReport:
    """Every history must leave no agent a profitable unilateral deviation."""
    values, _ = evaluate_values(structure, rewards, solution)
    br = _best_responses(structure, rewards, solution)
    gaps = {}
    for agent in range(2):
        for nid in structure.nonleaf_ids():
            gaps[(nid, agent)] = float(br[nid, agent] - values[nid, agent])
    max_gap = max(gaps.values(), default=0.0)
    return CheckReport(max_gap <= tol, max_gap, gaps, tol)


def check_spce(structure: Structure, rewards, solution: EquilibriumSolution,
               tol: float = 1e-6) -> CheckReport:
    """Every history must leave no agent a profitable one-shot action swap.

    An agent deviates by replacing its recommended action with another while
    everyone else keeps following the recommendations afterwards.
    """
    if solution.kind != "ce":
        raise ModelError("check_spce expects a joint-recommendation solution")
    values, z = evaluate_values(structure, rewards, solution)
    gaps = {}
    for node in structure.nodes:
        if structure.is_leaf(node):
            continue
        gaps[(node.id, 0)], gaps[(node.id, 1)] = one_shot_gaps(
            "ce", solution.profiles[node.id], z[(node.id, 0)], z[(node.id, 1)], values[node.id])
    max_gap = max(gaps.values(), default=0.0)
    return CheckReport(max_gap <= tol, max_gap, gaps, tol)


# ---------------------------------------------------------------------------
# rollouts


@dataclass(frozen=True)
class SimulationResult:
    path: Path
    node_ids: tuple
    joint_actions: tuple
    totals: np.ndarray
    zero_action_counts: tuple  # per agent
    zero_action_fractions: tuple

    def to_json(self, path=None):
        doc = {
            "stages": len(self.joint_actions),
            "env_trace": [s.env.tolist() for s in self.path.states],
            "actions": [list(j) for j in self.joint_actions],
            "totals": self.totals.tolist(),
            "zero_action_counts": list(self.zero_action_counts),
            "zero_action_fractions": list(self.zero_action_fractions),
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh)
        return doc


def simulate(structure: Structure, solution: EquilibriumSolution, rewards,
             seed: int = 0) -> SimulationResult:
    """Seeded rollout following the strategy data from the root.

    Zero-valued executed actions are counted per agent; for the collision
    avoidance models these are the advisory violations.
    """
    rng = np.random.default_rng(seed)
    model = structure.model
    node = structure.root
    states = [node.state]
    joints = []
    node_ids = [node.id]
    zero_counts = [0, 0]
    while not structure.is_leaf(node):
        prof = solution.profiles.get(node.id)
        if prof is None:
            raise ModelError(f"strategy data missing at reachable history {node.id}")
        m1, m2 = node.menus
        if solution.kind == "ne":
            a = int(rng.choice(len(m1), p=np.clip(prof.mu1, 0, None) / prof.mu1.sum()))
            b = int(rng.choice(len(m2), p=np.clip(prof.mu2, 0, None) / prof.mu2.sum()))
        else:
            flat = np.clip(prof.mu_joint.ravel(), 0, None)
            idx = int(rng.choice(flat.size, p=flat / flat.sum()))
            a, b = divmod(idx, len(m2))
        joint = (m1[a], m2[b])
        for i, lab in enumerate(joint):
            action = model.agents[i].action(lab)
            if action.value is not None and np.all(action.value == 0.0):
                zero_counts[i] += 1
        pairs = node.children[joint]
        probs = np.array([p for p, _ in pairs])
        pick = int(rng.choice(len(pairs), p=probs / probs.sum()))
        node = structure.nodes[pairs[pick][1]]
        states.append(node.state)
        joints.append(joint)
        node_ids.append(node.id)
    path = Path(0, tuple(states), tuple(joints))
    totals = path_value(rewards, path)
    steps = max(len(joints), 1)
    return SimulationResult(
        path, tuple(node_ids), tuple(joints), totals,
        tuple(zero_counts), tuple(c / steps for c in zero_counts),
    )
