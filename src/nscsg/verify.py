"""Independent equilibrium checkers and strategy rollouts.

The checkers work directly from the definition: a profile passes when no
agent can improve at any history, measured either against a best-response
dynamic program (independent mixtures) or against all one-shot action swaps
(joint recommendations).  They recompute every value from the strategy data
rather than trusting the values stored in a solution.  Both read the stage
games through the one bottom-up pass of :mod:`nscsg.gbi`, one stage group at
a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .gbi import EquilibriumSolution, induce_groups
from .speprog import _solution_values, _stacked, evaluate_values
from .unfold import Path, Structure, path_value, write_json


def _deviation_values(z1: np.ndarray, z2: np.ndarray, mu1: np.ndarray, mu2: np.ndarray):
    """Best pure-deviation payoffs of agent 1 against ``mu2`` and of agent 2
    against ``mu1``; leading axes are batch axes."""
    return (np.matmul(z1, mu2[..., None])[..., 0].max(axis=-1),
            np.matmul(mu1[..., None, :], z2)[..., 0, :].max(axis=-1))


def _best_responses(structure: Structure, rewards, solution: EquilibriumSolution) -> np.ndarray:
    """Best-response values of both agents, shape (n_nodes, 2), in one pass."""
    if solution.kind != "ne":
        raise ModelError("best responses are defined against independent mixtures")

    strategies = _stacked("ne", solution.profiles)

    def step(group, z):
        return np.stack(_deviation_values(z[0], z[1], *strategies(group)), axis=-1)

    return induce_groups(structure, rewards, step, solution.profiles)


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
        gaps = [{"node": nid, "agent": agent, "gap": float(g)}
                for (nid, agent), g in sorted(self.gaps.items())]
        return write_json({"passed": bool(self.passed), "max_gap": float(self.max_gap),
                           "tolerance": self.tolerance, "gaps": gaps}, path)


def check_spne(structure: Structure, rewards, solution: EquilibriumSolution,
               tol: float = 1e-6) -> CheckReport:
    """Every history must leave no agent a profitable unilateral deviation."""
    values = _solution_values(structure, rewards, solution)
    br = _best_responses(structure, rewards, solution)
    ids = structure.nonleaf_ids()
    diff = (br - values)[ids].T.tolist()
    gaps = {(nid, agent): d for agent in range(2) for nid, d in zip(ids, diff[agent])}
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
    table = evaluate_values(structure, rewards, solution)[1].tolist()  # rows are node ids
    gaps = {(nid, agent): gap for nid, row in enumerate(table) for agent, gap in enumerate(row)}
    max_gap = max(gaps.values(), default=0.0)
    return CheckReport(max_gap <= tol, max_gap, gaps, tol)


# ---------------------------------------------------------------------------
# rollouts


@dataclass(frozen=True)
class SimulationResult:
    path: Path
    joint_actions: tuple
    totals: np.ndarray
    zero_action_counts: tuple  # per agent
    zero_action_fractions: tuple

    def to_json(self, path=None):
        return write_json({
            "stages": len(self.joint_actions),
            "env_trace": [s.env.tolist() for s in self.path.states],
            "actions": [list(j) for j in self.joint_actions],
            "totals": self.totals.tolist(),
            "zero_action_counts": list(self.zero_action_counts),
            "zero_action_fractions": list(self.zero_action_fractions),
        }, path)


def simulate(structure: Structure, solution: EquilibriumSolution, rewards,
             seed: int = 0) -> SimulationResult:
    """Seeded rollout following the strategy data from the root.

    Zero-valued executed actions are counted per agent; for the collision
    avoidance models these are the advisory violations.
    """
    if seed < 0:
        raise ModelError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    model = structure.model
    node = structure.root
    states = [node.state]
    joints = []
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
        pairs = structure.children(node)[joint]
        probs = np.array([p for p, _ in pairs])
        pick = int(rng.choice(len(pairs), p=probs / probs.sum()))
        node = structure.nodes[pairs[pick][1]]
        states.append(node.state)
        joints.append(joint)
    path = Path(0, tuple(states), tuple(joints))
    totals = path_value(rewards, path)
    steps = max(len(joints), 1)
    return SimulationResult(
        path, tuple(joints), totals,
        tuple(zero_counts), tuple(c / steps for c in zero_counts),
    )
