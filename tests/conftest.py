"""Shared fixtures: seeded random games and small independent oracles."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from nscsg.benchmarks import BuiltModel
from nscsg.model import (
    Action,
    AgentSpec,
    AgentState,
    GlobalState,
    NsCsg,
    RewardStructure,
    as_vector,
)
from nscsg.unfold import unfold_tree


def random_model(seed: int, max_actions: int = 3, max_locs: int = 3,
                 max_horizon: int = 3, max_nodes: int = 350) -> BuiltModel:
    """Seeded random two-agent game with dummy perception.

    Local transitions have support at most two, so trees stay desk-scale;
    oversized draws are resampled deterministically.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        n_act = [int(rng.integers(1, max_actions + 1)) for _ in range(2)]
        n_loc = [int(rng.integers(1, max_locs + 1)) for _ in range(2)]
        horizon = int(rng.integers(1, max_horizon + 1))

        specs = []
        joint_labels = list(itertools.product(
            [f"a{k}" for k in range(n_act[0])], [f"b{k}" for k in range(n_act[1])]
        ))
        for i in range(2):
            locs = tuple(as_vector([float(k)]) for k in range(n_loc[i]))
            labels = tuple((f"a{k}" if i == 0 else f"b{k}") for k in range(n_act[i]))
            table = {}
            for li in range(n_loc[i]):
                for joint in joint_labels:
                    support = rng.choice(n_loc[i], size=min(n_loc[i], int(rng.integers(1, 3))),
                                         replace=False)
                    probs = rng.dirichlet(np.ones(len(support)))
                    table[(li, joint)] = tuple(
                        (locs[int(s)], float(p)) for s, p in zip(support, probs)
                    )

            def local_transition(loc, per, joint, _table=table):
                return _table[(int(loc[0]), tuple(joint))]

            specs.append(AgentSpec(
                name=f"agent{i + 1}",
                local_states=locs,
                percepts=(as_vector([0.0]),),
                actions=tuple(Action(lab, as_vector([float(k)])) for k, lab in enumerate(labels)),
                availability=lambda loc, per, _labels=labels: _labels,
                observation=lambda state: as_vector([0.0]),
                local_transition=local_transition,
            ))

        model = NsCsg(
            name=f"random-{seed}",
            agents=tuple(specs),
            env_step=lambda env, actions: env,
            env_dim=1,
        )

        state_tables = [
            {(i, j): float(rng.normal()) for i in range(n_loc[0]) for j in range(n_loc[1])}
            for _ in range(2)
        ]
        action_tables = [
            {joint: float(rng.normal() * 0.3) for joint in joint_labels} for _ in range(2)
        ]

        def make_rewards(agent):
            st, at = state_tables[agent], action_tables[agent]

            def state_reward(state, _t=st):
                return _t[(int(state.agent_states[0].loc[0]), int(state.agent_states[1].loc[0]))]

            def action_reward(state, joint, _t=at):
                return _t[tuple(joint)]

            return RewardStructure(action_reward, state_reward)

        rewards = (make_rewards(0), make_rewards(1))
        initial = GlobalState(
            tuple(AgentState(spec.local_states[0], spec.percepts[0]) for spec in specs),
            as_vector([0.0]),
        )
        bundle = BuiltModel(model, initial, rewards, horizon)
        tree = unfold_tree(model, initial, horizon)
        if len(tree.nodes) <= max_nodes:
            return bundle
        rng = np.random.default_rng(seed * 7919 + attempt + 1)
    raise RuntimeError("could not draw a desk-scale model")


def coin_model_doc() -> dict:
    """Tabular model file: agent 1 leaves location 0 by a fair coin and stays
    at 1; agent 2 stands still; agent 1 earns -1 per state."""
    return {
        "name": "coin",
        "agents": [
            {
                "local_states": [[0], [1]],
                "percepts": [[0]],
                "actions": [{"label": "go", "value": [1]}],
                "transitions": [
                    {"loc": [0], "per": [0], "joint": ["go", "go"],
                     "dist": [{"loc": [0], "prob": 0.5}, {"loc": [1], "prob": 0.5}]},
                    {"loc": [1], "per": [0], "joint": ["go", "go"],
                     "dist": [{"loc": [1], "prob": 1.0}]},
                ],
            },
            {
                "local_states": [[0]],
                "percepts": [[0]],
                "actions": [{"label": "go", "value": [1]}],
            },
        ],
        "environment": {"dim": 1, "table": [
            {"env": [0], "joint": ["go", "go"], "next": [0]},
        ]},
        "initial": {"agents": [{"loc": [0], "per": [0]}, {"loc": [0], "per": [0]}],
                    "env": [0]},
        "rewards": [{"default": -1.0}, {"default": 0.0}],
    }


def enumerate_paths(structure, node=None):
    """All (path nodes, probability, action labels) triples from ``node``."""
    node = node or structure.root
    if structure.is_leaf(node):
        return [((node.id,), 1.0, ())]
    out = []
    for joint, pairs in structure.children(node).items():
        for p, cid in pairs:
            for ids, prob, acts in enumerate_paths(structure, structure.nodes[cid]):
                out.append(((node.id,) + ids, p * prob, (joint,) + acts))
    return out


def path_reward_by_hand(structure, rewards, ids, acts, agent):
    """Independent accumulation loop used as the value oracle."""
    total = 0.0
    for k, joint in enumerate(acts):
        state = structure.nodes[ids[k]].state
        total += rewards[agent].action_reward(state, joint) + rewards[agent].state_reward(state)
    total += rewards[agent].state_reward(structure.nodes[ids[-1]].state)
    return total


def profile_value_by_hand(structure, rewards, solution, agent):
    """Expected value at the root by exhaustive path enumeration."""
    total = 0.0
    for ids, prob, acts in enumerate_paths(structure):
        weight = prob
        for k, joint in enumerate(acts):
            node = structure.nodes[ids[k]]
            prof = solution.profiles[node.id]
            m1, m2 = node.menus
            a, b = m1.index(joint[0]), m2.index(joint[1])
            if solution.kind == "ne":
                weight *= prof.mu1[a] * prof.mu2[b]
            else:
                weight *= prof.mu_joint[a, b]
        if weight == 0.0:
            continue
        total += weight * path_reward_by_hand(structure, rewards, ids, acts, agent)
    return total


def random_profiles(structure, kind, rng):
    """Random simplex strategy data on every interior node."""
    from nscsg.gbi import EquilibriumSolution
    from nscsg.nfg import StageSolution

    profiles = {}
    for nid in structure.nonleaf_ids():
        node = structure.nodes[nid]
        m1, m2 = len(node.menus[0]), len(node.menus[1])
        if kind == "ne":
            profiles[nid] = StageSolution("ne", rng.dirichlet(np.ones(m1)),
                                          rng.dirichlet(np.ones(m2)), None, np.zeros(2))
        else:
            profiles[nid] = StageSolution("ce", None, None,
                                          rng.dirichlet(np.ones(m1 * m2)).reshape(m1, m2),
                                          np.zeros(2))
    return EquilibriumSolution(kind, np.zeros((len(structure.nodes), 2)), profiles, "random")
