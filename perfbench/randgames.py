"""Seeded random two-agent games for the small-games workload.

Draws the distribution of the library's criterion-4 property suite: two
agents with dummy perception, 1..3 actions and 1..3 local states each, a
horizon of 1..3, local transitions with support of at most two states,
Gaussian state rewards and scaled Gaussian action rewards.  A draw whose
history tree has more than 350 nodes is replaced by a deterministic redraw,
so every model stays desk-scale.
"""
from __future__ import annotations

import itertools

import numpy as np

from nscsg import (
    Action,
    AgentSpec,
    AgentState,
    BuiltModel,
    GlobalState,
    NsCsg,
    ResourceLimitError,
    RewardStructure,
    unfold_tree,
)
from nscsg.model import as_vector

MAX_ACTIONS = 3
MAX_LOCS = 3
MAX_HORIZON = 3
MAX_NODES = 350
MAX_ATTEMPTS = 50


def _table_transition(table):
    def local_transition(loc, per, joint):
        return table[(int(loc[0]), tuple(joint))]
    return local_transition


def _draw(rng: np.random.Generator, name: str) -> BuiltModel:
    n_act = [int(rng.integers(1, MAX_ACTIONS + 1)) for _ in range(2)]
    n_loc = [int(rng.integers(1, MAX_LOCS + 1)) for _ in range(2)]
    horizon = int(rng.integers(1, MAX_HORIZON + 1))
    labels = (tuple(f"a{k}" for k in range(n_act[0])), tuple(f"b{k}" for k in range(n_act[1])))
    joints = list(itertools.product(*labels))

    agents = []
    for i in range(2):
        locs = tuple(as_vector([float(k)]) for k in range(n_loc[i]))
        table = {}
        for li in range(n_loc[i]):
            for joint in joints:
                support = rng.choice(n_loc[i], size=min(n_loc[i], int(rng.integers(1, 3))),
                                     replace=False)
                probs = rng.dirichlet(np.ones(len(support)))
                table[(li, joint)] = tuple((locs[int(s)], float(p)) for s, p in zip(support, probs))
        agents.append(AgentSpec(
            name=f"agent{i + 1}",
            local_states=locs,
            percepts=(as_vector([0.0]),),
            actions=tuple(Action(lab, as_vector([float(k)])) for k, lab in enumerate(labels[i])),
            availability=lambda loc, per, _labels=labels[i]: _labels,
            observation=lambda state: as_vector([0.0]),
            local_transition=_table_transition(table),
        ))
    model = NsCsg(name=name, agents=tuple(agents), env_step=lambda env, actions: env, env_dim=1)

    state_tables = [{(i, j): float(rng.normal()) for i in range(n_loc[0]) for j in range(n_loc[1])}
                    for _ in range(2)]
    action_tables = [{joint: float(rng.normal() * 0.3) for joint in joints} for _ in range(2)]

    def rewards_of(agent):
        st, at = state_tables[agent], action_tables[agent]

        def state_reward(state):
            return st[(int(state.agent_states[0].loc[0]), int(state.agent_states[1].loc[0]))]

        def action_reward(state, joint):
            return at[tuple(joint)]

        return RewardStructure(action_reward, state_reward)

    initial = GlobalState(
        tuple(AgentState(spec.local_states[0], spec.percepts[0]) for spec in agents),
        as_vector([0.0]),
    )
    return BuiltModel(model, initial, (rewards_of(0), rewards_of(1)), horizon)


def random_game(model_seed: int) -> BuiltModel:
    """The seeded model ``model_seed``; the same seed gives the same game."""
    rng = np.random.default_rng(model_seed)
    for attempt in range(MAX_ATTEMPTS):
        bundle = _draw(rng, f"random-{model_seed}")
        try:  # the node cap stops an oversized draw early
            unfold_tree(bundle.model, bundle.initial, bundle.horizon, max_nodes=MAX_NODES)
            return bundle
        except ResourceLimitError:
            rng = np.random.default_rng(model_seed * 7919 + attempt + 1)
    raise RuntimeError(f"model seed {model_seed}: no draw within {MAX_NODES} nodes")


def model_seeds(seed: int, count: int) -> list[int]:
    """Model seeds of one benchmark seed; disjoint across benchmark seeds."""
    return [5000 + seed * count + k for k in range(count)]
