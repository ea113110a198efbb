"""Two vehicles race for two parking slots on a 5x4 grid with one-way lanes.

Cell (i, j) has i in 1..rows counted horizontally and j in 1..cols counted
vertically.  Vehicle 1 moves two cells per step (ordered pairs of directions
with the four cancelling pairs removed), vehicle 2 moves one.  A vehicle
standing on a slot is parked and keeps the idle action; a cell shared by both
vehicles is a collision.  Percepts are the exact pair of vehicle positions,
and the environment additionally carries the stage counter so that the bonus
reward can expire.

The one-way lane table ships as package data (``data/parking_rules.json``):
the drawn arrows pin only the two middle lanes, so the table is data rather
than code and can be swapped out for experiments.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import ModelError
from ..model import (
    Action,
    AgentSpec,
    AgentState,
    GlobalState,
    NsCsg,
    RewardStructure,
    as_vector,
)
from . import BuiltModel

_DIRS = {"U": (0, 1), "D": (0, -1), "L": (-1, 0), "R": (1, 0)}
_EXCLUDED_PAIRS = {"UD", "DU", "LR", "RL"}


def default_rule_table() -> dict:
    """Banned (cell, direction) pairs from the packaged lane table."""
    with resources.files("nscsg.benchmarks").joinpath("data/parking_rules.json").open() as fh:
        doc = json.load(fh)
    table: dict = {}
    for row in doc["banned"]:
        table.setdefault(tuple(row["cell"]), set()).update(row["dirs"])
    return table


@dataclass(frozen=True)
class ParkingParams:
    rows: int = 5
    cols: int = 4
    slots: tuple = ((2, 4), (5, 1))
    starts: tuple = ((3, 1), (2, 2))
    red_cells: tuple = ((1, 1), (1, 4), (2, 1), (4, 1), (4, 4), (5, 4))
    bonus_cell: tuple = (1, 2)
    bonus_value: float = 4.5
    bonus_deadline: int = 1  # stage k <= deadline
    collision_reward: float = -20.0
    step_reward: float = -1.0
    reward_structure: int = 1  # 1: plain time minimising, 2: adds the bonus
    rule_table: dict | None = None  # cell -> banned directions; None = packaged table
    horizon: int = 8

    def __post_init__(self):
        for cell in self.slots + self.starts + (self.bonus_cell,):
            if not (1 <= cell[0] <= self.rows and 1 <= cell[1] <= self.cols):
                raise ModelError(f"cell {cell} outside the {self.rows}x{self.cols} grid")
            if tuple(cell) in {tuple(c) for c in self.red_cells}:
                raise ModelError(f"cell {cell} must not be forbidden")
        if self.reward_structure not in (1, 2):
            raise ModelError("reward_structure must be 1 or 2")


def _vehicle1_labels() -> tuple[str, ...]:
    labels = []
    for d1, d2 in itertools.product("UDLR", repeat=2):
        pair = d1 + d2
        if pair not in _EXCLUDED_PAIRS:
            labels.append(pair)
    return tuple(labels)  # 12 ordered two-cell moves


def build_parking(params: ParkingParams = ParkingParams()) -> BuiltModel:
    red = {tuple(c) for c in params.red_cells}
    rules = default_rule_table() if params.rule_table is None else {
        tuple(k): set(v) for k, v in params.rule_table.items()
    }
    slots = {tuple(c) for c in params.slots}

    free_cells = [
        (i, j)
        for i in range(1, params.rows + 1)
        for j in range(1, params.cols + 1)
        if (i, j) not in red
    ]

    def leg_ok(cell, d):
        """One single-cell move from ``cell``: inside the grid, not into a
        forbidden cell, not against the lane direction."""
        if d in rules.get(cell, ()):
            return None
        di, dj = _DIRS[d]
        target = (cell[0] + di, cell[1] + dj)
        if not (1 <= target[0] <= params.rows and 1 <= target[1] <= params.cols):
            return None
        if target in red:
            return None
        return target

    def moves_v2(cell):
        return tuple(d for d in "UDLR" if leg_ok(cell, d) is not None)

    def moves_v1(cell):
        out = []
        for pair in _vehicle1_labels():
            mid = leg_ok(cell, pair[0])
            if mid is None:
                continue
            if leg_ok(mid, pair[1]) is not None:
                out.append(pair)
        return tuple(out)

    percepts = tuple(
        as_vector([c1[0], c1[1], c2[0], c2[1]])
        for c1 in free_cells
        for c2 in free_cells
    )
    dummy = (as_vector([0.0]),)

    def observation(state):
        return state.env[:4]

    def local_transition(loc, per, joint):
        return ((loc, 1.0),)

    def make_availability(agent):
        def availability(loc, per):
            own = (int(round(per[2 * agent])), int(round(per[2 * agent + 1])))
            if own in slots:
                return ()  # parked vehicles stay put
            return moves_v1(own) if agent == 0 else moves_v2(own)
        return availability

    def pair_value(pair):
        di = _DIRS[pair[0]]
        dj = _DIRS[pair[1]]
        return as_vector([di[0] + dj[0], di[1] + dj[1]])

    agents = (
        AgentSpec(
            name="vehicle1",
            local_states=dummy,
            percepts=percepts,
            actions=tuple(Action(p, pair_value(p)) for p in _vehicle1_labels()),
            availability=make_availability(0),
            observation=observation,
            local_transition=local_transition,
        ),
        AgentSpec(
            name="vehicle2",
            local_states=dummy,
            percepts=percepts,
            actions=tuple(Action(d, as_vector(_DIRS[d])) for d in "UDLR"),
            availability=make_availability(1),
            observation=observation,
            local_transition=local_transition,
        ),
    )

    def env_step(env, actions):
        x = env[:4].copy()
        for agent, action in enumerate(actions):
            if action.value is not None:
                x[2 * agent] += action.value[0]
                x[2 * agent + 1] += action.value[1]
        return np.concatenate([x, [env[4] + 1.0]])

    model = NsCsg(name="parking", agents=agents, env_step=env_step, env_dim=5)

    def cells_of(state):
        e = state.env
        return (int(round(e[0])), int(round(e[1]))), (int(round(e[2])), int(round(e[3])))

    def make_state_reward(agent):
        def state_reward(state):
            c1, c2 = cells_of(state)
            own = c1 if agent == 0 else c2
            if c1 == c2:
                return params.collision_reward
            if own in slots:
                return 0.0
            if (
                params.reward_structure == 2
                and agent == 1
                and own == tuple(params.bonus_cell)
                and int(round(state.env[4])) <= params.bonus_deadline
            ):
                return params.bonus_value
            return params.step_reward
        return state_reward

    rewards = tuple(
        RewardStructure(action_reward=lambda s, a: 0.0, state_reward=make_state_reward(i))
        for i in range(2)
    )

    start_per = as_vector([params.starts[0][0], params.starts[0][1],
                           params.starts[1][0], params.starts[1][1]])
    initial = GlobalState(
        tuple(AgentState(dummy[0], start_per) for _ in range(2)),
        as_vector([params.starts[0][0], params.starts[0][1],
                   params.starts[1][0], params.starts[1][1], 0.0]),
    )
    return BuiltModel(model=model, initial=initial, rewards=rewards,
                      horizon=params.horizon,
                      extras={"reward_structure": params.reward_structure})
