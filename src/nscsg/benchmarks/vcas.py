"""Two-aircraft vertical collision avoidance with advisory networks and
pilot trust.

Each aircraft carries a trust level in 1..4 (local state) and the latest
advisory in 1..9 (percept).  Every second the advisory networks map the
relative geometry to a new advisory, the pilots pick an acceleration from
the advisory's two recommended magnitudes or zero, and trust rises on
compliance and falls otherwise, with residual inertia ``eps``.  The
environment holds the relative altitude, both climb rates and the time to
loss of horizontal separation, which also fixes the game horizon.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from ..errors import ModelError
from ..model import (
    Action,
    AgentSpec,
    AgentState,
    FeedForwardNet,
    GlobalState,
    NsCsg,
    RewardStructure,
    as_vector,
    load_net_json,
    nn_forward,
    random_net,
)
from . import BuiltModel

#: Advisory labels in issue order: clear of conflict, do-not-climb,
#: do-not-descend, then the four strengthening climb/descend levels.
ADVISORY_NAMES = ("COC", "DNC", "DND", "DES1500", "CL1500",
                  "SDES1500", "SCL1500", "SDES2500", "SCL2500")

#: The two recommended (non-zero) accelerations of each advisory, ft/s^2.
_ADVISORY_ACCELS = {
    1: (-3.0, 3.0),
    2: (-9.33, -7.33),
    3: (7.33, 9.33),
    4: (-9.33, -7.33),
    5: (7.33, 9.33),
    6: (-11.7, -9.7),
    7: (9.7, 11.7),
    8: (-11.7, -9.7),
    9: (9.7, 11.7),
}

_ALL_ACCELS = (-11.7, -9.7, -9.33, -7.33, -3.0, 0.0, 3.0, 7.33, 9.33, 9.7, 11.7)

_ENV_BOX = ((-3000.0, 3000.0), (-2500.0, 2500.0), (-2500.0, 2500.0), (0.0, 40.0))

_NET_SHAPE = (4, 45, 45, 45, 45, 45, 45, 45, 9)

#: The intruder's network input (-h, hdot_int, hdot_own, t) as a selection
#: and sign of the environment (h, hdot_own, hdot_int, t).
_INTRUDER_VIEW = [0, 2, 1, 3]
_INTRUDER_SIGN = np.array([-1.0, 1.0, 1.0, 1.0])

#: Relative gap between the two best advisory scores below which a batched
#: observation is recomputed from the single state.
_NEAR_TIE = 1e-6


def _label(a: float) -> str:
    return f"{a:g}"


def advisory_actions(advisory: int) -> tuple[float, float, float]:
    """The advisory's two recommended accelerations plus the zero option."""
    if advisory not in _ADVISORY_ACCELS:
        raise ModelError(f"advisory label {advisory} outside 1..9")
    lo, hi = _ADVISORY_ACCELS[advisory]
    return (lo, hi, 0.0)


def trust_update(trust: int, compliant: bool, eps: float) -> tuple[tuple[int, float], ...]:
    """Distribution over the next trust level.

    Compliance pushes trust up (capped at 4), non-compliance down (floored
    at 1); with probability ``eps`` the level is kept instead.
    """
    if not 0.0 <= eps <= 1.0:
        raise ModelError("eps must lie in [0, 1]")
    if trust not in (1, 2, 3, 4):
        raise ModelError(f"trust level {trust} outside 1..4")
    if compliant:
        if trust == 4:
            return ((4, 1.0),)
        moved, stay = trust + 1, trust
    else:
        if trust == 1:
            return ((1, 1.0),)
        moved, stay = trust - 1, trust
    if eps == 0.0:
        return ((moved, 1.0),)
    if eps == 1.0:
        return ((stay, 1.0),)
    return ((moved, 1.0 - eps), (stay, eps))


def trust_update_batch(trust: np.ndarray, compliant: np.ndarray, eps: float):
    """:func:`trust_update` of every (trust, compliant) pair of the two
    length-R arrays: the (R, K) next levels and their probabilities, in the
    same order, with K = 1 when ``eps`` is 0 or 1 and K = 2 otherwise.  A
    pair with a single outcome pads the second with probability 0."""
    if not 0.0 <= eps <= 1.0:
        raise ModelError("eps must lie in [0, 1]")
    trust = np.asarray(trust, dtype=int)
    bad = (trust < 1) | (trust > 4)
    if bad.any():
        raise ModelError(f"trust level {int(trust[bad][0])} outside 1..4")
    moved = np.where(compliant, np.minimum(trust + 1, 4), np.maximum(trust - 1, 1))
    if eps in (0.0, 1.0):
        return (moved if eps == 0.0 else trust)[:, None], np.ones((len(trust), 1))
    branches = moved != trust
    probs = np.stack([np.where(branches, 1.0 - eps, 1.0), np.where(branches, eps, 0.0)], axis=1)
    return np.stack([moved, trust], axis=1), probs


def vcas_dynamics(env: np.ndarray, acc_own, acc_int) -> np.ndarray:
    """Closed-form second-order update of (h, hdot_own, hdot_int, t) over
    one second; ``env`` may also be an (R, 4) array with length-R
    accelerations."""
    h, vo, vi, t = np.moveaxis(np.asarray(env, dtype=float), -1, 0)
    return np.stack([
        h - (vo - vi) - 0.5 * (acc_own - acc_int),
        vo + acc_own,
        vi + acc_int,
        t - 1.0,
    ], axis=-1)


def stub_networks(seed: int = 0) -> tuple[FeedForwardNet, ...]:
    """Nine seeded random advisory networks with the production shape."""
    return tuple(random_net(_NET_SHAPE, seed=seed + k) for k in range(1, 10))


def load_networks(directory) -> tuple[FeedForwardNet, ...]:
    """Load ``vcas_1.json`` .. ``vcas_9.json`` from a directory."""
    root = FsPath(directory)
    nets = []
    for k in range(1, 10):
        path = root / f"vcas_{k}.json"
        if not path.exists():
            raise ModelError(f"missing advisory network file {path}")
        net = load_net_json(path)
        if net.input_dim != 4 or net.output_dim != 9:
            raise ModelError(f"{path}: advisory networks map R^4 to R^9")
        nets.append(net)
    return tuple(nets)


@dataclass(frozen=True)
class VcasParams:
    h0: float = 50.0
    hdot_own0: float = -5.0
    hdot_int0: float = 5.0
    t0: int = 3
    trust0: tuple = (4, 4)
    advisory0: tuple = (1, 1)
    eps_own: float = 0.0
    eps_int: float = 0.0
    reward: str = "instant-altitude"  # or "trust-fuel"
    instant_k: int | None = None  # stage paid by instant-altitude; None = final stage
    zero_sum: bool = False  # negate the intruder's reward (instant-altitude only)
    safety_limit: float = 200.0
    nets: str = "stub"  # "stub" or a directory of vcas_<k>.json files
    stub_seed: int = 0

    def __post_init__(self):
        if self.t0 < 0 or self.t0 != int(self.t0):
            raise ModelError("t0 must be a nonnegative integer")
        for eps in (self.eps_own, self.eps_int):
            if not 0.0 <= eps <= 1.0:
                raise ModelError("trust inertia eps must lie in [0, 1]")
        env = (self.h0, self.hdot_own0, self.hdot_int0, float(self.t0))
        for v, (lo, hi) in zip(env, _ENV_BOX):
            if not lo <= v <= hi:
                raise ModelError(f"environment value {v} outside [{lo}, {hi}]")
        if self.reward not in ("instant-altitude", "trust-fuel"):
            raise ModelError(f"unknown reward structure {self.reward!r}")
        for name, unset in (("zero_sum", False), ("instant_k", None)):
            if self.reward != "instant-altitude" and getattr(self, name) != unset:
                raise ModelError(f"{name} applies to the instant-altitude reward only, not {self.reward!r}")
        for tr in self.trust0:
            if tr not in (1, 2, 3, 4):
                raise ModelError("initial trust levels must lie in 1..4")
        for ad in self.advisory0:
            if not 1 <= ad <= 9:
                raise ModelError("initial advisories must lie in 1..9")


def _make_agent(name: str, idx: int, nets, eps: float) -> AgentSpec:
    percepts = tuple(as_vector([ad]) for ad in range(1, 10))
    local_states = tuple(as_vector([tr]) for tr in range(1, 5))
    actions = tuple(Action(_label(a), as_vector([a])) for a in _ALL_ACCELS)

    def availability(loc, per):
        return tuple(_label(a) for a in advisory_actions(int(round(per[0]))))

    def net_input(env, _idx=idx):
        # the ownship reads (h, hdot_own, hdot_int, t), the intruder its mirror image
        return env if _idx == 0 else env[..., _INTRUDER_VIEW] * _INTRUDER_SIGN

    def advisory_index(state, _idx=idx) -> int:
        ad = int(round(state.agent_states[_idx].per[0]))
        scores = nn_forward(nets[ad - 1], net_input(state.env))
        return int(np.argmax(scores))  # ties resolve to the lowest index

    def observation(state):
        return percepts[advisory_index(state)]

    def batch_observation(locs, pers, envs, _idx=idx):
        # one network call for all states that store the same advisory
        ads = np.rint(pers[_idx][:, 0]).astype(int)
        inputs = net_input(envs)
        out = np.empty(len(ads), dtype=int)
        for ad in sorted(set(ads.tolist())):  # np.unique would import numpy.ma on first use
            rows = np.flatnonzero(ads == ad)
            scores = nn_forward(nets[ad - 1], inputs[rows])
            out[rows] = np.argmax(scores, axis=1)
            # gemm and gemv may round differently: decide near-ties by advisory_index's gemv
            top2 = np.partition(scores, -2, axis=1)[:, -2:]
            near = top2[:, 1] - top2[:, 0] <= _NEAR_TIE * (1.0 + np.abs(top2[:, 1]))
            for r in rows[near].tolist():
                out[r] = int(np.argmax(nn_forward(nets[ad - 1], inputs[r])))
        return out

    def local_transition(loc, per, joint, _idx=idx):
        executed = float(joint[_idx])
        compliant = executed != 0.0
        return tuple(
            (local_states[tr - 1], p)
            for tr, p in trust_update(int(round(loc[0])), compliant, eps)
        )

    def batch_local_transition(locs, pers, joints, _idx=idx):
        compliant = np.array([float(joint[_idx]) != 0.0 for joint in joints], dtype=bool)
        levels, probs = trust_update_batch(np.rint(locs[:, 0]), compliant, eps)
        return levels[..., None].astype(float), probs

    return AgentSpec(
        name=name,
        local_states=local_states,
        percepts=percepts,
        actions=actions,
        availability=availability,
        observation=observation,
        local_transition=local_transition,
        batch_observation=batch_observation,
        batch_local_transition=batch_local_transition,
    )


def vcas_rewards(structure: str, *, t0: int = 0, instant_k: int | None = None,
                 zero_sum: bool = False, safety_limit: float = 200.0,
                 h_max: float = 0.0, hdd_max: float = 0.0) -> tuple[RewardStructure, RewardStructure]:
    """Reward structures for the collision-avoidance game.

    "instant-altitude" pays the relative altitude once, at the stage where
    the remaining time equals ``t0 - instant_k`` (the final stage by
    default), negated for the intruder in zero-sum mode.  "trust-fuel" needs
    the maximal absolute altitude and acceleration over the generated game
    (a two-pass computation): inside the safety band the state pays
    ``|h|/h_max + trust/4``, outside it every non-zero acceleration costs
    ``|acc|/hdd_max``.
    """
    if structure == "instant-altitude":
        k = t0 if instant_k is None else instant_k
        t_at_k = float(t0 - k)

        def make(agent):
            sign = -1.0 if (zero_sum and agent == 1) else 1.0

            def state_reward(state, _s=sign, _t=t_at_k):
                return _s * state.env[0] if abs(state.env[3] - _t) < 1e-9 else 0.0

            def batch_state_reward(locs, pers, envs, _s=sign, _t=t_at_k):
                return np.where(np.abs(envs[:, 3] - _t) < 1e-9, _s * envs[:, 0], 0.0)

            return RewardStructure(lambda s, a: 0.0, state_reward, batch_state_reward, _no_action_reward)

        return (make(0), make(1))

    if structure != "trust-fuel":
        raise ModelError(f"unknown reward structure {structure!r}")
    if h_max <= 0.0:
        raise ModelError("trust-fuel rewards need the maximal |h| over the game tree")

    def make(agent):
        def state_reward(state):
            if abs(state.env[0]) <= safety_limit:
                trust = float(state.agent_states[agent].loc[0])
                return abs(state.env[0]) / h_max + trust / 4.0
            return 0.0

        def batch_state_reward(locs, pers, envs):
            h = np.abs(envs[:, 0])
            return np.where(h <= safety_limit, h / h_max + locs[agent][:, 0] / 4.0, 0.0)

        def action_reward(state, joint):
            if abs(state.env[0]) <= safety_limit:
                return 0.0
            acc = abs(float(joint[agent]))
            if acc == 0.0:
                return 0.0
            if hdd_max <= 0.0:
                raise ModelError("trust-fuel rewards need the maximal |acc| over the game tree")
            return -acc / hdd_max

        def batch_action_reward(locs, pers, envs, joints):
            acc = np.abs(np.array([float(joint[agent]) for joint in joints]))
            paid = ~(np.abs(envs[:, 0]) <= safety_limit) & (acc != 0.0)
            if not paid.any():
                return np.zeros(len(joints))
            if hdd_max <= 0.0:
                raise ModelError("trust-fuel rewards need the maximal |acc| over the game tree")
            return np.where(paid, -acc / hdd_max, 0.0)

        return RewardStructure(action_reward, state_reward, batch_state_reward, batch_action_reward)

    return (make(0), make(1))


def _no_action_reward(locs, pers, envs, joints) -> np.ndarray:
    return np.zeros(len(joints))


def tree_extents(structure) -> tuple[float, float]:
    """Maximal absolute altitude over the nodes' environments and absolute
    acceleration over the structure's distinct menus."""
    envs = structure.state_rows(slice(None))[2]
    h_max = float(np.abs(envs[:, 0]).max(initial=0.0))
    hdd_max = 0.0
    for menus, _ in structure.menu_table:
        for menu in menus:
            for lab in menu:
                try:
                    hdd_max = max(hdd_max, abs(float(lab)))
                except ValueError:
                    pass
    return h_max, hdd_max


def build_vcas(params: VcasParams = VcasParams()) -> BuiltModel:
    if params.nets == "stub":
        nets = stub_networks(params.stub_seed)
    elif isinstance(params.nets, (tuple, list)):
        nets = tuple(params.nets)
        if len(nets) != 9:
            raise ModelError("exactly nine advisory networks are required")
        for k, net in enumerate(nets, start=1):
            if net.input_dim != 4 or net.output_dim != 9:
                raise ModelError(f"advisory network {k} must map R^4 to R^9")
    else:
        nets = load_networks(params.nets)

    agents = (
        _make_agent("ownship", 0, nets, params.eps_own),
        _make_agent("intruder", 1, nets, params.eps_int),
    )

    def env_step(env, actions):
        acc_own = float(actions[0].value[0]) if actions[0].value is not None else 0.0
        acc_int = float(actions[1].value[0]) if actions[1].value is not None else 0.0
        return vcas_dynamics(env, acc_own, acc_int)

    accel = {_label(a): a for a in _ALL_ACCELS}  # the menus never fall back to idle

    def batch_env_step(envs, joints):
        kinds = {}  # each distinct joint's row in ``table``
        at = np.array([kinds.setdefault(joint, len(kinds)) for joint in joints], dtype=np.intp)
        table = np.array([(accel[own], accel[intruder]) for own, intruder in kinds]).reshape(-1, 2)
        acc = table[at]
        return vcas_dynamics(envs, acc[:, 0], acc[:, 1])

    model = NsCsg(name="vcas", agents=agents, env_step=env_step, env_dim=4,
                  batch_env_step=batch_env_step)

    initial = GlobalState(
        tuple(
            AgentState(as_vector([params.trust0[i]]), as_vector([params.advisory0[i]]))
            for i in range(2)
        ),
        as_vector([params.h0, params.hdot_own0, params.hdot_int0, float(params.t0)]),
    )

    extras = {"t0": params.t0, "nets": params.nets, "reward": params.reward}
    if params.reward == "instant-altitude":
        rewards = vcas_rewards("instant-altitude", t0=params.t0, instant_k=params.instant_k,
                               zero_sum=params.zero_sum)
    else:
        from ..unfold import unfold_regions

        probe = unfold_regions(model, initial, params.t0)
        h_max, hdd_max = tree_extents(probe)
        rewards = vcas_rewards("trust-fuel", safety_limit=params.safety_limit,
                               h_max=h_max, hdd_max=hdd_max)
        extras.update({"h_max": h_max, "hdd_max": hdd_max})

    return BuiltModel(model=model, initial=initial, rewards=rewards,
                      horizon=params.t0, extras=extras)
