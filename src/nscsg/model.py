"""Core data model for neuro-symbolic concurrent stochastic games.

A game couples n agents with a shared deterministic environment.  Each agent
carries a finite set of local states and percepts, a finite labelled action
set, an availability map, an observation function (typically a feed-forward
network classifier) and a probabilistic local transition.  One step of the
game refreshes every percept through the observation functions, forms a joint
action from the refreshed availability sets, then moves local states and the
environment.

All model objects are immutable after construction and every operation here
is pure, so they can be shared freely between threads.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError

#: Label substituted when an agent has no available action in a state.
IDLE = "idle"

#: Absolute tolerance for probability mass checks.
PROB_TOL = 1e-12

#: Default number of decimal digits kept when building canonical state keys.
KEY_DIGITS = 9


def as_vector(x) -> np.ndarray:
    """Coerce scalars / sequences to an immutable 1-d float array."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        v = v.ravel()
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# feed-forward networks


@dataclass(frozen=True)
class FeedForwardNet:
    """Dense network with rectified hidden layers and a linear output layer.

    ``layers`` is an ordered tuple of (weight matrix, bias vector); weights
    are applied as ``W @ x + b``.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.layers:
            raise ModelError("network needs at least one layer")
        for k, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ModelError(f"layer {k}: weight shape {w.shape} incompatible with bias shape {b.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelError(f"layer {k}: non-finite parameters")
            if k > 0 and w.shape[1] != self.layers[k - 1][0].shape[0]:
                raise ModelError(
                    f"layer {k}: expected input dim {self.layers[k - 1][0].shape[0]}, got {w.shape[1]}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]


def nn_forward(net: FeedForwardNet, x) -> np.ndarray:
    """Evaluate ``net`` on input ``x``, or on every row of a (k, d) matrix ``x``.

    Hidden activations are rectified (max with 0), the output layer is
    linear.  A matrix input runs one ``X @ W.T + b`` per layer and returns
    the (k, output) scores.  Raises :class:`ModelError` naming the offending
    layer on a dimension mismatch.
    """
    v = np.asarray(x, dtype=float)
    batch = v.ndim == 2
    if not batch:
        v = v.ravel()
    last = len(net.layers) - 1
    for k, (w, b) in enumerate(net.layers):
        if v.shape[-1] != w.shape[1]:
            raise ModelError(f"layer {k}: expected input dim {w.shape[1]}, got {v.shape[-1]}")
        v = v @ w.T + b if batch else w @ v + b
        if k < last:
            v = np.maximum(v, 0.0)
    return v


def load_net_json(source) -> FeedForwardNet:
    """Load a network from ``{"layers": [{"weights": [[...]], "bias": [...]}, ...]}``.

    ``source`` may be a path, an open file or an already parsed dict.
    Matrices are row-major; the rectifier is implied on all but the last
    layer.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    try:
        layers = tuple(
            (np.asarray(layer["weights"], dtype=float), np.asarray(layer["bias"], dtype=float))
            for layer in doc["layers"]
        )
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed network file: {exc}") from exc
    return FeedForwardNet(layers)


def save_net_json(net: FeedForwardNet, path) -> None:
    doc = {"layers": [{"weights": w.tolist(), "bias": b.tolist()} for w, b in net.layers]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def random_net(shape: Sequence[int], seed: int) -> FeedForwardNet:
    """Seeded random network with the given layer widths, e.g. (4, 45, ..., 9)."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(shape[:-1], shape[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        layers.append((rng.normal(0.0, scale, size=(fan_out, fan_in)), rng.normal(0.0, 0.1, size=fan_out)))
    return FeedForwardNet(tuple(layers))


# ---------------------------------------------------------------------------
# states, actions, agents


@dataclass(frozen=True)
class Action:
    """Labelled action; ``value`` is the numeric payload used by dynamics."""

    label: str
    value: np.ndarray | None = None


#: The idle action shared by all agents.
IDLE_ACTION = Action(IDLE, None)


@dataclass(frozen=True)
class AgentState:
    loc: np.ndarray
    per: np.ndarray


@dataclass(frozen=True)
class GlobalState:
    """Per-agent (local state, percept) pairs plus the environment vector."""

    agent_states: tuple[AgentState, ...]
    env: np.ndarray

    def with_percepts(self, percepts: Sequence[np.ndarray]) -> "GlobalState":
        return GlobalState(
            tuple(AgentState(a.loc, p) for a, p in zip(self.agent_states, percepts)), self.env
        )


def _round_component(v: float) -> float:
    r = round(float(v), KEY_DIGITS)
    return 0.0 if r == 0.0 else r  # normalise -0.0


def vector_key(v: np.ndarray) -> tuple[float, ...]:
    return tuple(_round_component(x) for x in np.asarray(v, dtype=float).ravel())


def canonical_key(state: GlobalState):
    """Opaque hashable key; equal iff all components agree after rounding.

    Stable across runs: built purely from rounded component values.
    """
    return (
        tuple((vector_key(a.loc), vector_key(a.per)) for a in state.agent_states),
        vector_key(state.env),
    )


def canonical_keys(states: Sequence[GlobalState]) -> list[bytes]:
    """Merge keys of many states from one rounding pass over their stacked
    (loc, per, ..., env) vectors.

    Two keys are equal iff the states have the same component sizes and
    agree in every component after rounding to ``KEY_DIGITS`` decimals as
    :func:`canonical_key` rounds, so both give the same merge classes; keys
    compare only with keys from this function.
    """
    if not states:
        return []
    fields = [[a.loc for a in s.agent_states] + [a.per for a in s.agent_states] + [s.env]
              for s in states]
    try:
        blocks = [np.stack(col) for col in zip(*fields)]
    except ValueError:  # component sizes differ between states: one row each
        return [_key_rows([np.atleast_2d(np.ravel(v)) for v in f])[0] for f in fields]
    return _key_rows(blocks)


def _key_rows(blocks) -> list[bytes]:
    """One key per row of the (k, d_f) ``blocks``: their widths, then the
    rounded values (-0.0 normalised), as bytes."""
    k = blocks[0].shape[0]
    values = np.hstack(blocks)
    rounded = np.round(values, KEY_DIGITS) + 0.0
    # np.round rounds x * 10**KEY_DIGITS half to even, round() the exact
    # decimal value of x; they agree unless the scaled value is within its
    # own rounding error of a half step (every value once the margin passes
    # 0.5, where doubles have no fraction left to round)
    scaled = np.abs(values) * 10.0 ** KEY_DIGITS
    with np.errstate(invalid="ignore"):  # inf - inf
        near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-6 + 1e-15 * scaled
    for i, j in zip(*np.nonzero(near_half)):
        rounded[i, j] = _round_component(values[i, j])
    widths = np.broadcast_to(np.array([b.shape[1] for b in blocks], dtype=float), (k, len(blocks)))
    rows = np.hstack([widths, rounded])
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


@dataclass(frozen=True)
class AgentSpec:
    """One agent: finite state machinery plus perception and local dynamics.

    ``availability(loc, per)`` returns a tuple of action labels (possibly
    empty; the idle action is substituted by the game semantics).
    ``observation(state)`` maps the full global state to this agent's next
    percept.  ``local_transition(loc, per, joint)`` returns a tuple of
    ``(next_loc, probability)`` pairs; ``joint`` is the tuple of all agents'
    action labels.  The optional ``batch_observation(states)`` returns, for
    a sequence of global states, the index into ``percepts`` of each state's
    ``observation``; :func:`refresh_batch` uses it to observe many states at
    once.
    """

    name: str
    local_states: tuple[np.ndarray, ...]
    percepts: tuple[np.ndarray, ...]
    actions: tuple[Action, ...]
    availability: Callable[[np.ndarray, np.ndarray], tuple[str, ...]]
    observation: Callable[[GlobalState], np.ndarray]
    local_transition: Callable[[np.ndarray, np.ndarray, tuple[str, ...]], tuple]
    batch_observation: Callable[[Sequence[GlobalState]], Sequence[int]] | None = None

    def __post_init__(self):
        labels = tuple(a.label for a in self.actions)
        if len(set(labels)) != len(labels):
            raise ModelError(f"agent {self.name}: duplicate action labels")
        if IDLE in labels:
            raise ModelError(f"agent {self.name}: action label {IDLE!r} is reserved")
        if not self.local_states or not self.percepts:
            raise ModelError(f"agent {self.name}: local states and percepts must be nonempty")
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_by_label", {a.label: a for a in self.actions})
        object.__setattr__(
            self, "_percept_keys", frozenset(vector_key(p) for p in self.percepts)
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def action(self, label: str) -> Action:
        if label == IDLE:
            return IDLE_ACTION
        try:
            return self._by_label[label]
        except KeyError:
            raise ModelError(f"agent {self.name}: unknown action {label!r}") from None

    def percept_keys(self) -> frozenset:
        return self._percept_keys


@dataclass(frozen=True)
class RewardStructure:
    """Reward structure of one agent: action rewards plus state rewards."""

    action_reward: Callable[[GlobalState, tuple[str, ...]], float]
    state_reward: Callable[[GlobalState], float]


@dataclass(frozen=True)
class NsCsg:
    """A neuro-symbolic concurrent stochastic game.

    ``env_step(env, actions)`` is the deterministic environment transition;
    ``actions`` is the tuple of executed :class:`Action` objects (the idle
    action carries value ``None``).

    When ``availability_on_old_percept`` is set, availability is evaluated on
    the percept stored in the state instead of the refreshed one; the default
    refreshes percepts first, so the action menu can depend on the newest
    observation.
    """

    name: str
    agents: tuple[AgentSpec, ...]
    env_step: Callable[[np.ndarray, tuple[Action, ...]], np.ndarray]
    env_dim: int
    availability_on_old_percept: bool = False

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def check_state(self, state: GlobalState) -> None:
        if len(state.agent_states) != self.n_agents:
            raise ModelError(f"state has {len(state.agent_states)} agent components, expected {self.n_agents}")
        if state.env.shape[0] != self.env_dim:
            raise ModelError(f"environment dimension {state.env.shape[0]}, expected {self.env_dim}")


# ---------------------------------------------------------------------------
# one-step semantics


def _observe(spec: AgentSpec, state: GlobalState) -> np.ndarray:
    per = as_vector(spec.observation(state))
    if vector_key(per) not in spec.percept_keys():
        raise ModelError(f"agent {spec.name}: observation output {per.tolist()} is not a percept")
    return per


def observe_all(model: NsCsg, state: GlobalState) -> tuple[np.ndarray, ...]:
    """Refreshed percepts of all agents, validated against their percept sets."""
    model.check_state(state)
    return tuple(_observe(spec, state) for spec in model.agents)


def refresh_percepts(model: NsCsg, state: GlobalState) -> GlobalState:
    return state.with_percepts(observe_all(model, state))


def _observe_batch(spec: AgentSpec, states: list[GlobalState]) -> list[np.ndarray]:
    if spec.batch_observation is None:
        return [_observe(spec, s) for s in states]
    idx = np.asarray(spec.batch_observation(states))
    if idx.shape != (len(states),) or idx.dtype.kind not in "iu":
        raise ModelError(f"agent {spec.name}: batched observation must give one percept index per "
                         f"state, got shape {idx.shape} of {idx.dtype} for {len(states)} states")
    if idx.min() < 0 or idx.max() >= len(spec.percepts):
        raise ModelError(f"agent {spec.name}: batched observation index outside the percept set "
                         f"0..{len(spec.percepts) - 1}")
    percepts = [as_vector(p) for p in spec.percepts]
    return [percepts[k] for k in idx.tolist()]


def refresh_batch(model: NsCsg, states: Sequence[GlobalState]) -> list[GlobalState]:
    """:func:`refresh_percepts` of every state in ``states``, with one
    ``batch_observation`` call per agent that has one; the other agents are
    observed state by state."""
    states = list(states)
    if not states:
        return []
    for s in states:
        model.check_state(s)
    columns = [_observe_batch(spec, states) for spec in model.agents]
    return [s.with_percepts(pers) for s, pers in zip(states, zip(*columns))]


def available_labels(model: NsCsg, state: GlobalState, agent: int) -> tuple[str, ...]:
    """Action labels agent ``agent`` may take at ``state`` (percepts already refreshed).

    Falls back to the idle action when the availability map is empty.
    """
    spec = model.agents[agent]
    st = state.agent_states[agent]
    avail = tuple(spec.availability(st.loc, st.per))
    if not avail:
        return (IDLE,)
    bad = [lab for lab in avail if lab not in spec.labels]
    if bad:
        raise ModelError(f"agent {spec.name}: availability returned unknown labels {bad}")
    # preserve declaration order of the agent's action list
    order = {lab: k for k, lab in enumerate(spec.labels)}
    return tuple(sorted(avail, key=order.__getitem__))


def decision_states(model: NsCsg, states: Sequence[GlobalState],
                    refreshed: Sequence[GlobalState] | None = None) -> list[GlobalState]:
    """The states availability reads at ``states``: each state with refreshed
    percepts (``refreshed`` when the caller already has them, else refreshed
    in one batch), or the states themselves when the model evaluates
    availability on the stored percept."""
    if model.availability_on_old_percept:
        return list(states)
    return refresh_batch(model, states) if refreshed is None else list(refreshed)


def decision_state(model: NsCsg, state: GlobalState, refreshed: GlobalState | None = None) -> GlobalState:
    """:func:`decision_states` of the one state ``state``."""
    return decision_states(model, [state], None if refreshed is None else [refreshed])[0]


def action_menus(model: NsCsg, decision: GlobalState) -> tuple[tuple[str, ...], ...]:
    """Every agent's available labels at decision state ``decision``."""
    return tuple(available_labels(model, decision, i) for i in range(model.n_agents))


def joint_actions(model: NsCsg, state: GlobalState) -> list[tuple[str, ...]]:
    """All joint actions at ``state`` in a deterministic order.

    Percepts are refreshed first unless the model opts out; the product is
    ordered by each agent's action declaration order.
    """
    return list(itertools.product(*action_menus(model, decision_state(model, state))))


def successors(model: NsCsg, state: GlobalState, joint: tuple[str, ...]):
    """Distribution over successor states of ``state`` under ``joint``.

    Returns a tuple of (state, probability) pairs with duplicates merged and
    mass summing to one.  The executed joint action must be available after
    the percept refresh.
    """
    refreshed = refresh_percepts(model, state)
    menus = action_menus(model, decision_state(model, state, refreshed))
    for i in range(model.n_agents):
        if joint[i] not in menus[i]:
            raise ModelError(
                f"agent {model.agents[i].name}: action {joint[i]!r} unavailable, menu is {list(menus[i])}"
            )
    return step(model, refreshed, joint)


def step(model: NsCsg, refreshed: GlobalState, joint: tuple[str, ...]):
    """Successor distribution under ``joint`` of a state whose percepts are
    already refreshed, as :func:`successors` returns it; ``joint`` is taken
    to be available."""
    actions = tuple(model.agents[i].action(joint[i]) for i in range(model.n_agents))
    env2 = as_vector(model.env_step(refreshed.env, actions))
    if env2.shape[0] != model.env_dim:
        raise ModelError("environment transition changed dimension")

    # the outcomes of one joint share env and percepts, so they differ only in
    # the local states of agents with more than one outcome: those key the merge
    per_agent = []
    for i, spec in enumerate(model.agents):
        st = refreshed.agent_states[i]
        dist = tuple(spec.local_transition(st.loc, st.per, joint))
        total = sum(p for _, p in dist)
        if abs(total - 1.0) > PROB_TOL or any(p <= 0 for _, p in dist):
            raise ModelError(f"agent {spec.name}: local transition is not a distribution (mass {total})")
        branches = len(dist) > 1
        per_agent.append([(as_vector(loc), float(p), vector_key(loc) if branches else None)
                          for loc, p in dist])

    merged: dict = {}
    for combo in itertools.product(*per_agent):
        prob = 1.0
        agent_states = []
        for i, (loc, p, _) in enumerate(combo):
            prob *= p
            agent_states.append(AgentState(loc, refreshed.agent_states[i].per))
        key = tuple(k for _, _, k in combo)
        if key in merged:
            s0, p0 = merged[key]
            merged[key] = (s0, p0 + prob)
        else:
            merged[key] = (GlobalState(tuple(agent_states), env2), prob)
    out = tuple(merged.values())
    total = sum(p for _, p in out)
    if abs(total - 1.0) > 1e-9:
        raise ModelError(f"successor mass {total} != 1")
    return out


# ---------------------------------------------------------------------------
# tabular model files


def _tabular_agent(idx: int, doc: dict) -> AgentSpec:
    locs = tuple(as_vector(v) for v in doc["local_states"])
    pers = tuple(as_vector(v) for v in doc["percepts"])
    actions = tuple(Action(a["label"], as_vector(a["value"]) if a.get("value") is not None else None)
                    for a in doc["actions"])
    labels = tuple(a.label for a in actions)

    avail_table = {}
    for row in doc.get("availability", []):
        avail_table[(vector_key(as_vector(row["loc"])), vector_key(as_vector(row["per"])))] = tuple(row["actions"])

    def availability(loc, per, _table=avail_table, _labels=labels):
        if not _table:
            return _labels
        return _table.get((vector_key(loc), vector_key(per)), ())

    trans_table = {}
    for row in doc.get("transitions", []):
        key = (vector_key(as_vector(row["loc"])), vector_key(as_vector(row["per"])), tuple(row["joint"]))
        trans_table[key] = tuple((as_vector(e["loc"] if "loc" in e else e["local_state"]), float(e["prob"]))
                                 for e in row["dist"])

    def local_transition(loc, per, joint, _table=trans_table):
        if not _table:
            return ((loc, 1.0),)
        key = (vector_key(loc), vector_key(per), tuple(joint))
        if key not in _table:
            raise ModelError(f"tabular transition missing for {key}")
        return _table[key]

    obs_doc = doc.get("observation", {"type": "constant"})
    if obs_doc["type"] == "constant":
        def observation(state, _i=idx):
            return state.agent_states[_i].per
    elif obs_doc["type"] == "env-net":
        net = load_net_json(obs_doc["file"])

        def observation(state, _net=net, _pers=pers):
            scores = nn_forward(_net, state.env)
            return _pers[int(np.argmax(scores))]
    else:
        raise ModelError(f"unknown observation type {obs_doc['type']!r}")

    return AgentSpec(
        name=doc.get("name", f"agent{idx + 1}"),
        local_states=locs,
        percepts=pers,
        actions=actions,
        availability=availability,
        observation=observation,
        local_transition=local_transition,
    )


def load_model_json(source):
    """Load a tabular model file, or dispatch to a named built-in dynamics.

    Returns a :class:`nscsg.benchmarks.BuiltModel` either way; a tabular
    file's horizon is its ``"horizon"`` entry (default 1).
    """
    from . import benchmarks

    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)

    env_doc = doc.get("environment", {})
    if "builtin" in env_doc:
        return benchmarks.build(env_doc["builtin"], env_doc.get("params", {}))

    agents = tuple(_tabular_agent(i, a) for i, a in enumerate(doc["agents"]))
    table = {}
    for row in env_doc.get("table", []):
        table[(vector_key(as_vector(row["env"])), tuple(row["joint"]))] = as_vector(row["next"])
    env_dim = int(env_doc["dim"])

    def env_step(env, actions, _table=table):
        joint = tuple(a.label for a in actions)
        key = (vector_key(env), joint)
        if key not in _table:
            raise ModelError(f"tabular environment transition missing for {key}")
        return _table[key]

    model = NsCsg(
        name=doc.get("name", "tabular"),
        agents=agents,
        env_step=env_step,
        env_dim=env_dim,
        availability_on_old_percept=bool(doc.get("availability_on_old_percept", False)),
    )

    init_doc = doc["initial"]
    state = GlobalState(
        tuple(AgentState(as_vector(a["loc"]), as_vector(a["per"])) for a in init_doc["agents"]),
        as_vector(init_doc["env"]),
    )

    rewards = []
    for rdoc in doc.get("rewards", [{} for _ in agents]):
        state_rows = {vector_key(as_vector(r["env"])): float(r["value"]) for r in rdoc.get("state", [])}
        default = float(rdoc.get("default", 0.0))

        def state_reward(s, _rows=state_rows, _d=default):
            return _rows.get(vector_key(s.env), _d)

        rewards.append(RewardStructure(lambda s, a: 0.0, state_reward))
    return benchmarks.BuiltModel(model, state, tuple(rewards), int(doc.get("horizon", 1)))
