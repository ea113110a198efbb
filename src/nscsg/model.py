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


#: Distinct rows of a matrix input that run through the layers together:
#: enough for one matmul per layer to pay off, few enough that a block's
#: activations stay in cache between layers (Goto & van de Geijn, TOMS 2008).
_BLOCK_ROWS = 2048


def nn_forward(net: FeedForwardNet, x) -> np.ndarray:
    """Evaluate ``net`` on input ``x``, or on every row of a (k, d) matrix ``x``.

    Hidden activations are rectified (max with 0), the output layer is
    linear.  A matrix input forwards each distinct row (by exact bytes) once,
    in blocks of ``_BLOCK_ROWS`` rows with one ``X @ W.T + b`` per layer, and
    returns the (k, output) scores of every row.  Raises :class:`ModelError`
    naming the offending layer on a dimension mismatch.
    """
    v = np.asarray(x, dtype=float)
    batch = v.ndim == 2
    if not batch:
        v = v.ravel()
    width = v.shape[-1]
    for k, (w, _) in enumerate(net.layers):
        if width != w.shape[1]:
            raise ModelError(f"layer {k}: expected input dim {w.shape[1]}, got {width}")
        width = w.shape[0]
    last = len(net.layers) - 1
    if not batch:
        for k, (w, b) in enumerate(net.layers):
            v = w @ v + b
            if k < last:
                v = np.maximum(v, 0.0)
        return v
    first, inverse = _distinct(_void_rows(v))
    distinct = v[first]
    out = np.empty((len(first), width))
    for lo in range(0, len(first), _BLOCK_ROWS):
        h = distinct[lo:lo + _BLOCK_ROWS]
        for k, (w, b) in enumerate(net.layers):
            h = h @ w.T
            h += b
            if k < last:
                np.maximum(h, 0.0, out=h)
        out[lo:lo + _BLOCK_ROWS] = h
    return out[inverse]


def load_net_json(source) -> FeedForwardNet:
    """Load a network from ``{"layers": [{"weights": [[...]], "bias": [...]}, ...]}``.

    ``source`` may be a path, an open file or an already parsed dict.
    Matrices are row-major; the rectifier is implied on all but the last
    layer.  A file that cannot be read or parsed, or that lacks a field or
    holds one of the wrong type, raises :class:`ModelError` naming it.
    """
    where = "network" if isinstance(source, dict) else f"network file {source}"
    try:
        if isinstance(source, dict):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
        layers = tuple(
            (np.asarray(layer["weights"], dtype=float), np.asarray(layer["bias"], dtype=float))
            for layer in doc["layers"]
        )
    except (OSError, ValueError) as exc:  # e.g. a missing file, malformed JSON or ragged rows
        raise ModelError(f"cannot read {where}: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed {where}: {exc}") from None
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


def _round_component(v: float, digits: int = KEY_DIGITS) -> float:
    r = round(float(v), digits)
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


def key_rows(blocks) -> list[bytes]:
    """Merge keys of the k states given as their stacked components, from
    one rounding pass: the (k, d_f) ``blocks`` are every agent's local
    states, then every agent's percepts, then the environments.  A key holds
    the values rounded to ``KEY_DIGITS`` decimals as :func:`canonical_key`
    rounds them (-0.0 normalised), as bytes; so for states of the same
    component sizes, which the region unfolding enforces, two keys are equal
    iff the states agree in every component after that rounding, and both
    give the same merge classes."""
    return row_bytes(round_as_python(np.hstack(blocks), KEY_DIGITS))


def round_as_python(values: np.ndarray, digits: int) -> np.ndarray:
    """Each entry of ``values`` rounded to ``digits`` decimals as ``round()``
    rounds it, -0.0 normalised to 0.0, from one ``np.round`` pass.

    np.round rounds x * 10**digits half to even, round() the exact decimal
    value of x; they agree unless the scaled value is within its own
    rounding error of a half step (every value once the margin passes 0.5,
    where doubles have no fraction left to round), and only those entries
    go through round()."""
    rounded = values.round(digits) + 0.0
    scaled = np.abs(values) * 10.0 ** digits
    near_half = np.abs(np.modf(scaled)[0] - 0.5) <= 1e-6 + 1e-15 * scaled
    for idx in zip(*near_half.nonzero()):
        rounded[idx] = _round_component(values[idx], digits)
    return rounded


def row_bytes(rows: np.ndarray) -> list[bytes]:
    """The exact bytes of each row of the 2-d float array ``rows``."""
    return _void_rows(rows).tolist()


def _void_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of the 2-d float array ``rows`` as one opaque scalar each."""
    rows = np.ascontiguousarray(rows, dtype=float)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


@dataclass(frozen=True)
class AgentSpec:
    """One agent: finite state machinery plus perception and local dynamics.

    ``availability(loc, per)`` returns a tuple of action labels (possibly
    empty; the idle action is substituted by the game semantics).
    ``observation(state)`` maps the full global state to this agent's next
    percept.  ``local_transition(loc, per, joint)`` returns a tuple of
    ``(next_loc, probability)`` pairs; ``joint`` is the tuple of all agents'
    action labels.  The optional ``batch_observation(locs, pers, envs)``
    returns the index into ``percepts`` of the ``observation`` of each of R
    global states, given as every agent's (R, d_loc) local states and
    (R, d_per) percepts and the (R, env_dim) environments;
    :func:`observe_rows` and :func:`refresh_batch` use it to observe many
    states at once.  The optional ``batch_local_transition(locs, pers, joints)`` is
    ``local_transition`` of the rows of the (R, d_loc) and (R, d_per) arrays
    under the R joints: it returns the (R, K, d_loc) outcome local states and
    their (R, K) probabilities, a row with fewer than K outcomes padded with
    probability 0; :func:`step_batch` uses it to step many rows at once.
    """

    name: str
    local_states: tuple[np.ndarray, ...]
    percepts: tuple[np.ndarray, ...]
    actions: tuple[Action, ...]
    availability: Callable[[np.ndarray, np.ndarray], tuple[str, ...]]
    observation: Callable[[GlobalState], np.ndarray]
    local_transition: Callable[[np.ndarray, np.ndarray, tuple[str, ...]], tuple]
    batch_observation: Callable[[Sequence[np.ndarray], Sequence[np.ndarray], np.ndarray],
                                Sequence[int]] | None = None
    batch_local_transition: Callable[[np.ndarray, np.ndarray, Sequence[tuple[str, ...]]],
                                     tuple[np.ndarray, np.ndarray]] | None = None

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
        object.__setattr__(self, "_order", {lab: k for k, lab in enumerate(labels)})
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
    """Reward structure of one agent: action rewards plus state rewards.

    The optional ``batch_state_reward(locs, pers, envs)`` is ``state_reward``
    of R states given as :func:`observe_rows` takes them (every agent's
    (R, d_loc) local states and (R, d_per) percepts, and the (R, env_dim)
    environments); it returns the R rewards.  The optional
    ``batch_action_reward(locs, pers, envs, joints)`` is ``action_reward``
    of the R states under the R joints.  :meth:`nscsg.unfold.Structure.rewards`
    uses them to read a whole stage group at once; each must give the bits
    of its callback.  The hooks come together or not at all.
    """

    action_reward: Callable[[GlobalState, tuple[str, ...]], float]
    state_reward: Callable[[GlobalState], float]
    batch_state_reward: Callable[[Sequence[np.ndarray], Sequence[np.ndarray], np.ndarray],
                                 np.ndarray] | None = None
    batch_action_reward: Callable[[Sequence[np.ndarray], Sequence[np.ndarray], np.ndarray,
                                   Sequence[tuple[str, ...]]], np.ndarray] | None = None

    def __post_init__(self):
        if (self.batch_state_reward is None) != (self.batch_action_reward is None):
            raise ModelError("a reward structure needs both batch hooks or neither")


@dataclass(frozen=True)
class NsCsg:
    """A neuro-symbolic concurrent stochastic game.

    ``env_step(env, actions)`` is the deterministic environment transition;
    ``actions`` is the tuple of executed :class:`Action` objects (the idle
    action carries value ``None``).

    The optional ``batch_env_step(envs, joints)`` is ``env_step`` of every
    row of the (R, env_dim) array ``envs`` under the R joints, given as label
    tuples; it returns the (R, env_dim) next environments.
    """

    name: str
    agents: tuple[AgentSpec, ...]
    env_step: Callable[[np.ndarray, tuple[Action, ...]], np.ndarray]
    env_dim: int
    batch_env_step: Callable[[np.ndarray, Sequence[tuple[str, ...]]], np.ndarray] | None = None

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


def stack_states(states: Sequence[GlobalState]) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """The k >= 1 states as arrays: every agent's (k, d_loc) local states,
    every agent's (k, d_per) percepts and the (k, env_dim) environments."""
    n = len(states[0].agent_states)
    return ([_rows([s.agent_states[i].loc for s in states]) for i in range(n)],
            [_rows([s.agent_states[i].per for s in states]) for i in range(n)],
            _rows([s.env for s in states]))


def _rows(vectors) -> np.ndarray:
    """The vectors as the rows of one float array; they must share a size."""
    try:
        out = np.array(vectors, dtype=float)
    except ValueError:
        out = None
    if out is None or out.ndim != 2:
        raise ModelError("batched states need every agent's local states and percepts, and the "
                         "environments, to keep one size each")
    return out


def _percept_indices(spec: AgentSpec, locs, pers, envs) -> np.ndarray:
    """The index into ``spec.percepts`` of each row's observation, from the
    agent's ``batch_observation`` hook."""
    n_rows = len(envs)
    idx = np.asarray(spec.batch_observation(locs, pers, envs))
    if idx.shape != (n_rows,) or idx.dtype.kind not in "iu":
        raise ModelError(f"agent {spec.name}: batched observation must give one percept index per "
                         f"state, got shape {idx.shape} of {idx.dtype} for {n_rows} states")
    if idx.min() < 0 or idx.max() >= len(spec.percepts):
        raise ModelError(f"agent {spec.name}: batched observation index outside the percept set "
                         f"0..{len(spec.percepts) - 1}")
    return idx


def refresh_batch(model: NsCsg, states: Sequence[GlobalState]) -> list[GlobalState]:
    """:func:`refresh_percepts` of every state in ``states``.  The states are
    stacked once for the agents with a ``batch_observation`` hook, one call
    each; the other agents are observed state by state."""
    states = list(states)
    for s in states:
        model.check_state(s)
    if not states:
        return []
    arrays = None
    columns = []
    for spec in model.agents:
        if spec.batch_observation is None:
            columns.append([_observe(spec, s) for s in states])
            continue
        if arrays is None:
            arrays = stack_states(states)
        percepts = [as_vector(p) for p in spec.percepts]
        columns.append([percepts[k] for k in _percept_indices(spec, *arrays).tolist()])
    return [s.with_percepts(pers) for s, pers in zip(states, zip(*columns))]


def observe_rows(model: NsCsg, locs: list[np.ndarray], pers: list[np.ndarray],
                 envs: np.ndarray) -> list[np.ndarray]:
    """Every agent's refreshed percept of the k >= 1 states given as arrays,
    as one (k, d_per) array per agent: state r has agent i at local state
    ``locs[i][r]`` and percept ``pers[i][r]`` and environment ``envs[r]``.
    An agent's ``batch_observation`` hook reads the arrays; only for an
    agent without one are the states built, on read-only rows, and
    observed state by state."""
    states = None
    out = []
    for spec in model.agents:
        if spec.batch_observation is not None:
            out.append(_rows(spec.percepts)[_percept_indices(spec, locs, pers, envs)])
            continue
        if states is None:
            states = row_states(locs, pers, envs)
        out.append(_rows([_observe(spec, s) for s in states]))
    return out


def row_states(locs: list[np.ndarray], pers: list[np.ndarray], envs: np.ndarray) -> list[GlobalState]:
    """The states given as :func:`observe_rows` takes them, on read-only views of their rows."""
    views = [a.view() for a in locs + pers + [envs]]
    for view in views:
        view.flags.writeable = False
    n = len(locs)
    return [GlobalState(tuple(map(AgentState, row[:n], row[n:-1])), row[-1]) for row in zip(*views)]


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
    return tuple(sorted(avail, key=spec._order.__getitem__))


def action_menus(model: NsCsg, refreshed: GlobalState) -> tuple[tuple[str, ...], ...]:
    """Every agent's available labels at ``refreshed``, a state whose
    percepts are already refreshed."""
    return tuple(available_labels(model, refreshed, i) for i in range(model.n_agents))


def joint_actions(model: NsCsg, state: GlobalState) -> list[tuple[str, ...]]:
    """All joint actions at ``state`` in a deterministic order.

    Percepts are refreshed first; the product is ordered by each agent's
    action declaration order.
    """
    return list(itertools.product(*action_menus(model, refresh_batch(model, [state])[0])))


def successors(model: NsCsg, state: GlobalState, joint: tuple[str, ...]):
    """Distribution over successor states of ``state`` under ``joint``.

    Returns a tuple of (state, probability) pairs with duplicates merged and
    mass summing to one.  The executed joint action must be available after
    the percept refresh.
    """
    refreshed = refresh_percepts(model, state)
    menus = action_menus(model, refreshed)
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
    dists = []
    for i, spec in enumerate(model.agents):
        st = refreshed.agent_states[i]
        dist = tuple(spec.local_transition(st.loc, st.per, joint))
        total = sum(p for _, p in dist)
        if abs(total - 1.0) > PROB_TOL or any(p <= 0 for _, p in dist):
            raise ModelError(f"agent {spec.name}: local transition is not a distribution (mass {total})")
        dists.append([(as_vector(loc), float(p)) for loc, p in dist])
    pers = [a.per for a in refreshed.agent_states]
    out = []
    for combo, prob in _combine(dists):
        out.append((GlobalState(tuple([AgentState(e[0], per) for e, per in zip(combo, pers)]), env2), prob))
    return tuple(out)


def _combine(dists) -> list[tuple[tuple, float]]:
    """The outcomes of one joint action, given each agent's local-state
    distribution ``dists[i]`` as (loc, probability, ...) entries.

    The product over agents, in agent order; outcomes equal after rounding
    are merged into the first.  Returns (entry of each agent, probability)
    pairs and raises :class:`ModelError` unless the mass is one.
    """
    # the outcomes of one joint share env and percepts, so they differ only in
    # the local states of agents with more than one outcome: those key the merge
    keyed = [[(e, vector_key(e[0])) for e in dist] if len(dist) > 1 else [(e, None) for e in dist]
             for dist in dists]
    merged: dict = {}
    for combo in itertools.product(*keyed):
        prob = 1.0
        for e, _ in combo:
            prob *= e[1]
        key = tuple([k for _, k in combo])
        if key in merged:
            entries, p0 = merged[key]
            merged[key] = (entries, p0 + prob)
        else:
            merged[key] = (tuple([e for e, _ in combo]), prob)
    out = list(merged.values())
    total = sum(p for _, p in out)
    if abs(total - 1.0) > 1e-9:
        raise ModelError(f"successor mass {total} != 1")
    return out


def step_batch(model: NsCsg, locs: Sequence[np.ndarray], pers: Sequence[np.ndarray],
               envs: np.ndarray, joints: Sequence[tuple[str, ...]]):
    """:func:`step` of R rows at once.

    Row r is the refreshed state whose agent i has local state ``locs[i][r]``
    and percept ``pers[i][r]`` and whose environment is ``envs[r]``, under
    the available joint ``joints[r]``.  The environment and each agent move
    through the model's batch hooks where it has them, else row by row.
    Rows with the same outcome distribution of every agent are combined
    once.  Returns ``(rows, succ_locs, succ_envs, probs)``: successor m
    comes from row ``rows[m]``, its agent i has local state
    ``succ_locs[i][m]`` and the percept of its row, its environment is
    ``succ_envs[m]`` and its probability ``probs[m]``.  The successors of a
    row are consecutive and in the order of :func:`step`.
    """
    n_rows = len(joints)
    env2 = _env_batch(model, envs, joints)
    outcomes = [_local_batch(spec, locs[i], pers[i], joints) for i, spec in enumerate(model.agents)]
    # rows with bytewise equal outcome locations and probabilities combine alike
    pattern = np.hstack([a.reshape(n_rows, -1) for outcome in outcomes for a in outcome])
    first, inverse = _distinct(_void_rows(pattern))
    combos = []
    for r in first.tolist():
        dists = [[(out[r, k], float(probs[r, k]), k) for k in np.flatnonzero(probs[r]).tolist()]
                 for out, probs in outcomes]
        combos.append([(tuple(e[2] for e in entries), prob) for entries, prob in _combine(dists)])
    width = max(map(len, combos), default=0)
    index = np.zeros((len(combos), width, model.n_agents), dtype=np.intp)
    prob = np.zeros((len(combos), width))
    for u, combo in enumerate(combos):
        index[u, :len(combo)] = [ks for ks, _ in combo]
        prob[u, :len(combo)] = [p for _, p in combo]
    count = np.array([len(c) for c in combos], dtype=np.intp)[inverse]
    rows = np.repeat(np.arange(n_rows), count)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    kind = inverse[rows]
    succ_locs = [out[rows, index[kind, rank, i]] for i, (out, _) in enumerate(outcomes)]
    return rows, succ_locs, env2[rows], prob[kind, rank]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct entry of the 1-d ``values``, and the
    position of each entry's value in that list; ``np.unique`` without its
    import of ``numpy.ma`` on first use (30 ms, most of a small set-up)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _env_batch(model: NsCsg, envs: np.ndarray, joints) -> np.ndarray:
    """The (R, env_dim) next environments of the rows of ``envs``."""
    if model.batch_env_step is None:
        out = [as_vector(model.env_step(env, tuple(spec.action(lab) for spec, lab in zip(model.agents, joint))))
               for env, joint in zip(envs, joints)]
        if any(v.shape != (model.env_dim,) for v in out):
            raise ModelError("environment transition changed dimension")
        return np.array(out).reshape(len(joints), model.env_dim)
    out = np.asarray(model.batch_env_step(envs, joints), dtype=float)
    if out.shape != (len(joints), model.env_dim):
        raise ModelError(f"environment transition changed dimension: batched output of shape "
                         f"{out.shape} for {len(joints)} rows")
    return out


def _local_batch(spec: AgentSpec, locs: np.ndarray, pers: np.ndarray, joints):
    """Agent ``spec``'s (R, K, d_loc) outcome local states of the rows and
    their (R, K) probabilities, 0 where a row has fewer than K outcomes."""
    n_rows, dim = locs.shape
    if spec.batch_local_transition is None:
        dists = [tuple(spec.local_transition(loc, per, joint)) for loc, per, joint in zip(locs, pers, joints)]
        width = max(map(len, dists), default=0)
        out = np.zeros((n_rows, width, dim))
        probs = np.zeros((n_rows, width))
        live = np.zeros((n_rows, width), dtype=bool)
        for r, dist in enumerate(dists):
            for k, (loc, p) in enumerate(dist):
                loc = as_vector(loc)
                if loc.shape != (dim,):
                    raise ModelError(f"agent {spec.name}: local transition changed the local state "
                                     f"dimension from {dim} to {loc.shape[0]}")
                out[r, k], probs[r, k], live[r, k] = loc, p, True
    else:
        out, probs = spec.batch_local_transition(locs, pers, joints)
        out, probs = np.asarray(out, dtype=float), np.asarray(probs, dtype=float)
        if out.ndim != 3 or out.shape[0] != n_rows or out.shape[2] != dim or probs.shape != out.shape[:2]:
            raise ModelError(f"agent {spec.name}: batched local transition must give ({n_rows}, K, {dim}) "
                             f"local states and ({n_rows}, K) probabilities, got {out.shape} and "
                             f"{probs.shape}")
        live = probs != 0
    total = np.zeros(n_rows)
    for k in range(probs.shape[1]):  # the order in which step sums a distribution
        total += probs[:, k]
    bad = (np.abs(total - 1.0) > PROB_TOL) | (live & (probs <= 0)).any(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise ModelError(f"agent {spec.name}: local transition is not a distribution (mass {total[r]})")
    return out, probs


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
    file's horizon is its ``"horizon"`` entry (default 1).  A file that cannot
    be read or parsed, that is not a JSON object, that lacks a field or holds
    one of the wrong JSON type, or that sets ``"availability_on_old_percept"``
    (menus always read refreshed percepts) raises :class:`ModelError`.
    """
    where = "model" if isinstance(source, dict) else f"model file {source}"
    try:
        if isinstance(source, dict):
            doc = source
        else:
            with open(source) as fh:
                doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ModelError(f"{where} holds {type(doc).__name__}, not a JSON object")
        if doc.get("availability_on_old_percept"):
            raise ModelError(f"{where} sets availability_on_old_percept, which is not supported: "
                             "action menus read the refreshed percepts")
        return _tabular_bundle(doc)
    except (OSError, ValueError) as exc:  # e.g. a missing file or malformed JSON
        raise ModelError(f"cannot read {where}: {exc}") from None
    except KeyError as exc:
        raise ModelError(f"{where} lacks field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:  # e.g. a number where a list or object belongs
        raise ModelError(f"{where} holds a field of the wrong type: {exc}") from None


def _tabular_bundle(doc: dict):
    from . import benchmarks

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

    model = NsCsg(name=doc.get("name", "tabular"), agents=agents, env_step=env_step, env_dim=env_dim)

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
