"""Finite unfolding of a game from an initial state over a fixed horizon.

Two structures are produced: a :class:`GameTree` whose nodes are histories,
and a :class:`RegionGraph` where all histories sharing the same (state,
stage) pair are merged.  Both are a :class:`Structure`: its nodes, its
transitions as flat arrays, and the stage groups and reward arrays built
from them on first use; so the solvers operate on either.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, ResourceLimitError
from .model import (
    AgentState,
    GlobalState,
    NsCsg,
    RewardStructure,
    action_menus,
    as_vector,
    key_rows,
    observe_rows,
    refresh_batch,
    row_bytes,
    stack_states,
    step,
    step_batch,
)

DEFAULT_NODE_CAP = 5_000_000

#: Frontier nodes perceived and keyed together: large enough for one matmul
#: per layer to pay off, small enough to bound the successors held at once.
_SLICE = 1024


@dataclass
class Node:
    """One history (tree) or one merged (state, stage) class (region graph).

    ``state`` stores percepts as delivered by the previous step; ``decision``
    is the state with refreshed percepts, which availability reads; until a
    tree node is expanded, and at tree leaves, it is the delivered state.
    ``joints`` lists the node's joint actions in the order of its rows in the
    structure's transition arrays; a leaf has none.
    """

    id: int
    stage: int
    state: GlobalState
    decision: GlobalState
    menus: tuple[tuple[str, ...], ...] = ()
    joints: tuple[tuple[str, ...], ...] = ()


class Structure:
    """Shared interface of game trees and region graphs.

    The transitions are stored once, as three flat arrays over the (node,
    joint) rows in id-then-joint order: row r's outcomes are the child ids
    ``child[offsets[r]:offsets[r + 1]]`` with probabilities ``prob[...]``
    of the same slice.  :meth:`children` reads one node's rows.

    Node ids are contiguous per stage because the unfolding is breadth
    first: stage ``s`` holds ids ``bounds[s]:bounds[s + 1]``, so the nonleaf
    ids are ``range(bounds[horizon])`` and the leaves come last.  The stage
    groups, which every bottom-up pass reads, are built on first use; their
    successor arrays are also the parent relation, read backwards
    (:func:`nscsg.speprog._closure`).  A reward structure's immediate
    rewards (action plus state reward per joint) and leaf values are read
    from its callbacks once, on first use, and kept while the structure
    lives: the callbacks must be pure.
    """

    mode = "tree"

    def __init__(self, model: NsCsg, horizon: int, nodes: list[Node], build_time: float,
                 offsets: np.ndarray, child: np.ndarray, prob: np.ndarray):
        self.model = model
        self.horizon = horizon
        self.nodes = nodes
        self.build_time = build_time
        self.offsets = offsets
        self.child = child
        self.prob = prob
        self._rewards = {}

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def is_leaf(self, node: Node) -> bool:
        return node.stage == self.horizon

    @cached_property
    def _first_row(self) -> np.ndarray:
        """The first transition row of each node, and the row count last."""
        counts = np.fromiter((len(n.joints) for n in self.nodes), dtype=np.intp, count=len(self.nodes))
        return np.concatenate(([0], np.cumsum(counts)))

    def children(self, node: Node) -> dict:
        """Each joint action of ``node`` mapped to its (probability, child
        id) pairs; empty for a leaf."""
        first = self._first_row[node.id]
        offsets = self.offsets[first:first + len(node.joints) + 1]
        lo, hi = offsets[0], offsets[-1]
        pairs = list(zip(self.prob[lo:hi].tolist(), self.child[lo:hi].tolist()))
        rows = itertools.pairwise((offsets - lo).tolist())
        return {joint: tuple(pairs[a:b]) for joint, (a, b) in zip(node.joints, rows)}

    def succ(self, node: Node) -> list[Node]:
        """Deduplicated one-stage successors; empty for a leaf."""
        cids = (cid for pairs in self.children(node).values() for _, cid in pairs)
        return [self.nodes[cid] for cid in dict.fromkeys(cids)]

    def stage_nodes(self, stage: int) -> list[Node]:
        if not 0 <= stage <= self.horizon:
            return []
        return self.nodes[self.bounds[stage]:self.bounds[stage + 1]]

    def nonleaf_ids(self) -> list[int]:
        return list(range(self.bounds[self.horizon]))

    def n_transitions(self) -> int:
        return len(self.child)

    def to_json(self, path=None):
        pairs = [list(p) for p in zip(self.prob.tolist(), self.child.tolist())]
        rows = itertools.pairwise(self.offsets.tolist())  # taken in id-then-joint order
        nodes = [{**node_json(n), "edges": [{"action": list(joint), "to": pairs[slice(*next(rows))]}
                                            for joint in n.joints]}
                 for n in self.nodes]
        return write_json({"mode": self.mode, "horizon": self.horizon, "nodes": nodes}, path)

    @cached_property
    def bounds(self) -> list[int]:
        """``bounds[s]:bounds[s + 1]`` are the ids of stage ``s``."""
        stages = np.fromiter((n.stage for n in self.nodes), dtype=np.intp, count=len(self.nodes))
        if np.any(stages[1:] < stages[:-1]):
            raise ModelError("node ids must be contiguous per stage")
        return np.searchsorted(stages, np.arange(self.horizon + 2)).tolist()

    @cached_property
    def groups(self) -> list[list[StageGroup]]:
        """Stage groups of each decision stage, ``groups[stage]``, padded
        from the transition arrays."""
        out, index = [], 0
        for stage in range(self.horizon):
            by_shape: dict = {}
            for nid in range(self.bounds[stage], self.bounds[stage + 1]):
                by_shape.setdefault(tuple(map(len, self.nodes[nid].menus)), []).append(nid)
            groups = []
            for shape, ids in by_shape.items():
                ids = np.array(ids, dtype=np.intp)
                rows = (self._first_row[ids, None] + np.arange(math.prod(shape))).ravel()
                lo = self.offsets[rows]
                count = self.offsets[rows + 1] - lo
                k = int(count.max(initial=0))
                live = np.arange(k) < count[:, None]
                at = np.where(live, lo[:, None] + np.arange(k), 0)
                full = (len(ids),) + shape + (k,)
                succ = np.where(live, self.child[at], 0).reshape(full)
                prob = np.where(live, self.prob[at], 0.0).reshape(full)
                count = count.reshape(full[:-1])
                groups.append(StageGroup(index, ids, succ, prob,
                                         tuple(True if j < count.min(initial=k) else count > j
                                               for j in range(k))))
                index += 1
            out.append(groups)
        return out

    @cached_property
    def _slots(self) -> tuple[list[StageGroup], np.ndarray, np.ndarray]:
        """Every stage group by index, and each nonleaf node's group index and row."""
        flat = [g for groups in self.groups for g in groups]
        where, row = np.zeros((2, self.bounds[self.horizon]), dtype=np.intp)
        for g in flat:
            where[g.ids], row[g.ids] = g.index, np.arange(len(g.ids))
        return flat, where, row

    def locate(self, node_id: int) -> tuple[StageGroup, int]:
        """The stage group of a nonleaf node and its row in it."""
        flat, where, row = self._slots
        if not 0 <= node_id < len(where):
            raise KeyError(node_id)
        return flat[where[node_id]], int(row[node_id])

    @cached_property
    def bottom_up(self) -> np.ndarray:
        """The nonleaf ids by decreasing stage, then by id."""
        stages = np.repeat(np.arange(self.horizon), np.diff(self.bounds[:self.horizon + 1]))
        return np.argsort(-stages, kind="stable")

    def rewards(self, reward: RewardStructure) -> tuple[np.ndarray, list]:
        """Leaf values of ``reward`` (in leaf id order) and its immediate
        rewards per stage group (indexed by ``StageGroup.index``).

        A state or action reward that is not finite raises
        :class:`ModelError` naming the first history, by id, that has one.
        """
        entry = self._rewards.get(id(reward))
        if entry is None:
            nodes = self.nodes
            first_leaf = self.bounds[self.horizon]
            leaves = np.array([reward.state_reward(nodes[nid].state)
                               for nid in range(first_leaf, len(nodes))], dtype=float)
            bad = (np.flatnonzero(~np.isfinite(leaves))[:1] + first_leaf).tolist()
            immediate = []
            for group in (g for groups in self.groups for g in groups):
                state = np.array([reward.state_reward(nodes[nid].state) for nid in group.ids],
                                 dtype=float)
                action = np.array([reward.action_reward(nodes[nid].state, joint)
                                   for nid in group.ids for joint in nodes[nid].joints], dtype=float)
                shape = group.prob.shape[:-1]
                finite = np.isfinite(state) & np.isfinite(action.reshape(len(state), -1)).all(axis=1)
                bad.extend(group.ids[~finite][:1].tolist())
                immediate.append(action.reshape(shape)
                                 + state.reshape((-1,) + (1,) * (len(shape) - 1)))
            if bad:
                raise ModelError(f"history {min(bad)} has a state or action reward that is not finite")
            # the reward is kept with its arrays so that its id is not reused
            entry = self._rewards[id(reward)] = (reward, leaves, immediate)
        return entry[1], entry[2]


def node_json(node: Node) -> dict:
    """The id, stage and state of ``node``: the head of its entry in every
    JSON document that lists nodes."""
    state = node.state
    return {"id": node.id, "stage": node.stage, "env": state.env.tolist(),
            "agents": [{"loc": a.loc.tolist(), "per": a.per.tolist()} for a in state.agent_states]}


def write_json(doc, path=None):
    """Write ``doc`` to ``path`` unless it is ``None``; return ``doc``."""
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return doc


class GameTree(Structure):
    mode = "tree"


class RegionGraph(Structure):
    mode = "region"


@dataclass(frozen=True, eq=False)
class StageGroup:
    """The nonleaf nodes of one stage that share a menu shape, in id order.

    ``succ[r, a, b, j]`` and ``prob[r, a, b, j]`` are the j-th outcome of
    joint action (a, b) at node ``ids[r]``.  A joint with fewer outcomes is
    padded with successor 0 and probability 0; ``live[j]`` is ``True`` when
    every joint has a j-th outcome and otherwise the mask of those that do.
    """

    index: int
    ids: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    live: tuple


def _unfold(model: NsCsg, state: GlobalState, horizon: int, max_nodes: int, merge: bool):
    """Breadth-first unfolding shared by trees and region graphs.

    Each state is perceived once: its refreshed percepts serve its decision
    state, menus, joint actions and every successor.  Each stage's frontier
    is taken in slices of ``_SLICE`` nodes, and the slice's unexpanded nodes
    are refreshed in one batch.  With ``merge`` off every joint is stepped
    on its own and each successor becomes a new node right after its step,
    perceived when expanded; leaves keep their delivered percepts.  With it
    on, a slice is stepped, perceived and keyed as one batch
    (:func:`_expand_slice`) and equal (key, stage) pairs share one node.
    Node ids follow the frontier, joint and successor order in both modes,
    and nodes with equal menus share their menu and joint tuples.  Menus
    read only each agent's (loc, per), so a region graph reads them once per
    shared decision tuple; a tree reads them per node.
    """
    if horizon < 0:
        raise ModelError("horizon must be nonnegative")
    t0 = time.perf_counter()
    decision = refresh_batch(model, [state])[0]
    shared = _SharedAgentStates() if merge else None
    if merge:
        shared.add(state.agent_states)
        decision = GlobalState(shared.add(decision.agent_states), decision.env)
    nodes = [Node(0, 0, state, decision)]
    menu_joints = {}
    # region mode: the menus of each shared decision tuple, keyed by its id
    # (the tuples live as long as ``shared``)
    tuple_menus = {}

    def menus_and_joints(refreshed):
        menus = action_menus(model, refreshed)
        if menus not in menu_joints:
            menu_joints[menus] = (menus, tuple(itertools.product(*menus)))
        return menu_joints[menus]

    frontier = nodes[:]
    # per slice: the outcome count of each (node, joint) row, the child ids, the probabilities
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    for stage in range(horizon):
        nxt = []
        ids_by_key = {}

        def cap_error(count):  # the first node over the cap would be node number ``count``
            what = "region graph" if merge else "tree"
            return ResourceLimitError(f"{what} exceeded {max_nodes} nodes at stage {stage + 1}",
                                      stats={"nodes": count, "stage": stage + 1})

        for lo in range(0, len(frontier), _SLICE):
            chunk = frontier[lo:lo + _SLICE]
            # a decision state that is not the delivered state was refreshed at creation
            fresh = iter(refresh_batch(model, [n.state for n in chunk if n.decision is n.state]))
            refreshed = [next(fresh) if n.decision is n.state else n.decision for n in chunk]
            counts, cids, probs = [], [], []
            for node, ref in zip(chunk, refreshed):
                node.decision = ref
                if merge:
                    key = id(ref.agent_states)
                    if key not in tuple_menus:
                        tuple_menus[key] = menus_and_joints(ref)
                    node.menus, node.joints = tuple_menus[key]
                    continue
                node.menus, node.joints = menus_and_joints(ref)
                for joint in node.joints:
                    outcomes = step(model, ref, joint)
                    for succ, prob in outcomes:
                        if len(nodes) >= max_nodes:
                            raise cap_error(len(nodes) + 1)
                        child = Node(len(nodes), stage + 1, succ, succ)
                        nodes.append(child)
                        nxt.append(child)
                        cids.append(child.id)
                        probs.append(prob)
                    counts.append(len(outcomes))
            if merge:
                created, counts, cids, probs = _expand_slice(model, chunk, refreshed, shared, ids_by_key,
                                                             len(nodes), stage + 1)
                if len(nodes) + len(created) > max_nodes:
                    raise cap_error(max(len(nodes), max_nodes) + 1)
                nodes.extend(created)
                nxt.extend(created)
            parts.append((np.asarray(counts, np.intp), np.asarray(cids, np.intp), np.asarray(probs, float)))
        frontier = nxt
    counts, child, prob = map(np.concatenate, zip(*parts))
    build_time = time.perf_counter() - t0
    cls = RegionGraph if merge else GameTree
    return cls(model, horizon, nodes, build_time, np.concatenate(([0], np.cumsum(counts))), child, prob)


def _expand_slice(model: NsCsg, chunk: list[Node], refreshed: list[GlobalState],
                  shared: "_SharedAgentStates", ids_by_key: dict, next_id: int, stage: int) -> tuple:
    """Step every joint of the slice ``chunk`` (with refreshed states
    ``refreshed``) in one :func:`step_batch`, perceive the delivered
    successors from their arrays with :func:`observe_rows`, key them with
    :func:`key_rows` and link them.  A node, with its decision state, is
    built only for a key not yet in ``ids_by_key``.  Returns these new nodes
    of ``stage``, whose ids count up from ``next_id``, and the slice's
    transitions: the outcome count of each (node, joint) row and every
    outcome's child id and probability, in row order."""
    counts = [len(node.joints) for node in chunk]
    joints = [joint for node in chunk for joint in node.joints]

    def rows(a):  # one row per joint of the slice
        return np.repeat(a, counts, axis=0)

    locs, pers, envs = stack_states(refreshed)
    locs, pers = [rows(a) for a in locs], [rows(a) for a in pers]
    src, succ_locs, envs, probs = step_batch(model, locs, pers, rows(envs), joints)
    held = [per[src] for per in pers]  # a successor carries the percepts of its parent's step
    envs.flags.writeable = False
    seen = observe_rows(model, succ_locs, held, envs)
    new, cids = [], []
    for m, key in enumerate(key_rows(succ_locs + seen + [envs])):
        cid = ids_by_key.get(key)
        if cid is None:
            cid = ids_by_key[key] = next_id + len(new)
            new.append(m)
        cids.append(cid)
    # the states that live on get their own compact environment array, and a
    # node's two states one view of their row
    at = np.array(new, dtype=np.intp)
    kept = envs[at]
    kept.flags.writeable = False
    kept_rows = list(kept)

    def kept_states(percepts):  # the new rows' states with the given percepts
        tuples = shared.tuples([loc[at] for loc in succ_locs], [per[at] for per in percepts])
        return [GlobalState(t, env) for t, env in zip(tuples, kept_rows)]

    created = [Node(next_id + k, stage, state, decision)
               for k, (state, decision) in enumerate(zip(kept_states(held), kept_states(seen)))]
    return created, np.bincount(src, minlength=len(joints)), cids, probs


class _SharedAgentStates:
    """The agent states of one unfolding, stored once each.

    There is one tuple of agent states per exact bytes of every agent's
    (loc, per), and one :class:`AgentState` per agent and exact (loc, per)
    bytes; exact bytes rather than merge keys, so no stored value moves.
    """

    def __init__(self):
        self._tuples: dict = {}  # component widths -> row bytes -> tuple
        self._agents: dict = {}  # (agent, loc bytes, per bytes) -> AgentState

    def tuples(self, locs: list[np.ndarray], pers: list[np.ndarray]) -> list[tuple]:
        """The shared tuple of each row m: agent i at ``locs[i][m]``, ``pers[i][m]``."""
        blocks = locs + pers
        table = self._tuples.setdefault(tuple(b.shape[1] for b in blocks), {})
        out = []
        for m, key in enumerate(row_bytes(np.hstack(blocks))):
            agents = table.get(key)
            if agents is None:
                agents = table[key] = tuple(self._agent(i, as_vector(loc[m].copy()), as_vector(per[m].copy()))
                                            for i, (loc, per) in enumerate(zip(locs, pers)))
            out.append(agents)
        return out

    def add(self, agent_states: tuple[AgentState, ...]) -> tuple[AgentState, ...]:
        """The shared tuple equal to ``agent_states``; ``agent_states`` itself
        becomes it when there is none yet and every component is a 1-d float
        vector, as the stepped ones are."""
        vectors = [v for a in agent_states for v in (a.loc, a.per)]
        if not all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == float for v in vectors):
            return agent_states
        blocks = [a.loc[None] for a in agent_states] + [a.per[None] for a in agent_states]
        table = self._tuples.setdefault(tuple(b.shape[1] for b in blocks), {})
        key = row_bytes(np.hstack(blocks))[0]
        if key not in table:
            table[key] = tuple(self._agent(i, a.loc, a.per, a) for i, a in enumerate(agent_states))
        return table[key]

    def _agent(self, i: int, loc: np.ndarray, per: np.ndarray, agent: AgentState | None = None) -> AgentState:
        key = (i, loc.tobytes(), per.tobytes())
        if key not in self._agents:
            self._agents[key] = AgentState(loc, per) if agent is None else agent
        return self._agents[key]


def unfold_tree(model: NsCsg, state: GlobalState, horizon: int, max_nodes: int = DEFAULT_NODE_CAP) -> GameTree:
    """Breadth-first unfolding into a history tree with deterministic node ids."""
    return _unfold(model, state, horizon, max_nodes, merge=False)


def unfold_regions(model: NsCsg, state: GlobalState, horizon: int, max_nodes: int = DEFAULT_NODE_CAP) -> RegionGraph:
    """Unfolding merged by (canonical state key, stage).

    States are keyed after refreshing percepts, because a stored percept is
    overwritten by the observation functions before anything can read it;
    two states with equal local states, refreshed percepts and environment
    have identical futures.  (This assumes reward functions do not read the
    stale stored percepts, which holds for observation-driven models.)
    """
    return _unfold(model, state, horizon, max_nodes, merge=True)


# ---------------------------------------------------------------------------
# paths and statistics


@dataclass(frozen=True)
class Path:
    """Alternating states and joint actions from some stage to the horizon."""

    start_stage: int
    states: tuple[GlobalState, ...]
    actions: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ModelError("path needs exactly one more state than actions")


def path_value(rewards: tuple[RewardStructure, ...], path: Path) -> np.ndarray:
    """Accumulated reward of each agent along ``path``.

    Sums action plus state rewards over all but the final state, then adds
    the final state reward.
    """
    out = np.zeros(len(rewards))
    for k, joint in enumerate(path.actions):
        s = path.states[k]
        for i, r in enumerate(rewards):
            out[i] += r.action_reward(s, joint) + r.state_reward(s)
    for i, r in enumerate(rewards):
        out[i] += r.state_reward(path.states[-1])
    return out


def stats(structure: Structure) -> dict:
    """Node/transition counts, per-stage sizes and construction wall time."""
    return {
        "mode": structure.mode,
        "nodes": len(structure.nodes),
        "transitions": structure.n_transitions(),
        "per_stage": np.diff(structure.bounds).tolist(),
        "build_time": structure.build_time,
    }
