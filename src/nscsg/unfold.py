"""Finite unfolding of a game from an initial state over a fixed horizon.

Two structures are produced: a :class:`GameTree` whose nodes are histories,
and a :class:`RegionGraph` where all histories sharing the same (state,
stage) pair are merged.  Both are a :class:`Structure`: its nodes, its
transitions as flat arrays, and the stage groups and reward arrays built
from them on first use; so the solvers operate on either.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import time
from collections.abc import Sequence
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
    key_rows,
    observe_rows,
    refresh_batch,
    row_bytes,
    row_states,
    stack_states,
    step,
    step_batch,
)

DEFAULT_NODE_CAP = 5_000_000

#: Frontier nodes perceived and keyed together: large enough for one matmul
#: per layer to pay off, small enough to bound the successors held at once.
_SLICE = 1024


@dataclass(frozen=True, eq=False)
class Node:
    """One history (tree) or one merged (state, stage) class (region graph).

    ``state`` stores percepts as delivered by the previous step; the state
    with refreshed percepts, which availability reads, is not kept:
    ``refresh_batch(model, [node.state])`` derives it.  ``joints`` lists the
    node's joint actions in the order of its rows in the structure's
    transition arrays; a leaf has none.
    """

    id: int
    stage: int
    state: GlobalState
    menus: tuple[tuple[str, ...], ...] = ()
    joints: tuple[tuple[str, ...], ...] = ()


class Structure:
    """Shared interface of game trees and region graphs.

    The transitions are stored once, as three flat arrays over the (node,
    joint) rows in id-then-joint order: row r's outcomes are the child ids
    ``child[offsets[r]:offsets[r + 1]]`` with probabilities ``prob[...]``
    of the same slice.  :meth:`children` reads one node's rows.  Each node's
    menus and joints are entry ``menu_ids[id]`` of ``menu_table``, the
    distinct (menus, joints) pairs of the unfolding; entry 0, ``((), ())``,
    is a leaf's.

    Node ids are contiguous per stage because the unfolding is breadth
    first: stage ``s`` holds ids ``bounds[s]:bounds[s + 1]``, so the nonleaf
    ids are ``range(bounds[horizon])`` and the leaves come last.  The stage
    groups, which every bottom-up pass reads, are built on first use; their
    successor arrays are also the parent relation, read backwards
    (:func:`nscsg.speprog._closure`).  A reward structure's immediate
    rewards (action plus state reward per joint) and leaf values are read
    once, on first use, from its batch hooks where it has them and else
    from its callbacks, and kept while the structure lives: both must be
    pure.
    """

    mode = "tree"

    def __init__(self, model: NsCsg, horizon: int, nodes: Sequence[Node], build_time: float,
                 bounds: list[int], menu_table: list[tuple], menu_ids: np.ndarray,
                 offsets: np.ndarray, child: np.ndarray, prob: np.ndarray):
        self.model = model
        self.horizon = horizon
        self.nodes = nodes
        self.build_time = build_time
        self.bounds = bounds
        self.menu_table = menu_table
        self.menu_ids = menu_ids
        self.offsets = offsets
        self.child = child
        self.prob = prob
        self._rewards = {}

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def is_leaf(self, node: Node) -> bool:
        return node.stage == self.horizon

    def states(self, ids) -> list[GlobalState]:
        """The delivered states of the nodes ``ids``, a slice or an id array."""
        ids = range(len(self.nodes))[ids] if isinstance(ids, slice) else ids.tolist()
        return [self.nodes[nid].state for nid in ids]

    def state_rows(self, ids) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """The delivered states of the nodes ``ids`` (a slice or an id array)
        as arrays, as :func:`stack_states` gives them; no ids give arrays of
        no rows, as wide as the root's."""
        states = self.states(ids)
        if not states:
            locs, pers, envs = stack_states([self.root.state])
            return [a[:0] for a in locs], [a[:0] for a in pers], envs[:0]
        return stack_states(states)

    @cached_property
    def _first_row(self) -> np.ndarray:
        """The first transition row of each node, and the row count last."""
        counts = np.array([len(joints) for _, joints in self.menu_table], dtype=np.intp)[self.menu_ids]
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
    def groups(self) -> list[list[StageGroup]]:
        """Stage groups of each decision stage, ``groups[stage]``, padded
        from the transition arrays."""
        shapes: dict = {}  # menu shape -> its number, in order of first use
        shape_of = np.array([shapes.setdefault(tuple(map(len, menus)), len(shapes))
                             for menus, _ in self.menu_table], dtype=np.intp)
        shapes = list(shapes)
        out, index = [], 0
        for stage in range(self.horizon):
            lo = self.bounds[stage]
            numbers = shape_of[self.menu_ids[lo:self.bounds[stage + 1]]]
            groups = []
            for number in dict.fromkeys(numbers.tolist()):  # in order of first node
                shape = shapes[number]
                ids = lo + np.flatnonzero(numbers == number)
                rows = (self._first_row[ids, None] + np.arange(math.prod(shape))).ravel()
                lo_row = self.offsets[rows]
                count = self.offsets[rows + 1] - lo_row
                k = int(count.max(initial=0))
                live = np.arange(k) < count[:, None]
                at = np.where(live, lo_row[:, None] + np.arange(k), 0)
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

    def group_rows(self, ids) -> list[tuple[StageGroup, np.ndarray]]:
        """Each stage group holding some of the nonleaf ``ids``, in order of
        first use, with the rows of those ids in it, in the order of ``ids``."""
        flat, where, row = self._slots
        ids = np.asarray(ids, dtype=np.intp)
        at = where[ids]
        return [(flat[g], row[ids[at == g]]) for g in dict.fromkeys(at.tolist())]

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
        A batch hook that does not give one value per row raises it too.
        """
        entry = self._rewards.get(id(reward))
        if entry is None:
            first_leaf = self.bounds[self.horizon]
            leaves = np.concatenate([self._reward_rows(reward, slice(lo, lo + _SLICE), False)[0]
                                     for lo in range(first_leaf, len(self.nodes), _SLICE)] or [np.zeros(0)])
            bad = (np.flatnonzero(~np.isfinite(leaves))[:1] + first_leaf).tolist()
            immediate = []
            for group in (g for groups in self.groups for g in groups):
                state, action = self._reward_rows(reward, group.ids, True)
                shape = group.prob.shape[:-1]
                finite = np.isfinite(state) & np.isfinite(action).all(axis=1)
                bad.extend(group.ids[~finite][:1].tolist())
                immediate.append(action.reshape(shape)
                                 + state.reshape((-1,) + (1,) * (len(shape) - 1)))
            if bad:
                raise ModelError(f"history {min(bad)} has a state or action reward that is not finite")
            # the reward is kept with its arrays so that its id is not reused
            entry = self._rewards[id(reward)] = (reward, leaves, immediate)
        return entry[1], entry[2]

    def _reward_rows(self, reward: RewardStructure, ids, actions: bool):
        """The state rewards of the nodes ``ids`` (a slice or an id array)
        and, with ``actions``, their action rewards as one row a node, in
        joint order (the nodes must share a joint count).  A reward's batch
        hooks read the nodes' states as arrays; without hooks its callbacks
        read them as states."""
        joints = [self.menu_table[k][1] for k in self.menu_ids[ids].tolist()] if actions else []
        flat = [joint for js in joints for joint in js]
        if reward.batch_state_reward is None:
            states = self.states(ids)
            state = np.array([reward.state_reward(s) for s in states], dtype=float)
            action = np.array([reward.action_reward(s, joint) for s, js in zip(states, joints) for joint in js],
                              dtype=float)
        else:
            locs, pers, envs = self.state_rows(ids)
            state = _hook_values(reward.batch_state_reward(locs, pers, envs), len(envs), "batch_state_reward")
            if not actions:
                return state, None

            def per_joint(a):  # each node's row once per joint
                return np.repeat(a, len(flat) // len(joints), axis=0)

            action = _hook_values(reward.batch_action_reward([per_joint(a) for a in locs], [per_joint(a) for a in pers],
                                                             per_joint(envs), flat), len(flat), "batch_action_reward")
        return state, action.reshape(len(joints), -1) if actions else None


def _hook_values(values, count: int, name: str) -> np.ndarray:
    """A reward hook's output as ``count`` floats, or a :class:`ModelError`."""
    out = np.asarray(values, dtype=float)
    if out.shape != (count,):
        raise ModelError(f"reward hook {name} must give one value per row, got shape {out.shape} "
                         f"for {count} rows")
    return out


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
    """A structure whose nodes are stored as arrays (:class:`NodeRows`)."""

    mode = "region"

    def states(self, ids) -> list[GlobalState]:
        return row_states(*self.state_rows(ids))

    def state_rows(self, ids) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        return self.nodes.rows(ids)


class NodeRows(Sequence):
    """A region graph's nodes, kept as read-only arrays of their delivered
    states: agent i of node ``id`` is at ``locs[i][id]`` with percept
    ``pers[i][id]``, its environment is ``envs[id]``.  Indexing builds a
    frozen :class:`Node` on views of its rows, its stage read from
    ``bounds`` and its menus and joints from ``menu_table``."""

    def __init__(self, bounds: list[int], locs: list[np.ndarray], pers: list[np.ndarray],
                 envs: np.ndarray, menu_table: list[tuple], menu_ids: np.ndarray):
        self.bounds, self.locs, self.pers, self.envs = bounds, locs, pers, envs
        self.menu_table, self.menu_ids = menu_table, menu_ids

    def __len__(self) -> int:
        return len(self.envs)

    def __getitem__(self, nid):
        if isinstance(nid, slice):
            return [self[k] for k in range(*nid.indices(len(self)))]
        nid = operator.index(nid)
        if nid < 0:
            nid += len(self)
        if not 0 <= nid < len(self):
            raise IndexError(f"node id {nid} outside 0..{len(self) - 1}")
        state = GlobalState(tuple(AgentState(loc[nid], per[nid]) for loc, per in zip(self.locs, self.pers)),
                            self.envs[nid])
        return Node(nid, bisect.bisect_right(self.bounds, nid) - 1, state,
                    *self.menu_table[self.menu_ids[nid]])

    def __iter__(self):
        return (self[nid] for nid in range(len(self)))

    def rows(self, ids) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """The rows ``ids`` (a slice or an id array) of every array."""
        return [a[ids] for a in self.locs], [a[ids] for a in self.pers], self.envs[ids]


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

    Each state is perceived once, the root up front: its refreshed percepts
    serve its menus, joint actions and every successor.  The frontier is
    taken in slices of at most ``_SLICE`` nodes.  With ``merge`` off a slice
    is refreshed in one batch, every joint is stepped on its own and each
    successor's state is kept right after its step; the nodes are built at
    the end.  With it on, the frontier is the blocks of refreshed states as
    arrays that the slices of the stage before made, and a slice, cut from
    one block, is stepped, perceived and keyed as one batch
    (:func:`_expand_slice`); equal (key, stage) pairs share one node, and
    the nodes' delivered states are kept as the rows those calls return,
    joined once at the end (:class:`NodeRows`).  Node ids follow the
    frontier, joint and successor order, not ``_SLICE``.  Each node keeps
    an index into a table of the distinct (menus, joints) pairs.  Menus read
    only each agent's (loc, per): a region graph reads them once per
    distinct refreshed (loc, per) row, a tree per node.
    """
    if horizon < 0:
        raise ModelError("horizon must be nonnegative")
    t0 = time.perf_counter()
    root = refresh_batch(model, [state])[0]
    bounds = [0]
    menu_table = [((), ())]  # the distinct (menus, joints) pairs; entry 0 is a leaf's
    menu_index = {}  # menus -> their entry in menu_table
    menu_ids = []  # the entry of each expanded node, in id order (tree) or per slice (region)

    def menus_of(refreshed) -> int:
        menus = action_menus(model, refreshed)
        if menus not in menu_index:
            menu_index[menus] = len(menu_table)
            menu_table.append((menus, tuple(itertools.product(*menus))))
        return menu_index[menus]

    row_menus = {}  # region mode: refreshed (loc, per) row bytes -> menu_table entry

    def read_row_menus(locs, pers, envs) -> np.ndarray:
        keys = row_bytes(np.hstack(locs + pers))
        new = {key: m for m, key in enumerate(keys) if key not in row_menus}  # a row of each new key
        at = list(new.values())
        for key, refreshed in zip(new, row_states([a[at] for a in locs], [a[at] for a in pers], envs[at])):
            row_menus[key] = menus_of(refreshed)
        return np.array([row_menus[key] for key in keys], dtype=np.intp)

    states = [state]  # tree mode: every node's delivered state
    delivered = [stack_states([state])] if merge else []  # region mode: per slice, its new nodes' rows
    widths = _widths(*delivered[0]) if merge else None  # region mode: the root's component sizes
    blocks = [stack_states([root])] if merge else []  # region mode: the frontier's refreshed rows
    n_nodes = 1
    # per slice: the outcome count of each (node, joint) row, the child ids, the probabilities
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    for stage in range(horizon):
        bounds.append(n_nodes)
        nxt = []  # region mode: the next frontier's blocks
        ids_by_key = {}

        def cap_error(count):  # the first node over the cap would be node number ``count``
            what = "region graph" if merge else "tree"
            return ResourceLimitError(f"{what} exceeded {max_nodes} nodes at stage {stage + 1}",
                                      stats={"nodes": count, "stage": stage + 1})

        if merge:
            for arrays in blocks:
                for lo in range(0, len(arrays[2]), _SLICE):
                    cut = slice(lo, lo + _SLICE)
                    locs, pers, envs = [a[cut] for a in arrays[0]], [a[cut] for a in arrays[1]], arrays[2][cut]
                    at = read_row_menus(locs, pers, envs)
                    menu_ids.append(at)
                    made, refreshed, counts, cids, probs = _expand_slice(
                        model, [menu_table[k][1] for k in at.tolist()], locs, pers, envs, ids_by_key, n_nodes)
                    # keys and menu rows hold values alone, so every row keeps the root's sizes
                    for what, rows in (("", made), ("refreshed ", refreshed)):
                        if _widths(*rows) != widths:
                            raise ModelError(f"a region graph needs every agent's local states and percepts, and "
                                             f"the environments, to keep one size each: the {what}states of stage "
                                             f"{stage + 1} have sizes {_widths(*rows)}, the root {widths}")
                    if n_nodes + len(made[2]) > max_nodes:
                        raise cap_error(max(n_nodes, max_nodes) + 1)
                    n_nodes += len(made[2])
                    delivered.append(made)
                    nxt.append(refreshed)
                    parts.append((counts, np.asarray(cids, np.intp), probs))
            blocks = nxt
            continue
        for lo in range(bounds[stage], bounds[stage + 1], _SLICE):
            counts, cids, probs = [], [], []
            refreshed = [root] if stage == 0 else refresh_batch(model, states[lo:min(lo + _SLICE, bounds[stage + 1])])
            for ref in refreshed:
                k = menus_of(ref)
                menu_ids.append(k)
                for joint in menu_table[k][1]:
                    outcomes = step(model, ref, joint)
                    for succ, prob in outcomes:
                        if len(states) >= max_nodes:
                            raise cap_error(len(states) + 1)
                        cids.append(len(states))
                        states.append(succ)
                        probs.append(prob)
                    counts.append(len(outcomes))
            parts.append((np.asarray(counts, np.intp), np.asarray(cids, np.intp), np.asarray(probs, float)))
        n_nodes = len(states)
    bounds.append(n_nodes)
    counts, child, prob = map(np.concatenate, zip(*parts))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    if merge:
        menu_ids = np.concatenate(menu_ids + [np.zeros(n_nodes - bounds[horizon], np.intp)])
        locs = [_joined([d[0][i] for d in delivered]) for i in range(model.n_agents)]
        pers = [_joined([d[1][i] for d in delivered]) for i in range(model.n_agents)]
        nodes = NodeRows(bounds, locs, pers, _joined([d[2] for d in delivered]), menu_table, menu_ids)
        return RegionGraph(model, horizon, nodes, time.perf_counter() - t0, bounds, menu_table, menu_ids,
                           offsets, child, prob)
    menu_ids += [0] * (n_nodes - bounds[horizon])
    nodes = [Node(nid, stage, states[nid], *menu_table[menu_ids[nid]])
             for stage in range(horizon + 1) for nid in range(bounds[stage], bounds[stage + 1])]
    return GameTree(model, horizon, nodes, time.perf_counter() - t0, bounds, menu_table,
                    np.array(menu_ids, dtype=np.intp), offsets, child, prob)


def _widths(locs: list[np.ndarray], pers: list[np.ndarray], envs: np.ndarray) -> tuple[int, ...]:
    """The sizes of every agent's local states and percepts, and of the
    environments, in states given as arrays."""
    return tuple(a.shape[1] for a in [*locs, *pers, envs])


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The row blocks ``pieces``, which share a width, as one read-only array."""
    out = np.concatenate(pieces)
    out.flags.writeable = False
    return out


def _expand_slice(model: NsCsg, node_joints: list[tuple], locs: list[np.ndarray], pers: list[np.ndarray],
                  envs: np.ndarray, ids_by_key: dict, next_id: int) -> tuple:
    """Step every joint of a slice of nodes, whose joints are
    ``node_joints`` and whose refreshed states are given as arrays as
    :func:`observe_rows` takes them, in one :func:`step_batch`, perceive the
    delivered successors from their arrays with :func:`observe_rows`, key
    them with :func:`key_rows` and link them.  A node is made only for a key
    not yet in ``ids_by_key``, its id counting up from ``next_id``.  Returns
    the new nodes' delivered states and their refreshed states, each as
    (locs, pers, envs) arrays, and the slice's transitions: the outcome
    count of each (node, joint) row and every outcome's child id and
    probability, in row order."""
    counts = [len(joints) for joints in node_joints]
    joints = [joint for js in node_joints for joint in js]

    def rows(a):  # one row per joint of the slice
        return np.repeat(a, counts, axis=0)

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
    at = np.array(new, dtype=np.intp)
    new_locs, kept = [loc[at] for loc in succ_locs], envs[at]
    return ((new_locs, [per[at] for per in held], kept), (new_locs, [per[at] for per in seen], kept),
            np.bincount(src, minlength=len(joints)), cids, probs)


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
