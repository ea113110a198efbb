import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import enumerate_paths, path_reward_by_hand, random_model
from test_fsi import parent_map, walked_closure

from nscsg.benchmarks import build
from nscsg.errors import ResourceLimitError
from nscsg.model import (
    Action,
    AgentSpec,
    AgentState,
    GlobalState,
    NsCsg,
    RewardStructure,
    action_menus,
    as_vector,
    canonical_key,
    refresh_batch,
    step,
)
from nscsg.speprog import _closure
from nscsg.unfold import Path, path_value, stats, unfold_regions, unfold_tree


@pytest.fixture(scope="module")
def counterexample():
    bm = build("counterexample", {"phi": -10})
    return bm, unfold_tree(bm.model, bm.initial, bm.horizon)


def full_branching_model(n_act=2, n_loc=2):
    """Every joint action fans out to all local-state pairs, so the tree
    attains the worst-case interior node count."""
    specs = []
    for i in range(2):
        locs = tuple(as_vector([float(k)]) for k in range(n_loc))
        labels = tuple(f"{'ab'[i]}{k}" for k in range(n_act))
        uniform = tuple((loc, 1.0 / n_loc) for loc in locs)
        specs.append(AgentSpec(
            name=f"agent{i+1}",
            local_states=locs,
            percepts=(as_vector([0.0]),),
            actions=tuple(Action(lab, as_vector([float(k)])) for k, lab in enumerate(labels)),
            availability=lambda loc, per, _l=labels: _l,
            observation=lambda state: as_vector([0.0]),
            local_transition=lambda loc, per, joint, _u=uniform: _u,
        ))
    model = NsCsg("full", tuple(specs), lambda env, actions: env, 1)
    initial = GlobalState(
        tuple(AgentState(s.local_states[0], s.percepts[0]) for s in specs), as_vector([0.0])
    )
    rewards = tuple(RewardStructure(lambda s, a: 0.0, lambda s: 0.0) for _ in range(2))
    return model, initial, rewards


class TestUnfoldTree:
    def test_counterexample_shape(self, counterexample):
        bm, tree = counterexample
        st = stats(tree)
        assert st["nodes"] == 12
        assert st["per_stage"] == [1, 4, 7]
        # node 4's subgame has four leaves, the three other branches absorb
        leaves = [n for n in tree.nodes if tree.is_leaf(n)]
        assert len(leaves) == 7

    def test_zero_horizon_single_leaf(self, counterexample):
        bm, _ = counterexample
        tree = unfold_tree(bm.model, bm.initial, 0)
        assert stats(tree) == {
            "mode": "tree", "nodes": 1, "transitions": 0, "per_stage": [1],
            "build_time": stats(tree)["build_time"],
        }

    def test_worst_case_interior_count(self):
        model, initial, _ = full_branching_model(n_act=2, n_loc=2)
        b = 2 * 2 * 2 * 2  # |A1||A2||S1||S2|
        for horizon in (1, 2):
            tree = unfold_tree(model, initial, horizon)
            interior = sum(1 for n in tree.nodes if not tree.is_leaf(n))
            assert interior == (b**horizon - 1) // (b - 1)

    def test_node_cap_raises_with_stats(self, monkeypatch):
        # the tree cap fires at the step that creates the first node over it,
        # before the rest of the slice is stepped: the random-game generator
        # of the benchmark rejects oversized draws through this early exit
        model, initial, _ = full_branching_model()
        calls = []

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr("nscsg.unfold.step", counted)
        with pytest.raises(ResourceLimitError) as err:
            unfold_tree(model, initial, 3, max_nodes=50)
        assert err.value.stats == {"nodes": 51, "stage": 2}
        assert len(calls) == 13

    def test_deterministic_ids(self, counterexample):
        bm, tree = counterexample
        again = unfold_tree(bm.model, bm.initial, bm.horizon)
        assert [canonical_key(n.state) for n in tree.nodes] == [
            canonical_key(n.state) for n in again.nodes
        ]


class TestClosure:
    # the parking K8 tree is over 200,000 nodes, so the tree is taken at K5
    @pytest.mark.parametrize("name, params, unfold", [
        ("parking", {"horizon": 8, "reward_structure": 2}, unfold_regions),
        ("parking", {"horizon": 5, "reward_structure": 2}, unfold_tree),
        ("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2}, unfold_regions),
        ("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2}, unfold_tree),
        ("counterexample", {"phi": -10}, unfold_regions),
        ("counterexample", {"phi": -10}, unfold_tree),
    ], ids=["parking-k8-region", "parking-k5-tree", "vcas-t3-eps0.2-region",
            "vcas-t3-eps0.2-tree", "counterexample-region", "counterexample-tree"])
    def test_rows_are_the_walked_closures(self, name, params, unfold):
        """One batched call, seeded with every nonleaf node, one leaf, and
        that leaf with the root, marks in each row the breadth-first walk
        through the parents read from ``children``; an empty batch stays
        empty."""
        bm = build(name, params)
        structure = unfold(bm.model, bm.initial, bm.horizon)
        n = len(structure.nodes)
        ids = structure.nonleaf_ids() + [n - 1]
        seeds = np.arange(n) == np.array(ids)[:, None]
        closures = _closure(structure, np.vstack([seeds, seeds[-1] | seeds[0]]))
        parents = parent_map(structure)
        assert [set(np.flatnonzero(row).tolist()) for row in closures] == \
            [walked_closure(parents, nid) for nid in ids + [n - 1]]
        assert _closure(structure, np.zeros((0, n), dtype=bool)).shape == (0, n)


class TestRegionGraph:
    def test_counterexample_graph_matches_tree(self, counterexample):
        # no two histories share a state here, so merging changes nothing
        bm, tree = counterexample
        rg = unfold_regions(bm.model, bm.initial, bm.horizon)
        assert len(rg.nodes) == len(tree.nodes)
        for t, r in zip(tree.nodes, rg.nodes):
            assert (t.id, t.stage, t.menus, t.joints, tree.children(t)) == (
                r.id, r.stage, r.menus, r.joints, rg.children(r))
            assert canonical_key(t.state) == canonical_key(r.state)

    def test_merging_on_random_model(self):
        bm = random_model(3)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        rg = unfold_regions(bm.model, bm.initial, bm.horizon)
        assert len(rg.nodes) <= len(tree.nodes)
        # every tree history maps to a region node carrying the same state
        keys = {(canonical_key(s), n.stage) for n, s in zip(rg.nodes, _refreshed(rg))}
        for n, s in zip(tree.nodes, _refreshed(tree)):
            assert (canonical_key(s), n.stage) in keys
        # at most one node per (state key, stage)
        seen = [(canonical_key(s), n.stage) for n, s in zip(rg.nodes, _refreshed(rg))]
        assert len(seen) == len(set(seen))

    def test_single_action_chain(self):
        bm = build("counterexample", {})
        node2 = None
        tree = unfold_tree(bm.model, bm.initial, 2)
        # nodes 2, 3, 5 continue through exactly one joint action
        for n in tree.nodes:
            if n.stage == 1 and int(n.state.env[0]) in (2, 3, 5):
                assert n.joints == (("idle", "idle"),)

    def test_node_cap_raises_with_stats(self):
        model, initial, _ = full_branching_model()
        # the four stage-1 states are distinct, so the fourth node breaks a cap of 3
        with pytest.raises(ResourceLimitError) as err:
            unfold_regions(model, initial, 3, max_nodes=3)
        assert err.value.stats == {"nodes": 4, "stage": 1}

    def test_parking_region_sizes(self):
        # shipped lane table: one off the published 258/1080 and 386/1689
        for horizon, expect in ((6, (257, 1015)), (8, (385, 1624))):
            bm = build("parking", {"horizon": horizon})
            rg = unfold_regions(bm.model, bm.initial, horizon)
            st = stats(rg)
            assert (st["nodes"], st["transitions"]) == expect


class TestSucc:
    def test_root_successors(self, counterexample):
        bm, tree = counterexample
        envs = sorted(int(n.state.env[0]) for n in tree.succ(tree.root))
        assert envs == [2, 3, 4, 5]

    def test_leaf_has_none(self, counterexample):
        bm, tree = counterexample
        leaf = next(n for n in tree.nodes if tree.is_leaf(n))
        assert tree.succ(leaf) == []

    def test_two_actions_same_successor_deduplicated(self):
        # both actions of agent 1 lead to the same successor state
        specs = []
        for i in range(2):
            labels = ("x", "y") if i == 0 else ("z",)
            specs.append(AgentSpec(
                name=f"agent{i+1}",
                local_states=(as_vector([0.0]),),
                percepts=(as_vector([0.0]),),
                actions=tuple(Action(lab, as_vector([0.0])) for lab in labels),
                availability=lambda loc, per, _l=labels: _l,
                observation=lambda state: as_vector([0.0]),
                local_transition=lambda loc, per, joint: ((loc, 1.0),),
            ))
        model = NsCsg("dedup", tuple(specs), lambda env, a: env, 1)
        initial = GlobalState(
            tuple(AgentState(s.local_states[0], s.percepts[0]) for s in specs), as_vector([0.0])
        )
        rg = unfold_regions(model, initial, 1)
        assert len(rg.succ(rg.root)) == 1


class TestPathValue:
    def test_zero_length_path(self, counterexample):
        bm, tree = counterexample
        path = Path(2, (tree.nodes[-1].state,), ())
        v = path_value(bm.rewards, path)
        assert v[0] == bm.rewards[0].state_reward(tree.nodes[-1].state)

    def test_counterexample_terminal_payoff(self, counterexample):
        bm, tree = counterexample
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        node9 = next(tree.nodes[cid] for p, cid in tree.children(node4)[("D", "R")])
        path = Path(0, (tree.root.state, node4.state, node9.state), (("D", "L"), ("D", "R")))
        assert np.allclose(path_value(bm.rewards, path), [5.0, 2.0])

    def test_against_hand_summation_oracle(self):
        bm = random_model(17)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        for ids, prob, acts in enumerate_paths(tree)[:25]:
            path = Path(0, tuple(tree.nodes[i].state for i in ids), acts)
            vals = path_value(bm.rewards, path)
            for agent in range(2):
                assert vals[agent] == pytest.approx(
                    path_reward_by_hand(tree, bm.rewards, ids, acts, agent), abs=1e-12
                )


class TestInvariants:
    def test_leaf_probabilities_sum_to_one(self):
        bm = random_model(23)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        # under the uniform behaviour profile, leaf-path masses sum to one
        total = 0.0
        for ids, prob, acts in enumerate_paths(tree):
            weight = prob
            for k, joint in enumerate(acts):
                node = tree.nodes[ids[k]]
                weight *= 1.0 / len(node.joints)
            total += weight
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_children_action_mass(self):
        bm = random_model(29)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        for n in tree.nodes:
            for joint, pairs in tree.children(n).items():
                assert sum(p for p, _ in pairs) == pytest.approx(1.0, abs=1e-12)

    def test_export_round_trip_fields(self, tmp_path, counterexample):
        bm, tree = counterexample
        doc = tree.to_json(tmp_path / "tree.json")
        assert doc["nodes"][0]["stage"] == 0
        assert len(doc["nodes"]) == 12


class TestPinnedOutputs:
    # sha256 of the exported JSON; node ids, states, joint actions and edge order all
    # enter the digest, so any change in the unfolding shows here
    @pytest.mark.parametrize("name, params, unfold, digest", [
        ("counterexample", {"phi": -10}, unfold_tree,
         "643e801ce2b2542e32461025bc734e3d180fe72ef4b683aea8bce0c3f372bc21"),
        ("counterexample", {"phi": -10}, unfold_regions,
         "0d75f60e160e8b96e64969af7c8ba607456dfa87549cb877c5c6f0ea03fa2a82"),
        ("parking", {"horizon": 4}, unfold_tree,
         "e1a472bef1e63511bba2955060eec16e980b409c21e6274836ac0d79b2470e28"),
        ("parking", {"horizon": 4}, unfold_regions,
         "0630d0a9dbb83aaedb4a4dc2ea9749afedc28b5d3d051810784a733482da69f6"),
        ("parking", {"horizon": 8, "reward_structure": 2}, unfold_regions,
         "fcf2cf983717241c44b2b201935979bf0fad24021e72d88d9539620a4f5db065"),
        ("vcas", {"t0": 3}, unfold_tree,
         "2d86d51f364c523f2982e8b4c704260b862753a7150f23b7c2827daad40d87e0"),
        ("vcas", {"t0": 3}, unfold_regions,
         "dd6589f0b67a8efd9e1a2d5b584759fbfa17c954eabc40ca7151f8f468cee7cf"),
        ("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2}, unfold_tree,
         "efb924e4c81806be61b46e81180789af585aca541a6ad29eabed701f48e70524"),
        ("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2}, unfold_regions,
         "3e3d49e001641e9b7d799d0a7faa4fedc159dd1071054fef9f0f1e5f2ba2a09a"),
        ("vcas", {"t0": 4, "eps_own": 0.2, "eps_int": 0.2}, unfold_regions,
         "92614f1d7529a30f8ff14242db82226528a936bf78ca5f6b864631599dca5e9a"),
    ], ids=["counterexample-tree", "counterexample-region", "parking-k4-tree",
            "parking-k4-region", "parking-k8-region", "vcas-t3-tree", "vcas-t3-region",
            "vcas-t3-eps0.2-tree", "vcas-t3-eps0.2-region", "vcas-t4-eps0.2-region"])
    def test_structure_digest(self, name, params, unfold, digest):
        bm = build(name, params)
        structure = unfold(bm.model, bm.initial, bm.horizon)
        assert hashlib.sha256(json.dumps(structure.to_json()).encode()).hexdigest() == digest


def _without_hooks(model):
    return dataclasses.replace(model, batch_env_step=None, agents=tuple(
        dataclasses.replace(spec, batch_local_transition=None) for spec in model.agents))


def _state_bytes(state):
    return ([(a.loc.tobytes(), a.per.tobytes()) for a in state.agent_states], state.env.tobytes())


def _refreshed(structure):
    """The state with refreshed percepts of each node of ``structure``."""
    return refresh_batch(structure.model, [n.state for n in structure.nodes])


class TestBatchedSlices:
    @pytest.mark.parametrize("params", [
        {"t0": 3},
        {"t0": 3, "eps_own": 0.2, "eps_int": 0.2},
    ], ids=["eps0", "eps0.2"])
    def test_graph_without_hooks_identical(self, params):
        # the per-row callbacks give the same graph, node for node and bit for bit
        bm = build("vcas", params)
        hooked = unfold_regions(bm.model, bm.initial, bm.horizon)
        plain = unfold_regions(_without_hooks(bm.model), bm.initial, bm.horizon)
        assert len(hooked.nodes) == len(plain.nodes)
        for a, b in zip(hooked.nodes, plain.nodes):
            assert (a.id, a.stage, a.menus, a.joints, hooked.children(a)) == (
                b.id, b.stage, b.menus, b.joints, plain.children(b))
            assert _state_bytes(a.state) == _state_bytes(b.state)
        for a, b in zip(_refreshed(hooked), _refreshed(plain)):
            assert _state_bytes(a) == _state_bytes(b)

    def test_agent_states_shared(self):
        # one AgentState per (agent, loc bytes, per bytes), one tuple per agents' bytes
        bm = build("vcas", {"t0": 4})
        graph = unfold_regions(bm.model, bm.initial, bm.horizon)
        states = [n.state for n in graph.nodes]
        objects = {id(a) for s in states for a in s.agent_states}
        triples = {(i, a.loc.tobytes(), a.per.tobytes()) for s in states for i, a in enumerate(s.agent_states)}
        assert len(objects) <= len(triples)
        assert len({id(s.agent_states) for s in states}) <= len({str(_state_bytes(s)[0]) for s in states})


class TestSlices:
    def test_slice_size_changes_nothing(self, monkeypatch):
        # node ids follow the frontier, joint and successor order, so slices
        # of one node, of seven (cutting every region block into uneven
        # pieces) and of 1,024 give the same structure
        cases = [
            ("parking", {"horizon": 8, "reward_structure": 2}, unfold_regions,
             "fcf2cf983717241c44b2b201935979bf0fad24021e72d88d9539620a4f5db065"),
            ("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2}, unfold_regions,
             "3e3d49e001641e9b7d799d0a7faa4fedc159dd1071054fef9f0f1e5f2ba2a09a"),
            ("parking", {"horizon": 4}, unfold_tree,
             "e1a472bef1e63511bba2955060eec16e980b409c21e6274836ac0d79b2470e28"),
        ]
        for name, params, unfold, digest in cases:
            bm = build(name, params)
            for size in (1, 7):
                monkeypatch.setattr("nscsg.unfold._SLICE", size)
                structure = unfold(bm.model, bm.initial, bm.horizon)
                assert hashlib.sha256(json.dumps(structure.to_json()).encode()).hexdigest() == digest, (name, size)


class TestPerceiveOnce:
    # each state's percepts are computed once: at expansion (tree) or, for a
    # region merge key, once per created transition plus the root
    @pytest.mark.parametrize("name, params, unfold, expect", [
        ("vcas", {"t0": 3}, unfold_tree, 91),
        ("vcas", {"t0": 3}, unfold_regions, 811),
        ("parking", {"horizon": 8, "reward_structure": 2}, unfold_regions, 1625),
    ], ids=["vcas-t3-tree", "vcas-t3-region", "parking-k8-region"])
    def test_observation_calls(self, name, params, unfold, expect):
        bm = build(name, params)
        calls = [0] * bm.model.n_agents

        def counted(i, observe):
            def observation(state):
                calls[i] += 1
                return observe(state)
            return observation

        def counted_batch(i, observe):
            if observe is None:
                return None

            def batch_observation(locs, pers, envs):
                calls[i] += len(envs)
                return observe(locs, pers, envs)
            return batch_observation

        model = dataclasses.replace(bm.model, agents=tuple(
            dataclasses.replace(spec, observation=counted(i, spec.observation),
                                batch_observation=counted_batch(i, spec.batch_observation))
            for i, spec in enumerate(bm.model.agents)))
        structure = unfold(model, bm.initial, bm.horizon)
        if unfold is unfold_regions:
            assert expect == 1 + structure.n_transitions()
        else:
            assert expect == len(structure.nonleaf_ids())
        assert calls == [expect] * model.n_agents


class TestMenusPerSharedTuple:
    # equal decision agent states give equal menus, so a region graph reads
    # each agent's availability once per distinct decision tuple; a tree once
    # per nonleaf node
    @pytest.mark.parametrize("name, params, unfold, expect", [
        ("vcas", {"t0": 3}, unfold_regions, 20),
        ("parking", {"horizon": 8, "reward_structure": 2}, unfold_regions, 224),
        ("vcas", {"t0": 3}, unfold_tree, 182),
        ("parking", {"horizon": 4}, unfold_tree, 410),
    ], ids=["vcas-t3-region", "parking-k8-region", "vcas-t3-tree", "parking-k4-tree"])
    def test_availability_calls(self, name, params, unfold, expect):
        bm = build(name, params)
        calls = [0]

        def counted(availability):
            def wrapped(loc, per):
                calls[0] += 1
                return availability(loc, per)
            return wrapped

        model = dataclasses.replace(bm.model, agents=tuple(
            dataclasses.replace(spec, availability=counted(spec.availability))
            for spec in bm.model.agents))
        structure = unfold(model, bm.initial, bm.horizon)
        nonleaf = [structure.nodes[nid] for nid in structure.nonleaf_ids()]
        refreshed = refresh_batch(bm.model, [n.state for n in nonleaf])
        if unfold is unfold_regions:
            assert calls[0] == 2 * len({str(_state_bytes(s)[0]) for s in refreshed}) == expect
        else:
            assert calls[0] == 2 * len(nonleaf) == expect
        for node, s in zip(nonleaf, refreshed):
            assert node.menus == action_menus(bm.model, s)
            assert node.joints == tuple(itertools.product(*node.menus))
