import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import coin_model_doc

from nscsg import model as model_module
from nscsg.benchmarks import BuiltModel, build
from nscsg.benchmarks.vcas import stub_networks
from nscsg.errors import ModelError
from nscsg.model import (
    FeedForwardNet,
    GlobalState,
    as_vector,
    canonical_key,
    joint_actions,
    key_rows,
    load_model_json,
    load_net_json,
    nn_forward,
    observe_all,
    random_net,
    refresh_batch,
    refresh_percepts,
    save_net_json,
    stack_states,
    step,
    step_batch,
    successors,
)
from nscsg.unfold import unfold_regions, unfold_tree


class TestNnForward:
    def test_identity_layer(self):
        net = FeedForwardNet(((np.eye(2), np.zeros(2)),))
        assert np.allclose(nn_forward(net, [1.0, -2.0]), [1.0, -2.0])

    def test_hand_evaluated_hidden_rectifier(self):
        # hidden W=[[1],[-1]], b=0 rectified, output sums both units
        net = FeedForwardNet((
            (np.array([[1.0], [-1.0]]), np.zeros(2)),
            (np.array([[1.0, 1.0]]), np.zeros(1)),
        ))
        # input -3: hidden pre-activation (-3, 3) -> rectified (0, 3) -> output 3
        assert np.allclose(nn_forward(net, [-3.0]), [3.0])

    def test_deep_net_deterministic(self):
        net = random_net((4, 45, 45, 45, 45, 45, 45, 45, 9), seed=11)
        x = np.array([50.0, -5.0, 5.0, 3.0])
        assert np.array_equal(nn_forward(net, x), nn_forward(net, x))
        assert nn_forward(net, x).shape == (9,)

    def test_dimension_mismatch_names_layer(self):
        net = FeedForwardNet(((np.eye(2), np.zeros(2)),))
        with pytest.raises(ModelError, match="layer 0"):
            nn_forward(net, [1.0, 2.0, 3.0])

    def test_matrix_input_matches_rows(self):
        net = random_net((4, 45, 45, 45, 45, 45, 45, 45, 9), seed=11)
        x = np.random.default_rng(2).normal(size=(7, 4)) * [50.0, 5.0, 5.0, 3.0]
        scores = nn_forward(net, x)
        assert scores.shape == (7, 9)
        for row, out in zip(x, scores):
            assert np.allclose(out, nn_forward(net, row), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_distinct", [2 * model_module._BLOCK_ROWS + 137, 0, 1],
                             ids=["blocks-and-tail", "no-rows", "one-row"])
    def test_matrix_forwards_each_distinct_row_once(self, n_distinct):
        # heavily duplicated rows of the stub advisory network's input box
        net = stub_networks(0)[0]
        rng = np.random.default_rng(7)
        distinct = rng.normal(size=(n_distinct, 4)) * [1000.0, 50.0, 50.0, 10.0]
        copies = rng.integers(0, n_distinct, size=3 * n_distinct) if n_distinct > 1 else []
        x = np.vstack([distinct, distinct[copies]])[rng.permutation(n_distinct + len(copies))]
        first, inverse = model_module._distinct(model_module._void_rows(x))
        assert len(first) == n_distinct
        scores = nn_forward(net, x)
        assert scores.shape == (len(x), 9)
        assert scores.tobytes() == nn_forward(net, x[first])[inverse].tobytes()
        for row, out in zip(x[first], scores[first]):
            alone = nn_forward(net, row)
            assert np.argmax(out) == np.argmax(alone)
            assert np.allclose(out, alone, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("x", [np.ones(3), np.ones((4, 3)), np.ones((0, 3)),
                                   np.ones((3 * model_module._BLOCK_ROWS, 3))],
                             ids=["vector", "matrix", "no-rows", "blocks"])
    def test_matrix_dimension_mismatch_names_layer(self, x):
        net = random_net((2, 3, 2), seed=1)
        with pytest.raises(ModelError, match="layer 0: expected input dim 2, got 3"):
            nn_forward(net, x)

    def test_bad_layer_shapes_rejected(self):
        with pytest.raises(ModelError, match="layer 1"):
            FeedForwardNet(((np.eye(2), np.zeros(2)), (np.eye(3), np.zeros(3))))

    def test_json_round_trip(self, tmp_path):
        net = random_net((3, 5, 2), seed=4)
        path = tmp_path / "net.json"
        save_net_json(net, path)
        loaded = load_net_json(path)
        x = np.array([0.3, -1.2, 2.0])
        assert np.allclose(nn_forward(net, x), nn_forward(loaded, x))


class TestObserveAll:
    def test_parking_percept_is_coordinate_pair(self):
        bm = build("parking", {})
        pers = observe_all(bm.model, bm.initial)
        assert np.allclose(pers[0], [3, 1, 2, 2])
        assert np.allclose(pers[1], [3, 1, 2, 2])

    def test_constant_observation_keeps_percept(self):
        bm = build("counterexample", {})
        pers = observe_all(bm.model, bm.initial)
        assert np.allclose(pers[0], [1.0])

    def test_one_hot_stub_net_maps_to_advisory(self):
        # constant network scoring advisory 5 highest
        bias = np.zeros(9)
        bias[4] = 1.0
        net = FeedForwardNet(((np.zeros((9, 4)), bias),))
        bm = build("vcas", {"nets": [net] * 9, "t0": 2})
        pers = observe_all(bm.model, bm.initial)
        assert pers[0][0] == 5.0 and pers[1][0] == 5.0


def _tied_net():
    """Advisory network whose output rows 2 and 5 are identical and on top."""
    layers = random_net((4, 45, 45, 9), seed=5).layers
    w, b = (a.copy() for a in layers[-1])
    w[5], b[2], b[5] = w[2], 100.0, 100.0
    return FeedForwardNet(layers[:-1] + ((w, b),))


class TestBatchedObservation:
    @pytest.mark.parametrize("params", [{"t0": 4}, {"nets": [_tied_net()] * 9, "t0": 3}],
                             ids=["stub-t4", "exact-tie"])
    def test_matches_per_state_observation(self, params):
        bm = build("vcas", params)
        states = [n.state for n in unfold_regions(bm.model, bm.initial, bm.horizon).nodes]
        for spec in bm.model.agents:
            batched = spec.batch_observation(*stack_states(states)).tolist()
            assert batched == [int(spec.observation(s)[0]) - 1 for s in states]
            if "nets" in params:  # ties resolve to the lowest index
                assert set(batched) == {2}
        expect = [canonical_key(refresh_percepts(bm.model, s)) for s in states]
        assert [canonical_key(s) for s in refresh_batch(bm.model, states)] == expect

    @pytest.mark.parametrize("indices, message", [
        (lambda locs, pers, envs: [0] * (len(envs) + 1), "one percept index per state"),
        (lambda locs, pers, envs: [12] * len(envs), "outside the percept set"),
        (lambda locs, pers, envs: [-1] * len(envs), "outside the percept set"),
        (lambda locs, pers, envs: [0.0] * len(envs), "one percept index per state"),
    ], ids=["length", "index-high", "index-negative", "float"])
    def test_bad_indices_rejected(self, indices, message):
        bm = build("counterexample", {})
        assert len(bm.model.agents[0].percepts) == 12  # valid indices 0..11
        agents = (dataclasses.replace(bm.model.agents[0], batch_observation=indices),
                  bm.model.agents[1])
        model = dataclasses.replace(bm.model, agents=agents)
        with pytest.raises(ModelError, match=message):
            refresh_batch(model, [bm.initial, bm.initial])


def _vcas_rows(structure):
    """Every (refreshed state, joint) of ``structure``'s nonleaf nodes."""
    nonleaf = [structure.nodes[nid] for nid in structure.nonleaf_ids()]
    refreshed = refresh_batch(structure.model, [n.state for n in nonleaf])
    return [(s, joint) for n, s in zip(nonleaf, refreshed) for joint in n.joints]


def _stacked(rows):
    """The hook inputs of ``rows``: locs and pers per agent, envs, joints."""
    states = [s for s, _ in rows]
    n = len(states[0].agent_states)
    return ([np.array([s.agent_states[i].loc for s in states]) for i in range(n)],
            [np.array([s.agent_states[i].per for s in states]) for i in range(n)],
            np.array([s.env for s in states]), [joint for _, joint in rows])


class TestBatchHooks:
    @pytest.mark.parametrize("eps", [0.0, 0.2], ids=["eps0", "eps0.2"])
    def test_vcas_hooks_match_callbacks(self, eps):
        # bit for bit on every (state, joint) of the region graph
        bm = build("vcas", {"t0": 3, "eps_own": eps, "eps_int": eps})
        model = bm.model
        rows = _vcas_rows(unfold_regions(model, bm.initial, bm.horizon))
        locs, pers, envs, joints = _stacked(rows)
        expect = np.array([
            as_vector(model.env_step(s.env, tuple(a.action(lab) for a, lab in zip(model.agents, joint))))
            for s, joint in rows])
        assert model.batch_env_step(envs, joints).tobytes() == expect.tobytes()
        for i, spec in enumerate(model.agents):
            out, probs = spec.batch_local_transition(locs[i], pers[i], joints)
            assert out.shape == (len(rows), 1 if eps == 0.0 else 2, 1)
            for r, (state, joint) in enumerate(rows):
                a = state.agent_states[i]
                want = [(as_vector(loc).tobytes(), float(p))
                        for loc, p in spec.local_transition(a.loc, a.per, joint)]
                got = [(out[r, k].tobytes(), float(probs[r, k])) for k in np.flatnonzero(probs[r])]
                assert got == want
            if eps:  # both one- and two-outcome rows occur
                assert 0 < np.count_nonzero(probs[:, 1]) < len(rows)

    @pytest.mark.parametrize("env_hook, local_hook, message", [
        (lambda envs, joints: envs[:, :3], None, "environment transition changed dimension"),
        (None, lambda locs, pers, joints: (locs[:, None, :], np.ones((len(locs), 2))),
         r"batched local transition must give \(\d+, K, 1\)"),
        (None, lambda locs, pers, joints: (np.stack([locs, locs], 1), np.full((len(locs), 2), 0.4)),
         r"not a distribution \(mass 0.8"),
        (None, lambda locs, pers, joints: (np.stack([locs, locs], 1), np.tile([1.5, -0.5], (len(locs), 1))),
         r"not a distribution \(mass 1.0\)"),
    ], ids=["env-shape", "local-shape", "mass", "negative"])
    def test_bad_hook_outputs_rejected(self, env_hook, local_hook, message):
        bm = build("vcas", {"t0": 2})
        model = bm.model
        if env_hook is not None:
            model = dataclasses.replace(model, batch_env_step=env_hook)
        if local_hook is not None:
            model = dataclasses.replace(model, agents=(
                dataclasses.replace(model.agents[0], batch_local_transition=local_hook),
                model.agents[1]))
        ref = refresh_percepts(model, bm.initial)
        rows = [(ref, joint) for joint in joint_actions(model, bm.initial)]
        with pytest.raises(ModelError, match=message):
            step_batch(model, *_stacked(rows))
        with pytest.raises(ModelError, match=message):
            unfold_regions(model, bm.initial, bm.horizon)

    def test_zero_probability_callback_rejected_like_step(self):
        # without a hook a zero is a stated outcome, not padding
        bm = build("vcas", {"t0": 2})
        spec = dataclasses.replace(bm.model.agents[0], batch_local_transition=None,
                                   local_transition=lambda loc, per, joint: ((loc, 1.0), (loc, 0.0)))
        model = dataclasses.replace(bm.model, agents=(spec, bm.model.agents[1]))
        ref = refresh_percepts(model, bm.initial)
        joint = joint_actions(model, bm.initial)[0]
        with pytest.raises(ModelError, match=r"not a distribution \(mass 1.0\)"):
            step(model, ref, joint)
        with pytest.raises(ModelError, match=r"not a distribution \(mass 1.0\)"):
            step_batch(model, *_stacked([(ref, joint)]))

    def test_equal_outcomes_merge_like_step(self):
        # two outcomes equal after rounding are one successor, in step and in a batch
        bm = build("vcas", {"t0": 2})
        spec = dataclasses.replace(
            bm.model.agents[0], batch_local_transition=None,
            local_transition=lambda loc, per, joint: ((loc, 0.25), (loc + 1e-12, 0.5), (loc + 1.0, 0.25)))
        model = dataclasses.replace(bm.model, agents=(spec, bm.model.agents[1]))
        ref = refresh_percepts(model, bm.initial)
        rows = [(ref, joint) for joint in joint_actions(model, bm.initial)]
        src, succ_locs, _, probs = step_batch(model, *_stacked(rows))
        for r, (state, joint) in enumerate(rows):
            dist = step(model, state, joint)
            assert [p for _, p in dist] == [0.75, 0.25]
            assert probs[src == r].tolist() == [0.75, 0.25]
            assert [s.agent_states[0].loc.tobytes() for s, _ in dist] == [
                loc.tobytes() for loc in succ_locs[0][src == r]]

    def test_rows_follow_step(self):
        # one row per joint, successors in step's order with step's probabilities
        bm = build("vcas", {"t0": 2, "eps_own": 0.3, "eps_int": 0.2, "trust0": (2, 3)})
        ref = refresh_percepts(bm.model, bm.initial)
        rows = [(ref, joint) for joint in joint_actions(bm.model, bm.initial)]
        src, succ_locs, succ_envs, probs = step_batch(bm.model, *_stacked(rows))
        expect = [(r, succ) for r, (state, joint) in enumerate(rows) for succ in step(bm.model, state, joint)]
        assert src.tolist() == [r for r, _ in expect]
        assert probs.tolist() == [p for _, (_, p) in expect]
        for m, (_, (succ, _)) in enumerate(expect):
            assert [succ_locs[i][m].tobytes() for i in range(2)] == [a.loc.tobytes() for a in succ.agent_states]
            assert succ_envs[m].tobytes() == succ.env.tobytes()


class TestSuccessors:
    def test_counterexample_edge(self):
        bm = build("counterexample", {})
        dist = successors(bm.model, bm.initial, ("D", "L"))
        assert len(dist) == 1
        state, p = dist[0]
        assert p == 1.0 and state.env[0] == 4.0

    def test_parking_deterministic_product(self):
        bm = build("parking", {})
        dist = successors(bm.model, bm.initial, ("UU", "U"))
        assert len(dist) == 1
        state, p = dist[0]
        assert p == 1.0
        assert np.allclose(state.env, [3, 3, 2, 3, 1])

    def test_vcas_trust_branching(self):
        bias = np.zeros(9)
        bias[0] = 1.0  # every advisory network recommends COC
        net = FeedForwardNet(((np.zeros((9, 4)), bias),))
        bm = build("vcas", {"nets": [net] * 9, "t0": 2, "eps_own": 0.1,
                            "trust0": (3, 4)})
        dist = successors(bm.model, bm.initial, ("3", "3"))
        # ownship trust 3 compliant: 4 with 0.9, stays 3 with 0.1
        probs = {int(s.agent_states[0].loc[0]): p for s, p in dist}
        assert probs == pytest.approx({4: 0.9, 3: 0.1})

    def test_unavailable_action_rejected(self):
        bm = build("counterexample", {})
        state = successors(bm.model, bm.initial, ("U", "L"))[0][0]  # node 2, idle only
        with pytest.raises(ModelError, match="menu"):
            successors(bm.model, state, ("U", "L"))

    def test_mass_sums_to_one(self):
        bm = build("vcas", {"t0": 2, "eps_own": 0.3, "eps_int": 0.2, "trust0": (2, 3)})
        for joint in joint_actions(bm.model, bm.initial):
            dist = successors(bm.model, bm.initial, joint)
            assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_calls_identical(self):
        bm = build("vcas", {"t0": 2, "eps_own": 0.5, "trust0": (2, 2)})
        joint = joint_actions(bm.model, bm.initial)[0]
        d1 = successors(bm.model, bm.initial, joint)
        d2 = successors(bm.model, bm.initial, joint)
        assert [(canonical_key(s), p) for s, p in d1] == [(canonical_key(s), p) for s, p in d2]


class TestJointActions:
    def test_counterexample_root_order(self):
        bm = build("counterexample", {})
        assert joint_actions(bm.model, bm.initial) == [
            ("U", "L"), ("U", "R"), ("D", "L"), ("D", "R")
        ]

    def test_idle_substituted_when_empty(self):
        bm = build("counterexample", {})
        node2 = successors(bm.model, bm.initial, ("U", "L"))[0][0]
        assert joint_actions(bm.model, node2) == [("idle", "idle")]

    def test_vcas_coc_has_nine_joints(self):
        bias = np.zeros(9)
        bias[0] = 1.0
        net = FeedForwardNet(((np.zeros((9, 4)), bias),))
        bm = build("vcas", {"nets": [net] * 9, "t0": 2})
        assert len(joint_actions(bm.model, bm.initial)) == 9


def _first_index(keys):
    """Each key's first position: equal lists mean equal merge classes."""
    seen = {}
    return [seen.setdefault(k, i) for i, k in enumerate(keys)]


def _stacked_keys(states):
    """:func:`key_rows` of states of equal component sizes, stacked by
    :func:`stack_states`."""
    locs, pers, envs = stack_states(states)
    return key_rows(locs + pers + [envs])


class TestCanonicalKey:
    def _state(self, env):
        bm = build("counterexample", {})
        return GlobalState(bm.initial.agent_states, as_vector(env))

    def test_identical_states_equal(self):
        assert canonical_key(self._state([4.0])) == canonical_key(self._state([4.0]))

    def test_tiny_drift_merges(self):
        assert canonical_key(self._state([4.0 + 1e-12])) == canonical_key(self._state([4.0]))

    def test_half_apart_distinct(self):
        assert canonical_key(self._state([4.5])) != canonical_key(self._state([4.0]))

    def test_batched_keys_merge_like_canonical_key(self):
        # the one-pass keys of the region unfolding merge exactly the states
        # canonical_key merges; the tree repeats many states per stage
        bm = build("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2})
        states = refresh_batch(bm.model, [n.state for n in unfold_tree(bm.model, bm.initial, bm.horizon).nodes])
        expect = _first_index([canonical_key(s) for s in states])
        assert len(set(expect)) < len(states)
        assert _first_index(_stacked_keys(states)) == expect

    def test_batched_keys_round_like_canonical_key_at_half_steps(self):
        # round() rounds the exact decimal value: the double nearest 1.5e-9 is
        # just below the half step, that of 2.5e-9 just above, whereas
        # np.round (half to even after scaling) sends both to 2e-9; near 1e7
        # the scaled values pass 2**53, where the two roundings also differ
        envs = [1e-9, 1.5e-9, 2e-9, 2.5e-9, 3e-9, -0.0, 0.0, float("inf")]
        rng = np.random.default_rng(3)
        envs += ((rng.integers(-10**6, 10**6, 2000) + 0.5) / 1e9).tolist()
        envs += (1e7 + rng.integers(0, 10**4, 2000) * 1e-9).tolist()
        states = [self._state([e]) for e in envs]
        single = [canonical_key(s) for s in states]
        assert single[0] == single[1] != single[2] != single[3] == single[4]
        assert single[5] == single[6]
        assert _first_index(_stacked_keys(states)) == _first_index(single)


class TestTabularLoader:
    def test_small_tabular_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(coin_model_doc()))
        bundle = load_model_json(path)
        assert isinstance(bundle, BuiltModel)
        dist = successors(bundle.model, bundle.initial, ("go", "go"))
        assert sorted(p for _, p in dist) == [0.5, 0.5]
        assert bundle.rewards[0].state_reward(bundle.initial) == -1.0
        assert bundle.horizon == 1

    def test_repeated_next_local_state_merges(self):
        # agent 1 lists location 1 twice: one successor with the summed mass
        doc = coin_model_doc()
        doc["agents"][0]["transitions"][0]["dist"] = [{"loc": [1], "prob": 0.25},
                                                      {"loc": [1], "prob": 0.75}]
        bundle = load_model_json(doc)
        dist = successors(bundle.model, bundle.initial, ("go", "go"))
        assert len(dist) == 1
        state, p = dist[0]
        assert p == 1.0 and state.agent_states[0].loc.tolist() == [1.0]

    def test_horizon_from_file(self):
        doc = coin_model_doc()
        doc["horizon"] = 3
        assert load_model_json(doc).horizon == 3

    def test_builtin_dispatch(self):
        bundle = load_model_json({"environment": {"builtin": "counterexample",
                                                  "params": {"phi": -3.0}}})
        assert bundle.extras["phi"] == -3.0

    def test_old_percept_rule_rejected(self):
        # menus always read refreshed percepts; a file asking for the stored one is an error
        doc = coin_model_doc()
        doc["availability_on_old_percept"] = True
        with pytest.raises(ModelError, match="model sets availability_on_old_percept"):
            load_model_json(doc)

    @pytest.mark.parametrize("flag", [False, None], ids=["false", "absent"])
    @pytest.mark.parametrize("unfold, digest", [
        (unfold_tree, "bd226c8d11da26f923c05cc1cd3719fe12e2295b86c3e19b29440697721af1d8"),
        (unfold_regions, "b4bc0710f51a47909c0e3dcbb4a0025bf50b686503856642fdd846ea5ece8c6e"),
    ], ids=["tree", "region"])
    def test_old_percept_false_or_absent_unfolds_as_before(self, flag, unfold, digest):
        doc = coin_model_doc()
        doc["horizon"] = 2
        if flag is not None:
            doc["availability_on_old_percept"] = flag
        bundle = load_model_json(doc)
        structure = unfold(bundle.model, bundle.initial, bundle.horizon)
        assert hashlib.sha256(json.dumps(structure.to_json()).encode()).hexdigest() == digest


class TestPerceptRefreshOrder:
    def test_availability_follows_new_advisory(self):
        # the refreshed advisory (not the stored one) sets the action menu
        bias = np.zeros(9)
        bias[1] = 1.0  # networks always issue advisory 2
        net = FeedForwardNet(((np.zeros((9, 4)), bias),))
        bm = build("vcas", {"nets": [net] * 9, "t0": 2})  # stored advisory is 1
        menus = joint_actions(bm.model, bm.initial)
        assert ("-9.33", "-9.33") in menus  # advisory-2 accelerations
