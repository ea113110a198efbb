import json

import numpy as np
import pytest

from conftest import coin_model_doc

from nscsg.benchmarks import BuiltModel, build
from nscsg.errors import ModelError
from nscsg.model import (
    FeedForwardNet,
    GlobalState,
    as_vector,
    canonical_key,
    joint_actions,
    load_model_json,
    load_net_json,
    nn_forward,
    observe_all,
    random_net,
    save_net_json,
    successors,
)


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

    def test_horizon_from_file(self):
        doc = coin_model_doc()
        doc["horizon"] = 3
        assert load_model_json(doc).horizon == 3

    def test_builtin_dispatch(self):
        bundle = load_model_json({"environment": {"builtin": "counterexample",
                                                  "params": {"phi": -3.0}}})
        assert bundle.extras["phi"] == -3.0


class TestPerceptRefreshOrder:
    def test_availability_follows_new_advisory(self):
        # the refreshed advisory (not the stored one) sets the action menu
        bias = np.zeros(9)
        bias[1] = 1.0  # networks always issue advisory 2
        net = FeedForwardNet(((np.zeros((9, 4)), bias),))
        bm = build("vcas", {"nets": [net] * 9, "t0": 2})  # stored advisory is 1
        menus = joint_actions(bm.model, bm.initial)
        assert ("-9.33", "-9.33") in menus  # advisory-2 accelerations
