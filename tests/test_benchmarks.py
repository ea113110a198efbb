import numpy as np
import pytest

from nscsg.benchmarks import build
from nscsg.benchmarks.parking import ParkingParams, build_parking
from nscsg.benchmarks.vcas import (
    VcasParams,
    advisory_actions,
    build_vcas,
    trust_update,
    vcas_dynamics,
    vcas_rewards,
)
from nscsg.errors import ModelError
from nscsg.gbi import run_gbi, stage_matrices
from nscsg.model import FeedForwardNet, joint_actions, observe_all, successors
from nscsg.unfold import Path, path_value, unfold_regions, unfold_tree


class TestCounterexample:
    def test_stage_one_nodes(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        envs = sorted(int(n.state.env[0]) for n in tree.nodes if n.stage == 1)
        assert envs == [2, 3, 4, 5]

    def test_terminal_payoffs_along_paths(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        node9 = tree.nodes[tree.children(node4)[("D", "R")][0][1]]
        path = Path(0, (tree.root.state, node4.state, node9.state), (("D", "L"), ("D", "R")))
        assert np.allclose(path_value(bm.rewards, path), [5.0, 2.0])

        node2 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 2)
        leaf = tree.nodes[tree.children(node2)[("idle", "idle")][0][1]]
        path = Path(0, (tree.root.state, node2.state, leaf.state), (("U", "L"), ("idle", "idle")))
        assert np.allclose(path_value(bm.rewards, path), [1.0, 1.0 - 10.0])

    def test_node4_stage_game_matrix(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        sol = run_gbi(tree, bm.rewards, "ne")
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        z1, z2 = stage_matrices(tree, bm.rewards, node4, sol.values)
        assert np.array_equal(z1, [[0.0, 0.0], [0.0, 5.0]])
        assert np.array_equal(z2, [[8.0, 0.0], [0.0, 2.0]])

    def test_zero_sum_variant(self):
        bm = build("counterexample", {"phi": -10, "zero_sum": True})
        tree = unfold_tree(bm.model, bm.initial, 2)
        for n in tree.nodes:
            assert bm.rewards[1].state_reward(n.state) == -bm.rewards[0].state_reward(n.state)

    def test_unfolding_matches_hand_built_game(self):
        # with dummy percepts the semantics reduce to a plain finite game;
        # the unfolding must realise exactly this hand-coded edge relation
        expected_edges = {
            (1, ("U", "L")): 2, (1, ("U", "R")): 3, (1, ("D", "L")): 4, (1, ("D", "R")): 5,
            (4, ("U", "L")): 6, (4, ("U", "R")): 7, (4, ("D", "L")): 8, (4, ("D", "R")): 9,
            (2, ("idle", "idle")): 10, (3, ("idle", "idle")): 11, (5, ("idle", "idle")): 12,
        }
        bm = build("counterexample", {"phi": -2.0})
        tree = unfold_tree(bm.model, bm.initial, 2)
        seen = {}
        for n in tree.nodes:
            for joint, pairs in tree.children(n).items():
                assert len(pairs) == 1 and pairs[0][0] == 1.0  # deterministic game
                seen[(int(n.state.env[0]), joint)] = int(tree.nodes[pairs[0][1]].state.env[0])
        assert seen == expected_edges
        hand_rewards = {6: (0, 8), 7: (0, 0), 8: (0, 0), 9: (5, 2),
                        10: (1, -1), 11: (3, -2), 12: (0, 0)}
        for n in tree.nodes:
            want = hand_rewards.get(int(n.state.env[0]), (0, 0))
            got = tuple(r.state_reward(n.state) for r in bm.rewards)
            assert got == pytest.approx(want)


class TestParking:
    def test_vehicle1_has_twelve_moves(self):
        bm = build("parking", {})
        assert len(bm.model.agents[0].actions) == 12

    def test_collision_reward(self):
        bm = build("parking", {})
        state = bm.initial
        collided = state.with_percepts([s.per for s in state.agent_states])
        from nscsg.model import GlobalState, as_vector
        collided = GlobalState(state.agent_states, as_vector([2, 2, 2, 2, 3]))
        assert bm.rewards[0].state_reward(collided) == -20.0
        assert bm.rewards[1].state_reward(collided) == -20.0

    def test_bonus_cell_within_deadline(self):
        from nscsg.model import GlobalState, as_vector
        bm = build("parking", {"reward_structure": 2})
        at_bonus = GlobalState(bm.initial.agent_states, as_vector([3, 3, 1, 2, 1]))
        assert bm.rewards[1].state_reward(at_bonus) == 4.5
        assert bm.rewards[0].state_reward(at_bonus) == -1.0
        late = GlobalState(bm.initial.agent_states, as_vector([3, 3, 1, 2, 2]))
        assert bm.rewards[1].state_reward(late) == -1.0

    def test_slot_reward_zero(self):
        from nscsg.model import GlobalState, as_vector
        bm = build("parking", {})
        parked = GlobalState(bm.initial.agent_states, as_vector([2, 4, 3, 3, 4]))
        assert bm.rewards[0].state_reward(parked) == 0.0
        assert bm.rewards[1].state_reward(parked) == -1.0

    def test_reachable_states_stay_legal(self):
        bm = build("parking", {"horizon": 6})
        rg = unfold_regions(bm.model, bm.initial, 6)
        red = {(1, 1), (1, 4), (2, 1), (4, 1), (4, 4), (5, 4)}
        for n in rg.nodes:
            e = n.state.env
            for c in ((int(e[0]), int(e[1])), (int(e[2]), int(e[3]))):
                assert 1 <= c[0] <= 5 and 1 <= c[1] <= 4
                assert c not in red

    def test_parked_vehicle_idles(self):
        from nscsg.model import GlobalState, as_vector
        bm = build("parking", {})
        parked = GlobalState(bm.initial.agent_states, as_vector([2, 4, 3, 3, 4]))
        assert joint_actions(bm.model, parked)[0][0] == "idle"

    def test_invalid_start_rejected(self):
        with pytest.raises(ModelError):
            build_parking(ParkingParams(starts=((1, 1), (2, 2))))  # red cell


class TestVcasOperations:
    def test_advisory_action_table(self):
        assert advisory_actions(1) == (-3.0, 3.0, 0.0)
        assert advisory_actions(2) == (-9.33, -7.33, 0.0)
        assert advisory_actions(9) == (9.7, 11.7, 0.0)
        with pytest.raises(ModelError):
            advisory_actions(10)

    def test_trust_update_cases(self):
        assert dict(trust_update(3, True, 0.1)) == pytest.approx({4: 0.9, 3: 0.1})
        assert trust_update(4, True, 0.7) == ((4, 1.0),)
        assert dict(trust_update(2, False, 0.2)) == pytest.approx({1: 0.8, 2: 0.2})
        assert trust_update(1, False, 0.3) == ((1, 1.0),)

    def test_trust_distributions_sum_to_one(self):
        for tr in (1, 2, 3, 4):
            for compliant in (True, False):
                for eps in (0.0, 0.25, 1.0):
                    assert sum(p for _, p in trust_update(tr, compliant, eps)) == pytest.approx(1.0)

    def test_dynamics_hand_case(self):
        out = vcas_dynamics(np.array([50.0, -5.0, 5.0, 3.0]), -9.33, 3.0)
        assert np.allclose(out, [66.165, -14.33, 8.0, 2.0], atol=1e-12)
        assert [round(v) for v in out] == [66, -14, 8, 2]

    def test_dynamics_idle_pair(self):
        out = vcas_dynamics(np.array([100.0, 3.0, 3.0, 5.0]), 0.0, 0.0)
        assert np.allclose(out, [100.0, 3.0, 3.0, 4.0])

    def test_dynamics_closed_form_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            env = rng.uniform([-3000, -100, -100, 1], [3000, 100, 100, 40])
            ao, ai = rng.uniform(-12, 12, size=2)
            out = vcas_dynamics(env, ao, ai)
            h, vo, vi, t = env
            assert abs(out[0] - (h - (vo - vi) - 0.5 * (ao - ai))) <= 1e-12
            assert abs(out[1] - (vo + ao)) <= 1e-12
            assert abs(out[2] - (vi + ai)) <= 1e-12
            assert abs(out[3] - (t - 1.0)) <= 1e-12

    def test_dynamics_acceleration_linearity(self):
        env = np.array([10.0, 1.0, -1.0, 4.0])
        base = vcas_dynamics(env, 2.0, -2.0)[0] - 10.0 + (1.0 - (-1.0))
        doubled = vcas_dynamics(env, 4.0, -4.0)[0] - 10.0 + (1.0 - (-1.0))
        assert doubled == pytest.approx(2.0 * base, abs=1e-12)


class TestVcasModel:
    def test_observation_input_ordering(self):
        captured = []

        class Probe(FeedForwardNet):
            pass

        # linear identity-ish nets let us recover the inputs from the output
        w = np.zeros((9, 4))
        w[:4, :4] = np.eye(4)
        net = FeedForwardNet(((w, np.zeros(9)),))
        bm = build("vcas", {"nets": [net] * 9, "t0": 3})
        from nscsg.model import nn_forward

        own_in = np.array([50.0, -5.0, 5.0, 3.0])
        int_in = np.array([-50.0, 5.0, -5.0, 3.0])
        assert np.allclose(nn_forward(net, own_in)[:4], own_in)
        # observation functions route exactly these inputs
        pers = observe_all(bm.model, bm.initial)
        assert pers[0][0] == 1 + int(np.argmax(np.concatenate([own_in, np.zeros(5)])))
        assert pers[1][0] == 1 + int(np.argmax(np.concatenate([int_in, np.zeros(5)])))

    def test_initial_state_of_experiments(self):
        bm = build("vcas", {})
        assert np.allclose(bm.initial.env, [50.0, -5.0, 5.0, 3.0])
        assert all(int(s.loc[0]) == 4 for s in bm.initial.agent_states)

    def test_horizon_equals_initial_time(self):
        assert build("vcas", {"t0": 3}).horizon == 3
        bm = build("vcas", {"t0": 3})
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        assert max(n.stage for n in tree.nodes) == 3
        for n in tree.nodes:
            assert n.state.env[3] == pytest.approx(3.0 - n.stage)

    def test_weight_shape_mismatch_rejected(self):
        bad = FeedForwardNet(((np.zeros((9, 3)), np.zeros(9)),))
        with pytest.raises(ModelError):
            build_vcas(VcasParams(nets=[bad] * 9))


class TestVcasRewards:
    def test_trust_fuel_formula(self):
        from nscsg.model import AgentState, GlobalState, as_vector

        r = vcas_rewards("trust-fuel", h_max=200.0, hdd_max=10.0)
        agents = (AgentState(as_vector([4]), as_vector([1])), AgentState(as_vector([2]), as_vector([1])))
        inside = GlobalState(agents, as_vector([100.0, 0.0, 0.0, 1.0]))
        assert r[0].state_reward(inside) == pytest.approx(100 / 200 + 4 / 4)
        assert r[1].state_reward(inside) == pytest.approx(100 / 200 + 2 / 4)
        assert r[0].action_reward(inside, ("-3", "0")) == 0.0

        outside = GlobalState(agents, as_vector([300.0, 0.0, 0.0, 1.0]))
        assert r[0].state_reward(outside) == 0.0
        assert r[0].action_reward(outside, ("0", "0")) == 0.0
        assert r[0].action_reward(outside, ("-3", "0")) == pytest.approx(-3 / 10)
        assert r[1].action_reward(outside, ("-3", "9.33")) == pytest.approx(-9.33 / 10)

    def test_trust_fuel_requires_extents(self):
        with pytest.raises(ModelError):
            vcas_rewards("trust-fuel", h_max=0.0, hdd_max=1.0)

    def test_instant_altitude_pays_once(self):
        from nscsg.model import AgentState, GlobalState, as_vector

        r = vcas_rewards("instant-altitude", t0=3)  # pays at the final stage
        agents = (AgentState(as_vector([4]), as_vector([1])),) * 2
        final = GlobalState(agents, as_vector([77.0, 0.0, 0.0, 0.0]))
        mid = GlobalState(agents, as_vector([77.0, 0.0, 0.0, 1.0]))
        assert r[0].state_reward(final) == 77.0
        assert r[0].state_reward(mid) == 0.0

        rz = vcas_rewards("instant-altitude", t0=3, zero_sum=True)
        assert rz[1].state_reward(final) == -77.0

    def test_instant_altitude_intermediate_stage(self):
        from nscsg.model import AgentState, GlobalState, as_vector

        r = vcas_rewards("instant-altitude", t0=3, instant_k=1)
        agents = (AgentState(as_vector([4]), as_vector([1])),) * 2
        at_k1 = GlobalState(agents, as_vector([10.0, 0.0, 0.0, 2.0]))  # t = t0 - k
        assert r[0].state_reward(at_k1) == 10.0


    def test_trust_fuel_extents_at_t0_4(self):
        # the two-pass build reads h_max off the environment rows and the
        # accelerations off the distinct menus; both, and the GBI root
        # values they scale, are those of the walk over every node
        bm = build("vcas", {"t0": 4, "reward": "trust-fuel"})
        assert (bm.extras["h_max"], bm.extras["hdd_max"]) == (164.64000000000001, 9.33)
        graph = unfold_regions(bm.model, bm.initial, bm.horizon)
        for kind in ("ne", "ce"):
            root = run_gbi(graph, bm.rewards, kind, "sw-optimal").values[0]
            assert root.tolist() == [7.664237123420797, 7.414237123420797]

    @pytest.mark.parametrize("name, value", [("zero_sum", True), ("instant_k", 1), ("instant_k", 0)])
    def test_trust_fuel_refuses_instant_altitude_params(self, name, value):
        # only the instant-altitude reward reads zero_sum and instant_k
        with pytest.raises(ModelError, match=f"^{name} applies to the instant-altitude reward only"):
            build("vcas", {"t0": 1, "reward": "trust-fuel", name: value})


class TestParams:
    def test_values_of_the_default_kind_accepted(self):
        # an int where a float is due, numpy integers, tuples or lists, null instant_k
        bm = build("vcas", {"t0": np.int64(1), "h0": 50, "trust0": [3, 4], "instant_k": None})
        assert bm.horizon == 1 and bm.initial.env.tolist() == [50.0, -5.0, 5.0, 1.0]
