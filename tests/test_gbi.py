import numpy as np
import pytest

from conftest import profile_value_by_hand, random_model

from nscsg.benchmarks import build
from nscsg.gbi import (
    run_gbi,
    run_minimax,
    social_welfare,
    solution_from_json,
    solution_to_json,
    stage_matrices,
)
from nscsg.model import RewardStructure
from nscsg.nfg import BimatrixGame, zero_sum_value
from nscsg.speprog import evaluate_values
from nscsg.unfold import unfold_regions, unfold_tree
from nscsg.verify import check_spce, check_spne


@pytest.fixture(scope="module")
def counterexample_tree():
    bm = build("counterexample", {"phi": -10})
    return bm, unfold_tree(bm.model, bm.initial, bm.horizon)


def counting_rewards(rewards):
    """Reward structures that count their callback calls per agent."""
    counts = {"state": [0, 0], "action": [0, 0]}

    def wrap(i, r):
        def state_reward(state):
            counts["state"][i] += 1
            return r.state_reward(state)

        def action_reward(state, joint):
            counts["action"][i] += 1
            return r.action_reward(state, joint)

        return RewardStructure(action_reward, state_reward)

    return tuple(wrap(i, r) for i, r in enumerate(rewards)), counts


class TestOneKernel:
    """Every solver and checker reads payoffs through one stage-game kernel:
    one pass calls each agent's state reward once per node and its action
    reward once per (nonleaf node, joint action)."""

    @pytest.mark.parametrize("caller, passes", [
        (lambda tree, rewards, sol: run_gbi(tree, rewards, "ne"), 1),
        (lambda tree, rewards, sol: evaluate_values(tree, rewards, sol), 1),
        (lambda tree, rewards, sol: check_spne(tree, rewards, sol), 2),
    ], ids=["run_gbi", "evaluate_values", "check_spne"])
    def test_reward_calls_per_pass(self, counterexample_tree, caller, passes):
        bm, tree = counterexample_tree
        sol = run_gbi(tree, bm.rewards, "ne")
        rewards, counts = counting_rewards(bm.rewards)
        caller(tree, rewards, sol)
        joints = sum(len(tree.nodes[nid].joints) for nid in tree.nonleaf_ids())
        assert counts == {"state": [passes * len(tree.nodes)] * 2,
                          "action": [passes * joints] * 2}


class TestRunGbi:
    def test_counterexample_welfare_both_kinds(self, counterexample_tree):
        bm, tree = counterexample_tree
        for kind in ("ne", "ce"):
            sol = run_gbi(tree, bm.rewards, kind, "sw-optimal")
            assert social_welfare(sol) == pytest.approx(-8.0, abs=1e-9)

    def test_zero_horizon_is_state_reward(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 0)
        sol = run_gbi(tree, bm.rewards, "ne")
        assert np.allclose(sol.values[0], [0.0, 0.0])
        assert sol.profiles == {}

    def test_values_match_stage_game_expectation(self):
        bm = random_model(31)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        for kind in ("ne", "ce"):
            sol = run_gbi(tree, bm.rewards, kind)
            for nid in tree.nonleaf_ids():
                node = tree.nodes[nid]
                z1, z2 = stage_matrices(tree, bm.rewards, node, sol.values)
                joint = sol.profiles[nid].joint_distribution()
                assert sol.values[nid, 0] == pytest.approx((joint * z1).sum(), abs=1e-7)
                assert sol.values[nid, 1] == pytest.approx((joint * z2).sum(), abs=1e-7)

    def test_outputs_are_subgame_perfect(self):
        for seed in (41, 43):
            bm = random_model(seed)
            tree = unfold_tree(bm.model, bm.initial, bm.horizon)
            ne = run_gbi(tree, bm.rewards, "ne")
            assert check_spne(tree, bm.rewards, ne, tol=1e-6).passed
            ce = run_gbi(tree, bm.rewards, "ce")
            assert check_spce(tree, bm.rewards, ce, tol=1e-6).passed

    def test_region_equals_tree_when_no_sharing(self, counterexample_tree):
        bm, tree = counterexample_tree
        rg = unfold_regions(bm.model, bm.initial, bm.horizon)
        sol_t = run_gbi(tree, bm.rewards, "ne")
        sol_r = run_gbi(rg, bm.rewards, "ne")
        assert np.allclose(sol_t.values[0], sol_r.values[0], atol=1e-9)

    def test_region_equals_tree_with_heavy_sharing(self):
        # backward induction only reads (state, stage), so merging histories
        # must not change any value even on probabilistic models
        bm = build("vcas", {"t0": 2, "eps_own": 0.1, "eps_int": 0.2, "trust0": (2, 3)})
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        rg = unfold_regions(bm.model, bm.initial, bm.horizon)
        assert len(rg.nodes) < len(tree.nodes)
        for kind in ("ne", "ce"):
            sol_t = run_gbi(tree, bm.rewards, kind)
            sol_r = run_gbi(rg, bm.rewards, kind)
            assert np.allclose(sol_t.values[0], sol_r.values[0], atol=1e-9)
        for seed in (301, 307):
            bmr = random_model(seed)
            tr = unfold_tree(bmr.model, bmr.initial, bmr.horizon)
            rg = unfold_regions(bmr.model, bmr.initial, bmr.horizon)
            v_t = run_gbi(tr, bmr.rewards, "ne").values[0]
            v_r = run_gbi(rg, bmr.rewards, "ne").values[0]
            assert np.allclose(v_t, v_r, atol=1e-9)

    def test_root_value_matches_path_enumeration(self):
        bm = random_model(47)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = run_gbi(tree, bm.rewards, "ne")
        for agent in range(2):
            assert sol.values[0, agent] == pytest.approx(
                profile_value_by_hand(tree, bm.rewards, sol, agent), abs=1e-9
            )

    def test_policies_differ_only_in_selection(self, counterexample_tree):
        bm, tree = counterexample_tree
        first = run_gbi(tree, bm.rewards, "ne", "first-found")
        assert check_spne(tree, bm.rewards, first, tol=1e-6).passed
        seeded = run_gbi(tree, bm.rewards, "ne", "seeded-random", seed=5)
        again = run_gbi(tree, bm.rewards, "ne", "seeded-random", seed=5)
        assert np.allclose(seeded.values, again.values)


class TestSocialWelfare:
    def test_leaf_is_state_reward_sum(self, counterexample_tree):
        bm, tree = counterexample_tree
        sol = run_gbi(tree, bm.rewards, "ne")
        leaf = next(n for n in tree.nodes if tree.is_leaf(n) and int(n.state.env[0]) == 9)
        assert social_welfare(sol, leaf.id) == pytest.approx(7.0)

    def test_counterexample_root(self, counterexample_tree):
        bm, tree = counterexample_tree
        sol = run_gbi(tree, bm.rewards, "ne")
        assert social_welfare(sol) == pytest.approx(2.0 + (-10.0), abs=1e-12)

    def test_agrees_with_independent_recomputation(self):
        bm = random_model(53)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = run_gbi(tree, bm.rewards, "ce")
        values, _ = evaluate_values(tree, bm.rewards, sol)
        assert social_welfare(sol) == pytest.approx(float(values[0].sum()), abs=1e-9)


class TestMinimax:
    def test_single_stage_equals_matrix_value(self):
        rng = np.random.default_rng(3)
        p1 = rng.normal(size=(3, 3))
        _, _, v = zero_sum_value(p1)
        bm = random_model(59)
        # stand-alone stage comparison through a fabricated 1-stage model is
        # unnecessary: the recursion bottoms out in zero_sum_value directly
        assert v == pytest.approx(zero_sum_value(BimatrixGame(p1, -p1))[2], abs=1e-12)

    def test_counterexample_zero_sum_hand_value(self):
        # with r2 = -r1: the only interesting subgame has matrix
        # [[0,0],[0,5]], whose maximin value is 0 (pure saddle), and the root
        # game is then [[1,3],[0,0]] with value 1 at (U, L)
        bm = build("counterexample", {"phi": -10, "zero_sum": True})
        tree = unfold_tree(bm.model, bm.initial, 2)
        mm = run_minimax(tree, bm.rewards)
        assert mm.values[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert mm.values[0, 1] == pytest.approx(-1.0, abs=1e-9)

    def test_minimax_at_most_best_equilibrium_payoff(self, counterexample_tree):
        # agent 1 can only gain from coordination relative to pure opposition
        bm, tree = counterexample_tree
        bmz = build("counterexample", {"phi": -10, "zero_sum": True})
        treez = unfold_tree(bmz.model, bmz.initial, 2)
        mm = run_minimax(treez, bmz.rewards)
        from nscsg.speprog import solve_exact_grid

        best_v1 = solve_exact_grid(tree, bm.rewards, "ne", 5).solution.values[0, 0]
        assert mm.values[0, 0] <= best_v1 + 1e-9


class TestSerialisation:
    def test_round_trip(self, tmp_path, counterexample_tree):
        bm, tree = counterexample_tree
        for kind in ("ne", "ce"):
            sol = run_gbi(tree, bm.rewards, kind)
            path = tmp_path / f"{kind}.json"
            solution_to_json(tree, sol, path)
            loaded = solution_from_json(tree, str(path))
            assert np.allclose(loaded.values, sol.values)
            for nid, prof in sol.profiles.items():
                assert np.allclose(prof.joint_distribution(),
                                   loaded.profiles[nid].joint_distribution())
