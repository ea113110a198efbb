import itertools

import numpy as np
import pytest

from conftest import enumerate_paths, path_reward_by_hand, random_model, random_profiles

from nscsg.benchmarks import build
from nscsg.errors import ModelError
from nscsg.gbi import EquilibriumSolution, run_gbi
from nscsg.model import FeedForwardNet
from nscsg.nfg import StageSolution
from nscsg.unfold import unfold_regions, unfold_tree
from nscsg.verify import best_response_value, check_spce, check_spne, simulate


def pure_strategy_br_oracle(structure, rewards, solution, agent):
    """Exhaustive enumeration over the agent's pure behaviours.

    Against a fixed opponent some pure behaviour is optimal, so the maximum
    over all of them is the true best-response value at the root.
    """
    nonleaf = structure.nonleaf_ids()
    menus = [structure.nodes[nid].menus[agent] for nid in nonleaf]
    assert np.prod([len(m) for m in menus]) <= 5000
    other = 1 - agent
    best = -np.inf
    for combo in itertools.product(*menus):
        choice = dict(zip(nonleaf, combo))
        total = 0.0
        for ids, prob, acts in enumerate_paths(structure):
            weight = prob
            consistent = True
            for k, joint in enumerate(acts):
                node = structure.nodes[ids[k]]
                own = joint[agent]
                if own != choice[node.id]:
                    consistent = False
                    break
                opp_menu = node.menus[other]
                prof = solution.profiles[node.id]
                opp_mix = prof.mu2 if agent == 0 else prof.mu1
                weight *= opp_mix[opp_menu.index(joint[other])]
            if not consistent or weight == 0.0:
                continue
            total += weight * path_reward_by_hand(structure, rewards, ids, acts, agent)
        best = max(best, total)
    return best


class TestBestResponseValue:
    def test_matching_pennies_indifference(self):
        from test_speprog import one_stage_tree

        tree, rewards = one_stage_tree([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
        profiles = {0: StageSolution("ne", np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                                     None, np.zeros(2))}
        sol = EquilibriumSolution("ne", np.zeros((len(tree.nodes), 2)), profiles, "manual")
        br = best_response_value(tree, rewards, sol, 0)
        assert br[0] == pytest.approx(0.0, abs=1e-12)

    def test_counterexample_node4_row_value(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        sol = run_gbi(tree, bm.rewards, "ne")
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        # against the column mixture (1, 0) both rows give agent 1 zero
        sol.profiles[node4.id] = StageSolution(
            "ne", np.array([1.0, 0.0]), np.array([1.0, 0.0]), None, np.zeros(2))
        br = best_response_value(tree, bm.rewards, sol, 0)
        assert br[node4.id] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", (101, 103, 107))
    def test_against_pure_enumeration_oracle(self, seed):
        bm = random_model(seed, max_actions=2, max_locs=2, max_horizon=2)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = random_profiles(tree, "ne", np.random.default_rng(seed))
        for agent in range(2):
            br = best_response_value(tree, bm.rewards, sol, agent)
            oracle = pure_strategy_br_oracle(tree, bm.rewards, sol, agent)
            assert br[0] == pytest.approx(oracle, abs=1e-9)

    def test_dominates_on_path_value_everywhere(self):
        from nscsg.speprog import evaluate_values

        bm = random_model(137)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = random_profiles(tree, "ne", np.random.default_rng(2))
        values, _ = evaluate_values(tree, bm.rewards, sol)
        for agent in range(2):
            br = best_response_value(tree, bm.rewards, sol, agent)
            for nid in tree.nonleaf_ids():
                assert br[nid] >= values[nid, agent] - 1e-9


class TestCheckSpne:
    @pytest.mark.parametrize("seed", (None, 101, 137))
    def test_gaps_are_best_response_less_value(self, seed):
        from nscsg.speprog import evaluate_values

        bm = build("counterexample", {"phi": -10}) if seed is None else random_model(seed)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = random_profiles(tree, "ne", np.random.default_rng(seed))
        values, _ = evaluate_values(tree, bm.rewards, sol)
        br = [best_response_value(tree, bm.rewards, sol, agent) for agent in range(2)]
        report = check_spne(tree, bm.rewards, sol)
        assert report.gaps == {(nid, agent): float(br[agent][nid] - values[nid, agent])
                               for agent in range(2) for nid in tree.nonleaf_ids()}

    def test_missing_strategy_data_raises(self):
        from nscsg.speprog import evaluate_values

        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        sol = run_gbi(tree, bm.rewards, "ne")
        del sol.profiles[tree.nonleaf_ids()[-1]]
        for check in (evaluate_values, check_spne,
                      lambda *args: best_response_value(*args, 1)):
            with pytest.raises(ModelError, match="strategy data missing"):
                check(tree, bm.rewards, sol)

    def test_gbi_output_passes(self):
        for seed in (109, 113):
            bm = random_model(seed)
            tree = unfold_tree(bm.model, bm.initial, bm.horizon)
            sol = run_gbi(tree, bm.rewards, "ne")
            assert check_spne(tree, bm.rewards, sol, tol=1e-6).passed

    def test_perturbation_fails_with_positive_gap(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        sol = run_gbi(tree, bm.rewards, "ne")
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        prof = sol.profiles[node4.id]
        # shifting 0.3 of agent 2's mass onto R is strictly worse against U
        sol.profiles[node4.id] = StageSolution(
            "ne", prof.mu1.copy(), np.array([0.7, 0.3]), None, prof.payoffs)
        report = check_spne(tree, bm.rewards, sol, tol=1e-6)
        assert not report.passed
        assert report.max_gap > 0.1
        assert report.worst() == (node4.id, 1)

    def test_single_action_model_always_passes(self):
        bm = random_model(127, max_actions=1, max_locs=2)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = random_profiles(tree, "ne", np.random.default_rng(0))
        assert check_spne(tree, bm.rewards, sol, tol=1e-9).passed

    def test_report_serialises(self, tmp_path):
        bm = build("counterexample", {})
        tree = unfold_tree(bm.model, bm.initial, 2)
        sol = run_gbi(tree, bm.rewards, "ne")
        report = check_spne(tree, bm.rewards, sol)
        doc = report.to_json(tmp_path / "report.json")
        assert doc["passed"] and (tmp_path / "report.json").exists()


class TestCheckSpce:
    def test_gbi_output_passes(self):
        bm = random_model(131)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = run_gbi(tree, bm.rewards, "ce")
        assert check_spce(tree, bm.rewards, sol, tol=1e-6).passed

    def test_dominated_point_mass_fails(self):
        from test_speprog import one_stage_tree

        # prisoner's dilemma: recommending the dominated joint action fails
        tree, rewards = one_stage_tree([[3, 0], [4, 1]], [[3, 4], [0, 1]])
        mu = np.zeros((2, 2))
        mu[0, 0] = 1.0
        profiles = {0: StageSolution("ce", None, None, mu, np.zeros(2))}
        sol = EquilibriumSolution("ce", np.zeros((len(tree.nodes), 2)), profiles, "manual")
        report = check_spce(tree, rewards, sol, tol=1e-6)
        assert not report.passed and report.max_gap == pytest.approx(1.0)

    def test_single_action_game_passes(self):
        from test_speprog import one_stage_tree

        tree, rewards = one_stage_tree([[2.0]], [[3.0]])
        mu = np.ones((1, 1))
        profiles = {0: StageSolution("ce", None, None, mu, np.zeros(2))}
        sol = EquilibriumSolution("ce", np.zeros((len(tree.nodes), 2)), profiles, "manual")
        assert check_spce(tree, rewards, sol, tol=1e-9).passed


class TestSimulate:
    def test_pure_deterministic_path_seed_independent(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        sol = run_gbi(tree, bm.rewards, "ne")  # pure strategies, deterministic moves
        runs = [simulate(tree, sol, bm.rewards, seed=s) for s in (0, 1, 99)]
        traces = [[tuple(s.env) for s in r.path.states] for r in runs]
        assert traces[0] == traces[1] == traces[2]
        assert np.allclose(runs[0].totals, sol.values[0])

    def test_negative_seed_is_a_model_error(self):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, 2)
        with pytest.raises(ModelError, match="seed must be nonnegative"):
            simulate(tree, run_gbi(tree, bm.rewards, "ne"), bm.rewards, seed=-1)

    def test_forced_advisory_chain_matches_dynamics(self):
        # networks pinned so the play follows one compliant descent/climb
        # profile; the environment chain must equal the closed-form values
        w_gate = np.zeros((9, 4))
        w_gate[3, 0] = 1.0
        w_gate[3, 3] = 50.0
        b_gate = np.zeros(9)
        b_gate[0] = 0.5
        b_gate[3] = -150.0  # advisory-4 score = h + 50 t - 150: wins only at t = 3
        f1 = FeedForwardNet(((w_gate, b_gate),))
        one = np.zeros(9)
        one[0] = 1.0
        const1 = FeedForwardNet(((np.zeros((9, 4)), one),))
        nets = [f1] + [const1] * 8
        bm = build("vcas", {"nets": nets, "t0": 3})
        tree = unfold_tree(bm.model, bm.initial, 3)
        sol = run_gbi(tree, bm.rewards, "ne", "sw-optimal")
        sim = simulate(tree, sol, bm.rewards, seed=0)
        chain = [tuple(s.env) for s in sim.path.states]
        assert np.allclose(chain[0], (50.0, -5.0, 5.0, 3.0))
        assert np.allclose(chain[1], (66.165, -14.33, 8.0, 2.0), atol=1e-9)
        assert np.allclose(chain[2], (91.495, -17.33, 11.0, 1.0), atol=1e-9)
        assert np.allclose(chain[3], (122.825, -20.33, 14.0, 0.0), atol=1e-9)
        # display rounding matches the published trajectory figure
        assert [round(c[0]) for c in chain] == [50, 66, 91, 123]
        assert sim.zero_action_counts == (0, 0)  # fully compliant run

    @pytest.mark.parametrize("name, params", [
        ("parking", {"horizon": 4}),
        ("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2}),
    ], ids=["parking-k4", "vcas-t3-eps0.2"])
    def test_region_graph_rollout_follows_the_tree(self, name, params):
        # merged histories solve the same stage games, so a seeded rollout
        # draws the same actions and outcomes on either structure; on VCAS
        # at eps 0.2 the drawn outcomes (the agents' local states) vary by seed
        bm = build(name, params)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        graph = unfold_regions(bm.model, bm.initial, bm.horizon)
        assert len(graph.nodes) < len(tree.nodes)

        def trace(sim):
            return [(s.env.tolist(), [a.loc.tolist() for a in s.agent_states]) for s in sim.path.states]

        for kind in ("ne", "ce"):
            on_tree, on_graph = run_gbi(tree, bm.rewards, kind), run_gbi(graph, bm.rewards, kind)
            for seed in range(20):
                a = simulate(tree, on_tree, bm.rewards, seed=seed)
                b = simulate(graph, on_graph, bm.rewards, seed=seed)
                assert trace(b) == trace(a)
                assert b.joint_actions == a.joint_actions
                assert b.totals.tolist() == a.totals.tolist()

    def test_trust_branch_frequencies(self):
        bias = np.zeros(9)
        bias[0] = 1.0
        net = FeedForwardNet(((np.zeros((9, 4)), bias),))
        bm = build("vcas", {"nets": [net] * 9, "t0": 1, "eps_own": 0.1, "trust0": (3, 4)})
        tree = unfold_tree(bm.model, bm.initial, 1)
        sol = run_gbi(tree, bm.rewards, "ne")
        n_runs = 10000
        up = 0
        for s in range(n_runs):
            sim = simulate(tree, sol, bm.rewards, seed=s)
            if int(sim.path.states[-1].agent_states[0].loc[0]) == 4:
                up += 1
        p = up / n_runs
        se = np.sqrt(0.9 * 0.1 / n_runs)
        assert abs(p - 0.9) <= 3 * se

    def test_violation_fraction(self):
        from test_speprog import one_stage_tree

        # a game whose only equilibrium plays the zero-valued first action
        tree, rewards = one_stage_tree([[1.0, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 0.5]])
        sol = run_gbi(tree, rewards, "ne")
        sim = simulate(tree, sol, rewards, seed=0)
        assert sim.zero_action_counts == (1, 1)
        assert sim.zero_action_fractions == (1.0, 1.0)
