import itertools

import numpy as np
import pytest

from conftest import profile_value_by_hand, random_model

from nscsg.benchmarks import build
from nscsg.errors import ModelError, SolverError
from nscsg.gbi import (
    StageGameCache,
    _stage_candidates,
    induce_groups,
    run_gbi,
    run_minimax,
    social_welfare,
    solution_from_json,
    solution_to_json,
    stage_matrices,
)
from nscsg.model import RewardStructure
from nscsg.nfg import BimatrixGame, StageSolution, _ce_from_lp, any_equilibrium, enumerate_ne, zero_sum_value
from nscsg.nfg import _polytope_vertices as polytope_vertices
from nscsg.speprog import evaluate_values
from nscsg.unfold import unfold_regions, unfold_tree
from nscsg.verify import best_response_value, check_spce, check_spne


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


PASSES = {
    "run_gbi": lambda structure, rewards, sol: run_gbi(structure, rewards, "ne"),
    "evaluate_values": lambda structure, rewards, sol: evaluate_values(structure, rewards, sol),
    "check_spne": lambda structure, rewards, sol: check_spne(structure, rewards, sol),
}


class TestOneKernel:
    """Every solver and checker reads payoffs through one set of reward
    arrays per structure: each agent's state reward is called once per node and its
    action reward once per (nonleaf node, joint action), for a structure
    and reward structure, however many passes follow."""

    @pytest.mark.parametrize("first", list(PASSES))
    def test_reward_calls_per_pass(self, first):
        bm = build("counterexample", {"phi": -10})
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = run_gbi(tree, bm.rewards, "ne")
        joints = sum(len(tree.nodes[nid].joints) for nid in tree.nonleaf_ids())
        once = {"state": [len(tree.nodes)] * 2, "action": [joints] * 2}
        rewards, counts = counting_rewards(bm.rewards)
        # check_spne makes two passes (values and best responses)
        for name in [first] + [name for name in PASSES if name != first]:
            PASSES[name](tree, rewards, sol)
            assert counts == once, name
        # a fresh reward tuple, or a fresh structure, compiles again
        fresh, fresh_counts = counting_rewards(bm.rewards)
        PASSES[first](tree, fresh, sol)
        assert fresh_counts == once
        again = unfold_tree(bm.model, bm.initial, bm.horizon)
        PASSES[first](again, rewards, sol)
        assert counts == {key: [2 * c for c in calls] for key, calls in once.items()}

    def test_minimax_reads_only_agent_one(self, counterexample_tree):
        # the zero-sum baseline builds agent 1's stage games only
        bm, tree = counterexample_tree
        rewards, counts = counting_rewards(bm.rewards)
        run_minimax(tree, rewards)
        joints = sum(len(tree.nodes[nid].joints) for nid in tree.nonleaf_ids())
        assert counts == {"state": [len(tree.nodes), 0], "action": [joints, 0]}


    def test_non_finite_reward_names_first_history(self, counterexample_tree):
        # every pass reads rewards through the structure's arrays, which name the
        # lowest id whose state reward, or one of whose action rewards, is
        # not finite; leaves have no action rewards
        bm, tree = counterexample_tree
        base = bm.rewards[0]

        def poisoned(kind, envs):
            def state_reward(state):
                return np.inf if kind == "state" and state.env[0] in envs else base.state_reward(state)

            def action_reward(state, joint):
                if kind == "action" and state.env[0] in envs:
                    return np.nan
                return base.action_reward(state, joint)

            return RewardStructure(action_reward, state_reward), bm.rewards[1]

        named = set()
        all_envs = sorted({float(n.state.env[0]) for n in tree.nodes})
        for kind in ("state", "action"):
            for envs in itertools.combinations(all_envs, 2):
                holders = [n.id for n in tree.nodes if n.state.env[0] in envs
                           and (kind == "state" or not tree.is_leaf(n))]
                if not holders:
                    run_gbi(tree, poisoned(kind, envs), "ne")
                    continue
                with pytest.raises(ModelError, match=f"^history {min(holders)} has a state or action"):
                    run_gbi(tree, poisoned(kind, envs), "ne")
                named.add(min(holders))
        assert 0 in named and len(named) > 3


def reference_stage_matrices(structure, rewards, node, values):
    """The per-joint loop the stage-group kernel replaced, kept as the oracle."""
    m1, m2 = node.menus
    z = np.zeros((2, len(m1), len(m2)))
    state_rewards = [r.state_reward(node.state) for r in rewards]
    for a, lab1 in enumerate(m1):
        for b, lab2 in enumerate(m2):
            joint = (lab1, lab2)
            pairs = structure.children(node)[joint]
            for i, r in enumerate(rewards):
                acc = r.action_reward(node.state, joint) + state_rewards[i]
                for p, cid in pairs:
                    acc += p * values[cid, i]
                z[i, a, b] = acc
    return z[0], z[1]


def reference_induce(structure, rewards, step):
    """The node-by-node bottom-up pass over the reference kernel."""
    values = np.zeros((len(structure.nodes), 2))
    for stage in range(structure.horizon, -1, -1):
        for node in [n for n in structure.nodes if n.stage == stage]:
            if structure.is_leaf(node):
                values[node.id] = [r.state_reward(node.state) for r in rewards]
            else:
                values[node.id] = step(node, *reference_stage_matrices(structure, rewards, node, values))
    return values


def oracle_structures():
    bm = build("counterexample", {"phi": -10})
    yield "counterexample", bm.rewards, unfold_tree(bm.model, bm.initial, bm.horizon)
    yield "counterexample-h0", bm.rewards, unfold_tree(bm.model, bm.initial, 0)
    bm = build("parking", {"horizon": 4})
    yield "parking-k4", bm.rewards, unfold_regions(bm.model, bm.initial, bm.horizon)
    for seed in (5000, 5003, 5058):
        bm = random_model(seed)
        yield f"random-{seed}", bm.rewards, unfold_tree(bm.model, bm.initial, bm.horizon)
    # -0.0 payoffs: padding past a joint's last outcome must not turn them into 0.0
    bm = random_model(5058)
    negative_zero = (RewardStructure(lambda s, a: -0.0, lambda s: -0.0),) * 2
    yield "negative-zero", negative_zero, unfold_tree(bm.model, bm.initial, bm.horizon)


class TestCompiledKernel:
    """The stage-group stage games are bit-identical to the per-joint loop."""

    def test_matches_per_joint_loop(self):
        shapes, outcomes = set(), set()
        for name, rewards, structure in oracle_structures():
            rng = np.random.default_rng(len(structure.nodes))
            mixes = {n.id: rng.dirichlet(np.ones(len(n.joints))).reshape(tuple(map(len, n.menus)))
                     for n in structure.nodes if not structure.is_leaf(n)}

            def step(node, z1, z2):
                return (mixes[node.id] * z1).sum(), (mixes[node.id] * z2).sum()

            games: dict = {}

            def group_step(group, z):
                out = []
                for row, nid in enumerate(group.ids.tolist()):
                    for i in range(2):
                        games[(nid, i)] = z[i, row]
                    out.append(step(structure.nodes[nid], *z[:, row]))
                return out

            expected = reference_induce(structure, rewards, step)
            got = induce_groups(structure, rewards, group_step)
            assert got.tobytes() == expected.tobytes(), name
            tables = [expected, rng.normal(size=expected.shape),
                      np.full(expected.shape, -0.0)]
            for nid in structure.nonleaf_ids():
                node = structure.nodes[nid]
                shapes.add(tuple(map(len, node.menus)))
                outcomes.update(len(pairs) for pairs in structure.children(node).values())
                for values in tables:
                    ref = reference_stage_matrices(structure, rewards, node, values)
                    z = stage_matrices(structure, rewards, node, values)
                    assert [m.tobytes() for m in z] == [m.tobytes() for m in ref], (name, nid)
                assert [games[(nid, i)].tobytes() for i in range(2)] == \
                    [m.tobytes() for m in reference_stage_matrices(structure, rewards, node, expected)]
        assert (1, 1) in shapes and len(shapes) > 5
        assert {1, 2} <= outcomes

    def test_missing_strategy_data_names_first_node_bottom_up(self, counterexample_tree):
        # stage 1 has shapes 1x1, 1x1, 2x2, 1x1: node 4 shares node 1's stage
        # group, yet node 3 comes first in (-stage, id) order
        bm, tree = counterexample_tree
        assert [tuple(map(len, n.menus)) for n in tree.stage_nodes(1)] == \
            [(1, 1), (1, 1), (2, 2), (1, 1)]
        sol = run_gbi(tree, bm.rewards, "ne")
        for nid in (0, 3, 4):
            del sol.profiles[nid]
        passes = (evaluate_values, check_spne, lambda *args: best_response_value(*args, 0))
        for run in passes:
            with pytest.raises(ModelError, match="strategy data missing at history 3$"):
                run(tree, bm.rewards, sol)


def reference_gbi(structure, rewards, kind, policy, seed=None):
    """Backward induction node by node in id order over the reference kernel,
    each node through :meth:`StageGameCache.solve`, or under "seeded-random"
    through :func:`any_equilibrium`: values, profiles and the cache."""
    rng = np.random.default_rng(seed)
    cache = StageGameCache()
    profiles = {}

    def step(node, z1, z2):
        game = BimatrixGame(z1, z2)
        sol = profiles[node.id] = (any_equilibrium(game, kind, policy, rng) if policy == "seeded-random"
                                   else cache.solve(game, kind, policy))
        return sol.payoffs

    return reference_induce(structure, rewards, step), profiles, cache


@pytest.fixture(scope="module")
def vcas_t3():
    bm = build("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2})
    return bm, unfold_regions(bm.model, bm.initial, bm.horizon)


class TestGroupStep:
    """run_gbi solves each stage group as one stack and gives what a per-node
    pass gives: values, profile bytes and cache counts."""

    @pytest.mark.parametrize("policy", ["sw-optimal", "first-found", "seeded-random"])
    def test_matches_per_node_reference(self, policy, vcas_t3):
        bm, graph = vcas_t3
        cases = list(oracle_structures()) + [("vcas-t3-eps0.2", bm.rewards, graph)]
        for name, rewards, structure in cases:
            for kind in ("ne", "ce"):
                values, profiles, ref_cache = reference_gbi(structure, rewards, kind, policy, seed=7)
                cache = StageGameCache()
                sol = run_gbi(structure, rewards, kind, policy, seed=7, cache=cache)
                assert sol.values.tobytes() == values.tobytes(), (name, kind)
                assert sorted(sol.profiles) == sorted(profiles), (name, kind)
                assert solution_bytes(sol.profiles[nid] for nid in sorted(profiles)) == \
                    solution_bytes(profiles[nid] for nid in sorted(profiles)), (name, kind)
                assert (cache.hits, cache.misses) == (ref_cache.hits, ref_cache.misses), (name, kind)

    def test_a_second_pass_hits_every_game(self, vcas_t3):
        # the group step and StageGameCache.solve share one store and key
        bm, graph = vcas_t3
        cache = StageGameCache()
        first = run_gbi(graph, bm.rewards, "ne", cache=cache)
        counts = (cache.hits, cache.misses)
        again = run_gbi(graph, bm.rewards, "ne", cache=cache)
        assert (cache.hits, cache.misses) == (counts[0] + len(first.profiles), counts[1])
        assert again.values.tobytes() == first.values.tobytes()
        node = graph.nodes[0]
        z1, z2 = stage_matrices(graph, bm.rewards, node, first.values)
        assert cache.solve(BimatrixGame(z1, z2), "ne", "sw-optimal") is again.profiles[0]

    def test_work_counts(self, vcas_t3, monkeypatch):
        # deterministic counts of the stage solvers' work: over G 3x3 games
        # with one equilibrium each (both agents have a dominant action),
        # one StageSolution per game, no sort and no welfare key, and one
        # vertex enumeration per agent and chunk of the stack
        import nscsg.nfg as nfg

        rng = np.random.default_rng(19)
        g = 250
        p1, p2 = rng.normal(size=(2, g, 3, 3))
        p1[np.arange(g), rng.integers(3, size=g)] += 10.0
        p2[np.arange(g), :, rng.integers(3, size=g)] += 10.0
        counts = {"solutions": 0, "vertices": 0}

        def solution(*args):
            counts["solutions"] += 1
            return StageSolution(*args)

        def vertices(*args):
            counts["vertices"] += 1
            return polytope_vertices(*args)

        def unexpected(*args, **kwargs):
            raise AssertionError("a one-point game was sorted or scored")

        monkeypatch.setattr(nfg, "StageSolution", solution)
        monkeypatch.setattr(nfg, "_polytope_vertices", vertices)
        monkeypatch.setattr(nfg, "_support_order", unexpected)
        monkeypatch.setattr(nfg, "_max_welfare", unexpected)
        chunks = -(-g // (nfg._STACK_BASES // 40))  # a 3x3 game has 2 * C(6, 3) bases
        for policy in ("sw-optimal", "first-found"):
            counts.update(solutions=0, vertices=0)
            sols = nfg.any_equilibria(p1, p2, "ne", policy)
            assert len(sols) == g and all(sol.mu1.max() == 1.0 for sol in sols)
            assert counts == {"solutions": g, "vertices": 2 * chunks} and chunks == 3
        monkeypatch.undo()
        # the cache's hits and misses on a region graph, per kind and policy
        bm, graph = vcas_t3
        for kind in ("ne", "ce"):
            for policy in ("sw-optimal", "first-found"):
                cache = StageGameCache()
                run_gbi(graph, bm.rewards, kind, policy, cache=cache)
                assert (cache.hits, cache.misses) == (183, 57), (kind, policy)

    def test_one_stacked_enumeration_per_group(self, vcas_t3, monkeypatch):
        # each agent's polytope is enumerated once per stage group, not once
        # per missed game: a fall-back to per-node solving fails here
        bm, graph = vcas_t3
        calls = []

        def counted(col_payoffs, feas_tol):
            calls.append(len(col_payoffs))
            return polytope_vertices(col_payoffs, feas_tol)

        monkeypatch.setattr("nscsg.nfg._polytope_vertices", counted)
        cache = StageGameCache()
        run_gbi(graph, bm.rewards, "ne", cache=cache)
        groups = sum(len(g) for g in graph.groups)
        assert 0 < len(calls) <= 2 * groups < cache.misses
        assert sum(calls) == 2 * cache.misses


    def test_equilibrium_counts_where_counted(self, vcas_t3):
        # a deterministic Nash pass counts each node's extreme equilibria,
        # the same from the store's hits as from its misses; the passes
        # that count nothing carry None
        bm, graph = vcas_t3

        def enumerated(sol):
            games = (BimatrixGame(*stage_matrices(graph, bm.rewards, node, sol.values))
                     for node in graph.nodes if not graph.is_leaf(node))
            return [len(enumerate_ne(game)) for game in games] + \
                [0] * (len(graph.nodes) - graph.bounds[graph.horizon])

        cache = StageGameCache()
        first = run_gbi(graph, bm.rewards, "ne", "sw-optimal", cache=cache)
        assert first.ne_counts.tolist() == enumerated(first)
        hits = cache.hits
        again = run_gbi(graph, bm.rewards, "ne", "sw-optimal", cache=cache)
        assert cache.hits == hits + len(again.profiles)
        assert again.ne_counts.tolist() == first.ne_counts.tolist()
        first_found = run_gbi(graph, bm.rewards, "ne", "first-found")
        assert first_found.ne_counts.tolist() == enumerated(first_found)
        copied = first.copy()
        assert copied.ne_counts is not first.ne_counts
        assert copied.ne_counts.tolist() == first.ne_counts.tolist()
        uncounted = [run_gbi(graph, bm.rewards, "ce"),
                     run_gbi(graph, bm.rewards, "ne", "seeded-random", seed=3),
                     run_minimax(graph, bm.rewards),
                     solution_from_json(graph, solution_to_json(graph, first))]
        assert [sol.ne_counts for sol in uncounted] == [None] * 4


def solution_bytes(sols):
    return [(s.kind, *(None if a is None else a.tobytes()
                       for a in (s.mu1, s.mu2, s.mu_joint, s.payoffs))) for s in sols]


class TestStageCandidateMemo:
    def test_hit_returns_fresh_candidates_per_kind(self):
        rng = np.random.default_rng(3)
        game = BimatrixGame(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        same = BimatrixGame(game.p1.copy(), game.p2.copy())
        cache = StageGameCache()
        first = {kind: cache.stage_candidates(game, kind) for kind in ("ne", "ce")}
        assert (cache.candidate_hits, cache.candidate_misses) == (0, 2)
        for kind in ("ne", "ce"):
            again = cache.stage_candidates(same, kind)
            assert again is first[kind]
            assert solution_bytes(again) == solution_bytes(_stage_candidates(game, kind))
            assert {s.kind for s in again} == {kind}
        assert (cache.candidate_hits, cache.candidate_misses) == (2, 2)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_key_is_exact_payoff_bytes(self):
        p1 = np.array([[0.0, 1.0], [2.0, 0.0]])
        p2 = np.array([[1.0, 0.0], [0.0, 2.0]])
        cache = StageGameCache()
        cache.stage_candidates(BimatrixGame(p1, p2), "ne")
        negzero = p1.copy()
        negzero[0, 0] = -0.0
        got = cache.stage_candidates(BimatrixGame(negzero, p2), "ne")
        assert (cache.candidate_hits, cache.candidate_misses) == (0, 2)
        assert solution_bytes(got) == solution_bytes(_stage_candidates(BimatrixGame(negzero, p2), "ne"))


    def test_stack_counts_as_row_by_row_calls(self, monkeypatch):
        # a repeated key is a hit; a game whose candidates raise is not
        # stored, so each of its rows is a miss, in a stack as row by row
        import nscsg.gbi as gbi

        rng = np.random.default_rng(5)
        games = [rng.normal(size=(2, 3, 2)) for _ in range(3)]  # the last one fails
        order = [0, 1, 0, 2, 2, 0, 1]
        z = np.stack([games[k] for k in order], axis=1)
        solve = gbi._candidates_stack

        def failing(p1, p2, kind):
            if any(np.array_equal(p, games[2][0]) for p in p1):
                raise SolverError("injected")
            return solve(p1, p2, kind)

        monkeypatch.setattr(gbi, "_candidates_stack", failing)
        for kind in ("ne", "ce"):
            stacked, rows = StageGameCache(), StageGameCache()
            got = stacked.stage_candidates_stack(z, kind)
            want = []
            for k in order:
                try:
                    want.append(rows.stage_candidates(BimatrixGame(*games[k]), kind))
                except SolverError as exc:
                    want.append(exc)
            counts = (stacked.candidate_hits, stacked.candidate_misses)
            assert counts == (rows.candidate_hits, rows.candidate_misses) == (3, 4)
            for found, expected in zip(got, want):
                if isinstance(expected, SolverError):
                    assert isinstance(found, SolverError)
                else:
                    assert solution_bytes(found) == solution_bytes(expected)
            stacked.stage_candidates_stack(z, kind)
            assert (stacked.candidate_hits, stacked.candidate_misses) == (3 + 5, 4 + 2)

    @pytest.mark.parametrize("kind", ["ne", "ce"])
    def test_stack_is_per_game_candidates(self, kind):
        # integer payoffs: degenerate games with several equilibria each
        z = np.random.default_rng(11).integers(-3, 4, size=(2, 8, 3, 3)).astype(float)
        got = StageGameCache().stage_candidates_stack(z, kind)
        for k, found in enumerate(got):
            game = BimatrixGame(z[0, k], z[1, k])
            if kind == "ne":
                want = enumerate_ne(game)
            else:
                p1, p2 = game.p1.ravel(), game.p2.ravel()
                want, seen = [], set()
                for objective in (p1 + p2, -p1, -p2, p1, p2):
                    ce = _ce_from_lp(game, objective)
                    if tuple(np.round(ce.mu_joint.ravel(), 9)) not in seen:
                        seen.add(tuple(np.round(ce.mu_joint.ravel(), 9)))
                        want.append(ce)
            assert solution_bytes(found) == solution_bytes(want)
        assert max(map(len, got)) > 1


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
    def test_stacks_equal_a_per_node_loop(self):
        # run_minimax solves a stage group's maximin LPs as two stacks; a pass
        # with one zero_sum_value call per node gives the same bytes
        for name, rewards, structure in oracle_structures():
            profiles = {}

            def step(group, z):
                values = np.empty((len(group.ids), 1))
                for row, nid in enumerate(group.ids.tolist()):
                    x, y, v = zero_sum_value(z[0, row])
                    profiles[nid] = StageSolution("ne", x, y, None, np.array([v, -v]))
                    values[row] = v
                return values

            values = induce_groups(structure, rewards[:1], step)
            mm = run_minimax(structure, rewards)
            assert mm.values.tobytes() == np.hstack((values, -values)).tobytes(), name
            assert sorted(mm.profiles) == sorted(profiles), name
            assert solution_bytes(mm.profiles[nid] for nid in sorted(profiles)) == \
                solution_bytes(profiles[nid] for nid in sorted(profiles)), name

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
