import tracemalloc

import numpy as np
import pytest

from conftest import random_model, random_profiles
from test_fsi import parent_map, walked_free_ancestors
from test_gbi import solution_bytes

from nscsg.benchmarks import build
from nscsg.errors import ModelError, ResourceLimitError, SolverError
from nscsg.fsi import FsiConfig, freeze_partition, solve_exact_grid_on_free
from nscsg.gbi import (EquilibriumSolution, StageGameCache, induce_groups, run_gbi, social_welfare,
                       stage_matrices)
from nscsg.nfg import BimatrixGame, StageSolution, swce, swne
from nscsg.speprog import (
    VarId,
    _evaluate,
    _gaps,
    _grid_floats,
    _grid_search,
    _slacks,
    _solution_values,
    _stacked,
    _values,
    _free_part,
    assignment_from_solution,
    build_ce_system,
    build_ne_system,
    check_feasibility,
    coordinate_ascent_solve,
    dump_system,
    evaluate_values,
    program_size,
    reinduction_solve,
    solve_exact_grid,
)
from nscsg.unfold import unfold_regions, unfold_tree


def one_stage_tree(p1, p2):
    """A single-stage game wrapped as a tree via the tabular machinery."""
    from nscsg.model import (
        Action,
        AgentSpec,
        AgentState,
        GlobalState,
        NsCsg,
        RewardStructure,
        as_vector,
    )

    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    m, n = p1.shape
    labels = [tuple(f"a{k}" for k in range(m)), tuple(f"b{k}" for k in range(n))]
    specs = []
    for i in range(2):
        specs.append(AgentSpec(
            name=f"agent{i+1}",
            local_states=(as_vector([0.0]),),
            percepts=(as_vector([0.0]),),
            actions=tuple(Action(lab, as_vector([float(k)])) for k, lab in enumerate(labels[i])),
            availability=lambda loc, per, _l=labels[i]: _l,
            observation=lambda state: as_vector([0.0]),
            local_transition=lambda loc, per, joint: ((loc, 1.0),),
        ))

    def env_step(env, actions):
        a = next(k for k, lab in enumerate(labels[0]) if lab == actions[0].label)
        b = next(k for k, lab in enumerate(labels[1]) if lab == actions[1].label)
        return as_vector([1.0 + a * n + b])

    model = NsCsg("stage", tuple(specs), env_step, 1)
    initial = GlobalState(
        tuple(AgentState(s.local_states[0], s.percepts[0]) for s in specs), as_vector([0.0])
    )

    def make_reward(p):
        def state_reward(state):
            idx = int(round(state.env[0]))
            if idx == 0:
                return 0.0
            a, b = divmod(idx - 1, n)
            return float(p[a, b])
        return RewardStructure(lambda s, a: 0.0, state_reward)

    rewards = (make_reward(p1), make_reward(p2))
    return unfold_tree(model, initial, 1), rewards


@pytest.fixture(scope="module")
def counterexample():
    bm = build("counterexample", {"phi": -10})
    return bm, unfold_tree(bm.model, bm.initial, bm.horizon)


class TestSystemSizes:
    def test_single_stage_2x2_ne_counts(self):
        tree, rewards = one_stage_tree(np.zeros((2, 2)), np.zeros((2, 2)))
        size = program_size(build_ne_system(tree, rewards))
        assert size.variables == (2 + 2 + 2) * 1
        assert size.constraints_with_zdef == (2 * 4 + 2 * 2 + 2 * 2 + 4) * 1

    def test_single_stage_2x2_ce_counts(self):
        tree, rewards = one_stage_tree(np.zeros((2, 2)), np.zeros((2, 2)))
        size = program_size(build_ce_system(tree, rewards))
        assert size.variables == (4 + 2) * 1
        assert size.constraints_without_zdef == (4 + 4 + 4 - 2 - 2 + 3) * 1

    def test_zero_horizon_empty_system(self):
        bm = build("counterexample", {})
        tree = unfold_tree(bm.model, bm.initial, 0)
        system = build_ne_system(tree, bm.rewards)
        assert not system.constraints and not system.variables
        assert program_size(system).variables == 0

    def test_degree_invariants(self, counterexample):
        bm, tree = counterexample
        ne = build_ne_system(tree, bm.rewards)
        assert max(c.degree() for c in ne.constraints) == 3
        for c in ne.constraints:
            if c.origin == "z-def":
                assert c.degree() <= 1
        ce = build_ce_system(tree, bm.rewards)
        assert max(c.degree() for c in ce.constraints if c.origin != "z-def") == 2

    def test_bounds_hold_on_random_models(self):
        for seed in (61, 67, 71):
            bm = random_model(seed)
            tree = unfold_tree(bm.model, bm.initial, bm.horizon)
            v = len(tree.nonleaf_ids())
            a1 = len(bm.model.agents[0].actions)
            a2 = len(bm.model.agents[1].actions)
            ne = program_size(build_ne_system(tree, bm.rewards))
            assert ne.variables <= (a1 + a2 + 2) * v
            assert ne.constraints_with_zdef <= (2 * a1 * a2 + 2 * a1 + 2 * a2 + 4) * v
            ce = program_size(build_ce_system(tree, bm.rewards))
            assert ce.variables <= (a1 * a2 + 2) * v
            assert ce.constraints_without_zdef <= (a1 * a2 + a1**2 + a2**2 - a1 - a2 + 3) * v

    def test_dump_one_line_per_constraint(self, tmp_path, counterexample):
        bm, tree = counterexample
        system = build_ne_system(tree, bm.rewards)
        path = tmp_path / "system.txt"
        dump_system(system, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(system.constraints)
        assert any("muN" in line and ">= 0" in line for line in lines)


class TestEvaluateValues:
    def test_leaf_values_are_state_rewards(self, counterexample):
        bm, tree = counterexample
        sol = run_gbi(tree, bm.rewards, "ne")
        values, _ = evaluate_values(tree, bm.rewards, sol)
        for n in tree.nodes:
            if tree.is_leaf(n):
                assert values[n.id, 0] == bm.rewards[0].state_reward(n.state)

    def test_counterexample_pure_profile(self, counterexample):
        bm, tree = counterexample
        profiles = {}
        for nid in tree.nonleaf_ids():
            node = tree.nodes[nid]
            m1, m2 = node.menus
            mu1 = np.zeros(len(m1))
            mu2 = np.zeros(len(m2))
            mu1[m1.index("D") if "D" in m1 else 0] = 1.0
            mu2[m2.index("L") if int(node.state.env[0]) == 1 else m2.index("R") if "R" in m2 else 0] = 1.0
            profiles[nid] = StageSolution("ne", mu1, mu2, None, np.zeros(2))
        sol = EquilibriumSolution("ne", np.zeros((len(tree.nodes), 2)), profiles, "manual")
        values, _ = evaluate_values(tree, bm.rewards, sol)
        assert np.allclose(values[0], [5.0, 2.0])

    def test_monte_carlo_cross_check(self):
        bm = random_model(73)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        rng = np.random.default_rng(0)
        sol = random_profiles(tree, "ne", rng)
        values, _ = evaluate_values(tree, bm.rewards, sol)

        # sampled rollouts agree within three standard errors
        n_samples = 20000
        totals = np.zeros((n_samples, 2))
        for s in range(n_samples):
            node = tree.root
            while not tree.is_leaf(node):
                prof = sol.profiles[node.id]
                m1, m2 = node.menus
                a = rng.choice(len(m1), p=prof.mu1)
                b = rng.choice(len(m2), p=prof.mu2)
                joint = (m1[a], m2[b])
                for i in range(2):
                    totals[s, i] += bm.rewards[i].action_reward(node.state, joint)
                    totals[s, i] += bm.rewards[i].state_reward(node.state)
                pairs = node.children[joint]
                probs = np.array([p for p, _ in pairs])
                node = tree.nodes[pairs[rng.choice(len(pairs), p=probs)][1]]
            for i in range(2):
                totals[s, i] += bm.rewards[i].state_reward(node.state)
        for i in range(2):
            se = totals[:, i].std() / np.sqrt(n_samples)
            assert abs(totals[:, i].mean() - values[0, i]) <= 3.0 * se + 1e-9


def two_walk_gaps(structure, rewards, kind, strategies, batch=()):
    """Values and gap table as two walks: the evaluation pass keeps every
    stage group's games, then :func:`_gaps` runs once per group."""
    games, stacks = {}, {}

    def step(group, z):
        stacks[group.index] = s = strategies(group)
        games[group.index] = z
        return _values(kind, z, s)

    values = induce_groups(structure, rewards, step, batch=batch)
    table = np.zeros(batch + (len(structure.nonleaf_ids()), 2))
    for groups in structure._compiled().groups:
        for group in groups:
            z = games[group.index]
            gap1, gap2 = _gaps(kind, z[0], z[1], stacks[group.index], values[..., group.ids, :])
            table[..., group.ids, 0] = gap1
            table[..., group.ids, 1] = gap2
    return values, table


def gap_structures():
    bm = build("parking", {"horizon": 8, "reward_structure": 2})
    yield "parking-k8", bm.rewards, unfold_regions(bm.model, bm.initial, 8)
    bm = build("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2})
    yield "vcas-t3-eps0.2", bm.rewards, unfold_regions(bm.model, bm.initial, bm.horizon)
    bm = build("counterexample", {"phi": -10})
    yield "counterexample", bm.rewards, unfold_tree(bm.model, bm.initial, bm.horizon)
    for seed in (5032, 5058):
        bm = random_model(seed)
        yield f"random-{seed}", bm.rewards, unfold_tree(bm.model, bm.initial, bm.horizon)


def reference_assignment(structure, rewards, solution):
    """:func:`assignment_from_solution` node by node, each node's Z entries
    from its own :func:`stage_matrices` call."""
    values = evaluate_values(structure, rewards, solution)[0]
    asg = {}
    for nid in structure.nonleaf_ids():
        node = structure.nodes[nid]
        m1, m2 = node.menus
        prof = solution.profiles[nid]
        if solution.kind == "ne":
            asg.update({VarId("muN", nid, 0, lab): float(p) for lab, p in zip(m1, prof.mu1)})
            asg.update({VarId("muN", nid, 1, lab): float(p) for lab, p in zip(m2, prof.mu2)})
        else:
            asg.update({VarId("muC", nid, joint=(la, lb)): float(prof.mu_joint[a, b])
                        for a, la in enumerate(m1) for b, lb in enumerate(m2)})
        z = stage_matrices(structure, rewards, node, values)
        for i in range(2):
            asg[VarId("V", nid, i)] = float(values[nid, i])
            asg.update({VarId("Z", nid, i, joint=(la, lb)): float(z[i][a, b])
                        for a, la in enumerate(m1) for b, lb in enumerate(m2)})
    return asg


class TestOnePassGaps:
    """The one evaluation pass gives the values and gap table bit for bit as
    a second walk over the kept stage games does."""

    def test_evaluate_values_matches_two_walks(self):
        for name, rewards, structure in gap_structures():
            for kind in ("ne", "ce"):
                rng = np.random.default_rng(len(structure.nodes))
                random = random_profiles(structure, kind, rng)
                for sol in (run_gbi(structure, rewards, kind), random):
                    values, gaps = evaluate_values(structure, rewards, sol)
                    ref_values, ref_gaps = two_walk_gaps(structure, rewards, kind,
                                                         _stacked(kind, sol.profiles))
                    assert values.tobytes() == ref_values.tobytes(), (name, kind)
                    assert gaps.shape == (len(structure.nonleaf_ids()), 2)
                    assert gaps.tobytes() == ref_gaps.tobytes(), (name, kind)

    def test_values_only_pass_is_evaluate_values(self):
        # the pass that check_spne, assignment_from_solution and re-induction
        # read builds no gap table and changes no bit of the values
        for name, rewards, structure in gap_structures():
            for kind in ("ne", "ce"):
                rng = np.random.default_rng(len(structure.nodes))
                for sol in (run_gbi(structure, rewards, kind), random_profiles(structure, kind, rng)):
                    values = _solution_values(structure, rewards, sol)
                    assert values.tobytes() == evaluate_values(structure, rewards, sol)[0].tobytes()

    @pytest.mark.parametrize("kind", ["ne", "ce"])
    def test_batched_evaluation_matches_two_walks(self, kind):
        bm = random_model(5058)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        rng = np.random.default_rng(11)
        points = [_stacked(kind, random_profiles(tree, kind, rng).profiles) for _ in range(3)]

        def strategies(group):
            return tuple(np.stack(parts) for parts in zip(*(point(group) for point in points)))

        values, gaps = _evaluate(tree, bm.rewards, kind, strategies, batch=(3,))
        ref_values, ref_gaps = two_walk_gaps(tree, bm.rewards, kind, strategies, batch=(3,))
        assert gaps.shape == (3, len(tree.nonleaf_ids()), 2) and gaps.max() > 0.0
        assert values.tobytes() == ref_values.tobytes()
        assert gaps.tobytes() == ref_gaps.tobytes()

    def test_ce_slack_kernel_matches_per_recommendation_loop(self):
        # the one batched matmul per agent gives, byte for byte, what one
        # vector-matrix product per recommended action gave; shapes 1-5 x
        # 1-5, 0-2 batch axes, some strategies without the batch axes
        def loop(z1, z2, mu):
            m, n = mu.shape[-2:]
            s1 = [np.matmul(mu[..., a, None, :], z1[..., a, :, None] - np.swapaxes(z1, -1, -2))[..., 0, :]
                  for a in range(m)]
            s2 = [np.matmul(np.swapaxes(z2[..., :, b, None] - z2, -1, -2), mu[..., :, b, None])[..., 0]
                  for b in range(n)]
            return np.concatenate(s1, axis=-1), np.concatenate(s2, axis=-1)

        rng = np.random.default_rng(41)
        for case in range(300):
            m, n = rng.integers(1, 6, size=2)
            batch = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            z1, z2 = rng.normal(size=(2,) + batch + (m, n)) * 10.0
            mu = rng.dirichlet(np.ones(m * n), size=batch or None).reshape(batch + (m, n))
            if case % 3 == 0:
                mu = mu[(0,) * len(batch)]
            got, expected = _slacks("ce", z1, z2, (mu,), None), loop(z1, z2, mu)
            for a, b in zip(got, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (m, n, batch)

    def test_assignment_matches_per_node_reference(self):
        for name, rewards, structure in gap_structures():
            for kind in ("ne", "ce"):
                sol = random_profiles(structure, kind, np.random.default_rng(5))
                got = assignment_from_solution(structure, rewards, sol)
                expected = reference_assignment(structure, rewards, sol)
                assert list(got.items()) == list(expected.items()), (name, kind)


class TestCheckFeasibility:
    def test_gbi_assignment_feasible(self, counterexample):
        bm, tree = counterexample
        for kind, builder in (("ne", build_ne_system), ("ce", build_ce_system)):
            sol = run_gbi(tree, bm.rewards, kind)
            system = builder(tree, bm.rewards)
            asg = assignment_from_solution(tree, bm.rewards, sol)
            assert check_feasibility(system, asg, 1e-7).feasible

    def test_random_profile_infeasible(self, counterexample):
        bm, tree = counterexample
        system = build_ne_system(tree, bm.rewards)
        sol = random_profiles(tree, "ne", np.random.default_rng(1))
        asg = assignment_from_solution(tree, bm.rewards, sol)
        report = check_feasibility(system, asg, 1e-7)
        assert not report.feasible
        assert report.max_inequality_violation > 0.01

    def test_zero_horizon_vacuous(self):
        bm = build("counterexample", {})
        tree = unfold_tree(bm.model, bm.initial, 0)
        system = build_ne_system(tree, bm.rewards)
        assert check_feasibility(system, {}, 1e-9).feasible

    def test_missing_variables_rejected(self, counterexample):
        bm, tree = counterexample
        system = build_ne_system(tree, bm.rewards)
        with pytest.raises(ModelError, match="misses"):
            check_feasibility(system, {}, 1e-9)


class TestExactGrid:
    def test_counterexample_optimum(self, counterexample):
        bm, tree = counterexample
        result = solve_exact_grid(tree, bm.rewards, "ne", 5)
        assert result.social_welfare == pytest.approx(7.0, abs=1e-9)
        root_prof = result.solution.profiles[0]
        m1, m2 = tree.root.menus
        assert root_prof.mu1[m1.index("D")] == 1.0
        assert root_prof.mu2[m2.index("L")] == 1.0
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        prof4 = result.solution.profiles[node4.id]
        assert prof4.mu1[1] == 1.0 and prof4.mu2[1] == 1.0  # (D, R)

    @pytest.mark.parametrize("kind, resolution", [("ne", 4), ("ce", 3)])
    def test_block_size_changes_no_result(self, counterexample, monkeypatch, kind, resolution):
        # one point per block, a few, and the default: each point is scored
        # as it would be alone, so the counts and the chosen point agree
        import nscsg.speprog as speprog

        bm, tree = counterexample
        results = []
        for budget in (1, 2000, speprog._GRID_BLOCK):
            monkeypatch.setattr(speprog, "_GRID_BLOCK", budget)
            grid = solve_exact_grid(tree, bm.rewards, kind, resolution)
            profiles = grid.solution.profiles
            results.append((grid.checked, grid.feasible, grid.social_welfare,
                            grid.solution.values.tobytes(),
                            solution_bytes(profiles[nid] for nid in sorted(profiles))))
        assert results[0] == results[1] == results[2]
        assert results[0][1] > 0

    @pytest.mark.parametrize("model, kind, resolution, counts", [
        ("counterexample", "ne", 10, (14641, 10)),
        ("counterexample", "ce", 5, (3136, 36)),
        (17, "ne", 10, None),
        (17, "ce", 4, None),
    ])
    def test_block_memory_is_counted(self, counterexample, monkeypatch, model, kind, resolution,
                                     counts):
        # the floats a grid point adds to the peak, measured as the slope of
        # tracemalloc peaks at two block budgets, stay within what
        # _grid_floats counts for the menu shapes (3x3 stages on random model
        # 17, whose root alone is gridded against its GBI solution), and
        # the count is not loose
        import nscsg.speprog as speprog

        if model == "counterexample":
            bm, tree = counterexample
            nodes, base = [tree.nodes[i] for i in sorted(tree.nonleaf_ids())], None
        else:
            bm = random_model(model)
            tree = unfold_tree(bm.model, bm.initial, bm.horizon)
            assert {tuple(map(len, tree.nodes[i].menus)) for i in tree.nonleaf_ids()} == {(3, 3)}
            nodes, base = [tree.root], run_gbi(tree, bm.rewards, kind)
        per_point = _grid_floats(tree, kind, len(nodes))
        measured = []
        for budget in (1 << 14, 1 << 17):
            monkeypatch.setattr(speprog, "_GRID_BLOCK", budget)
            tracemalloc.start()
            try:
                grid = _grid_search(tree, bm.rewards, kind, nodes, resolution, base, None,
                                    speprog.GRID_CAP)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            measured.append((budget // per_point, peak, grid.checked, grid.feasible,
                             grid.solution.values.tobytes()))
        (small, low, *result), (large, high, *again) = measured
        assert result == again
        if counts is not None:
            assert tuple(result[:2]) == counts
        slope = (high - low) / (large - small) / 8
        assert 0.8 * per_point <= slope <= per_point, (slope, per_point)

    def test_single_stage_matches_selection(self):
        rng = np.random.default_rng(2)
        p1, p2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        tree, rewards = one_stage_tree(p1, p2)
        result = solve_exact_grid(tree, rewards, "ne", 20, tol=1e-6)
        target = swne(BimatrixGame(p1, p2)).social_welfare
        # pure equilibria lie on the grid; mixed ones may sit between points
        assert result.social_welfare >= target - 0.3
        ce = solve_exact_grid(tree, rewards, "ce", 10, tol=1e-6)
        assert ce.social_welfare <= swce(BimatrixGame(p1, p2)).social_welfare + 1e-6

    def test_refinement_monotone_on_nested_grids(self):
        rng = np.random.default_rng(9)
        p1, p2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        tree, rewards = one_stage_tree(p1, p2)
        coarse = solve_exact_grid(tree, rewards, "ne", 4, tol=0.05)
        fine = solve_exact_grid(tree, rewards, "ne", 8, tol=0.05)
        if coarse.social_welfare is not None:
            assert fine.social_welfare >= coarse.social_welfare - 1e-12

    def test_grid_never_below_gbi_when_pure(self):
        for seed in (83, 89):
            bm = random_model(seed, max_actions=2, max_locs=1, max_horizon=2)
            tree = unfold_tree(bm.model, bm.initial, bm.horizon)
            gbi = run_gbi(tree, bm.rewards, "ne")
            grid = solve_exact_grid(tree, bm.rewards, "ne", 10)
            assert grid.social_welfare >= social_welfare(gbi) - 0.5 / 10 - 1e-9


class TestCoordinateAscent:
    def test_all_frozen_returns_init(self, counterexample):
        bm, tree = counterexample
        init = run_gbi(tree, bm.rewards, "ce")
        frozen = set(tree.nonleaf_ids())
        out = coordinate_ascent_solve(tree, bm.rewards, "ce", frozen, init)
        assert np.allclose(out.values, init.values)
        for nid in init.profiles:
            assert np.allclose(out.profiles[nid].joint_distribution(),
                               init.profiles[nid].joint_distribution())

    def test_welfare_never_decreases(self, counterexample):
        bm, tree = counterexample
        for kind in ("ne", "ce"):
            init = run_gbi(tree, bm.rewards, kind)
            out = coordinate_ascent_solve(tree, bm.rewards, kind, set(), init, rounds=3)
            assert float(out.values[0].sum()) >= social_welfare(init) - 1e-9
            from nscsg.verify import check_spce, check_spne

            check = check_spne if kind == "ne" else check_spce
            assert check(tree, bm.rewards, out, tol=1e-6).passed

    def test_single_free_history_matches_grid_subproblem(self):
        bm = random_model(97, max_actions=2, max_locs=1, max_horizon=2)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        init = run_gbi(tree, bm.rewards, "ce", "first-found")
        stage_nodes = [n.id for n in tree.stage_nodes(tree.horizon - 1)]
        free = {stage_nodes[0]} | {0} if tree.horizon > 1 else {stage_nodes[0]}
        # freeing only one late history: ascent must match re-solving that
        # stage with welfare-optimal selection under upstream constraints
        frozen = set(tree.nonleaf_ids()) - {stage_nodes[0]}
        out = coordinate_ascent_solve(tree, bm.rewards, "ce", frozen, init, rounds=4)
        assert float(out.values[0].sum()) >= social_welfare(init) - 1e-9

    @pytest.mark.parametrize("kind, passes", [("ne", 11), ("ce", 6)])
    def test_one_evaluation_per_candidate(self, counterexample, monkeypatch, kind, passes):
        # the initial evaluation plus one per candidate; a block step reuses
        # the values already held for the current solution
        import nscsg.speprog as speprog

        bm, tree = counterexample
        init = run_gbi(tree, bm.rewards, kind)
        counts = {"evaluate": 0, "candidates": 0}

        def evaluate(*args):
            counts["evaluate"] += 1
            return evaluate_values(*args)

        block_step = speprog._block_lp_step

        def step(*args):
            cand = block_step(*args)
            counts["candidates"] += cand is not None
            return cand

        monkeypatch.setattr(speprog, "evaluate_values", evaluate)
        monkeypatch.setattr(speprog, "_block_lp_step", step)
        coordinate_ascent_solve(tree, bm.rewards, kind, set(), init, rounds=2)
        assert counts["evaluate"] == 1 + counts["candidates"] == passes

    @pytest.mark.parametrize("seed", [None, 5003, 5005, 5015])
    @pytest.mark.parametrize("kind", ["ne", "ce"])
    def test_block_lps_from_an_equilibrium_yield_candidates(self, counterexample, monkeypatch,
                                                            kind, seed):
        # the current point is an equilibrium, so it satisfies every row of
        # its block LP and every LP has a solution (seed None: the
        # counterexample)
        import nscsg.speprog as speprog

        if seed is None:
            bm, tree = counterexample
        else:
            bm = random_model(seed)
            tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        steps = []
        block_step = speprog._block_lp_step

        def step(*args):
            steps.append(block_step(*args))
            return steps[-1]

        monkeypatch.setattr(speprog, "_block_lp_step", step)
        coordinate_ascent_solve(tree, bm.rewards, kind, set(), run_gbi(tree, bm.rewards, kind),
                                rounds=2)
        assert steps and all(cand is not None for cand in steps)
        if seed is None:
            assert len(steps) == (10 if kind == "ne" else 5)

    def test_infeasible_init_rejected(self, counterexample):
        bm, tree = counterexample
        bad = random_profiles(tree, "ne", np.random.default_rng(3))
        with pytest.raises(ModelError, match="infeasible"):
            coordinate_ascent_solve(tree, bm.rewards, "ne", set(), bad)


def reference_reinduction(structure, rewards, kind, frozen, init, rounds, cache):
    """Re-induction one candidate at a time: each trial re-solves its free
    ancestors node by node through :meth:`StageGameCache.solve`."""
    free = set(structure.nonleaf_ids()) - frozen
    parents = parent_map(structure)
    current = init.copy()
    current.values = evaluate_values(structure, rewards, current)[0]
    sw = float(current.values[0].sum())
    for _ in range(rounds):
        best = None
        for nid in sorted(free, key=lambda q: (-structure.nodes[q].stage, q)):
            z1, z2 = stage_matrices(structure, rewards, structure.nodes[nid], current.values)
            try:
                candidates = cache.stage_candidates(BimatrixGame(z1, z2), kind)
            except (SolverError, ResourceLimitError):
                continue
            cur_joint = current.profiles[nid].joint_distribution()
            for candidate in candidates:
                if np.abs(candidate.joint_distribution() - cur_joint).max() < 1e-9:
                    continue
                trial = current.copy()
                trial.profiles[nid] = candidate
                trial.values[nid] = candidate.payoffs
                for qid in walked_free_ancestors(structure, parents, free, nid):
                    z1, z2 = stage_matrices(structure, rewards, structure.nodes[qid], trial.values)
                    sol = trial.profiles[qid] = cache.solve(BimatrixGame(z1, z2), kind, "sw-optimal")
                    trial.values[qid] = sol.payoffs
                trial_sw = float(trial.values[0].sum())
                if trial_sw > sw + 1e-9 and (best is None or trial_sw > best[0] + 1e-12):
                    best = (trial_sw, trial)
        if best is None:
            break
        sw, current = best
    return current


def reinduction_structures():
    bm = build("parking", {"horizon": 8, "reward_structure": 2})
    yield "parking-k8", bm.rewards, unfold_regions(bm.model, bm.initial, 8)
    bm = build("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2})
    yield "vcas-t3-eps0.2", bm.rewards, unfold_regions(bm.model, bm.initial, bm.horizon)
    bm = build("counterexample", {"phi": -10})
    yield "counterexample", bm.rewards, unfold_tree(bm.model, bm.initial, bm.horizon)
    for seed in (17, 31, 41, 57):  # draws with alternative equilibria below the root
        bm = random_model(seed)
        yield f"random-{seed}", bm.rewards, unfold_tree(bm.model, bm.initial, bm.horizon)


class TestReinduction:
    def test_matches_per_candidate_reference(self):
        """Scoring a node's candidates as one stack gives what one walk per
        candidate gives: values, profile bytes and all four cache counts,
        over a run of free parts as FSI draws them."""
        for name, rewards, structure in reinduction_structures():
            last_stage = structure.stage_nodes(structure.horizon - 1)
            picks = np.random.default_rng(0).integers(len(last_stage), size=3)
            for kind in ("ne", "ce"):
                caches = StageGameCache(), StageGameCache()
                ref, out = (run_gbi(structure, rewards, kind, cache=c) for c in caches)
                for pick in picks:
                    _, frozen = freeze_partition(structure, last_stage[pick].id)
                    ref = reference_reinduction(structure, rewards, kind, frozen, ref, 4, caches[0])
                    out = reinduction_solve(structure, rewards, kind, frozen, out, 4, caches[1])
                    where = (name, kind, int(pick))
                    assert out.values.tobytes() == ref.values.tobytes(), where
                    assert sorted(out.profiles) == sorted(ref.profiles), where
                    assert solution_bytes(out.profiles[nid] for nid in sorted(ref.profiles)) == \
                        solution_bytes(ref.profiles[nid] for nid in sorted(ref.profiles)), where
                    ref_counts, counts = ((c.hits, c.misses, c.candidate_hits, c.candidate_misses)
                                          for c in caches)
                    assert counts == ref_counts, where

    @pytest.mark.parametrize("budget", [1, 4 * 770], ids=["one-node", "four-parking-trials"])
    def test_trial_blocks_match_per_candidate_reference(self, monkeypatch, budget):
        """Trial blocks of one node each (a budget below one trial's values)
        and of a few nodes (four parking-k8 trials' values) give what one walk
        per candidate gives."""
        import nscsg.speprog as speprog

        nodes_per_block, rounds = [], []
        score, candidates = speprog._score_trials, speprog._round_candidates

        def counted_score(structure, rewards, kind, current, sw, best, trials, *rest):
            nodes_per_block.append(len({nid for nid, _ in trials}))
            return score(structure, rewards, kind, current, sw, best, trials, *rest)

        def counted_round(*args):
            rounds.append(1)
            return candidates(*args)

        monkeypatch.setattr(speprog, "_TRIAL_BLOCK", budget)
        monkeypatch.setattr(speprog, "_score_trials", counted_score)
        monkeypatch.setattr(speprog, "_round_candidates", counted_round)
        self.test_matches_per_candidate_reference()
        assert len(nodes_per_block) > len(rounds)  # some rounds took several blocks
        assert max(nodes_per_block) == 1 if budget == 1 else max(nodes_per_block) > 1

    @pytest.mark.parametrize("kind", ["ne", "ce"])
    def test_failing_candidates_skip_only_their_node(self, monkeypatch, kind):
        """A free node whose candidates raise is skipped, as the reference
        skips it, while the other games of its stack keep their candidates."""
        import nscsg.gbi as gbi

        _, rewards, structure = next(reinduction_structures())
        last_stage = structure.stage_nodes(structure.horizon - 1)
        _, frozen = freeze_partition(structure, last_stage[0].id)
        init = run_gbi(structure, rewards, kind)
        by_shape: dict = {}
        for nid in _free_part(structure, frozen)[0]:
            by_shape.setdefault(tuple(map(len, structure.nodes[nid].menus)), []).append(nid)
        target = next(ids[0] for ids in by_shape.values() if len(ids) > 1)
        bad = tuple(z.tobytes() for z in stage_matrices(structure, rewards, structure.nodes[target],
                                                          init.values))
        solve, raised = gbi._candidates_stack, []

        def failing(p1, p2, kind):
            if bad in {(a.tobytes(), b.tobytes()) for a, b in zip(p1, p2)}:
                raised.append(len(p1))
                raise SolverError("injected")
            return solve(p1, p2, kind)

        monkeypatch.setattr(gbi, "_candidates_stack", failing)
        caches = StageGameCache(), StageGameCache()
        ref = reference_reinduction(structure, rewards, kind, frozen, init, 4, caches[0])
        n_ref = len(raised)
        out = reinduction_solve(structure, rewards, kind, frozen, init, 4, caches[1])
        assert max(raised[n_ref:]) > 1  # a stack of several games raised ...
        assert raised.count(1) > n_ref  # ... and its games were solved again one at a time
        assert out.values.tobytes() == ref.values.tobytes()
        assert solution_bytes(out.profiles[nid] for nid in sorted(ref.profiles)) == \
            solution_bytes(ref.profiles[nid] for nid in sorted(ref.profiles))
        ref_counts, counts = ((c.hits, c.misses, c.candidate_hits, c.candidate_misses)
                              for c in caches)
        assert counts == ref_counts

    def test_one_stack_per_stage_group_and_block(self, monkeypatch):
        """In parking-k8's FSI runs a re-induction round makes one candidate
        stack per menu shape, and a trial block one stage_games and one
        solve_stack call per stage group that holds a free node: no call
        per (node, ancestor)."""
        import nscsg.fsi as fsi
        import nscsg.speprog as speprog

        _, rewards, structure = next(reinduction_structures())
        compiled = structure._compiled()
        counts = dict.fromkeys(("rounds", "blocks", "stage_games", "candidate_stacks",
                                "solve_stacks", "pairs"), 0)
        calls = []

        def counted(key, fn, stack_rows=False):
            def wrapper(*args):
                counts[key] += 1
                if stack_rows:  # (cache, z, ...): z holds one game per row
                    counts["pairs"] += args[1].shape[1]
                return fn(*args)
            return wrapper

        def reinduce(structure, rewards, kind, frozen, *rest, **options):
            counts.update(dict.fromkeys(counts, 0))
            out = solve(structure, rewards, kind, frozen, *rest, **options)
            free = _free_part(structure, frozen)[0]
            calls.append((dict(counts), len({tuple(map(len, structure.nodes[nid].menus))
                                             for nid in free}),
                          len({compiled.locate(nid)[0].index for nid in free})))
            return out

        solve = speprog.reinduction_solve
        monkeypatch.setattr(fsi, "reinduction_solve", reinduce)
        monkeypatch.setattr(speprog, "_round_candidates",
                            counted("rounds", speprog._round_candidates))
        monkeypatch.setattr(speprog, "_score_trials", counted("blocks", speprog._score_trials))
        monkeypatch.setattr(speprog, "stage_games", counted("stage_games", speprog.stage_games))
        monkeypatch.setattr(StageGameCache, "stage_candidates_stack",
                            counted("candidate_stacks", StageGameCache.stage_candidates_stack))
        monkeypatch.setattr(StageGameCache, "solve_stack",
                            counted("solve_stacks", StageGameCache.solve_stack, stack_rows=True))
        for kind in ("ne", "ce"):
            fsi.run_fsi(structure, rewards, kind, fsi.FsiConfig(m_max=4, seed=0, solver_rounds=3))
        assert sum(c["blocks"] for c, _, _ in calls) > 0
        for c, shapes, groups in calls:
            assert c["blocks"] <= c["rounds"]  # a round is one block here
            assert c["candidate_stacks"] <= c["rounds"] * shapes
            assert c["solve_stacks"] <= c["blocks"] * groups
            assert c["stage_games"] <= (c["rounds"] + c["blocks"]) * groups
        assert sum(c["pairs"] for c, _, _ in calls) > 10 * sum(c["solve_stacks"] for c, _, _ in calls)

    def test_counterexample_reaches_global_optimum(self, counterexample):
        bm, tree = counterexample
        for kind in ("ne", "ce"):
            init = run_gbi(tree, bm.rewards, kind)
            out = reinduction_solve(tree, bm.rewards, kind, set(), init)
            assert float(out.values[0].sum()) >= 7.0 - 1e-9

    def test_respects_frozen_nodes(self, counterexample):
        bm, tree = counterexample
        init = run_gbi(tree, bm.rewards, "ne")
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        frozen = {node4.id}
        out = reinduction_solve(tree, bm.rewards, "ne", frozen, init)
        assert np.allclose(out.profiles[node4.id].joint_distribution(),
                           init.profiles[node4.id].joint_distribution())
        # node 4 keeps the welfare-8 equilibrium, so the root cannot improve
        assert float(out.values[0].sum()) == pytest.approx(-8.0, abs=1e-9)


class TestFreePart:
    @pytest.mark.parametrize("name, params, unfold", [
        ("counterexample", {"phi": -10}, unfold_tree),
        ("parking", {"horizon": 8, "reward_structure": 2}, unfold_regions),
    ], ids=["counterexample-tree", "parking-k8-region"])
    def test_frozen_parent_of_a_free_history_raises(self, name, params, unfold):
        """Every inner solver rejects a frozen set that holds a parent of a
        free history: here a parent of the deepest free node of an FSI
        partition."""
        bm = build(name, params)
        structure = unfold(bm.model, bm.initial, bm.horizon)
        last_stage = structure.stage_nodes(structure.horizon - 1)
        free, frozen = freeze_partition(structure, last_stage[-1].id)
        nid = max(free, key=lambda q: (structure.nodes[q].stage, q))
        parent = max(parent_map(structure)[nid])
        frozen = frozen | {parent}
        init = run_gbi(structure, bm.rewards, "ne")
        solvers = [lambda: coordinate_ascent_solve(structure, bm.rewards, "ne", frozen, init),
                   lambda: reinduction_solve(structure, bm.rewards, "ne", frozen, init),
                   lambda: solve_exact_grid_on_free(structure, bm.rewards, "ne", frozen, init,
                                                    FsiConfig())]
        for solve in solvers:
            with pytest.raises(ModelError, match="free set must contain every parent of a free history"):
                solve()


class TestWorstCaseEquality:
    def test_full_branching_model_attains_bounds(self):
        from test_unfold import full_branching_model

        model, initial, rewards = full_branching_model(n_act=2, n_loc=2)
        tree = unfold_tree(model, initial, 2)
        b = 2 * 2 * 2 * 2
        v = (b**2 - 1) // (b - 1)
        assert len(tree.nonleaf_ids()) == v
        ne = program_size(build_ne_system(tree, rewards))
        assert ne.variables == (2 + 2 + 2) * v
        assert ne.constraints_with_zdef == (2 * 4 + 2 * 2 + 2 * 2 + 4) * v
        ce = program_size(build_ce_system(tree, rewards))
        assert ce.variables == (4 + 2) * v
        assert ce.constraints_without_zdef == (4 + 4 + 4 - 2 - 2 + 3) * v
