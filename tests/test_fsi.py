import numpy as np
import pytest

from conftest import random_model

from nscsg.benchmarks import build
from nscsg.errors import ModelError, ResourceLimitError
from nscsg.fsi import (
    FsiConfig,
    freeze_partition,
    run_fsi,
    sample_history_uniform,
    select_history_max_sw,
    solve_exact_grid_on_free,
    write_trace_csv,
)
from nscsg.gbi import run_gbi, social_welfare
from nscsg.speprog import _free_part, solve_exact_grid
from nscsg.unfold import unfold_regions, unfold_tree
from nscsg.verify import check_spce, check_spne

# chi-square 99th percentiles for small degrees of freedom
CHI2_99 = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086, 6: 16.812}


@pytest.fixture(scope="module")
def counterexample():
    bm = build("counterexample", {"phi": -10})
    return bm, unfold_tree(bm.model, bm.initial, bm.horizon)


class TestRunFsi:
    def test_zero_iterations_returns_init(self, counterexample):
        bm, tree = counterexample
        init = run_gbi(tree, bm.rewards, "ne", "sw-optimal")
        sol, trace = run_fsi(tree, bm.rewards, "ne", FsiConfig(m_max=0))
        assert np.allclose(sol.values, init.values)
        assert len(trace) == 1 and trace[0].status == "init"

    def test_counterexample_reaches_optimum_with_grid_solver(self, counterexample):
        bm, tree = counterexample
        cfg = FsiConfig(m_max=5, seed=1, solver="grid", grid_resolution=5)
        sol, trace = run_fsi(tree, bm.rewards, "ne", cfg)
        assert trace[-1].social_welfare == pytest.approx(7.0, abs=1e-9)

    def test_counterexample_reaches_optimum_with_reinduce(self, counterexample):
        bm, tree = counterexample
        for kind in ("ne", "ce"):
            sol, trace = run_fsi(tree, bm.rewards, kind, FsiConfig(m_max=5, seed=1))
            assert trace[-1].social_welfare >= 7.0 - 1e-9

    def test_trace_nondecreasing_and_feasible(self):
        bm = random_model(201)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        for kind in ("ne", "ce"):
            sol, trace = run_fsi(tree, bm.rewards, kind, FsiConfig(m_max=4, seed=2))
            sws = [row.social_welfare for row in trace]
            assert all(b >= a - 1e-9 for a, b in zip(sws, sws[1:]))
            check = check_spne if kind == "ne" else check_spce
            assert check(tree, bm.rewards, sol, tol=1e-6).passed

    def test_longer_run_never_worse(self):
        bm = random_model(203)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        _, short = run_fsi(tree, bm.rewards, "ne", FsiConfig(m_max=2, seed=3))
        _, long = run_fsi(tree, bm.rewards, "ne", FsiConfig(m_max=6, seed=3))
        assert long[-1].social_welfare >= short[-1].social_welfare - 1e-12

    def test_frozen_variables_untouched(self, counterexample):
        bm, tree = counterexample
        init = run_gbi(tree, bm.rewards, "ne", "sw-optimal")
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        # sample a history avoiding node 4: its data must stay bit-identical
        sol, trace = run_fsi(tree, bm.rewards, "ne", FsiConfig(m_max=1, seed=0))
        picked = trace[-1].selected_node
        free, frozen = freeze_partition(tree, picked)
        for nid in frozen:
            assert np.array_equal(sol.profiles[nid].joint_distribution(),
                                  init.profiles[nid].joint_distribution())

    def test_parking_improvement(self):
        bm = build("parking", {"horizon": 8, "reward_structure": 2})
        rg = unfold_regions(bm.model, bm.initial, 8)
        gbi = run_gbi(rg, bm.rewards, "ne", "sw-optimal")
        assert social_welfare(gbi) == pytest.approx(-5.0, abs=1e-9)
        sol, trace = run_fsi(rg, bm.rewards, "ne", FsiConfig(m_max=4, seed=0, solver_rounds=3))
        assert trace[-1].social_welfare == pytest.approx(-4.5, abs=1e-9)
        assert check_spne(rg, bm.rewards, sol, tol=1e-6).passed

    def test_trace_csv(self, tmp_path, counterexample):
        bm, tree = counterexample
        _, trace = run_fsi(tree, bm.rewards, "ne", FsiConfig(m_max=2, seed=0))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,social_welfare,selected_history,status"
        assert len(lines) == len(trace) + 1

    @pytest.mark.parametrize("solver", ["reinduce", "coordinate-ascent", "grid"])
    @pytest.mark.parametrize("kind", ["ne", "ce"])
    def test_payoffs_are_the_values(self, counterexample, kind, solver):
        # a stage solution's payoffs are its node's value, whichever inner
        # solver last changed the node or one below it
        runs = [(counterexample, FsiConfig(m_max=5, seed=1, solver=solver, grid_resolution=5))]
        for seed in (5032, 5058):
            bm = random_model(seed)
            runs.append(((bm, unfold_tree(bm.model, bm.initial, bm.horizon)),
                         FsiConfig(m_max=3, seed=seed, policy="max-sw", epsilon=0.2,
                                   solver=solver, grid_resolution=2)))
        for (bm, tree), cfg in runs:
            sol, _ = run_fsi(tree, bm.rewards, kind, cfg)
            for nid in tree.nonleaf_ids():
                assert np.abs(sol.profiles[nid].payoffs - sol.values[nid]).max() <= 1e-9, (cfg, nid)

    @pytest.mark.parametrize("solver", ["reinduce", "coordinate-ascent", "grid"])
    def test_region_graphs_keep_invariants_under_every_solver(self, solver):
        for seed in (401, 409, 419):
            bm = random_model(seed)
            rg = unfold_regions(bm.model, bm.initial, bm.horizon)
            for kind in ("ne", "ce"):
                cfg = FsiConfig(m_max=2, seed=seed, solver=solver,
                                solver_rounds=2, grid_resolution=3)
                try:
                    sol, trace = run_fsi(rg, bm.rewards, kind, cfg)
                except Exception as exc:
                    from nscsg.errors import ResourceLimitError

                    if solver == "grid" and isinstance(exc, ResourceLimitError):
                        continue  # free region too large for exact enumeration
                    raise
                sws = [r.social_welfare for r in trace]
                assert all(b >= a - 1e-9 for a, b in zip(sws, sws[1:]))
                check = check_spne if kind == "ne" else check_spce
                assert check(rg, bm.rewards, sol, tol=1e-6).passed


class TestGridOnFree:
    def test_all_frozen_returns_incumbent(self, counterexample):
        bm, tree = counterexample
        init = run_gbi(tree, bm.rewards, "ne", "sw-optimal")
        frozen = set(tree.nonleaf_ids())
        result = solve_exact_grid_on_free(tree, bm.rewards, "ne", frozen, init, FsiConfig())
        assert result is init

    def test_oversized_free_part_raises(self, counterexample):
        bm, tree = counterexample
        init = run_gbi(tree, bm.rewards, "ne", "sw-optimal")
        # two free 2x2 nodes at resolution 50 need 2601^2 > 2,000,000 points
        with pytest.raises(ResourceLimitError) as err:
            solve_exact_grid_on_free(tree, bm.rewards, "ne", set(), init,
                                     FsiConfig(grid_resolution=50))
        assert err.value.stats["resolution"] == 50

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_resolution_below_one_raises_like_standalone_grid(self, counterexample, resolution):
        bm, tree = counterexample
        with pytest.raises(ModelError, match="grid resolution must be at least 1"):
            solve_exact_grid(tree, bm.rewards, "ne", resolution)
        cfg = FsiConfig(m_max=2, seed=1, solver="grid", grid_resolution=resolution)
        with pytest.raises(ModelError, match="grid resolution must be at least 1"):
            run_fsi(tree, bm.rewards, "ne", cfg)


class TestHistorySampling:
    def test_singleton(self):
        bm = build("counterexample", {})
        tree = unfold_tree(bm.model, bm.initial, 2)
        only = [tree.root]
        assert sample_history_uniform(only, np.random.default_rng(0)) is tree.root

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            sample_history_uniform([], np.random.default_rng(0))

    def test_uniformity(self):
        bm = build("counterexample", {})
        tree = unfold_tree(bm.model, bm.initial, 2)
        stage1 = tree.stage_nodes(1)
        rng = np.random.default_rng(7)
        n_draws = 10000
        counts = {n.id: 0 for n in stage1}
        for _ in range(n_draws):
            counts[sample_history_uniform(stage1, rng).id] += 1
        expected = n_draws / len(stage1)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 <= CHI2_99[len(stage1) - 1]

    def test_seeded_reproducibility(self):
        bm = build("counterexample", {})
        tree = unfold_tree(bm.model, bm.initial, 2)
        stage1 = tree.stage_nodes(1)
        a = [sample_history_uniform(stage1, np.random.default_rng(9)).id for _ in range(20)]
        # a fresh generator with the same seed replays the same sequence
        rng = np.random.default_rng(9)
        b = [sample_history_uniform(stage1, rng).id for _ in range(20)]
        assert a[0] == b[0]


class TestMaxSwSelection:
    def test_epsilon_one_is_uniform_walk(self, counterexample):
        bm, tree = counterexample
        sol = run_gbi(tree, bm.rewards, "ne")
        rng = np.random.default_rng(11)
        picks = {select_history_max_sw(tree, sol, 1.0, rng).id for _ in range(200)}
        assert len(picks) == len(tree.stage_nodes(1))

    def test_epsilon_zero_follows_unique_maxima(self, counterexample):
        bm, tree = counterexample
        sol = run_gbi(tree, bm.rewards, "ne")
        rng = np.random.default_rng(13)
        sums = {n.id: sol.values[n.id].sum() for n in tree.stage_nodes(1)}
        best = max(sums, key=sums.get)
        for _ in range(20):
            assert select_history_max_sw(tree, sol, 0.0, rng).id == best

    def test_ties_split_evenly(self):
        bm = random_model(209, max_actions=2, max_locs=1, max_horizon=1)
        tree = unfold_tree(bm.model, bm.initial, bm.horizon)
        sol = run_gbi(tree, bm.rewards, "ne")
        # force equal welfare everywhere, then the argmax set is everything
        sol.values[:] = 1.0
        rng = np.random.default_rng(17)
        counts = {}
        n_draws = 4000
        for _ in range(n_draws):
            nid = select_history_max_sw(tree, sol, 0.0, rng).id
            counts[nid] = counts.get(nid, 0) + 1
        k = len(tree.stage_nodes(tree.horizon - 1))
        if k > 1:
            expected = n_draws / k
            chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
            assert chi2 <= CHI2_99[min(k - 1, 6)]


def parent_map(structure):
    """Each node's parent ids, read from every node's ``children``."""
    parents = {node.id: set() for node in structure.nodes}
    for node in structure.nodes:
        for pairs in node.children.values():
            for _, cid in pairs:
                parents[cid].add(node.id)
    return parents


def walked_closure(parents, node_id):
    """The backward closure of ``node_id`` as a breadth-first walk through
    the parent map ``parents``."""
    closure = set()
    frontier = {node_id}
    while frontier:
        nxt = set()
        for nid in frontier:
            if nid in closure:
                continue
            closure.add(nid)
            nxt.update(parents[nid])
        frontier = nxt
    return closure


def walked_free_ancestors(structure, parents, free, target):
    """The free nodes strictly above ``target`` as a breadth-first walk
    through free parents only, bottom-up."""
    anc = set()
    frontier = {target}
    while frontier:
        nxt = set()
        for nid in frontier:
            for pid in parents[nid]:
                if pid in free and pid not in anc:
                    anc.add(pid)
                    nxt.add(pid)
        frontier = nxt
    return sorted(anc, key=lambda nid: (-structure.nodes[nid].stage, nid))


class TestFreezePartition:
    @pytest.mark.parametrize("name, params", [
        ("parking", {"horizon": 8, "reward_structure": 2}),
        ("vcas", {"t0": 3, "eps_own": 0.2, "eps_int": 0.2}),
    ], ids=["parking-k8", "vcas-t3-eps0.2"])
    def test_closure_is_the_breadth_first_walk(self, name, params):
        bm = build(name, params)
        rg = unfold_regions(bm.model, bm.initial, bm.horizon)
        nonleaf = set(rg.nonleaf_ids())
        parents = parent_map(rg)
        # a free part holds every parent of its nodes, so its nodes' free
        # ancestors are all their ancestors
        above = {nid: walked_free_ancestors(rg, parents, nonleaf, nid) for nid in nonleaf}
        for nid in sorted(nonleaf):
            free, frozen = freeze_partition(rg, nid)
            assert free == walked_closure(parents, nid) & nonleaf
            assert frozen == nonleaf - free
            order, ancestors = _free_part(rg, frozen)
            assert order == sorted(free, key=lambda q: (-rg.nodes[q].stage, q))
            assert ancestors == {q: above[q] for q in free}

    def test_root_only(self, counterexample):
        bm, tree = counterexample
        free, frozen = freeze_partition(tree, 0)
        assert free == {0}
        assert frozen == set(tree.nonleaf_ids()) - {0}

    def test_tree_prefix_path(self, counterexample):
        bm, tree = counterexample
        node4 = next(n for n in tree.nodes if n.stage == 1 and int(n.state.env[0]) == 4)
        free, frozen = freeze_partition(tree, node4.id)
        assert free == {0, node4.id}
        assert node4.id not in frozen

    def test_region_backward_closure(self):
        bm = random_model(211)
        rg = unfold_regions(bm.model, bm.initial, bm.horizon)
        last = rg.stage_nodes(rg.horizon - 1)
        target = last[0]
        free, frozen = freeze_partition(rg, target.id)
        # the free set is parent-closed and contains the target and the root
        assert target.id in free and 0 in free
        parents = parent_map(rg)
        for nid in free:
            assert parents[nid] <= free

    def test_unknown_history_rejected(self, counterexample):
        bm, tree = counterexample
        with pytest.raises(ModelError):
            freeze_partition(tree, 10_000)
