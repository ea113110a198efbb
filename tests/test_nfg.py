import itertools
import tracemalloc

import numpy as np
import pytest

from test_lp import failing_game

import nscsg.lp as lp
import nscsg.nfg as nfg
from nscsg.errors import ResourceLimitError, SolverError
from nscsg.gbi import _candidates_stack
from nscsg.nfg import (
    BimatrixGame,
    StageSolution,
    any_equilibria,
    any_equilibrium,
    enumerate_ne,
    enumerate_ne_stack,
    swce,
    swne,
    zero_sum_value,
)

NODE4 = BimatrixGame([[0.0, 0.0], [0.0, 5.0]], [[8.0, 0.0], [0.0, 2.0]])
PENNIES = BimatrixGame([[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]])
DILEMMA = BimatrixGame([[3.0, 0.0], [4.0, 1.0]], [[3.0, 4.0], [0.0, 1.0]])


def solution_bytes(sol):
    return [None if a is None else a.tobytes() for a in (sol.mu1, sol.mu2, sol.mu_joint, sol.payoffs)]


def payoff_set(points):
    return sorted(tuple(np.round(p.payoffs, 9)) for p in points)


class TestEnumerateNe:
    def test_node4_has_exactly_three(self):
        points = enumerate_ne(NODE4)
        assert payoff_set(points) == [(0.0, 1.6), (0.0, 8.0), (5.0, 2.0)]
        mixed = next(p for p in points if 0 < p.mu1[0] < 1)
        assert np.allclose(mixed.mu1, [0.2, 0.8], atol=1e-9)
        assert np.allclose(mixed.mu2, [1.0, 0.0], atol=1e-9)

    def test_matching_pennies_unique_mixed(self):
        points = enumerate_ne(PENNIES)
        assert len(points) == 1
        assert np.allclose(points[0].mu1, [0.5, 0.5], atol=1e-9)
        assert np.allclose(points[0].payoffs, [0.0, 0.0], atol=1e-9)

    def test_dominance_solvable(self):
        points = enumerate_ne(DILEMMA)
        assert len(points) == 1
        assert np.allclose(points[0].mu1, [0.0, 1.0])
        assert np.allclose(points[0].payoffs, [1.0, 1.0])

    def test_every_point_is_equilibrium(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, n = rng.integers(1, 5, size=2)
            g = BimatrixGame(rng.normal(size=(m, n)), rng.normal(size=(m, n)))
            for p in enumerate_ne(g):
                r1 = g.p1 @ p.mu2
                r2 = p.mu1 @ g.p2
                assert p.mu1 @ r1 >= r1.max() - 1e-7
                assert r2 @ p.mu2 >= r2.max() - 1e-7
                assert p.mu1.sum() == pytest.approx(1.0, abs=1e-9)
                assert p.mu2.sum() == pytest.approx(1.0, abs=1e-9)

    def test_existence_on_random_games(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m, n = rng.integers(1, 4, size=2)
            g = BimatrixGame(rng.normal(size=(m, n)), rng.normal(size=(m, n)))
            assert enumerate_ne(g)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_odd_number_on_gaussian_games(self, m):
        # Shapley (1974): a nondegenerate bimatrix game has an odd number of
        # equilibria, and Gaussian payoffs are nondegenerate almost surely
        rng = np.random.default_rng(100 + m)
        for n in range(1, 5):
            for _ in range(50):
                g = BimatrixGame(rng.normal(size=(m, n)), rng.normal(size=(m, n)))
                assert len(enumerate_ne(g)) % 2 == 1, (g.p1, g.p2)

    def test_action_permutation_keeps_payoffs(self):
        rng = np.random.default_rng(3)
        g = BimatrixGame(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        perm = [2, 0, 1]
        gp = BimatrixGame(g.p1[perm, :], g.p2[perm, :])
        base = payoff_set(enumerate_ne(g))
        permuted = payoff_set(enumerate_ne(gp))
        assert base == pytest.approx(permuted, abs=1e-7)


class TestStackedEnumeration:
    def test_basis_cap_raises_before_allocating(self, monkeypatch):
        # a 12x12 game has 2 * C(24, 12) bases, over the cap; the broadcast
        # stack of 10,000 of them holds the floats of one
        def unreachable(*args):
            raise AssertionError("vertices enumerated over the basis cap")

        monkeypatch.setattr(nfg, "_polytope_vertices", unreachable)
        stack = np.broadcast_to(np.zeros((12, 12)), (10_000, 12, 12))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="12x12 game exceeds the basis cap"):
                enumerate_ne_stack(stack, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        with pytest.raises(ResourceLimitError):
            enumerate_ne(BimatrixGame(stack[0], stack[0]))

    @pytest.mark.parametrize("kind", ["ne", "ce"])
    @pytest.mark.parametrize("policy", ["sw-optimal", "first-found"])
    def test_any_equilibria_is_any_equilibrium_per_game(self, kind, policy, monkeypatch):
        rng = np.random.default_rng(17)
        p1, p2 = rng.integers(-2, 3, size=(2, 30, 3, 2)).astype(float)
        got = any_equilibria(p1, p2, kind, policy)
        one = [any_equilibrium(BimatrixGame(a, b), kind, policy) for a, b in zip(p1, p2)]
        assert list(map(solution_bytes, got)) == list(map(solution_bytes, one))
        # CE stacks are split into chunks by LP size, down to one game a chunk
        monkeypatch.setattr(lp, "_STACK_ENTRIES", 100)
        assert list(map(solution_bytes, any_equilibria(p1, p2, kind, policy))) == \
            list(map(solution_bytes, one))
        with pytest.raises(ValueError, match="needs an rng"):
            any_equilibria(p1, p2, kind, "seeded-random")
        if kind == "ce":
            # a stack holding games whose CE LP fails raises what the loop
            # raised: the error of the lowest failing game, 1093's "infeasible
            # point" under sw-optimal and 2640's "reported infeasible" under both
            p1, p2 = np.stack([failing_game(s) for s in (4, 5, 1093, 10, 2640)], axis=1)
            with pytest.raises(SolverError) as loop:
                [any_equilibrium(BimatrixGame(a, b), kind, policy) for a, b in zip(p1, p2)]
            with pytest.raises(SolverError) as stacked:
                any_equilibria(p1, p2, kind, policy)
            assert str(stacked.value) == str(loop.value)
            assert ("infeasible point" in str(loop.value)) == (policy == "sw-optimal")


class TestSwne:
    def test_node4_selects_welfare_eight(self):
        pt = swne(NODE4)
        assert np.allclose(pt.payoffs, [0.0, 8.0], atol=1e-9)
        assert np.allclose(pt.mu1, [1.0, 0.0]) and np.allclose(pt.mu2, [1.0, 0.0])

    def test_matching_pennies(self):
        assert swne(PENNIES).social_welfare == pytest.approx(0.0, abs=1e-9)

    def test_coordination_game(self):
        g = BimatrixGame([[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]])
        pt = swne(g)
        assert pt.social_welfare == pytest.approx(4.0, abs=1e-9)


class TestSwce:
    def test_dilemma_point_mass(self):
        ce = swce(DILEMMA)
        assert ce.mu_joint[1, 1] == pytest.approx(1.0, abs=1e-9)
        assert ce.social_welfare == pytest.approx(2.0, abs=1e-9)

    def test_one_by_one(self):
        g = BimatrixGame([[3.0]], [[4.0]])
        ce = swce(g)
        assert ce.mu_joint[0, 0] == pytest.approx(1.0)
        assert ce.social_welfare == pytest.approx(7.0)

    def test_dominates_nash_welfare(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m, n = rng.integers(1, 4, size=2)
            g = BimatrixGame(rng.normal(size=(m, n)), rng.normal(size=(m, n)))
            assert swce(g).social_welfare >= swne(g).social_welfare - 1e-7

    def test_swap_constraints_hold(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m, n = rng.integers(2, 4, size=2)
            g = BimatrixGame(rng.normal(size=(m, n)), rng.normal(size=(m, n)))
            mu = swce(g).mu_joint
            for a in range(m):
                for alt in range(m):
                    assert mu[a, :] @ (g.p1[a, :] - g.p1[alt, :]) >= -1e-9
            for b in range(n):
                for alt in range(n):
                    assert (g.p2[:, b] - g.p2[:, alt]) @ mu[:, b] >= -1e-9

    def test_node4_ce_beats_or_matches_ne(self):
        assert swce(NODE4).social_welfare >= swne(NODE4).social_welfare - 1e-9


class TestZeroSum:
    def test_matching_pennies_value_zero(self):
        x, y, v = zero_sum_value(PENNIES)
        assert v == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(x, [0.5, 0.5], atol=1e-7)

    def test_column_vector_game_max_entry(self):
        # agent 2 has a single action, so agent 1 picks its best row
        x, y, v = zero_sum_value(np.array([[3.0], [1.0], [8.0]]))
        assert v == pytest.approx(8.0, abs=1e-9)

    def test_value_matches_equilibrium_payoffs(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            p1 = rng.normal(size=(3, 3))
            g = BimatrixGame(p1, -p1)
            _, _, v = zero_sum_value(g)
            for pt in enumerate_ne(g):
                assert pt.payoffs[0] == pytest.approx(v, abs=1e-6)

    def test_guarantee_property(self):
        rng = np.random.default_rng(29)
        p1 = rng.normal(size=(4, 3))
        x, y, v = zero_sum_value(p1)
        assert (x @ p1).min() >= v - 1e-7  # agent 1 secures at least v
        assert (p1 @ y).max() <= v + 1e-7  # agent 2 caps at v


class TestAnyEquilibrium:
    def test_first_found_is_smallest_support(self):
        sol = any_equilibrium(NODE4, "ne", "first-found")
        assert np.allclose(sol.payoffs, [0.0, 8.0])  # pure equilibria come first

    def test_sw_optimal_delegates(self):
        assert np.allclose(any_equilibrium(NODE4, "ne", "sw-optimal").payoffs, swne(NODE4).payoffs)
        assert np.allclose(any_equilibrium(NODE4, "ce", "sw-optimal").payoffs, swce(NODE4).payoffs)

    def test_seeded_random_reproducible(self):
        a = any_equilibrium(NODE4, "ne", "seeded-random", np.random.default_rng(42))
        b = any_equilibrium(NODE4, "ne", "seeded-random", np.random.default_rng(42))
        assert np.array_equal(a.mu1, b.mu1) and np.array_equal(a.mu2, b.mu2)

    def test_ce_first_found_feasible(self):
        sol = any_equilibrium(DILEMMA, "ce", "first-found")
        assert sol.mu_joint.sum() == pytest.approx(1.0, abs=1e-9)


class TestOneResultType:
    """Every stage solver answers with a :class:`StageSolution` of the
    requested kind: mixtures for "ne", a joint distribution for "ce"."""

    @staticmethod
    def check(sol, kind, shape):
        assert type(sol) is StageSolution and sol.kind == kind
        if kind == "ne":
            assert sol.mu_joint is None
            assert (sol.mu1.shape, sol.mu2.shape) == ((shape[0],), (shape[1],))
        else:
            assert sol.mu1 is None and sol.mu2 is None and sol.mu_joint.shape == shape
        assert sol.payoffs.shape == (2,)
        assert sol.social_welfare == float(sol.payoffs.sum())

    def test_every_solver(self):
        rng = np.random.default_rng(3)
        p1, p2 = rng.normal(size=(2, 4, 2, 3))
        for game in (NODE4, PENNIES, DILEMMA, BimatrixGame(p1[0], p2[0])):
            for sol in enumerate_ne(game):
                self.check(sol, "ne", game.shape)
            self.check(swne(game), "ne", game.shape)
            self.check(swce(game), "ce", game.shape)
            for kind in ("ne", "ce"):
                for policy in ("sw-optimal", "first-found", "seeded-random"):
                    self.check(any_equilibrium(game, kind, policy, np.random.default_rng(0)),
                               kind, game.shape)
        for kind in ("ne", "ce"):
            for policy in ("sw-optimal", "first-found"):
                sols = any_equilibria(p1, p2, kind, policy)
                assert len(sols) == len(p1)
                for sol in sols:
                    self.check(sol, kind, (2, 3))


# ---------------------------------------------------------------------------
# the reference for the array steps: the per-point path, with one key list,
# one payoff product, one sort and one selection per point or game


def per_point_first_rows(rows):
    first = {}
    for k, key in enumerate(map(tuple, rows)):
        first.setdefault(key, k)
    return list(first.values())


def per_point_vertices(col_payoffs, feas_tol):
    g, m, n = col_payoffs.shape
    templates = np.zeros((g, m + n + 1, m + 1))
    diag = np.arange(m)
    templates[:, diag, diag] = 1.0
    templates[:, m:m + n, :m] = col_payoffs.transpose(0, 2, 1)
    templates[:, m:m + n, m] = -1.0
    templates[:, m + n, :m] = 1.0
    rows = np.array([c + (m + n,) for c in itertools.combinations(range(m + n), m)], dtype=np.intp)
    systems = templates[:, rows].reshape(-1, m + 1, m + 1)
    owner = np.repeat(np.arange(g), len(rows))
    ok = np.abs(np.linalg.det(systems)) > 1e-12
    kept, owner = systems[ok], owner[ok]
    rhs = np.zeros((len(kept), m + 1, 1))
    rhs[:, m] = 1.0
    sols = np.linalg.solve(kept, rhs)[..., 0]
    residuals = np.abs(np.einsum("bij,bj->bi", kept, sols) - rhs[..., 0]).max(axis=1)
    xs, vs = sols[:, :m], sols[:, m]
    gaps = np.einsum("bi,bij->bj", xs, col_payoffs[owner]) - vs[:, None]
    feas = ((residuals <= 1e-6) & np.isfinite(sols).all(axis=1)
            & (xs >= -feas_tol).all(axis=1) & (gaps <= feas_tol).all(axis=1))
    owner, xs, gaps = owner[feas], xs[feas], gaps[feas]
    keys = np.concatenate((owner[:, None], np.round(xs, 9)), axis=1).tolist()
    first = per_point_first_rows([key + [round(v, 9)] for key, v in zip(keys, vs[feas].tolist())])
    owner, xs, gaps = owner[first], xs[first], gaps[first]
    x = np.clip(xs, 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    return owner, x, np.concatenate((x <= feas_tol, gaps >= -feas_tol), axis=1)


def per_point_enumeration(p1, p2):
    g, m, n = p1.shape
    a, b = nfg._normalise(p1), nfg._normalise(p2)
    ox, xs, lx = per_point_vertices(b, nfg.EQ_TOL)
    oy, ys, ly = per_point_vertices(a.transpose(0, 2, 1), nfg.EQ_TOL)
    ly = np.concatenate((ly[:, n:], ly[:, :n]), axis=1)
    ix, start_x, cx = nfg._places(ox, g)
    iy, start_y, cy = nfg._places(oy, g)
    pad_x = np.zeros((g, cx, m + n), dtype=bool)
    pad_x[ox, ix] = lx
    pad_y = np.zeros((g, cy, m + n), dtype=bool)
    pad_y[oy, iy] = ly
    game, i, j = np.nonzero((pad_x[:, :, None] | pad_y[:, None]).all(axis=-1))
    x, y = xs[start_x[game] + i], ys[start_y[game] + j]
    r1 = np.einsum("kij,kj->ki", a[game], y)
    r2 = np.einsum("ki,kij->kj", x, b[game])
    ok = (((x * r1).sum(axis=1) >= r1.max(axis=1) - nfg.EQ_TOL)
          & ((r2 * y).sum(axis=1) >= r2.max(axis=1) - nfg.EQ_TOL))
    game, x, y = game[ok], x[ok], y[ok]
    first = per_point_first_rows(np.concatenate((game[:, None], np.round(x, 9), np.round(y, 9)),
                                                axis=1).tolist())
    found = [[] for _ in range(g)]
    for k in first:
        gk, xk, yk = int(game[k]), x[k].copy(), y[k].copy()
        payoffs = np.array([xk @ p1[gk] @ yk, xk @ p2[gk] @ yk])
        found[gk].append(StageSolution("ne", xk, yk, None, payoffs))
    return [sorted(points, key=nfg._support_order) for points in found]


def per_game_ce(p1, p2, objectives):
    g, m, n = p1.shape
    rows = nfg._ce_rows(p1, p2)
    res = lp.lp_solve_stack(objectives, rows, np.zeros(rows.shape[:2]), np.ones((g, 1, m * n)),
                            np.ones((g, 1)))
    points = []
    for k, (a, b) in enumerate(zip(p1, p2)):
        assert res.status[k] == "optimal"
        mu = np.clip(res.x[k].reshape(m, n), 0.0, None)
        mu /= mu.sum()
        points.append(StageSolution("ce", None, None, mu,
                                    np.array([float((mu * a).sum()), float((mu * b).sum())])))
    return points


def per_game_candidates(p1, p2, kind):
    if kind == "ne":
        return per_point_enumeration(p1, p2)
    g, m, n = p1.shape
    objectives = np.stack((p1 + p2, -p1, -p2, p1, p2), axis=1).reshape(5 * g, m * n)
    ces = per_game_ce(np.repeat(p1, 5, axis=0), np.repeat(p2, 5, axis=0), objectives)
    outs = []
    for k in range(g):
        out, seen = [], set()
        for ce in ces[5 * k:5 * k + 5]:
            key = tuple(np.round(ce.mu_joint.ravel(), 9))
            if key not in seen:
                seen.add(key)
                out.append(ce)
        outs.append(out)
    return outs


def per_game_selection(p1, p2, kind, policy):
    if kind == "ne":
        points = per_point_enumeration(p1, p2)
        return [nfg._max_welfare(pts) if policy == "sw-optimal" else pts[0] for pts in points]
    g, m, n = p1.shape
    objectives = (p1 + p2).reshape(g, m * n) if policy == "sw-optimal" else np.zeros((g, m * n))
    return per_game_ce(p1, p2, objectives)


def selection_stacks():
    """Stacks of one shape each: equilibria tied on welfare and on agent 1's
    payoff, -0.0 and constant payoffs, 1 x n and n x 1 games, and seeded
    integer games with many ties."""
    eye2, eye3 = np.eye(2), np.eye(3)
    stacks = [
        [(eye2, eye2), (eye2[::-1], eye2), (np.array([[-0.0, 0.0], [0.0, -0.0]]),
                                            np.array([[0.0, -0.0], [-0.0, 0.0]])),
         (np.full((2, 2), 3.0), np.full((2, 2), -1.0)), (NODE4.p1, NODE4.p2),
         (PENNIES.p1, PENNIES.p2)],
        [(eye3, eye3), (2.0 - eye3, 2.0 - eye3), (np.zeros((3, 3)), -np.zeros((3, 3))),
         (np.ones((3, 3)), eye3)],
        [(np.array([[1.0, 2.0, 2.0]]), np.array([[0.0, 1.0, 1.0]])),
         (np.array([[-0.0, 0.0, -0.0]]), np.array([[5.0, 5.0, 5.0]]))],
        [(np.array([[1.0], [1.0], [0.0]]), np.array([[2.0], [-0.0], [0.0]])),
         (np.array([[0.0], [0.0], [0.0]]), np.array([[-1.0], [-1.0], [-1.0]]))],
        [(np.array([[4.0]]), np.array([[-0.0]]))],
    ]
    rng = np.random.default_rng(97)
    for shape in ((3, 3), (2, 3), (3, 2)):
        stacks.append([tuple(rng.integers(-2, 3, size=(2,) + shape).astype(float))
                       for _ in range(40)])
    for games in stacks:
        p1, p2 = (np.array(part) for part in zip(*games))
        yield p1, p2


class TestPerPointPath:
    """The array steps of enumeration, selection and CE extraction give, byte
    for byte, what the per-point path gives."""

    @staticmethod
    def points_bytes(points):
        return [solution_bytes(p) for p in points]

    def test_key_dedupe_compares_by_value(self):
        # -0.0 equals 0.0, and of equal keys the first index is kept
        keys = np.array([[1.0, -0.0], [0.0, 2.0], [1.0, 0.0], [-0.0, 2.0], [0.5, 0.5]])
        assert nfg._first_rows(keys).tolist() == [0, 1, 4]
        rng = np.random.default_rng(5)
        for _ in range(200):
            keys = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(rng.integers(1, 40), rng.integers(1, 5)))
            assert nfg._first_rows(keys).tolist() == per_point_first_rows(keys.tolist())

    def test_enumeration_and_candidates(self):
        for p1, p2 in selection_stacks():
            expected = per_point_enumeration(p1, p2)
            assert list(map(self.points_bytes, enumerate_ne_stack(p1, p2))) == \
                list(map(self.points_bytes, expected))
            for kind in ("ne", "ce"):
                got = _candidates_stack(p1, p2, kind)
                assert list(map(self.points_bytes, got)) == \
                    list(map(self.points_bytes, per_game_candidates(p1, p2, kind))), kind

    @pytest.mark.parametrize("kind", ["ne", "ce"])
    @pytest.mark.parametrize("policy", ["sw-optimal", "first-found"])
    def test_selection(self, kind, policy):
        ties = 0
        for p1, p2 in selection_stacks():
            got = any_equilibria(p1, p2, kind, policy)
            assert self.points_bytes(got) == self.points_bytes(per_game_selection(p1, p2, kind, policy))
            if kind == "ne":
                for points in per_point_enumeration(p1, p2):
                    top = max(p.social_welfare for p in points)
                    best = [p for p in points if p.social_welfare == top]
                    ties += len({p.payoffs[0] for p in best}) < len(best)
        # the inputs hold games whose selection falls to the probability vectors
        assert kind == "ce" or ties > 0
