import hashlib
import itertools

import numpy as np
import pytest

from nscsg import lp, nfg
from nscsg.errors import SolverError
from nscsg.lp import LinearProgram, lp_solve


def vertex_oracle(c, a_ub, b_ub, a_eq=None, b_eq=None):
    """Exhaustive vertex enumeration for tiny LPs over nonnegative variables.

    Collects every basic point from the bounding hyperplanes (including the
    coordinate planes) and keeps the feasible maximiser.
    """
    n = len(c)
    rows = [np.eye(n)[k] for k in range(n)]
    rhs = [0.0] * n
    if a_ub is not None:
        rows += list(np.asarray(a_ub, dtype=float))
        rhs += list(np.asarray(b_ub, dtype=float))
    eq_rows = [] if a_eq is None else list(np.asarray(a_eq, dtype=float))
    eq_rhs = [] if b_eq is None else list(np.asarray(b_eq, dtype=float))
    best = None
    need = n - len(eq_rows)
    for combo in itertools.combinations(range(len(rows)), need):
        A = np.array(eq_rows + [rows[k] for k in combo])
        b = np.array(eq_rhs + [rhs[k] for k in combo])
        if A.shape[0] != n or abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if (x < -1e-9).any():
            continue
        if a_ub is not None and (np.asarray(a_ub) @ x > np.asarray(b_ub) + 1e-9).any():
            continue
        if a_eq is not None and np.abs(np.asarray(a_eq) @ x - np.asarray(b_eq)).max() > 1e-9:
            continue
        val = float(np.dot(c, x))
        if best is None or val > best:
            best = val
    return best


class TestLpSolve:
    def test_single_bound(self):
        res = lp_solve(LinearProgram(c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([3.0])))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-9)

    def test_degenerate_tie_is_stable(self):
        lp = LinearProgram(
            c=np.array([1.0, 1.0]),
            a_ub=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            b_ub=np.array([1.0, 1.0, 1.0]),
        )
        first = lp_solve(lp)
        for _ in range(5):
            res = lp_solve(lp)
            assert np.array_equal(res.x, first.x)
        assert first.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(
            c=np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -2.0]),  # x <= 1 and x >= 2
        )
        assert lp_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(c=np.array([1.0, 0.0]), a_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]))
        assert lp_solve(lp).status == "unbounded"

    def test_equality_constraints(self):
        # maximize x + 2y on the simplex
        lp = LinearProgram(c=np.array([1.0, 2.0]), a_eq=np.ones((1, 2)), b_eq=np.array([1.0]))
        res = lp_solve(lp)
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-9)

    def test_negative_rhs_rows(self):
        # x >= 0.5 written as -x <= -0.5, maximize -x
        lp = LinearProgram(c=np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-0.5]))
        res = lp_solve(lp)
        assert res.objective == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_lp_matches_vertex_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.5, 2.0, size=m)  # origin feasible, usually bounded
        with_eq = rng.uniform() < 0.5
        a_eq = np.ones((1, n)) if with_eq else None
        b_eq = np.array([1.0]) if with_eq else None
        expected = vertex_oracle(c, a_ub, b_ub, a_eq, b_eq)
        res = lp_solve(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq))
        if res.status == "unbounded":
            assert not with_eq
            return
        if expected is None:
            assert res.status == "infeasible"
            return
        assert res.status == "optimal"
        assert res.objective == pytest.approx(expected, abs=1e-7)


# ---------------------------------------------------------------------------
# a seeded corpus of LPs, pinned by digest


def ce_rows(p1, p2):
    """Swap-incentive rows of the CE LP of one game, A_ub mu <= 0, built one
    row at a time: agent 1's swaps (each action against every other), then
    agent 2's."""
    m, n = p1.shape
    rows = []
    for ai, alt in itertools.permutations(range(m), 2):
        row = np.zeros((m, n))
        row[ai, :] = p1[alt, :] - p1[ai, :]
        rows.append(row.ravel())
    for aj, alt in itertools.permutations(range(n), 2):
        row = np.zeros((m, n))
        row[:, aj] = p2[:, alt] - p2[:, aj]
        rows.append(row.ravel())
    return np.reshape(rows, (-1, m * n))


def corpus_game(rng, shape):
    """Payoffs (2, m, n) of one of five kinds: rounded or raw Gaussian,
    integer, constant, or drawn from a few values with -0.0 among them."""
    kind = int(rng.integers(5))
    if kind == 0:
        return np.round(rng.normal(size=(2,) + shape) * 10, 1)
    if kind == 1:
        return rng.normal(size=(2,) + shape) * 10
    if kind == 2:
        return rng.integers(-5, 6, size=(2,) + shape).astype(float)
    if kind == 3:
        return np.full((2,) + shape, float(rng.integers(-3, 4)))
    return rng.choice([-0.0, 0.0, 0.5, -1.0], size=(2,) + shape)


def corpus_stack(rng):
    """A stack of 1-8 LPs of one layout, as (c, a_ub, b_ub, a_eq, b_eq) with
    a leading stack axis and ``None`` for an absent block: CE LPs of games of
    one shape (some repeated), block-shaped LPs (``A x <= 0``, ``sum x = 1``),
    general LPs with negative right-hand sides and equality rows, the first
    sometimes repeated, or degenerate equality-constrained LPs."""
    g = int(rng.integers(1, 9))
    kind = int(rng.integers(4))
    if kind == 3:  # equality rows of small integers with zero or unit right-hand sides:
        # phase 1 often ends with an artificial basic at zero, to pivot out or drop
        n, m_eq, m_ub = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 3))
        a_eq = rng.integers(-2, 3, size=(g, m_eq, n)).astype(float)
        b_eq = rng.integers(0, 2, size=(g, m_eq)).astype(float)
        if m_eq > 1 and rng.random() < 0.5:
            a_eq[:, -1], b_eq[:, -1] = 2 * a_eq[:, 0], 2 * b_eq[:, 0]
        a_ub = rng.integers(-2, 3, size=(g, m_ub, n)).astype(float)
        b_ub = rng.integers(0, 3, size=(g, m_ub)).astype(float)
        c = rng.integers(-2, 3, size=(g, n)).astype(float)
        return (c, *((a_ub, b_ub) if m_ub else (None, None)), a_eq, b_eq)
    if kind == 0:
        m, n = (int(v) for v in rng.integers(1, 5, size=2))
        games = []
        for k in range(g):
            games.append(games[-1] if k and rng.random() < 0.2 else corpus_game(rng, (m, n)))
        c = []
        for p1, p2 in games:
            pick = int(rng.integers(4))
            c.append(((p1 + p2).ravel(), np.zeros(m * n), -p1.ravel(), rng.normal(size=m * n))[pick])
        rows = np.array([ce_rows(p1, p2) for p1, p2 in games])
        ub = (rows, np.zeros(rows.shape[:2])) if rows.shape[1] else (None, None)
        return (np.array(c), *ub, np.ones((g, 1, m * n)), np.ones((g, 1)))
    if kind == 1:
        k, r = int(rng.integers(1, 10)), int(rng.integers(1, 16))
        a = rng.normal(size=(g, r, k))
        a[rng.random(a.shape) < 0.3] = 0.0
        return rng.normal(size=(g, k)), a, np.zeros((g, r)), np.ones((g, 1, k)), np.ones((g, 1))
    n, m_ub, m_eq = int(rng.integers(1, 6)), int(rng.integers(0, 6)), int(rng.integers(0, 4))
    if rng.random() < 0.5:  # small integers: zero right-hand sides and degenerate vertices
        def entries(size):
            return rng.integers(-2, 3, size=size).astype(float)
    else:
        def entries(size):
            return np.round(rng.normal(size=size), 2)
    a = entries((g, m_ub + m_eq, n))
    negative = rng.random(m_ub + m_eq) < 0.4
    size = (g, m_ub + m_eq)
    b = np.where(negative, -np.abs(entries(size)) - 0.5, np.abs(entries(size)) * (rng.random(size) < 0.5))
    a_ub, b_ub, a_eq, b_eq = a[:, :m_ub], b[:, :m_ub], a[:, m_ub:], b[:, m_ub:]
    if m_eq and rng.random() < 0.5:  # a redundant row: its artificial can stay basic
        a_eq, b_eq = np.concatenate((a_eq, 2 * a_eq[:, :1]), axis=1), np.concatenate((b_eq, 2 * b_eq[:, :1]), axis=1)
    ub = (a_ub, b_ub) if m_ub else (None, None)
    eq = (a_eq, b_eq) if a_eq.shape[1] else (None, None)
    return (np.round(rng.normal(size=(g, n)), 2), *ub, *eq)


def failing_game(seed):
    """A game of one-decimal Gaussian payoffs, 2x2 to 4x4.  The CE LPs of
    seeds 287, 1093 and 2640 (4x4) meet the simplex's pivots on near-zero
    entries: 287 and 1093 give a point off the constraints with the welfare
    objective, 2640 a false "infeasible" with the welfare or zero objective."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(v) for v in rng.integers(2, 5, size=2))
    return np.round(rng.normal(size=(2,) + shape) * 10, 1)


def lp_corpus(seed=20260):
    """120 stacks, about 500 LPs, then one stack of CE LPs that fail."""
    rng = np.random.default_rng(seed)
    stacks = [corpus_stack(rng) for _ in range(120)]
    games = [failing_game(s) for s in (287, 1093, 2640, 2640)]
    c = [(p1 + p2).ravel() for p1, p2 in games[:3]] + [np.zeros(16)]
    rows = np.array([ce_rows(p1, p2) for p1, p2 in games])
    stacks.append((np.array(c), rows, np.zeros(rows.shape[:2]), np.ones((4, 1, 16)), np.ones((4, 1))))
    return stacks


def zero_sum_corpus(seed=20261):
    """60 games of agent 1's payoffs, 1x1 to 4x4."""
    rng = np.random.default_rng(seed)
    return [corpus_game(rng, tuple(int(v) for v in rng.integers(1, 5, size=2)))[0] for _ in range(60)]


def outcome(call):
    """What ``call()`` gives, as plain data: an LP's status, x bytes and
    objective, or the type and message of what it raised."""
    try:
        res = call()
    except SolverError as exc:
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(res, tuple):  # a zero-sum solution (x, y, value)
        return tuple(np.asarray(v, dtype=float).tobytes().hex() for v in res)
    return (res.status, None if res.x is None else res.x.tobytes().hex(), repr(res.objective))


def one_lp(stack, k):
    c, a_ub, b_ub, a_eq, b_eq = (None if v is None else v[k] for v in stack)
    return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def digest(outcomes) -> str:
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]


class TestResiduals:
    @pytest.mark.parametrize("m_ub, m_eq", [(3, 2), (0, 2), (3, 0)])
    def test_stack_matches_each_lp(self, m_ub, m_eq):
        # the batched feasibility check is the largest violation of each
        # LP's rows and of x >= 0, as computed one LP at a time
        rng = np.random.default_rng(4)
        g, n = 6, 4
        a_ub, b_ub = rng.normal(size=(g, m_ub, n)), rng.normal(size=(g, m_ub))
        a_eq, b_eq = rng.normal(size=(g, m_eq, n)), rng.normal(size=(g, m_eq))
        x = rng.normal(size=(g, n))
        got = lp._residuals(a_ub, b_ub, a_eq, b_eq, x)
        want = [max(np.concatenate((a_ub[k] @ x[k] - b_ub[k], np.abs(a_eq[k] @ x[k] - b_eq[k]), -x[k])).max(),
                    0.0) for k in range(g)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestPinnedLp:
    """Status, x bytes, objective and error message of every LP of a seeded
    corpus, and the zero-sum solutions of a set of games, pinned by digest,
    under the default degenerate-pivot limit and under limits of 0 and 1,
    which hand the pivots to Bland's rule.  The pins were recorded with the
    one-LP simplex that preceded the stacked kernel; the one-LP calls and
    the stacks must both give them."""

    DIGESTS = {lp.DEGENERATE_LIMIT: "a164f58b6e46da4b", 0: "6bf156864fc744cf",
               1: "a9420a6cef6242f7"}

    @pytest.mark.parametrize("limit", list(DIGESTS))
    def test_one_lp_calls(self, limit, monkeypatch):
        monkeypatch.setattr(lp, "DEGENERATE_LIMIT", limit)
        outcomes = [outcome(lambda: lp_solve(one_lp(stack, k)))
                    for stack in lp_corpus() for k in range(len(stack[0]))]
        outcomes += [outcome(lambda: nfg.zero_sum_value(p)) for p in zero_sum_corpus()]
        assert len(outcomes) > 500
        assert digest(outcomes) == self.DIGESTS[limit]

    @pytest.mark.parametrize("limit", list(DIGESTS))
    def test_stacks(self, limit, monkeypatch):
        monkeypatch.setattr(lp, "DEGENERATE_LIMIT", limit)
        outcomes = []
        for stack in lp_corpus():
            res = lp.lp_solve_stack(*stack)
            outcomes += [outcome(lambda: res.result(k)) for k in range(len(stack[0]))]
        games = zero_sum_corpus()
        solved = {}
        for shape in {p.shape for p in games}:
            rows = [i for i, p in enumerate(games) if p.shape == shape]
            x, y, v = nfg.zero_sum_values(np.array([games[i] for i in rows]))
            solved.update((i, (x[j], y[j], float(v[j]))) for j, i in enumerate(rows))
        outcomes += [outcome(lambda: solved[i]) for i in range(len(games))]
        assert digest(outcomes) == self.DIGESTS[limit]
