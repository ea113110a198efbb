"""One-shot two-player solvers: Nash enumeration, social-welfare selection,
correlated-equilibrium linear programming and zero-sum values.

Nash equilibria are enumerated support by support: every candidate support
pair corresponds to a basis of one of the two best-response polytopes

    P = {(x, v) : x >= 0, sum x = 1, (P2^T x)_j <= v}
    Q = {(y, u) : y >= 0, sum y = 1, (P1 y)_i <= u}

and the extreme equilibria are exactly the completely labelled pairs of
polytope vertices.  Singular bases are skipped, so degenerate games yield
the vertex and isolated representatives of their equilibrium components.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .errors import ResourceLimitError, SolverError
from .lp import LinearProgram, lp_solve

EQ_TOL = 1e-7
BASIS_CAP = 500_000


@dataclass(frozen=True)
class BimatrixGame:
    """Payoff matrices of both agents; rows index agent 1's actions."""

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        p1 = np.asarray(self.p1, dtype=float)
        p2 = np.asarray(self.p2, dtype=float)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        if p1.shape != p2.shape or p1.ndim != 2:
            raise ValueError(f"payoff shapes differ: {p1.shape} vs {p2.shape}")
        if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
            raise ValueError("payoffs must be finite")

    @property
    def shape(self):
        return self.p1.shape


@dataclass(frozen=True)
class NashPoint:
    mu1: np.ndarray
    mu2: np.ndarray
    payoffs: np.ndarray  # length 2

    @property
    def social_welfare(self) -> float:
        return float(self.payoffs.sum())


def _normalise(p: np.ndarray) -> np.ndarray:
    lo, hi = p.min(), p.max()
    if hi - lo < 1e-300:
        return np.zeros_like(p)
    return (p - lo) / (hi - lo)


def _polytope_vertices(col_payoff: np.ndarray, feas_tol: float):
    """Vertices of {(x, v): x >= 0, sum x = 1, (col_payoff^T x)_j <= v}.

    ``col_payoff`` has shape (m, n); returns a list of (x, labels) where
    labels is a bitmask over m + n constraints: bit i for x_i = 0, bit m + j
    for a binding column incentive.
    """
    m, n = col_payoff.shape
    templates = np.zeros((m + n, m + 1))
    templates[:m, :m] = np.eye(m)
    templates[m:, :m] = col_payoff.T
    templates[m:, m] = -1.0

    combos = np.array(list(itertools.combinations(range(m + n), m)), dtype=int)
    systems = np.empty((combos.shape[0], m + 1, m + 1))
    systems[:, :m, :] = templates[combos]
    systems[:, m, :m] = 1.0
    systems[:, m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0

    dets = np.linalg.det(systems)
    ok = np.abs(dets) > 1e-12
    if not ok.any():
        return []
    kept = systems[ok]
    rhs_b = np.broadcast_to(rhs.reshape(1, m + 1, 1), (kept.shape[0], m + 1, 1)).copy()
    sols = np.linalg.solve(kept, rhs_b)[:, :, 0]
    residuals = np.abs(np.einsum("bij,bj->bi", kept, sols) - rhs).max(axis=1)
    xs, vs = sols[:, :m], sols[:, m]
    gaps = xs @ col_payoff - vs[:, None]
    feas = (
        (residuals <= 1e-6)
        & np.isfinite(sols).all(axis=1)
        & (xs >= -feas_tol).all(axis=1)
        & (gaps <= feas_tol).all(axis=1)
    )

    out = {}
    for x, v, gap in zip(xs[feas], vs[feas], gaps[feas]):
        key = tuple(np.round(x, 9)) + (round(float(v), 9),)
        if key in out:
            continue
        x = np.clip(x, 0.0, None)
        x = x / x.sum()
        labels = 0
        for i in range(m):
            if x[i] <= feas_tol:
                labels |= 1 << i
        for j in range(n):
            if gap[j] >= -feas_tol:
                labels |= 1 << (m + j)
        out[key] = (x, labels)
    return list(out.values())


def enumerate_ne(game: BimatrixGame) -> list[NashPoint]:
    """All extreme Nash equilibria of ``game``.

    Ordered by increasing total support size, then lexicographically on the
    probability vectors; this order defines "first-found".
    """
    m, n = game.shape
    if comb(m + n, m) + comb(m + n, n) > BASIS_CAP:
        raise ResourceLimitError(f"support enumeration over a {m}x{n} game exceeds the basis cap")
    a = _normalise(game.p1)
    b = _normalise(game.p2)
    verts_x = _polytope_vertices(b, EQ_TOL)
    verts_y = _polytope_vertices(a.T, EQ_TOL)

    full = (1 << (m + n)) - 1
    found = {}
    for x, lx in verts_x:
        for y, ly_raw in verts_y:
            # y's labels come back over (n + m); remap to the shared space
            ly = 0
            for j in range(n):
                if ly_raw & (1 << j):
                    ly |= 1 << (m + j)
            for i in range(m):
                if ly_raw & (1 << (n + i)):
                    ly |= 1 << i
            if (lx | ly) != full:
                continue
            # final check on the normalised payoffs: no profitable pure deviation
            r1 = a @ y
            r2 = x @ b
            if x @ r1 < r1.max() - EQ_TOL or r2 @ y < r2.max() - EQ_TOL:
                continue
            key = tuple(np.round(x, 9)) + tuple(np.round(y, 9))
            if key not in found:
                payoffs = np.array([x @ game.p1 @ y, x @ game.p2 @ y])
                found[key] = NashPoint(x, y, payoffs)

    def sort_key(pt: NashPoint):
        s1 = pt.mu1 > 1e-9
        s2 = pt.mu2 > 1e-9
        return (
            int(s1.sum() + s2.sum()),
            tuple(np.nonzero(s1)[0]) + tuple(np.nonzero(s2)[0]),
            tuple(np.round(pt.mu1, 9)),
            tuple(np.round(pt.mu2, 9)),
        )

    return sorted(found.values(), key=sort_key)


def swne(game: BimatrixGame) -> NashPoint:
    """The enumerated equilibrium with maximal payoff sum.

    Ties break on the largest agent-1 payoff, then lexicographically on the
    probability vectors.
    """
    points = enumerate_ne(game)
    if not points:
        raise SolverError("no equilibrium found; the enumeration tolerance is too tight")
    return max(
        points,
        key=lambda p: (
            p.social_welfare,
            p.payoffs[0],
            tuple(-np.round(p.mu1, 12)),
            tuple(-np.round(p.mu2, 12)),
        ),
    )


# ---------------------------------------------------------------------------
# correlated equilibria


@dataclass(frozen=True)
class CorrelatedPoint:
    mu: np.ndarray  # shape (m, n), row-major over joint actions
    payoffs: np.ndarray

    @property
    def social_welfare(self) -> float:
        return float(self.payoffs.sum())


def _ce_constraints(game: BimatrixGame):
    """Swap-incentive rows as A_ub mu <= 0 over the flattened joint simplex."""
    m, n = game.shape
    rows = []
    for ai in range(m):
        for alt in range(m):
            if alt == ai:
                continue
            row = np.zeros((m, n))
            row[ai, :] = game.p1[alt, :] - game.p1[ai, :]
            rows.append(row.ravel())
    for aj in range(n):
        for alt in range(n):
            if alt == aj:
                continue
            row = np.zeros((m, n))
            row[:, aj] = game.p2[:, alt] - game.p2[:, aj]
            rows.append(row.ravel())
    a_ub = np.asarray(rows) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None
    return a_ub, b_ub


def _ce_from_lp(game: BimatrixGame, objective: np.ndarray) -> CorrelatedPoint:
    m, n = game.shape
    a_ub, b_ub = _ce_constraints(game)
    lp = LinearProgram(
        c=objective,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=np.ones((1, m * n)),
        b_eq=np.array([1.0]),
    )
    res = lp_solve(lp)
    if res.status != "optimal":
        # every Nash equilibrium is feasible, so this cannot legitimately happen
        raise SolverError(f"correlated-equilibrium LP reported {res.status}")
    mu = np.clip(res.x.reshape(m, n), 0.0, None)
    mu /= mu.sum()
    payoffs = np.array([float((mu * game.p1).sum()), float((mu * game.p2).sum())])
    return CorrelatedPoint(mu, payoffs)


def swce(game: BimatrixGame) -> CorrelatedPoint:
    """Social-welfare optimal correlated equilibrium via one linear program."""
    return _ce_from_lp(game, (game.p1 + game.p2).ravel())


# ---------------------------------------------------------------------------
# zero-sum


def zero_sum_value(game: BimatrixGame | np.ndarray):
    """Maximin solution of a zero-sum game given agent 1's payoffs.

    Returns ``(x, y, value)``: agent 1 guarantees at least ``value`` with
    ``x`` and agent 2 caps agent 1 at ``value`` with ``y``.
    """
    if isinstance(game, BimatrixGame):
        if np.abs(game.p1 + game.p2).max() > 1e-9:
            raise ValueError("zero_sum_value expects p2 == -p1")
        p = game.p1
    else:
        p = np.asarray(game, dtype=float)
    m, n = p.shape
    shift = p.min() - 1.0
    M = p - shift  # strictly positive

    res_x = lp_solve(LinearProgram(c=-np.ones(m), a_ub=-M.T, b_ub=-np.ones(n)))
    res_y = lp_solve(LinearProgram(c=np.ones(n), a_ub=M, b_ub=np.ones(m)))
    if res_x.status != "optimal" or res_y.status != "optimal":
        raise SolverError("zero-sum LP failed")
    su, sw = -res_x.objective, res_y.objective
    if su <= 0 or sw <= 0:
        raise SolverError("zero-sum LP returned a degenerate scale")
    x = res_x.x / su
    y = res_y.x / sw
    value = 1.0 / su + shift
    return x, y, float(value)


# ---------------------------------------------------------------------------
# policy wrapper


@dataclass(frozen=True)
class StageSolution:
    """Equilibrium of one induced stage game, either kind."""

    kind: str  # "ne" | "ce"
    mu1: Optional[np.ndarray]
    mu2: Optional[np.ndarray]
    mu_joint: Optional[np.ndarray]
    payoffs: np.ndarray

    def joint_distribution(self) -> np.ndarray:
        if self.kind == "ce":
            return self.mu_joint
        return np.outer(self.mu1, self.mu2)


def any_equilibrium(game: BimatrixGame, kind: str, policy: str = "sw-optimal",
                    rng: Optional[np.random.Generator] = None) -> StageSolution:
    """One equilibrium of ``game`` chosen by ``policy``.

    Policies: "sw-optimal" (maximal payoff sum), "first-found" (first in the
    enumeration order), "seeded-random" (reproducible draw from ``rng``).
    """
    if kind not in ("ne", "ce"):
        raise ValueError(f"unknown equilibrium kind {kind!r}")
    if policy not in ("sw-optimal", "first-found", "seeded-random"):
        raise ValueError(f"unknown selection policy {policy!r}")
    if policy == "seeded-random" and rng is None:
        raise ValueError("seeded-random policy needs an rng")

    if kind == "ne":
        if policy == "sw-optimal":
            pt = swne(game)
        else:
            points = enumerate_ne(game)
            if not points:
                raise SolverError("no equilibrium found")
            pt = points[0] if policy == "first-found" else points[int(rng.integers(len(points)))]
        return StageSolution("ne", pt.mu1, pt.mu2, None, pt.payoffs)

    if policy == "sw-optimal":
        ce = swce(game)
    elif policy == "first-found":
        ce = _ce_from_lp(game, np.zeros(game.p1.size))
    else:
        ce = _ce_from_lp(game, rng.uniform(0.0, 1.0, size=game.p1.size))
    return StageSolution("ce", None, None, ce.mu, ce.payoffs)
