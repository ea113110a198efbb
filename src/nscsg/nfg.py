"""One-shot two-player solvers: Nash enumeration, social-welfare selection,
correlated-equilibrium linear programming and zero-sum values.

Nash equilibria are enumerated support by support: every candidate support
pair corresponds to a basis of one of the two best-response polytopes

    P = {(x, v) : x >= 0, sum x = 1, (P2^T x)_j <= v}
    Q = {(y, u) : y >= 0, sum y = 1, (P1 y)_i <= u}

and the extreme equilibria are exactly the completely labelled pairs of
polytope vertices (Avis, Rosenberg, Savani & von Stengel, Economic Theory
2010).  Singular bases are skipped, so degenerate games yield the vertex and
isolated representatives of their equilibrium components.

The enumeration runs over a stack of games of one shape at once
(:func:`enumerate_ne_stack`): one ``det`` and one ``solve`` over every basis
of every game (the basis rows built once per shape), feasibility, vertex
dedupe, labels, the complete-labelling test, the pure-deviation check, the
point dedupe and the points' payoffs as array steps, in chunks of at most
``_STACK_BASES`` bases.  Each dedupe is one stable sort over the bytes of
the rounded keys.  What stays per point is its :class:`StageSolution`, and
per game the :func:`_support_order` sort and :func:`_max_welfare`
selection of a game with more than one point.  :func:`enumerate_ne` and
:func:`swne` are its one-game calls, and :func:`any_equilibria` solves a
stack of distinct stage games under a deterministic policy, as backward
induction does for each stage group's cache misses.

Correlated equilibria and zero-sum values are linear programs: the games of
a stack build their constraint rows as arrays and have their LPs solved as
LP stacks (:func:`nscsg.lp.lp_solve_stack`), and a chunk's statuses,
distributions and payoffs are read as arrays (:func:`_ce_arrays`);
:func:`swce` and :func:`zero_sum_value` are one-game calls of
:func:`_ce_stack` and :func:`zero_sum_values`.

A one-sided game, where one agent has a single action, is the other
agent's decision problem, and both kernels solve a stack of them as array
steps with no basis system and no simplex.  Its Nash equilibria are the
chooser's pure actions within ``EQ_TOL`` of its best normalised payoff
(:func:`_one_sided_ne`).  When the chooser's best action beats its second
by more than the margin of :func:`_pure_ce`, its only correlated
equilibrium is that action's pure profile, the one feasible point of its
LP.  A game near the ``EQ_TOL`` edge, or whose best responses are tied or
nearly tied, takes the general kernel in the same call.  Payoffs are the
general kernels' own expressions, so points, counts, order and bytes are
theirs; FSI reads the same margin to certify that a correlated step cannot
move.

Every Nash and correlated-equilibrium solver returns :class:`StageSolution`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

import numpy as np

from .errors import ResourceLimitError, SolverError
from .model import _void_rows, round_as_python
from . import lp

EQ_TOL = 1e-7
BASIS_CAP = 500_000
#: Basis systems one chunk of a stacked enumeration holds (0.5 MB of them
#: for 3x3 games, 102 games): its memory stays bounded whatever the stack's
#: size, and its peak stays within what the pass already holds.
_STACK_BASES = 1 << 12
#: A one-sided game's correlated equilibrium is read off in closed form when
#: the chooser's best action beats its second by more than this many times
#: max(1, its largest payoff magnitude): far above the simplex's pivot
#: tolerance, so the LP would find the same single feasible point.
_CE_MARGIN = 1e-9


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
class StageSolution:
    """Equilibrium of one stage game, either kind: independent mixtures
    ``mu1``, ``mu2`` ("ne") or a joint distribution ``mu_joint`` of shape
    (m, n), row-major over joint actions ("ce")."""

    kind: str  # "ne" | "ce"
    mu1: Optional[np.ndarray]
    mu2: Optional[np.ndarray]
    mu_joint: Optional[np.ndarray]
    payoffs: np.ndarray  # length 2

    @property
    def social_welfare(self) -> float:
        return float(self.payoffs.sum())

    def joint_distribution(self) -> np.ndarray:
        if self.kind == "ce":
            return self.mu_joint
        return np.outer(self.mu1, self.mu2)


def _normalise(p: np.ndarray) -> np.ndarray:
    """Each game of the stack ``p`` (G, m, n) mapped onto [0, 1]; a constant
    game onto zeros."""
    lo = p.min(axis=(1, 2), keepdims=True)
    span = p.max(axis=(1, 2), keepdims=True) - lo
    flat = span < 1e-300
    return np.where(flat, 0.0, (p - lo) / np.where(flat, 1.0, span))


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first of each set of equal rows of the 2-d
    float array ``keys``, compared by value, so -0.0 equals 0.0: one stable
    sort over the rows' bytes, as ``model._distinct`` sorts, without the
    inverse it also builds."""
    rows = _void_rows(keys + 0.0)
    order = rows.argsort(kind="stable")
    ordered = rows[order]
    starts = np.empty(len(rows), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    first = order[starts]
    first.sort()
    return first


@lru_cache(maxsize=32)
def _basis_rows(m: int, n: int) -> np.ndarray:
    """The template rows of each basis system of a polytope over m
    strategies and n incentive rows: m of the first m + n rows, in
    ``itertools.combinations`` order, then the row sum x = 1."""
    rows = np.array([c + (m + n,) for c in itertools.combinations(range(m + n), m)], dtype=np.intp)
    rows.flags.writeable = False
    return rows


def _polytope_vertices(col_payoffs: np.ndarray, feas_tol: float):
    """Vertices of {(x, v): x >= 0, sum x = 1, (C^T x)_j <= v} for each game
    C of the stack ``col_payoffs`` (G, m, n).

    Returns ``(owner, x, labels)``: each vertex's game (ascending), its x of
    shape (V, m) and its labels, a boolean (V, m + n) array: column i for
    x_i = 0, column m + j for a binding column incentive.  A game's vertices
    follow its basis order; of vertices with equal rounded (x, v) the first
    is kept.  Every basis of every game is one row of one ``det`` and one
    ``solve``.
    """
    g, m, n = col_payoffs.shape
    templates = np.zeros((g, m + n + 1, m + 1))
    diag = np.arange(m)
    templates[:, diag, diag] = 1.0
    templates[:, m:m + n, :m] = col_payoffs.transpose(0, 2, 1)
    templates[:, m:m + n, m] = -1.0
    templates[:, m + n, :m] = 1.0
    rows = _basis_rows(m, n)
    # take, not templates[:, rows], gives the systems in C order, so the
    # reshape copies nothing
    systems = np.take(templates, rows, axis=1).reshape(-1, m + 1, m + 1)
    owner = np.repeat(np.arange(g), len(rows))

    # subnormal payoffs can make the LU divide by zero; such systems fail the checks below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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

    # the key rounds x as np.round does and v as round() does
    owner, xs, vs, gaps = owner[feas], xs[feas], vs[feas], gaps[feas]
    first = _first_rows(np.column_stack((owner, np.round(xs, 9), round_as_python(vs, 9))))
    owner, xs, gaps = owner[first], xs[first], gaps[first]
    x = np.clip(xs, 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    return owner, x, np.concatenate((x <= feas_tol, gaps >= -feas_tol), axis=1)


def _places(owner: np.ndarray, g: int):
    """Each vertex's index among its game's vertices, the first vertex of
    each of the ``g`` games, and the largest count."""
    counts = np.bincount(owner, minlength=g)
    starts = np.cumsum(counts) - counts
    return np.arange(len(owner)) - starts[owner], starts, int(counts.max(initial=0))


def _support_order(pt: StageSolution):
    s1 = pt.mu1 > 1e-9
    s2 = pt.mu2 > 1e-9
    return (
        int(s1.sum() + s2.sum()),
        tuple(np.nonzero(s1)[0]) + tuple(np.nonzero(s2)[0]),
        tuple(np.round(pt.mu1, 9)),
        tuple(np.round(pt.mu2, 9)),
    )


def _enumerate_chunk(p1: np.ndarray, p2: np.ndarray) -> list[list[StageSolution]]:
    """:func:`enumerate_ne_stack` of one chunk of the stack."""
    g, m, n = p1.shape
    a = _normalise(p1)
    b = _normalise(p2)
    ox, xs, lx = _polytope_vertices(b, EQ_TOL)
    oy, ys, ly = _polytope_vertices(a.transpose(0, 2, 1), EQ_TOL)
    ly = np.concatenate((ly[:, n:], ly[:, :n]), axis=1)  # y's labels over (n + m) to x's (m + n)

    # complete labelling of every (x, y) pair of a game, as (G, Cx, Cy); a
    # padding row has no label, and no vertex has every label of its own
    # side (some x_i and y_j are positive), so no pair with padding passes
    ix, start_x, cx = _places(ox, g)
    iy, start_y, cy = _places(oy, g)
    pad_x = np.zeros((g, cx, m + n), dtype=bool)
    pad_x[ox, ix] = lx
    pad_y = np.zeros((g, cy, m + n), dtype=bool)
    pad_y[oy, iy] = ly
    complete = (pad_x[:, :, None] | pad_y[:, None]).all(axis=-1)
    game, i, j = np.nonzero(complete)
    x, y = xs[start_x[game] + i], ys[start_y[game] + j]

    # final check on the normalised payoffs: no profitable pure deviation
    r1 = np.einsum("kij,kj->ki", a[game], y)
    r2 = np.einsum("ki,kij->kj", x, b[game])
    ok = (((x * r1).sum(axis=1) >= r1.max(axis=1) - EQ_TOL)
          & ((r2 * y).sum(axis=1) >= r2.max(axis=1) - EQ_TOL))
    game, x, y = game[ok], x[ok], y[ok]
    first = _first_rows(np.concatenate((game[:, None], np.round(x, 9), np.round(y, 9)), axis=1))
    game, x, y = game[first], x[first], y[first]
    found = _points(p1, p2, game, x, y)
    return [sorted(points, key=_support_order) if len(points) > 1 else points for points in found]


def _points(p1: np.ndarray, p2: np.ndarray, game: np.ndarray, x: np.ndarray,
            y: np.ndarray) -> list[list[StageSolution]]:
    """The points (x[k], y[k]) of games ``game[k]`` of the stack as each
    game's list of :class:`StageSolution`, in the order given.  Their payoffs
    x P y are one vector-matrix and one dot product per point, as a
    per-point x @ P @ y makes them."""
    payoffs = np.concatenate([np.matmul(np.matmul(x[:, None], p[game]), y[..., None])[..., 0]
                              for p in (p1, p2)], axis=1)
    found = [[] for _ in range(len(p1))]
    for gk, xk, yk, pk in zip(game.tolist(), x, y, payoffs):
        found[gk].append(StageSolution("ne", xk, yk, None, pk))
    return found


def _chooser(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """The payoffs of the agent that chooses in each game of a stack of
    one-sided games, (G, m, 1) or (G, 1, n): agent 1's column when agent 2
    has one action (so also in a 1x1 game), else agent 2's row; (G, k)."""
    return p1[:, :, 0] if p1.shape[2] == 1 else p2[:, 0, :]


def _one_sided_ne(p1: np.ndarray, p2: np.ndarray, bases: int) -> list[list[StageSolution]]:
    """:func:`enumerate_ne_stack` of a stack of one-sided games, (G, m, 1)
    or (G, 1, n), with no basis system.

    Such a game is the chooser's decision problem: its polytope vertices
    are the chooser's pure actions, the other agent's single action is a
    best response to each, and the support enumeration keeps exactly the
    actions whose normalised payoff ``c`` passes its pure-deviation check
    ``c >= max(c) - EQ_TOL``, in ascending order.  The check is the
    enumeration's own expression, and so are the payoffs
    (:func:`_points`), so points, order and bytes are the enumeration's.  A
    game with an action within 1e-12 of that edge, where the enumeration's
    labels (read off ``solve``) might round the other way, is enumerated.
    """
    c = _normalise(_chooser(p1, p2)[:, None])[:, 0]
    floor = c.max(axis=1, keepdims=True) - EQ_TOL
    edge = (np.abs(c - floor) <= 1e-12).any(axis=1)
    game, action = np.nonzero((c >= floor) & ~edge[:, None])
    pure = np.zeros((len(game), c.shape[1]))
    pure[np.arange(len(game)), action] = 1.0
    single = np.ones((len(game), 1))
    found = _points(p1, p2, game, *((pure, single) if p1.shape[2] == 1 else (single, pure)))
    rows = np.flatnonzero(edge)
    if len(rows):
        for row, points in zip(rows.tolist(), _enumerate_chunks(p1[rows], p2[rows], bases)):
            found[row] = points
    return found


def _enumerate_chunks(p1: np.ndarray, p2: np.ndarray, bases: int) -> list[list[StageSolution]]:
    """:func:`_enumerate_chunk` over a stack, in chunks of at most
    ``_STACK_BASES`` basis systems (one game per chunk if a game has more)."""
    per = max(1, _STACK_BASES // bases)
    return [points for start in range(0, len(p1), per)
            for points in _enumerate_chunk(p1[start:start + per], p2[start:start + per])]


def enumerate_ne_stack(p1, p2) -> list[list[StageSolution]]:
    """:func:`enumerate_ne` of each game (p1[k], p2[k]) of a stack of games
    of one shape, (G, m, n) each, enumerated together.

    A stack of one-sided games (one agent has one action) is solved in
    closed form (:func:`_one_sided_ne`).  Any other stack is split into
    chunks of at most ``_STACK_BASES`` basis systems (one game per chunk if
    a game has more); a game over ``BASIS_CAP`` raises before anything is
    built.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape or p1.ndim != 3:
        raise ValueError(f"payoff stacks differ or are not (G, m, n): {p1.shape} vs {p2.shape}")
    _, m, n = p1.shape
    bases = comb(m + n, m) + comb(m + n, n)
    if bases > BASIS_CAP:
        raise ResourceLimitError(f"support enumeration over a {m}x{n} game exceeds the basis cap")
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
        raise ValueError("payoffs must be finite")
    if 1 in (m, n):
        return _one_sided_ne(p1, p2, bases)
    return _enumerate_chunks(p1, p2, bases)


def enumerate_ne(game: BimatrixGame) -> list[StageSolution]:
    """All extreme Nash equilibria of ``game``.

    Ordered by increasing total support size, then lexicographically on the
    probability vectors; this order defines "first-found".
    """
    return enumerate_ne_stack(game.p1[None], game.p2[None])[0]


def _max_welfare(points: list[StageSolution]) -> StageSolution:
    """The point with maximal payoff sum; ties break on the largest agent-1
    payoff, then lexicographically on the probability vectors."""
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


def swne(game: BimatrixGame) -> StageSolution:
    """The enumerated equilibrium with maximal payoff sum.

    Ties break on the largest agent-1 payoff, then lexicographically on the
    probability vectors.
    """
    return _max_welfare(enumerate_ne(game))


# ---------------------------------------------------------------------------
# correlated equilibria


def _ce_rows(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Swap-incentive rows, A_ub mu <= 0 over the flattened joint simplex, of
    each game of the stacks ``p1``, ``p2`` (G, m, n): shape
    (G, m(m-1) + n(n-1), m n).  Agent 1's swaps come first, each action in
    turn against every other, then agent 2's."""
    g, m, n = p1.shape
    a1, alt1 = np.nonzero(~np.eye(m, dtype=bool))
    a2, alt2 = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.zeros((g, len(a1) + len(a2), m, n))
    rows[:, np.arange(len(a1)), a1] = p1[:, alt1] - p1[:, a1]
    rows[:, len(a1) + np.arange(len(a2)), :, a2] = (p2[:, :, alt2] - p2[:, :, a2]).transpose(2, 0, 1)
    return rows.reshape(g, -1, m * n)


def _pure_ce(p1: np.ndarray, p2: np.ndarray):
    """The chooser's best action (:func:`_chooser`) of each game of a stack
    of one-sided games, and whether it beats every other action by more
    than ``_CE_MARGIN * max(1, max |c|)`` of the chooser's payoffs ``c``.

    Where it does, the game has one correlated equilibrium, that action's
    pure profile: the swap row of each other action a towards the best one
    reads ``(c_best - c_a) mu_a <= 0``, so mu_a = 0 is the LP's only
    feasible choice.  A game whose chooser has one action passes.
    """
    c = _chooser(p1, p2)
    rows = np.arange(len(c))
    best = c.argmax(axis=1)
    others = c.copy()
    others[rows, best] = -np.inf
    margin = _CE_MARGIN * np.maximum(1.0, np.abs(c).max(axis=1))
    return best, c[rows, best] - others.max(axis=1) > margin


def _ce_arrays(p1: np.ndarray, p2: np.ndarray, objectives: np.ndarray):
    """:func:`_ce_stack` as arrays: the joint distributions, shape (G, m, n),
    and their payoffs, shape (G, 2).

    A one-sided game that passes :func:`_pure_ce` gets its best action's
    pure profile without an LP, whatever its objective: the LP's one
    feasible point, so the distribution the LP returns.  The other games'
    LPs are solved (:func:`_ce_lps`).  Payoffs are :func:`_ce_payoffs`
    either way.
    """
    g, m, n = p1.shape
    if 1 not in (m, n):
        mu, payoffs = _ce_lps(p1, p2, objectives)
    else:
        best, pure = _pure_ce(p1, p2)
        mu = np.zeros((g, m * n))
        mu[np.arange(g), best] = 1.0
        payoffs = _ce_payoffs(p1, p2, mu)
        rows = np.flatnonzero(~pure)
        if len(rows):
            mu[rows], payoffs[rows] = _ce_lps(p1[rows], p2[rows], objectives[rows])
    return mu.reshape(g, m, n), payoffs


def _ce_lps(p1: np.ndarray, p2: np.ndarray, objectives: np.ndarray):
    """The correlated-equilibrium LPs of a stack of games, solved as LP
    stacks of at most ``lp._STACK_ENTRIES`` entries of swap rows: each
    game's distribution, clipped at 0 and normalised, as a row of m n
    entries, and its payoffs, shape (G, 2)."""
    g, m, n = p1.shape
    per = max(1, lp._STACK_ENTRIES // ((m * (m - 1) + n * (n - 1) + 1) * m * n))
    mu, payoffs = np.empty((g, m * n)), np.empty((g, 2))
    for start in range(0, g, per):
        part = slice(start, start + per)
        rows = _ce_rows(p1[part], p2[part])
        size = len(rows)
        res = lp.lp_solve_stack(objectives[part], rows, np.zeros(rows.shape[:2]),
                                np.ones((size, 1, m * n)), np.ones((size, 1)))
        if res.status.count("optimal") != size:
            k = next(k for k, status in enumerate(res.status) if status != "optimal")
            res.result(k)  # raises an "error" row's SolverError
            # every Nash equilibrium is feasible, so this cannot legitimately happen
            raise SolverError(f"correlated-equilibrium LP reported {res.status[k]}")
        flat = np.clip(res.x, 0.0, None)
        flat /= flat.sum(axis=1, keepdims=True)
        mu[part] = flat
        payoffs[part] = _ce_payoffs(p1[part], p2[part], flat)
    return mu, payoffs


def _ce_payoffs(p1: np.ndarray, p2: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Both agents' payoffs, shape (G, 2), of the distributions ``flat``
    (G, m n): each game's sum runs over its own row of m n entries, as a
    per-game sum over its (m, n) distribution does."""
    return np.stack([(flat * p.reshape(len(p), -1)).sum(axis=1) for p in (p1, p2)], axis=1)


def _ce_stack(p1: np.ndarray, p2: np.ndarray, objectives: np.ndarray) -> list[StageSolution]:
    """The correlated equilibrium maximising ``objectives[k]`` (G, m n) of
    each game (p1[k], p2[k]) of a stack, the games' LPs solved as LP stacks.

    The swap rows are built for at most ``lp._STACK_ENTRIES`` entries of
    them at a time, so memory stays bounded whatever the stack's size.  The
    lowest game whose LP fails raises, as a loop over the games would.
    Status, clipping, normalisation and payoffs are array steps over a
    chunk.
    """
    return [StageSolution("ce", None, None, mu, payoffs)
            for mu, payoffs in zip(*_ce_arrays(p1, p2, objectives))]


def _ce_from_lp(game: BimatrixGame, objective: np.ndarray) -> StageSolution:
    """The correlated equilibrium of ``game`` maximising ``objective``: the
    one-game :func:`_ce_stack`."""
    return _ce_stack(game.p1[None], game.p2[None], np.asarray(objective, dtype=float)[None])[0]


def swce(game: BimatrixGame) -> StageSolution:
    """Social-welfare optimal correlated equilibrium via one linear program."""
    return _ce_from_lp(game, (game.p1 + game.p2).ravel())


# ---------------------------------------------------------------------------
# zero-sum


def zero_sum_values(p: np.ndarray):
    """:func:`zero_sum_value` of each game of the stack ``p`` (G, m, n) of
    agent 1's payoffs.

    The maximin LPs of the games are solved as two stacks, agent 1's and
    agent 2's; the lowest game whose LPs fail raises, as a loop over the
    games would.  Returns ``(x, y, values)`` of shapes (G, m), (G, n), (G,).
    """
    p = np.asarray(p, dtype=float)
    g, m, n = p.shape
    shift = p.min(axis=(1, 2)) - 1.0
    M = p - shift[:, None, None]  # strictly positive

    res_x = lp.lp_solve_stack(np.full((g, m), -1.0), -M.transpose(0, 2, 1), np.full((g, n), -1.0))
    res_y = lp.lp_solve_stack(np.ones((g, n)), M, np.ones((g, m)))
    for k in range(g):
        rx, ry = res_x.result(k), res_y.result(k)
        if rx.status != "optimal" or ry.status != "optimal":
            raise SolverError("zero-sum LP failed")
        if -rx.objective <= 0 or ry.objective <= 0:
            raise SolverError("zero-sum LP returned a degenerate scale")
    su, sw = -np.array(res_x.objective), np.array(res_y.objective)
    return res_x.x / su[:, None], res_y.x / sw[:, None], 1.0 / su + shift


def zero_sum_value(game: BimatrixGame | np.ndarray):
    """Maximin solution of a zero-sum game given agent 1's payoffs.

    Returns ``(x, y, value)``: agent 1 guarantees at least ``value`` with
    ``x`` and agent 2 caps agent 1 at ``value`` with ``y``.  The one-game
    :func:`zero_sum_values`.
    """
    if isinstance(game, BimatrixGame):
        if np.abs(game.p1 + game.p2).max() > 1e-9:
            raise ValueError("zero_sum_value expects p2 == -p1")
        p = game.p1
    else:
        p = np.asarray(game, dtype=float)
    x, y, value = zero_sum_values(p[None])
    return x[0], y[0], float(value[0])


# ---------------------------------------------------------------------------
# selection policies


def _check_policy(kind: str, policy: str, rng) -> None:
    if kind not in ("ne", "ce"):
        raise ValueError(f"unknown equilibrium kind {kind!r}")
    if policy not in ("sw-optimal", "first-found", "seeded-random"):
        raise ValueError(f"unknown selection policy {policy!r}")
    if policy == "seeded-random" and rng is None:
        raise ValueError("seeded-random policy needs an rng")


def _select_ne(points: list[StageSolution], policy: str, rng=None) -> StageSolution:
    if policy == "sw-optimal":
        return _max_welfare(points)
    if not points:
        raise SolverError("no equilibrium found")
    return points[0] if policy == "first-found" else points[int(rng.integers(len(points)))]


def any_equilibrium(game: BimatrixGame, kind: str, policy: str = "sw-optimal",
                    rng: Optional[np.random.Generator] = None) -> StageSolution:
    """One equilibrium of ``game`` chosen by ``policy``.

    Policies: "sw-optimal" (maximal payoff sum), "first-found" (first in the
    enumeration order), "seeded-random" (reproducible draw from ``rng``).
    """
    _check_policy(kind, policy, rng)
    if kind == "ne":
        return _select_ne(enumerate_ne(game), policy, rng)

    if policy == "sw-optimal":
        return swce(game)
    if policy == "first-found":
        return _ce_from_lp(game, np.zeros(game.p1.size))
    return _ce_from_lp(game, rng.uniform(0.0, 1.0, size=game.p1.size))


def any_equilibria(p1: np.ndarray, p2: np.ndarray, kind: str,
                   policy: str = "sw-optimal") -> list[StageSolution]:
    """:func:`any_equilibrium` of each game (p1[k], p2[k]) of a stack of
    games of one shape, under "sw-optimal" or "first-found".

    Nash equilibria of the whole stack are enumerated together, and the
    games' correlated-equilibrium LPs are solved as one stack.
    """
    return _counted_equilibria(p1, p2, kind, policy)[0]


def _counted_equilibria(p1: np.ndarray, p2: np.ndarray, kind: str, policy: str):
    """:func:`any_equilibria`, and each game's number of enumerated extreme
    Nash equilibria (``None`` for "ce")."""
    _check_policy(kind, policy, None)
    if kind == "ne":
        found = enumerate_ne_stack(p1, p2)
        return ([points[0] if len(points) == 1 else _select_ne(points, policy) for points in found],
                [len(points) for points in found])
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
        raise ValueError("payoffs must be finite")
    g, m, n = p1.shape
    objectives = (p1 + p2).reshape(g, m * n) if policy == "sw-optimal" else np.zeros((g, m * n))
    return _ce_stack(p1, p2, objectives), None
