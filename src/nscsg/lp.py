"""Dense two-phase simplex for the small linear programs used by the solvers.

Problems are stated over nonnegative variables as

    maximize c @ x   subject to   A_ub @ x <= b_ub,  A_eq @ x = b_eq,  x >= 0

Pivoting is Dantzig's rule with a lowest-index tie break, falling back to
Bland's rule after a stretch of degenerate pivots so cycling cannot occur.
Everything is deterministic for a fixed input.

The simplex runs a stack of LPs of one layout (the same variable and row
counts and the same right-hand-side sign pattern) in lockstep on one
(G, rows, cols) tableau: :func:`lp_solve_stack`.  Each LP takes the pivots
it would take alone, with the same arithmetic, so its result does not
depend on the stack it is solved in; an LP leaves the working stack when it
finishes.  A stack is solved in chunks of at most ``_STACK_ENTRIES``
(32,768) tableau entries.  :func:`lp_solve` is its one-LP call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import SolverError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
MAX_ITER = 20000
DEGENERATE_LIMIT = 200
#: Tableau entries one chunk of a stacked solve holds (256 KB of them, with
#: as much again for a pivot's update): 101 correlated-equilibrium LPs of
#: 3x3 games, 30 of 4x4 games.  Larger chunks gain little and raise peak
#: memory: the vcas-t5 pipeline's peak RSS rose by 0.4 MB at 2^16 entries.
_STACK_ENTRIES = 1 << 15

_OPTIMAL, _UNBOUNDED, _LIMIT, _INFEASIBLE = 0, 1, 2, 3


@dataclass
class LinearProgram:
    """Objective and constraints; ``None`` blocks are treated as empty."""

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        for name in ("a_ub", "a_eq"):
            m = getattr(self, name)
            if m is not None:
                m = np.asarray(m, dtype=float).reshape(-1, n)
                setattr(self, name, m)
        for name in ("b_ub", "b_eq"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float).ravel())


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]


@dataclass
class LpStack:
    """Results of :func:`lp_solve_stack`, one row per LP.

    ``status[k]`` is "optimal", "infeasible", "unbounded" or "error";
    ``x[k]`` is a basic optimal solution on an "optimal" row and zeros
    elsewhere, ``objective[k]`` its value or ``None``, and ``errors`` maps
    each "error" row to its :class:`SolverError` message.
    """

    status: list
    x: np.ndarray
    objective: list
    errors: dict

    def result(self, k: int) -> LpResult:
        """Row ``k`` as :func:`lp_solve` returns it: raises the row's
        :class:`SolverError` on an "error" row."""
        if self.status[k] == "error":
            raise SolverError(self.errors[k])
        if self.status[k] != "optimal":
            return LpResult(self.status[k], None, None)
        return LpResult("optimal", self.x[k], self.objective[k])


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int) -> np.ndarray:
    """Minimize the objective in the last row of each tableau of the stack
    ``T`` (G, rows, cols), in place.  Columns ``[0, ncols)`` are eligible to
    enter; the last column is the right-hand side.  Returns each LP's code:
    optimal, unbounded or iteration limit.

    Each LP keeps its own degenerate-pivot count and switches to Bland's
    rule alone.  An LP that finishes is written back to ``T`` and leaves the
    working stack, which is copied only then.
    """
    g = len(T)
    code = np.full(g, _LIMIT)
    live = ar = np.arange(g)  # stack row of each working LP; its working row
    W, B = T, basis
    last = T[:, -1, -1].copy()
    since = np.zeros(g, dtype=int)  # pivots taken when each LP last made progress
    ratio = np.empty((g, T.shape[1] - 1))
    update = np.empty_like(T)
    big = T.shape[-1]
    for it in range(MAX_ITER if g else 0):
        red = W[:, -1, :ncols]
        col = red.argmin(axis=1)
        if it >= DEGENERATE_LIMIT:  # no LP can have stalled that long before
            bland = it - since >= DEGENERATE_LIMIT
            if bland.any():  # Bland's rule: lowest index with negative reduced cost
                col[bland] = (red[bland] < -PIVOT_TOL).argmax(axis=1)
        colv = W[ar, :, col]
        done = colv[:, -1] >= -PIVOT_TOL
        if done.all():
            code[live] = _OPTIMAL
            break
        # the ratio test over the rows with a positive entry; NaN elsewhere
        ratio.fill(np.nan)
        np.divide(W[:, :-1, -1], colv[:, :-1], out=ratio, where=colv[:, :-1] > PIVOT_TOL)
        best = np.fmin.reduce(ratio, axis=1)
        retire = done | np.isnan(best)  # optimal, or unbounded
        if retire.any():
            if retire.all():
                code[live] = np.where(done, _OPTIMAL, _UNBOUNDED)
                break
            code[live[retire]] = np.where(done[retire], _OPTIMAL, _UNBOUNDED)
            if W is not T:
                T[live[retire]] = W[retire]
                basis[live[retire]] = B[retire]
            keep = ~retire
            W, B, live, col, colv = W[keep], B[keep], live[keep], col[keep], colv[keep]
            last, since, best = last[keep], since[keep], best[keep]
            ar = np.arange(len(W))
            ratio, update = ratio[keep], update[:len(W)]
        cand = ratio <= (best + PIVOT_TOL)[:, None]
        # lowest basis index among ties keeps the walk deterministic
        row = np.where(cand, B, big).argmin(axis=1)
        _pivot(W, B, ar, row, col, colv, update)
        # the last entry holds the negated objective, so progress raises it
        obj = W[:, -1, -1]
        up = obj > last + 1e-12
        np.copyto(last, obj, where=up)
        np.copyto(since, it + 1, where=up)
    if W is not T:  # the LPs still working at the end, finished or not
        T[live] = W
        basis[live] = B
    return code


def _pivot(T, basis, ar, row, col, colv, update) -> None:
    """Pivot tableau k of the stack ``T`` on (``row[k]``, ``col[k]``), for
    ``ar`` = 0..G-1: the pivot row is divided by the pivot, then
    ``colv[k]`` (column ``col[k]``, zeroed on the pivot row) times it is
    taken from every row.  ``colv`` is changed; ``update`` is scratch of
    ``T``'s shape."""
    prow = T[ar, row]
    prow /= colv[ar, row][:, None]
    colv[ar, row] = 0.0
    T[ar, row] = prow
    T -= np.multiply(colv[:, :, None], prow[:, None, :], out=update)
    basis[ar, row] = col


@lru_cache(maxsize=64)
def _layout(n: int, m_ub: int, flip: bytes):
    """The tableau of an LP with ``n`` variables and its rows, ``m_ub``
    inequalities first, with row i flipped to a nonnegative right-hand side
    where ``flip[i]``.

    Columns: the variables, a plain slack for each unflipped inequality, a
    surplus (-slack) for each flipped one, an artificial for every row
    without a plain slack, and the right-hand side.  Returns (template,
    initial basis, flipped rows, artificial rows, n plus the slack and
    surplus count): the template holds the slack, surplus and artificial
    entries and the phase-1 costs, one on each artificial; the caller writes
    the rows and right-hand sides.
    """
    flipped = np.frombuffer(flip, dtype=bool)
    m = len(flipped)
    ub = np.arange(m) < m_ub
    slack = np.flatnonzero(ub & ~flipped)
    surplus = np.flatnonzero(ub & flipped)
    art = np.flatnonzero(~ub | flipped)
    ncols = n + len(slack) + len(surplus)
    template = np.zeros((m + 1, ncols + len(art) + 1))
    template[slack, n + np.arange(len(slack))] = 1.0
    template[surplus, n + len(slack) + np.arange(len(surplus))] = -1.0
    template[art, ncols + np.arange(len(art))] = 1.0
    template[m, ncols:-1] = 1.0
    basis = np.empty(m, dtype=int)
    basis[slack] = n + np.arange(len(slack))
    basis[art] = ncols + np.arange(len(art))
    template.flags.writeable = basis.flags.writeable = False
    return template, basis, np.flatnonzero(flipped), tuple(art.tolist()), ncols


def _blocks(a, b, g: int, n: int):
    """An (a, b) constraint block as (G, k, n) and (G, k) arrays, k = 0 for
    an absent or empty one."""
    a = None if a is None else np.asarray(a, dtype=float)
    if a is None or not a.size:
        return np.zeros((g, 0, n)), np.zeros((g, 0))
    return a, np.asarray(b, dtype=float)


def _solve_chunk(c, a_ub, b_ub, a_eq, b_eq, layout):
    """:func:`lp_solve_stack` of one chunk, as (status, x, objective,
    errors)."""
    g, n = c.shape
    m_ub, m = a_ub.shape[1], a_ub.shape[1] + a_eq.shape[1]
    template, basis0, flipped, art, ncols = layout
    T = np.empty((g,) + template.shape)
    T[:] = template
    T[:, :m_ub, :n] = a_ub
    T[:, m_ub:m, :n] = a_eq
    T[:, :m_ub, -1] = b_ub
    T[:, m_ub:m, -1] = b_eq
    if len(flipped):  # orient every row to a nonnegative right-hand side
        T[:, flipped, :n] = -T[:, flipped, :n]
        T[:, flipped, -1] = -T[:, flipped, -1]
    basis = np.empty((g, m), dtype=int)
    basis[:] = basis0
    status = ["optimal"] * g
    errors = {}
    live, costs = np.arange(g), c  # stack row and objective of each LP still being solved

    def fail(code, k, phase):
        if code == _LIMIT:
            status[k], errors[k] = "error", "simplex iteration limit reached"
        elif code == _INFEASIBLE:
            status[k] = "infeasible"
        elif phase == 1:
            status[k], errors[k] = "error", "phase 1 failed to terminate cleanly"
        else:
            status[k] = "unbounded"

    if art:
        # phase 1: minimize the sum of artificials
        tol = FEAS_TOL * np.maximum(1.0, np.abs(T[:, :m, -1]).max(axis=1))
        for i in art:
            T[:, -1] -= T[:, i]
        code = _run_simplex(T, basis, T.shape[-1] - 1)
        code[(code == _OPTIMAL) & (-T[:, -1, -1] > tol)] = _INFEASIBLE
        ok = code == _OPTIMAL
        if not ok.all():
            for k in np.flatnonzero(~ok).tolist():
                fail(code[k], k, 1)
            T, basis, live, costs = T[ok], basis[ok], live[ok], costs[ok]
        leftover = basis >= ncols
        if leftover.any():
            # pivot leftover artificials out of the basis where possible; a
            # pivot changes only its own row's basic variable
            for i in np.flatnonzero(leftover.any(axis=0)).tolist():
                entries = np.abs(T[:, i, :ncols]) > PIVOT_TOL
                sel = np.flatnonzero(leftover[:, i] & entries.any(axis=1))
                if sel.size:
                    sub, sub_basis, ar = T[sel], basis[sel], np.arange(len(sel))
                    col = entries[sel].argmax(axis=1)
                    _pivot(sub, sub_basis, ar, np.full(len(sel), i), col, sub[ar, :, col],
                           np.empty_like(sub))
                    T[sel], basis[sel] = sub, sub_basis
            # a row whose artificial stays basic is redundant: zeroed, it
            # never passes the ratio test and no pivot changes it
            T[:, :m][basis >= ncols] = 0.0

    # phase 2: minimize -c x; artificial columns stay in the tableau but
    # may not enter
    T[:, -1] = 0.0
    T[:, -1, :n] = -costs
    # a basic column is a unit column, so the rows taken out of the objective
    # row, in row order, leave the costs of the basic variables as they are:
    # each row whose basic variable has a nonzero cost is taken out once
    cost = T[np.arange(len(T))[:, None], -1, basis]
    need = cost != 0
    for i in need.any(axis=0).nonzero()[0].tolist():
        np.subtract(T[:, -1], cost[:, i, None] * T[:, i], out=T[:, -1], where=need[:, i, None])
    code = _run_simplex(T, basis, ncols)
    ok = code == _OPTIMAL
    if not ok.all():
        for k in np.flatnonzero(~ok).tolist():
            fail(code[k], live[k], 2)
        T, basis, live = T[ok], basis[ok], live[ok]

    x = np.zeros((g, T.shape[-1]))
    x[live[:, None], basis] = T[:, :m, -1]
    x = x[:, :n]
    objective = [None] * g
    for k, resid in zip(live.tolist(), _residuals(a_ub[live], b_ub[live], a_eq[live], b_eq[live],
                                                   x[live]).tolist()):
        if resid > 1e-7:
            status[k], errors[k] = "error", f"simplex returned an infeasible point (residual {resid:.3g})"
            x[k] = 0.0
        else:
            objective[k] = float(c[k] @ x[k])
    return status, x, objective, errors


def _residuals(a_ub, b_ub, a_eq, b_eq, x) -> np.ndarray:
    """Largest violation of each ``x[k]``'s constraints and of ``x[k] >= 0``,
    or 0, from one batched step over the stack."""
    ub = (a_ub @ x[..., None])[..., 0] - b_ub
    eq = np.abs((a_eq @ x[..., None])[..., 0] - b_eq)
    return np.concatenate((ub, eq, -x), axis=1).max(axis=1, initial=0.0)


def lp_solve_stack(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpStack:
    """Solve the G linear programs (``c[k]``, ``a_ub[k]``, ``b_ub[k]``,
    ``a_eq[k]``, ``b_eq[k]``) of one layout together.

    ``c`` has shape (G, n), ``a_ub``/``a_eq`` (G, rows, n) and ``b_ub``/
    ``b_eq`` (G, rows); a ``None`` or empty block is absent.  Every LP's
    right-hand side must have the sign pattern of the first's.  Each LP gets
    what it would get alone: its status, ``x`` to the byte and objective,
    or the message of its :class:`SolverError` (see :meth:`LpStack.result`).
    """
    c = np.asarray(c, dtype=float)
    g, n = c.shape
    a_ub, b_ub = _blocks(a_ub, b_ub, g, n)
    a_eq, b_eq = _blocks(a_eq, b_eq, g, n)
    if a_ub.shape[1] + a_eq.shape[1] == 0 or g == 0:
        # maximize over x >= 0 alone
        unbounded = (c > PIVOT_TOL).any(axis=1).tolist()
        return LpStack(["unbounded" if u else "optimal" for u in unbounded], np.zeros((g, n)),
                       [None if u else 0.0 for u in unbounded], {})
    negative = np.concatenate((b_ub, b_eq), axis=1) < 0
    if (negative != negative[0]).any():
        raise ValueError("the LPs of a stack must share their right-hand-side sign pattern")
    layout = _layout(n, a_ub.shape[1], negative[0].tobytes())
    per = max(1, _STACK_ENTRIES // layout[0].size)
    if g <= per:
        return LpStack(*_solve_chunk(c, a_ub, b_ub, a_eq, b_eq, layout))
    status, xs, objective, errors = [], [], [], {}
    for start in range(0, g, per):
        part = slice(start, start + per)
        s, x, o, e = _solve_chunk(c[part], a_ub[part], b_ub[part], a_eq[part], b_eq[part], layout)
        status += s
        xs.append(x)
        objective += o
        errors.update((start + k, msg) for k, msg in e.items())
    return LpStack(status, np.concatenate(xs), objective, errors)


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve ``lp``; x is a basic optimal solution when status is "optimal".

    The one-LP call of :func:`lp_solve_stack`."""

    def one(v):
        return None if v is None else v[None]

    return lp_solve_stack(lp.c[None], one(lp.a_ub), one(lp.b_ub), one(lp.a_eq),
                          one(lp.b_eq)).result(0)
