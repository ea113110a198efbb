"""Dense two-phase simplex for the small linear programs used by the solvers.

Problems are stated over nonnegative variables as

    maximize c @ x   subject to   A_ub @ x <= b_ub,  A_eq @ x = b_eq,  x >= 0

Pivoting is Dantzig's rule with a lowest-index tie break, falling back to
Bland's rule after a stretch of degenerate pivots so cycling cannot occur.
Everything is deterministic for a fixed input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
MAX_ITER = 20000
DEGENERATE_LIMIT = 200


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


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Minimize the objective encoded in the last row of tableau ``T``.

    Columns ``[0, ncols)`` are eligible to enter.  Returns "optimal" or
    "unbounded".
    """
    stalled = 0
    last_obj = T[-1, -1]
    for _ in range(MAX_ITER):
        red = T[-1, :ncols]
        if stalled < DEGENERATE_LIMIT:
            col = int(np.argmin(red))
            if red[col] >= -PIVOT_TOL:
                return "optimal"
        else:  # Bland's rule: lowest index with negative reduced cost
            neg = np.nonzero(red < -PIVOT_TOL)[0]
            if neg.size == 0:
                return "optimal"
            col = int(neg[0])
        ratios = T[:-1, col]
        pos = np.nonzero(ratios > PIVOT_TOL)[0]
        if pos.size == 0:
            return "unbounded"
        r = T[pos, -1] / ratios[pos]
        best = np.min(r)
        cand = pos[r <= best + PIVOT_TOL]
        # lowest basis index among ties keeps the walk deterministic
        row = int(cand[np.argmin(basis[cand])])
        _pivot(T, basis, row, col)
        # the last entry holds the negated objective, so progress raises it
        if T[-1, -1] > last_obj + 1e-12:
            stalled = 0
            last_obj = T[-1, -1]
        else:
            stalled += 1
    raise SolverError("simplex iteration limit reached")


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve ``lp``; x is a basic optimal solution when status is "optimal"."""
    c = lp.c
    n = c.shape[0]
    rows = []
    rhs = []
    kinds = []  # "ub" or "eq"
    if lp.a_ub is not None and lp.a_ub.size:
        for a, b in zip(lp.a_ub, lp.b_ub):
            rows.append(a)
            rhs.append(b)
            kinds.append("ub")
    if lp.a_eq is not None and lp.a_eq.size:
        for a, b in zip(lp.a_eq, lp.b_eq):
            rows.append(a)
            rhs.append(b)
            kinds.append("eq")

    m = len(rows)
    if m == 0:
        # maximize over x >= 0 alone
        if np.any(c > PIVOT_TOL):
            return LpResult("unbounded", None, None)
        return LpResult("optimal", np.zeros(n), 0.0)

    A = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)

    # orient every row to nonnegative rhs; flipped "ub" rows need a surplus
    surplus_cols = []
    slack_cols = []
    for i in range(m):
        flipped = b[i] < 0
        if flipped:
            A[i] = -A[i]
            b[i] = -b[i]
        if kinds[i] == "ub":
            if flipped:
                surplus_cols.append(i)  # -slack (>=)
            else:
                slack_cols.append(i)

    n_slack = len(slack_cols) + len(surplus_cols)
    S = np.zeros((m, n_slack))
    slack_of_row = {}
    for j, i in enumerate(slack_cols):
        S[i, j] = 1.0
        slack_of_row[i] = j
    for j, i in enumerate(surplus_cols, start=len(slack_cols)):
        S[i, j] = -1.0

    # artificials for every row not carrying a plain slack
    art_rows = [i for i in range(m) if i not in slack_of_row]
    n_art = len(art_rows)
    R = np.zeros((m, n_art))
    for j, i in enumerate(art_rows):
        R[i, j] = 1.0

    ncols = n + n_slack
    T = np.zeros((m + 1, ncols + n_art + 1))
    T[:m, :n] = A
    T[:m, n:ncols] = S
    T[:m, ncols:ncols + n_art] = R
    T[:m, -1] = b

    basis = np.empty(m, dtype=int)
    for i in range(m):
        basis[i] = n + slack_of_row[i] if i in slack_of_row else ncols + art_rows.index(i)

    # phase 1: minimize the sum of artificials
    if n_art:
        T[-1, :] = 0.0
        T[-1, ncols:ncols + n_art] = 1.0
        for i, bi in enumerate(basis):
            if bi >= ncols:
                T[-1, :] -= T[i, :]
        status = _run_simplex(T, basis, ncols + n_art)
        if status != "optimal":
            raise SolverError("phase 1 failed to terminate cleanly")
        if -T[-1, -1] > FEAS_TOL * max(1.0, np.abs(b).max()):
            return LpResult("infeasible", None, None)
        # pivot leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= ncols:
                row = T[i, :ncols]
                nz = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
                if nz.size:
                    _pivot(T, basis, i, int(nz[0]))
        keep = [i for i in range(m) if basis[i] < ncols]
        T = np.vstack([T[keep][:, list(range(ncols)) + [-1]], np.zeros(ncols + 1)])
        basis = basis[keep]
        m = len(keep)
    else:
        T = T[:, list(range(ncols)) + [-1]]

    # phase 2: minimize -c x
    T[-1, :] = 0.0
    T[-1, :n] = -c
    for i, bi in enumerate(basis):
        if np.abs(T[-1, bi]) > 0:
            T[-1, :] -= T[-1, bi] * T[i, :]
    status = _run_simplex(T, basis, ncols)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    x = np.zeros(ncols)
    x[basis] = T[:m, -1]
    x = x[:n]
    obj = float(c @ x)
    resid = 0.0
    if lp.a_ub is not None and lp.a_ub.size:
        resid = max(resid, float(np.max(lp.a_ub @ x - lp.b_ub, initial=0.0)))
    if lp.a_eq is not None and lp.a_eq.size:
        resid = max(resid, float(np.max(np.abs(lp.a_eq @ x - lp.b_eq), initial=0.0)))
    resid = max(resid, float(np.max(-x, initial=0.0)))
    if resid > 1e-7:
        raise SolverError(f"simplex returned an infeasible point (residual {resid:.3g})")
    return LpResult(status, x, obj)
