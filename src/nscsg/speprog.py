"""Subgame-perfection constraint systems and their solvers.

The equilibrium conditions over a whole unfolded structure form a sparse
polynomial system in the strategy variables mu, the value variables V and the
post-action variables Z.  This module builds those systems, evaluates and
checks assignments with one incentive-slack kernel, and provides the three
inner solvers of FSI: an exact grid search for desk-scale instances (the
whole structure or one free part), feasibility-preserving block coordinate
ascent with exact LP sub-steps, and an equilibrium re-seeding search that
re-runs backward induction above a changed node.

Payoffs come from the stage-game kernel :func:`nscsg.gbi.stage_games`;
whole-structure passes (evaluation, incentive gaps, grid scoring) are the one
bottom-up pass of :mod:`nscsg.gbi`, taken one stage group at a time wherever
the step allows it.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ModelError, ResourceLimitError, SolverError
from .gbi import EquilibriumSolution, StageGameCache, _leaf_values, _require, induce_groups, stage_games
from .lp import LinearProgram, lp_solve
from .nfg import StageSolution
from .unfold import StageGroup, Structure

GRID_CAP = 5_000_000
#: Floats of values, gap tables and one stage's matrices held per block of
#: grid points scored together (about 0.5 MB): one batch axis amortises the
#: pass's Python work.
_GRID_BLOCK = 1 << 16
#: Floats of trial values held per block of re-induction trials scored
#: together (1 MB): a parking K8 round, at most 114 trials of 770 floats,
#: fits in one block.
_TRIAL_BLOCK = 1 << 17
#: Welfare gain below which a coordinate-ascent round counts as no progress.
_ASCENT_TOL = 1e-9


# ---------------------------------------------------------------------------
# variables, constraints, systems


@dataclass(frozen=True)
class VarId:
    """One scalar variable of the constraint system.

    kind is one of "muN" (node, agent, action label), "muC" (node, joint),
    "V" (node, agent) and "Z" (node, agent, joint).
    """

    kind: str
    node: int
    agent: int = -1
    action: str = ""
    joint: tuple = ()

    def short(self) -> str:
        if self.kind == "muN":
            return f"muN[{self.node},{self.agent},{self.action}]"
        if self.kind == "muC":
            return f"muC[{self.node},{'|'.join(self.joint)}]"
        if self.kind == "V":
            return f"V[{self.node},{self.agent}]"
        return f"Z[{self.node},{self.agent},{'|'.join(self.joint)}]"


@dataclass(frozen=True)
class Constraint:
    """Sparse multilinear polynomial with relation "eq" (= 0) or "ge" (>= 0)."""

    terms: tuple  # of (coefficient, tuple of VarId)
    rel: str
    origin: str
    node: int

    def evaluate(self, assignment) -> float:
        total = 0.0
        for coeff, vs in self.terms:
            prod = coeff
            for v in vs:
                prod *= assignment[v]
            total += prod
        return total

    def degree(self) -> int:
        return max((len(vs) for _, vs in self.terms), default=0)


@dataclass
class ConstraintSystem:
    kind: str  # "ne" | "ce"
    constraints: list
    variables: set

    def by_origin(self) -> dict:
        out: dict = {}
        for c in self.constraints:
            out[c.origin] = out.get(c.origin, 0) + 1
        return out


def _z_constants(structure: Structure, rewards) -> list[np.ndarray]:
    """Stage matrices with every nonleaf value zero: immediate rewards plus
    expected leaf rewards: the :func:`stage_games` of each stage group, by index."""
    values = _leaf_values(structure, rewards)
    return [stage_games(structure, rewards, g, values) for groups in structure.groups for g in groups]


def _z_definitions(structure: Structure, node, consts, constraints, variables):
    """Z-definition equalities for one node; leaf successor values fold into
    the constant term, taken from :func:`_z_constants` (whose row-major
    order is the order of ``node.joints``)."""
    children = structure.children(node)
    group, row = structure.locate(node.id)
    for k, joint in enumerate(node.joints):
        for i in range(2):
            z = VarId("Z", node.id, i, joint=joint)
            variables.add(z)
            const = -consts[group.index][i, row].flat[k]
            terms = [(1.0, (z,))]
            for p, cid in children[joint]:
                if cid < structure.bounds[structure.horizon]:  # not a leaf
                    v = VarId("V", cid, i)
                    variables.add(v)
                    terms.append((-p, (v,)))
            if const != 0.0:
                terms.append((const, ()))
            constraints.append(Constraint(tuple(terms), "eq", "z-def", node.id))


def build_ne_system(structure: Structure, rewards) -> ConstraintSystem:
    """Equilibrium conditions with independent per-agent mixtures.

    Monomials reach degree three (mu1 * mu2 * Z); Z definitions are affine.
    """
    if len(rewards) != 2:
        raise ModelError("constraint systems are built for two agents")
    constraints: list = []
    variables: set = set()
    consts = _z_constants(structure, rewards)
    for node in structure.nodes[:structure.bounds[structure.horizon]]:
        m1, m2 = node.menus
        _z_definitions(structure, node, consts, constraints, variables)
        mu1 = {a: VarId("muN", node.id, 0, a) for a in m1}
        mu2 = {b: VarId("muN", node.id, 1, b) for b in m2}
        variables.update(mu1.values())
        variables.update(mu2.values())
        for i, mu_rows in ((0, m1), (1, m2)):
            v = VarId("V", node.id, i)
            variables.add(v)
            # value equality
            terms = [(1.0, (v,))]
            for a in m1:
                for b in m2:
                    z = VarId("Z", node.id, i, joint=(a, b))
                    terms.append((-1.0, (mu1[a], mu2[b], z)))
            constraints.append(Constraint(tuple(terms), "eq", "value", node.id))
            # incentive inequalities: no profitable pure deviation
            for own in mu_rows:
                terms = [(1.0, (v,))]
                if i == 0:
                    for b in m2:
                        terms.append((-1.0, (mu2[b], VarId("Z", node.id, 0, joint=(own, b)))))
                else:
                    for a in m1:
                        terms.append((-1.0, (mu1[a], VarId("Z", node.id, 1, joint=(a, own)))))
                constraints.append(Constraint(tuple(terms), "ge", "incentive", node.id))
        for i, mu in ((0, mu1), (1, mu2)):
            terms = [(1.0, (mv,)) for mv in mu.values()] + [(-1.0, ())]
            constraints.append(Constraint(tuple(terms), "eq", "simplex", node.id))
            for mv in mu.values():
                constraints.append(Constraint(((1.0, (mv,)),), "ge", "nonneg", node.id))
    return ConstraintSystem("ne", constraints, variables)


def build_ce_system(structure: Structure, rewards) -> ConstraintSystem:
    """Equilibrium conditions with one joint recommendation distribution.

    Monomials reach degree two (mu * Z); swap incentives compare obeying a
    recommendation with the best unilateral replacement.
    """
    if len(rewards) != 2:
        raise ModelError("constraint systems are built for two agents")
    constraints: list = []
    variables: set = set()
    consts = _z_constants(structure, rewards)
    for node in structure.nodes[:structure.bounds[structure.horizon]]:
        m1, m2 = node.menus
        _z_definitions(structure, node, consts, constraints, variables)
        mu = {j: VarId("muC", node.id, joint=j) for j in node.joints}
        variables.update(mu.values())
        for i in range(2):
            v = VarId("V", node.id, i)
            variables.add(v)
            terms = [(1.0, (v,))]
            for j in node.joints:
                terms.append((-1.0, (mu[j], VarId("Z", node.id, i, joint=j))))
            constraints.append(Constraint(tuple(terms), "eq", "value", node.id))
        for a in m1:
            for alt in m1:
                if alt == a:
                    continue
                terms = []
                for b in m2:
                    terms.append((1.0, (mu[(a, b)], VarId("Z", node.id, 0, joint=(a, b)))))
                    terms.append((-1.0, (mu[(a, b)], VarId("Z", node.id, 0, joint=(alt, b)))))
                constraints.append(Constraint(tuple(terms), "ge", "incentive", node.id))
        for b in m2:
            for alt in m2:
                if alt == b:
                    continue
                terms = []
                for a in m1:
                    terms.append((1.0, (mu[(a, b)], VarId("Z", node.id, 1, joint=(a, b)))))
                    terms.append((-1.0, (mu[(a, b)], VarId("Z", node.id, 1, joint=(a, alt)))))
                constraints.append(Constraint(tuple(terms), "ge", "incentive", node.id))
        terms = [(1.0, (mv,)) for mv in mu.values()] + [(-1.0, ())]
        constraints.append(Constraint(tuple(terms), "eq", "simplex", node.id))
        for mv in mu.values():
            constraints.append(Constraint(((1.0, (mv,)),), "ge", "nonneg", node.id))
    return ConstraintSystem("ce", constraints, variables)


@dataclass(frozen=True)
class ProgramSize:
    variables: int  # mu and V only
    variables_with_z: int
    constraints_with_zdef: int
    constraints_without_zdef: int
    by_origin: dict


def program_size(system: ConstraintSystem) -> ProgramSize:
    """Variable and constraint counts under both counting conventions."""
    n_z = sum(1 for v in system.variables if v.kind == "Z")
    n_all = len(system.variables)
    by_origin = system.by_origin()
    n_zdef = by_origin.get("z-def", 0)
    total = len(system.constraints)
    return ProgramSize(n_all - n_z, n_all, total, total - n_zdef, by_origin)


def dump_system(system: ConstraintSystem, path) -> None:
    """One constraint per line: ``origin@node: c*var*var ... (rel)``."""
    with open(path, "w") as fh:
        for c in system.constraints:
            parts = []
            for coeff, vs in c.terms:
                body = "*".join([f"{coeff:.12g}"] + [v.short() for v in vs])
                parts.append(body)
            rel = "= 0" if c.rel == "eq" else ">= 0"
            fh.write(f"{c.origin}@{c.node}: " + " + ".join(parts) + f" {rel}\n")


# ---------------------------------------------------------------------------
# evaluation and feasibility


def _stacked(kind: str, profiles: dict):
    """Strategy data of a stage group's nodes, stacked: (mu1, mu2) with
    shapes (n, m1) and (n, m2) for "ne", (mu,) with shape (n, m1, m2) for
    "ce"."""
    def strategies(group: StageGroup):
        profs = [profiles[nid] for nid in group.ids]
        if kind == "ne":
            return np.array([p.mu1 for p in profs]), np.array([p.mu2 for p in profs])
        return (np.array([p.mu_joint for p in profs]),)

    return strategies


def _values(kind: str, z: np.ndarray, s: tuple) -> np.ndarray:
    """Values, shape (*batch, n, 2), of nodes with stage matrices ``z`` and
    stacked strategy data ``s``: each the sum over its own (m1, m2) block of
    joint probability times payoff, so batching changes no bit."""
    joint = s[0] if kind == "ce" else s[0][..., :, None] * s[1][..., None, :]
    flat = z.shape[1:-2] + (-1,)
    return np.stack([(joint * zi).reshape(flat).sum(axis=-1) for zi in z], axis=-1)


def _evaluate(structure: Structure, rewards, kind: str, strategies, profiles=None,
              batch: tuple = ()):
    """Values determined bottom-up by stacked strategy data
    ``strategies(group)`` (see :func:`_stacked`; leading batch axes allowed),
    and the incentive gaps they leave.

    Returns ``(values, gaps)`` of shapes (*batch, n_nodes, 2) and
    (*batch, n_nonleaf, 2): ``gaps`` holds both agents' one-shot gaps
    (:func:`_gaps`) at every nonleaf node, rows in
    :meth:`Structure.nonleaf_ids` order.
    """
    gaps = np.zeros(batch + (structure.bounds[structure.horizon], 2))

    def step(group, z):
        s = strategies(group)
        value = _values(kind, z, s)
        gaps[..., group.ids, 0], gaps[..., group.ids, 1] = _gaps(kind, z[0], z[1], s, value)
        return value

    return induce_groups(structure, rewards, step, profiles, batch), gaps


def _solution_values(structure: Structure, rewards, solution: EquilibriumSolution) -> np.ndarray:
    """The values of :func:`evaluate_values`, shape (n_nodes, 2), from a pass
    that builds no gap table."""
    strategies = _stacked(solution.kind, solution.profiles)
    return induce_groups(structure, rewards,
                         lambda group, z: _values(solution.kind, z, strategies(group)),
                         solution.profiles)


def evaluate_values(structure: Structure, rewards, solution: EquilibriumSolution):
    """Values and incentive gaps determined bottom-up by the strategy data.

    Returns ``(values, gaps)`` of shapes (n_nodes, 2) and (n_nonleaf, 2):
    ``gaps[nid, agent]`` is the agent's largest one-shot gain at nonleaf node
    ``nid`` (see :func:`_evaluate`).
    """
    return _evaluate(structure, rewards, solution.kind,
                     _stacked(solution.kind, solution.profiles), solution.profiles)


def assignment_from_solution(structure: Structure, rewards, solution: EquilibriumSolution) -> dict:
    """Total assignment of mu, V and Z induced by ``solution``."""
    values = _solution_values(structure, rewards, solution)
    z: dict = {}  # node id -> its stage matrices, shape (2, m1, m2)
    for groups in structure.groups:
        for group in groups:
            games = stage_games(structure, rewards, group, values)
            z.update(zip(group.ids.tolist(), games.swapaxes(0, 1)))
    asg: dict = {}
    for node in structure.nodes:
        if structure.is_leaf(node):
            continue
        m1, m2 = node.menus
        prof = solution.profiles[node.id]
        if solution.kind == "ne":
            for a, lab in enumerate(m1):
                asg[VarId("muN", node.id, 0, lab)] = float(prof.mu1[a])
            for b, lab in enumerate(m2):
                asg[VarId("muN", node.id, 1, lab)] = float(prof.mu2[b])
        else:
            for a, la in enumerate(m1):
                for b, lb in enumerate(m2):
                    asg[VarId("muC", node.id, joint=(la, lb))] = float(prof.mu_joint[a, b])
        for i in range(2):
            asg[VarId("V", node.id, i)] = float(values[node.id, i])
            for a, la in enumerate(m1):
                for b, lb in enumerate(m2):
                    asg[VarId("Z", node.id, i, joint=(la, lb))] = float(z[node.id][i, a, b])
    return asg


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_equality_residual: float
    max_inequality_violation: float
    worst: Optional[str] = None


def check_feasibility(system: ConstraintSystem, assignment: dict, tol: float) -> FeasibilityReport:
    """Largest equality residual and inequality violation of ``assignment``."""
    missing = system.variables - set(assignment)
    if missing:
        raise ModelError(f"assignment misses {len(missing)} variables, e.g. {next(iter(missing)).short()}")
    max_eq = 0.0
    max_ge = 0.0
    worst = None
    for c in system.constraints:
        val = c.evaluate(assignment)
        if c.rel == "eq":
            r = abs(val)
            if r > max_eq:
                max_eq, worst = r, f"{c.origin}@{c.node}"
        else:
            r = -val
            if r > max_ge:
                max_ge, worst = r, f"{c.origin}@{c.node}"
    return FeasibilityReport(max_eq <= tol and max_ge <= tol, max_eq, max_ge, worst)


def _slacks(kind: str, z1: np.ndarray, z2: np.ndarray, strategies: tuple, value: np.ndarray):
    """Incentive slacks of agent 1 and of agent 2 at each of a stack of
    nodes, one per deviation: obeying's payoff less the deviation's, so none
    is negative at an equilibrium.  "ne": a pure action against the other
    agent's mixture, less the node value ``value`` (shape (..., 2)); shapes
    (..., m1) and (..., m2).  "ce": a swap of a recommended action for
    another (Kwiatkowska et al., TACAS 2022), weighted by the
    recommendation's probability; shapes (..., m1 * m1) and (..., m2 * m2),
    row-major over (recommended, played), the diagonal exactly 0.
    ``strategies`` as in :func:`_stacked`; leading axes are batch axes."""
    if kind == "ne":
        mu1, mu2 = strategies
        return (value[..., 0, None] - np.matmul(z1, mu2[..., None])[..., 0],
                value[..., 1, None] - np.matmul(mu1[..., None, :], z2)[..., 0, :])
    mu, = strategies
    m, n = mu.shape[-2:]
    # obeying recommendation a less playing each alternative row, (a, b, alt),
    # then column, (b, a, alt): one batched matmul each, a vector-matrix
    # product per recommendation; the first's differences are freed before
    # the second's are made
    s1 = np.matmul(mu[..., :, None, :],
                   z1[..., :, :, None] - np.swapaxes(z1, -1, -2)[..., None, :, :])
    s2 = np.matmul(np.swapaxes(np.swapaxes(z2, -1, -2)[..., :, :, None] - z2[..., None, :, :], -1, -2),
                   np.swapaxes(mu, -1, -2)[..., None])
    return s1.reshape(s1.shape[:-3] + (m * m,)), s2.reshape(s2.shape[:-3] + (n * n,))


def _gaps(kind: str, z1: np.ndarray, z2: np.ndarray, strategies: tuple, value: np.ndarray):
    """Largest one-shot gain of agent 1 and of agent 2 at each of a stack of
    nodes: the most negative of their :func:`_slacks`, negated.  For "ne"
    this is the best pure deviation less the node value; for "ce" the best
    swap, never negative, since the diagonal slacks are 0.  Subtracting
    from +0.0 reports a zero gap as +0.0, never -0.0."""
    s1, s2 = _slacks(kind, z1, z2, strategies, value)
    return 0.0 - s1.min(axis=-1), 0.0 - s2.min(axis=-1)


# ---------------------------------------------------------------------------
# exact grid search


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length ``parts`` summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


@dataclass
class GridResult:
    solution: Optional[EquilibriumSolution]
    social_welfare: Optional[float]
    checked: int
    feasible: int


def solve_exact_grid(structure: Structure, rewards, kind: str, resolution: int,
                     tol: Optional[float] = None) -> GridResult:
    """Enumerate all strategy data on the 1/resolution grid and keep the
    feasible assignment with the best root social welfare.

    Exact equilibria need not lie on the grid, so feasibility is accepted up
    to ``tol`` (default 0.5 / resolution).  Ties break on enumeration order,
    which is lexicographic in the per-node grids.
    """
    nonleaf = [structure.nodes[i] for i in sorted(structure.nonleaf_ids())]
    return _grid_search(structure, rewards, kind, nonleaf, resolution, None, tol, GRID_CAP)


def _step_floats(kind: str, group: StageGroup) -> int:
    """Floats a batch entry of an evaluation pass holds while ``group`` is
    stepped, beside its stage's matrices: the strategy data, then the most
    of what :func:`_values` holds (the joint distribution and its product
    with a payoff) or what :func:`_slacks` holds (the node values, the
    slacks made so far and one agent's matmul temporaries; for "ce" these
    are the swap differences, m1 or m2 floats a joint)."""
    n, m1, m2 = group.prob.shape[:3]
    joints = n * m1 * m2
    if kind == "ne":
        return n * (m1 + m2) + max(2 * joints + n, n * (2 + m1 + 2 * m2))
    return joints + max(joints + n, n * (2 + m1 * m1) + joints * m1,
                        n * (2 + m1 * m1 + m2 * m2) + joints * m2)


def _grid_floats(structure: Structure, kind: str, n_grid_nodes: int) -> int:
    """Floats held per point of a grid block: the values (2 a node) and gap
    table (2 a nonleaf node) of this block, the last block's being freed
    before its pass; the matrices and returned values of the widest stage
    (2 a joint, 2 a node) while its most demanding group is stepped
    (:func:`_step_floats`); and the point's number and the grid index of
    each grid node, of this block and, while it is drawn, of the last."""
    stage = max((sum(2 * (math.prod(g.prob.shape[:3]) + len(g.ids)) for g in groups)
                 + max(_step_floats(kind, g) for g in groups)
                 for groups in structure.groups if groups), default=0)
    return (2 * (len(structure.nodes) + structure.bounds[structure.horizon]) + stage
            + 1 + 2 * n_grid_nodes)


def _grid_search(structure: Structure, rewards, kind: str, nodes: list, resolution: int,
                 base: Optional[EquilibriumSolution], tol: Optional[float],
                 max_points: int) -> GridResult:
    """Grid search over the strategy data of ``nodes`` (given in id order).

    Every other node keeps the data of ``base``; without a base, ``nodes``
    must be all nonleaf nodes.  A point is feasible when its largest
    incentive gap is at most ``tol`` (default 0.5 / resolution), and it
    replaces the best so far (at first ``base``, if given) only when it
    raises the root welfare.  Points are taken in lexicographic order of the
    per-node grids and scored in blocks, one batch axis of the evaluation
    pass; each point gets the bits it would get alone.
    """
    if resolution < 1:
        raise ModelError("grid resolution must be at least 1")
    tol = 0.5 / resolution if tol is None else tol
    grids = []  # per node: the stacked strategy data of each of its grid points
    total_points = 1
    for node in nodes:
        m1, m2 = (len(node.menus[0]), len(node.menus[1]))
        if kind == "ne":
            g1 = np.array(list(_compositions(resolution, m1)), dtype=float) / resolution
            g2 = np.array(list(_compositions(resolution, m2)), dtype=float) / resolution
            grid = (np.repeat(g1, len(g2), axis=0), np.tile(g2, (len(g1), 1)))
        else:
            cells = np.array(list(_compositions(resolution, m1 * m2)), dtype=float)
            grid = (cells.reshape(-1, m1, m2) / resolution,)
        grids.append(grid)
        total_points *= len(grid[0])
        if total_points > max_points:
            raise ResourceLimitError(
                f"grid enumeration needs {total_points} points (> {max_points})",
                stats={"nodes": len(nodes), "resolution": resolution},
            )
    ids = {node.id for node in nodes}
    _require(structure, ids if base is None else ids | base.profiles.keys())

    sizes = [len(grid[0]) for grid in grids]
    strides = [math.prod(sizes[q + 1:]) for q in range(len(nodes))]
    rows: dict = {}  # group index -> (position in nodes, row in group)
    for q, node in enumerate(nodes):
        group, row = structure.locate(node.id)
        rows.setdefault(group.index, []).append((q, row))
    base_data = None if base is None else _stacked(kind, base.profiles)
    block = max(1, _GRID_BLOCK // _grid_floats(structure, kind, len(nodes)))

    best = base
    best_sw = None if base is None else float(base.values[0].sum())
    best_point = best_values = None
    feasible = 0
    for lo in range(0, total_points, block):
        points = np.arange(lo, min(lo + block, total_points))
        picks = [(points // stride) % size for stride, size in zip(strides, sizes)]

        def strategies(group, _n=len(points), _picks=picks):
            if base is None:  # every row is a grid node
                first = grids[rows[group.index][0][0]]
                out = tuple(np.empty((_n, len(group.ids)) + c.shape[1:]) for c in first)
            else:
                out = tuple(np.broadcast_to(s, (_n,) + s.shape).copy() for s in base_data(group))
            for q, row in rows.get(group.index, ()):
                for s, choices in zip(out, grids[q]):
                    s[:, row] = choices[_picks[q]]
            return out

        values, gaps = _evaluate(structure, rewards, kind, strategies, batch=(len(points),))
        welfare = values[:, 0].sum(axis=-1)
        for p in np.flatnonzero(~(gaps.max(axis=(-2, -1), initial=0.0) > tol)):
            feasible += 1
            sw = float(welfare[p])
            if best_sw is None or sw > best_sw + 1e-12:
                best_sw, best_point, best_values = sw, lo + int(p), values[p].copy()
        del values, gaps, welfare  # freed before the next block's pass

    if best_point is not None:
        if base is None:
            best = EquilibriumSolution(kind, best_values, {}, "grid")
        else:
            best = base.copy()
            best.values = best_values
        for q, node in enumerate(nodes):
            point = [choices[(best_point // strides[q]) % sizes[q]].copy() for choices in grids[q]]
            payoffs = best_values[node.id].copy()
            if kind == "ne":
                best.profiles[node.id] = StageSolution("ne", point[0], point[1], None, payoffs)
            else:
                best.profiles[node.id] = StageSolution("ce", None, None, point[0], payoffs)
    return GridResult(best, best_sw, total_points, feasible)


# ---------------------------------------------------------------------------
# free parts and backward closures


def _free_part(structure: Structure, frozen: set) -> list:
    """The nonleaf nodes outside ``frozen`` bottom-up (by decreasing stage,
    then id); a free node's parents must be free, so the free mask must be
    its own closure."""
    nonleaf = structure.bounds[structure.horizon]
    free = np.arange(len(structure.nodes)) < nonleaf
    held = np.fromiter(frozen, dtype=np.intp, count=len(frozen))
    free[held[(held >= 0) & (held < nonleaf)]] = False
    if (_closure(structure, free) != free).any():
        raise ModelError("free set must contain every parent of a free history")
    return structure.bottom_up[free[structure.bottom_up]].tolist()


def _closure(structure: Structure, reached: np.ndarray) -> np.ndarray:
    """``reached``, a boolean mask over the nodes with optional leading batch
    axes, with every node on a history that reaches a reached node marked:
    the stage groups' successor arrays read backwards, deepest first, each
    group marking its nodes that have a reached live successor, from the
    stage above the deepest reached node.  Padded outcomes point at the
    root, which is no node's successor, so the root is held out of the mask
    until the walk is done."""
    reached = np.array(reached, dtype=bool)
    hit = np.flatnonzero(reached.reshape(-1, reached.shape[-1]).any(axis=0))
    deepest = bisect.bisect_right(structure.bounds, hit[-1]) - 1 if len(hit) else 0
    root = reached[..., 0].copy()
    reached[..., 0] = False
    for group in (g for groups in reversed(structure.groups[:deepest]) for g in groups):
        reached[..., group.ids] |= reached[..., group.succ].any(axis=(-3, -2, -1))
    reached[..., 0] |= root
    return reached


# ---------------------------------------------------------------------------
# block coordinate ascent (LP sub-steps)


def coordinate_ascent_solve(structure: Structure, rewards, kind: str, frozen: set,
                            init: EquilibriumSolution, rounds: int = 5) -> EquilibriumSolution:
    """Improve ``init`` by re-solving one strategy block at a time.

    A block is one node's joint distribution (correlated) or one agent's
    mixture at one node (independent).  With every other block fixed, the
    root welfare and all touched incentive constraints are affine in the
    block, so each sub-step is an exact LP.  Updates are applied only when
    they keep feasibility and do not decrease the root social welfare, so the
    output is feasible and at least as good as the input.
    """
    order = _free_part(structure, frozen)
    bottom_up = structure.bottom_up
    seeds = np.arange(len(structure.nodes)) == np.array(order, dtype=np.intp)[:, None]
    # each free node's walk: the node, then its ancestors bottom-up
    walks = [bottom_up[row].tolist() for row in _closure(structure, seeds)[:, bottom_up]]
    current = init.copy()
    values, gaps = evaluate_values(structure, rewards, current)
    base_gap = gaps.max(initial=0.0)
    if base_gap > 1e-6:
        raise ModelError(f"initial solution is infeasible (gap {base_gap:.3g})")
    current.values = values

    sw = float(values[0].sum())
    for _ in range(rounds):
        improved = False
        for walk in walks:
            for agent in [None] if kind == "ce" else [0, 1]:
                cand = _block_lp_step(structure, rewards, kind, walk, current, agent)
                if cand is None:
                    continue
                new_vals, new_gaps = evaluate_values(structure, rewards, cand)
                if new_gaps.max(initial=0.0) > max(base_gap, 1e-8):
                    continue
                new_sw = float(new_vals[0].sum())
                if new_sw >= sw - 1e-12:
                    cand.values = new_vals
                    for qid in walk:  # the nodes whose values moved
                        cand.profiles[qid] = replace(cand.profiles[qid], payoffs=new_vals[qid].copy())
                    current = cand
                    improved |= new_sw > sw + _ASCENT_TOL
                    sw = max(sw, new_sw)
        if not improved:
            break
    return current


def _block_lp_step(structure: Structure, rewards, kind: str, walk: list,
                   current: EquilibriumSolution, agent):
    """One exact LP over the chosen block of ``current`` at ``walk[0]``,
    whose values must be its evaluated ones; returns a candidate, still with
    the old payoffs, or ``None``.  ``walk`` is the block's node and then its
    ancestors bottom-up, whose values and incentive slacks are affine in the
    block, so on its simplex each is the block-weighted mix of its values at
    the vertices.  One pass over the walk, with the vertices as a batch
    axis, gives the LP: the slacks at the vertices are its rows and the root
    welfare at the vertices its objective."""
    nid = walk[0]
    prof = current.profiles[nid]
    m1, m2 = map(len, structure.nodes[nid].menus)
    k = m1 * m2 if kind == "ce" else (m1, m2)[agent]
    eye = np.eye(k)[:, None]  # the vertices, one per batch entry
    if kind == "ce":
        vertices = (eye.reshape(k, 1, m1, m2),)
    else:
        vertices = (eye, prof.mu2) if agent == 0 else (prof.mu1, eye)

    values = np.broadcast_to(current.values, (k,) + current.values.shape).copy()
    slacks = []
    for qid in walk:
        group, row = structure.locate(qid)
        z = stage_games(structure, rewards, group, values, slice(row, row + 1))
        if qid == nid:
            strategies = vertices
        else:
            q = current.profiles[qid]
            strategies = (q.mu_joint,) if kind == "ce" else (q.mu1, q.mu2)
        value = _values(kind, z, strategies)
        values[:, qid] = value[:, 0]
        for s, m in zip(_slacks(kind, z[0], z[1], strategies, value), z.shape[-2:]):
            if kind == "ce":  # a swap for the recommended action itself is no constraint
                s = s[..., ~np.eye(m, dtype=bool).ravel()]
            slacks.append(s[:, 0])

    a_ub = -np.concatenate(slacks, axis=-1).T
    lp = LinearProgram(c=values[:, 0].sum(axis=-1), a_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                       a_eq=np.ones((1, k)), b_eq=np.array([1.0]))
    try:
        res = lp_solve(lp)
    except SolverError:
        return None
    if res.status != "optimal":
        return None

    b = np.clip(res.x, 0.0, None)
    b /= b.sum()
    if kind == "ce":
        data = (None, None, b.reshape(m1, m2))
    else:
        data = (b, prof.mu2.copy(), None) if agent == 0 else (prof.mu1.copy(), b, None)
    cand = current.copy()
    cand.profiles[nid] = StageSolution(kind, *data, prof.payoffs.copy())
    return cand


# ---------------------------------------------------------------------------
# equilibrium re-seeding (re-induction above a changed node)


def reinduction_solve(structure: Structure, rewards, kind: str, frozen: set,
                      init: EquilibriumSolution, rounds: int = 8,
                      cache: Optional[StageGameCache] = None) -> EquilibriumSolution:
    """Search over alternative stage equilibria at one free node at a time,
    re-running social-welfare backward induction above the changed node.

    Every candidate state is subgame perfect by construction (each node holds
    an equilibrium of its own stage game), so feasibility is maintained; a
    move is kept only when it strictly improves the root social welfare.

    Each round scores every free node's candidates against the same solution
    and keeps the best trial, first in (node bottom-up, candidate) order
    among equals, so the round is scored as stacks: the candidates of every
    free node of one menu shape as one
    :meth:`StageGameCache.stage_candidates_stack`, and the trials, one batch
    axis, a stage group at a time, each group's ancestors of the trials'
    nodes solved as one :meth:`StageGameCache.solve_stack`.  Trials
    are taken a whole node's candidates at a time in blocks of at most
    ``_TRIAL_BLOCK`` value floats (at least one node per block).
    """
    order = _free_part(structure, frozen)
    cache = cache or StageGameCache()

    current = init.copy()
    current.values = _solution_values(structure, rewards, current)
    sw = float(current.values[0].sum())

    free_rows: dict = {}  # stage group index -> (group, rows of its free nodes)
    for nid in sorted(order):
        group, row = structure.locate(nid)
        free_rows.setdefault(group.index, (group, []))[1].append(row)
    free_rows = [(group, np.array(rows)) for group, rows in free_rows.values()]
    for _ in range(rounds):
        candidates = _round_candidates(structure, rewards, kind, current, free_rows, cache)
        best = None
        for trials in _trial_blocks(order, candidates, current.values.size):
            best = _score_trials(structure, rewards, kind, current, sw, best, trials, cache)
        if best is None:
            break
        sw, current = best
    return current


def _round_candidates(structure: Structure, rewards, kind: str, current: EquilibriumSolution,
                      free_rows, cache: StageGameCache) -> dict:
    """Each free node's candidate equilibria that differ from its data in
    ``current``, by node id: :meth:`StageGameCache.stage_candidates` of its
    stage game under ``current.values``, the games of one menu shape solved
    as one stack.  ``free_rows`` holds (stage group, array of the rows of
    its free nodes) pairs; a node whose candidates raise, or are all
    current, has no entry."""
    stacks: dict = {}  # menu shape -> (node ids, stage games of each group)
    for group, rows in free_rows:
        z = stage_games(structure, rewards, group, current.values, rows)
        ids, zs = stacks.setdefault(z.shape[-2:], ([], []))
        ids += group.ids[rows].tolist()
        zs.append(z)
    out = {}
    for ids, zs in stacks.values():
        for nid, found in zip(ids, cache.stage_candidates_stack(np.concatenate(zs, axis=1), kind)):
            if isinstance(found, Exception):
                continue
            cur_joint = current.profiles[nid].joint_distribution()
            found = [c for c in found if not np.abs(c.joint_distribution() - cur_joint).max() < 1e-9]
            if found:
                out[nid] = found
    return out


def _trial_blocks(order: list, candidates: dict, floats: int):
    """The (node, candidate) trials of the nodes in ``order`` that have
    ``candidates``, in blocks of whole nodes' candidates whose value
    tables (``floats`` each) stay within ``_TRIAL_BLOCK``, or of one node."""
    block = []
    for nid in (nid for nid in order if nid in candidates):
        if block and (len(block) + len(candidates[nid])) * floats > _TRIAL_BLOCK:
            yield block
            block = []
        block += [(nid, candidate) for candidate in candidates[nid]]
    if block:
        yield block


def _score_trials(structure: Structure, rewards, kind: str, current: EquilibriumSolution,
                  sw: float, best, trials: list, cache: StageGameCache):
    """The best of ``best`` and the ``trials``, (node, candidate) pairs in
    scoring order.  A trial's values are ``current.values`` with the
    candidate's payoffs at its node and that node's ancestors, read off one
    :func:`_closure` of the trials' nodes, re-solved bottom-up under
    "sw-optimal": a stage group at a time, one
    :func:`nscsg.gbi.stage_games` call over every trial and every row that is
    some trial's ancestor, and one stack of the (trial, ancestor) pairs.
    ``best`` is ``(welfare, solution)`` or ``None``; a trial replaces it when
    its root welfare is above ``sw + 1e-9`` and above the best's by 1e-12."""
    values = np.repeat(current.values[None], len(trials), axis=0)
    seeds = np.zeros((len(trials), len(structure.nodes)), dtype=bool)
    for k, (nid, candidate) in enumerate(trials):
        values[k, nid] = candidate.payoffs
        seeds[k, nid] = True
    above = _closure(structure, seeds) & ~seeds
    solved = []  # per stage group: the trial and the ancestor of each pair, and its solution
    for group in (g for groups in reversed(structure.groups) for g in groups):
        pairs = above[:, group.ids]
        cols = np.flatnonzero(pairs.any(axis=0))
        if len(cols):
            t, c = np.nonzero(pairs[:, cols])
            sols = cache.solve_stack(stage_games(structure, rewards, group, values, cols)[:, t, c],
                                     kind, "sw-optimal")
            qids = group.ids[cols[c]]
            values[t, qids] = [sol.payoffs for sol in sols]
            solved.append((t, qids, sols))
    welfare = values[:, 0].sum(axis=-1).tolist()
    for k, (nid, candidate) in enumerate(trials):
        if welfare[k] > sw + 1e-9 and (best is None or welfare[k] > best[0] + 1e-12):
            trial = current.copy()
            trial.values = values[k].copy()
            trial.profiles[nid] = candidate
            for t, qids, sols in solved:
                for p in np.flatnonzero(t == k).tolist():
                    trial.profiles[int(qids[p])] = sols[p]
            best = (welfare[k], trial)
    return best
