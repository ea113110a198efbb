"""Subgame-perfection constraint systems and their solvers.

The equilibrium conditions over a whole unfolded structure form a sparse
polynomial system in the strategy variables mu, the value variables V and the
post-action variables Z.  This module builds those systems, evaluates and
checks assignments with one per-node incentive gap, and provides the three
inner solvers of FSI: an exact grid search for desk-scale instances (the
whole structure or one free part), feasibility-preserving block coordinate
ascent with exact LP sub-steps, and an equilibrium re-seeding search that
re-runs backward induction above a changed node.

Payoffs come from the stage-game kernel :func:`nscsg.gbi.stage_games`;
whole-structure passes (evaluation, incentive gaps, grid scoring, Z-definition
constants) are the one bottom-up pass of :mod:`nscsg.gbi`, taken one stage
group at a time wherever the step allows it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelError, ResourceLimitError, SolverError
from .gbi import (EquilibriumSolution, StageGameCache, _require, induce, induce_groups,
                  stage_matrices)
from .lp import LinearProgram, lp_solve
from .nfg import BimatrixGame, StageSolution, _ce_constraints
from .unfold import StageGroup, Structure

GRID_CAP = 5_000_000
#: Floats of values and stage matrices held per block of grid points scored
#: together (about 0.5 MB): one batch axis amortises the pass's Python work.
_GRID_BLOCK = 1 << 16


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
    n_nonleaf: int
    action_counts: dict  # node -> (|A1|, |A2|)

    def by_origin(self) -> dict:
        out: dict = {}
        for c in self.constraints:
            out[c.origin] = out.get(c.origin, 0) + 1
        return out


def _z_constants(structure: Structure, rewards) -> dict:
    """Stage matrices with every nonleaf value zero: immediate rewards plus
    expected leaf rewards, keyed (node id, agent)."""
    consts: dict = {}
    induce(structure, rewards, lambda *_: (0.0, 0.0), games=consts)
    return consts


def _z_definitions(structure: Structure, node, consts, constraints, variables):
    """Z-definition equalities for one node; leaf successor values fold into
    the constant term, taken from :func:`_z_constants` (whose row-major
    order is the order of ``node.joints``)."""
    for k, joint in enumerate(node.joints):
        for i in range(2):
            z = VarId("Z", node.id, i, joint=joint)
            variables.add(z)
            const = -consts[(node.id, i)].flat[k]
            terms = [(1.0, (z,))]
            for p, cid in node.children[joint]:
                if not structure.is_leaf(structure.nodes[cid]):
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
    counts = {}
    consts = _z_constants(structure, rewards)
    for node in structure.nodes:
        if structure.is_leaf(node):
            continue
        m1, m2 = node.menus
        counts[node.id] = (len(m1), len(m2))
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
    return ConstraintSystem("ne", constraints, variables, len(counts), counts)


def build_ce_system(structure: Structure, rewards) -> ConstraintSystem:
    """Equilibrium conditions with one joint recommendation distribution.

    Monomials reach degree two (mu * Z); swap incentives compare obeying a
    recommendation with the best unilateral replacement.
    """
    if len(rewards) != 2:
        raise ModelError("constraint systems are built for two agents")
    constraints: list = []
    variables: set = set()
    counts = {}
    consts = _z_constants(structure, rewards)
    for node in structure.nodes:
        if structure.is_leaf(node):
            continue
        m1, m2 = node.menus
        counts[node.id] = (len(m1), len(m2))
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
    return ConstraintSystem("ce", constraints, variables, len(counts), counts)


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


class _Evaluation:
    """Stage matrices of one evaluation pass as ``z[(node id, agent)]``, read
    from the stage groups' arrays.  Also holds the values, shape
    (*batch, n_nodes, 2), and each group's matrices and stacked strategy
    data, keyed by group index."""

    def __init__(self, structure: Structure, kind: str, values: np.ndarray, games: dict,
                 strategies: dict):
        self.structure = structure
        self.kind = kind
        self.values = values
        self.games = games
        self.strategies = strategies

    def __getitem__(self, key):
        nid, agent = key
        group, row = self.structure._compiled().locate(nid)
        return self.games[group.index][agent][..., row, :, :]


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


def _evaluate(structure: Structure, rewards, kind: str, strategies, profiles=None,
              batch: tuple = ()) -> _Evaluation:
    """Values and stage matrices determined bottom-up by stacked strategy
    data ``strategies(group)`` (see :func:`_stacked`; leading batch axes
    allowed).  Each node's value is the sum over its own (m1, m2) block of
    joint probability times payoff, so batching changes no bit."""
    games: dict = {}
    stacks: dict = {}

    def step(group, z):
        stacks[group.index] = s = strategies(group)
        games[group.index] = z
        joint = s[0] if kind == "ce" else s[0][..., :, None] * s[1][..., None, :]
        flat = z.shape[1:-2] + (-1,)
        return np.stack([(joint * zi).reshape(flat).sum(axis=-1) for zi in z], axis=-1)

    values = induce_groups(structure, rewards, step, profiles, batch)
    return _Evaluation(structure, kind, values, games, stacks)


def evaluate_values(structure: Structure, rewards, solution: EquilibriumSolution):
    """Values and Z entries determined bottom-up by the strategy data.

    Returns ``(values, z)`` where ``values`` has shape (n_nodes, 2) and
    ``z[(node, agent)]`` is the payoff matrix over the node's menus (a
    read-only mapping over the stage groups' arrays).
    """
    ev = _evaluate(structure, rewards, solution.kind,
                   _stacked(solution.kind, solution.profiles), solution.profiles)
    return ev.values, ev


def assignment_from_solution(structure: Structure, rewards, solution: EquilibriumSolution) -> dict:
    """Total assignment of mu, V and Z induced by ``solution``."""
    values, z = evaluate_values(structure, rewards, solution)
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
                    asg[VarId("Z", node.id, i, joint=(la, lb))] = float(z[(node.id, i)][a, b])
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


def _deviation_values(z1: np.ndarray, z2: np.ndarray, mu1: np.ndarray, mu2: np.ndarray):
    """Best pure-deviation payoffs of agent 1 against ``mu2`` and of agent 2
    against ``mu1``; leading axes are batch axes."""
    return (np.matmul(z1, mu2[..., None])[..., 0].max(axis=-1),
            np.matmul(mu1[..., None, :], z2)[..., 0, :].max(axis=-1))


def _gaps(kind: str, z1: np.ndarray, z2: np.ndarray, strategies: tuple, value: np.ndarray):
    """Largest one-shot gain of agent 1 and of agent 2 at each of a stack of
    nodes; ``strategies`` as in :func:`_stacked`, ``value`` of shape
    (..., 2), and leading axes are batch axes.

    For independent mixtures ("ne") this is the best pure deviation against
    the other agent's mixture less the node value ``value``.  For joint
    recommendations ("ce") it is the best swap of a recommended action for
    another one (Kwiatkowska et al., TACAS 2022), never negative; ``value``
    is not read.
    """
    if kind == "ne":
        best1, best2 = _deviation_values(z1, z2, *strategies)
        return best1 - value[..., 0], best2 - value[..., 1]
    mu, = strategies
    m, n = mu.shape[-2:]
    gap1 = np.zeros(z1.shape[:-2])
    for a in range(m):
        # value of swapping recommendation a for each alternative row
        diffs = np.matmul(mu[..., a, None, :], z1[..., a, :, None] - np.swapaxes(z1, -1, -2))
        gap1 = np.maximum(gap1, -diffs[..., 0, :].min(axis=-1, initial=0.0))
    gap2 = np.zeros(z2.shape[:-2])
    for b in range(n):
        diffs = np.matmul(np.swapaxes(z2[..., :, b, None] - z2, -1, -2), mu[..., :, b, None])
        gap2 = np.maximum(gap2, -diffs[..., 0].min(axis=-1, initial=0.0))
    return gap1, gap2


def _gap_table(structure: Structure, ev: _Evaluation) -> np.ndarray:
    """Both agents' one-shot gaps at every nonleaf node, shape
    (*batch, n_nonleaf, 2), rows in :meth:`Structure.nonleaf_ids` order."""
    compiled = structure._compiled()
    table = np.zeros(ev.values.shape[:-2] + (len(structure.nonleaf_ids()), 2))
    for group in (g for groups in compiled.groups for g in groups):
        z = ev.games[group.index]
        gap1, gap2 = _gaps(ev.kind, z[0], z[1], ev.strategies[group.index],
                           ev.values[..., group.ids, :])
        table[..., group.ids, 0] = gap1
        table[..., group.ids, 1] = gap2
    return table


def _incentive_gaps(structure: Structure, z: _Evaluation):
    """Largest incentive violation over all nodes of an evaluation (one per
    batch entry), sidestepping the full system."""
    return _gap_table(structure, z).max(axis=(-2, -1), initial=0.0)


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
    tolerance: float


def solve_exact_grid(structure: Structure, rewards, kind: str, resolution: int,
                     tol: Optional[float] = None, max_points: int = GRID_CAP) -> GridResult:
    """Enumerate all strategy data on the 1/resolution grid and keep the
    feasible assignment with the best root social welfare.

    Exact equilibria need not lie on the grid, so feasibility is accepted up
    to ``tol`` (default 0.5 / resolution).  Ties break on enumeration order,
    which is lexicographic in the per-node grids.
    """
    nonleaf = [structure.nodes[i] for i in sorted(structure.nonleaf_ids())]
    return _grid_search(structure, rewards, kind, nonleaf, resolution, None, tol, max_points)


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

    compiled = structure._compiled()
    sizes = [len(grid[0]) for grid in grids]
    strides = [math.prod(sizes[q + 1:]) for q in range(len(nodes))]
    rows: dict = {}  # group index -> (position in nodes, row in group)
    for q, node in enumerate(nodes):
        group, row = compiled.locate(node.id)
        rows.setdefault(group.index, []).append((q, row))
    base_data = None if base is None else _stacked(kind, base.profiles)
    joints = sum(math.prod(g.prob.shape[:-1]) for groups in compiled.groups for g in groups)
    per_point = 2 * len(structure.nodes) + 4 * joints
    block = max(1, _GRID_BLOCK // max(per_point, 1))

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

        ev = _evaluate(structure, rewards, kind, strategies, batch=(len(points),))
        welfare = ev.values[:, 0].sum(axis=-1)
        for p in np.flatnonzero(~(_incentive_gaps(structure, ev) > tol)):
            feasible += 1
            sw = float(welfare[p])
            if best_sw is None or sw > best_sw + 1e-12:
                best_sw, best_point, best_values = sw, lo + int(p), ev.values[p].copy()

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
    return GridResult(best, best_sw, total_points, feasible, tol)


# ---------------------------------------------------------------------------
# frozen-set validation and value propagation


def _free_part(structure: Structure, frozen: set) -> set:
    """Nonleaf nodes outside ``frozen``; each must have only free parents."""
    free = set(structure.nonleaf_ids()) - set(frozen)
    for nid in free:
        for pid in structure.nodes[nid].parents:
            if pid not in free:
                raise ModelError("free set must contain every parent of a free history")
    return free


def _bottom_up(structure: Structure, ids) -> list:
    """Node ids ordered by decreasing stage, then by id."""
    return sorted(ids, key=lambda nid: (-structure.nodes[nid].stage, nid))


def _free_ancestors(structure: Structure, free: set, target: int) -> list:
    """Free nodes strictly above ``target`` ordered by decreasing stage."""
    anc = set()
    frontier = {target}
    while frontier:
        nxt = set()
        for nid in frontier:
            for pid in structure.nodes[nid].parents:
                if pid in free and pid not in anc:
                    anc.add(pid)
                    nxt.add(pid)
        frontier = nxt
    return _bottom_up(structure, anc)


# ---------------------------------------------------------------------------
# block coordinate ascent (LP sub-steps)


def coordinate_ascent_solve(structure: Structure, rewards, kind: str, frozen: set,
                            init: EquilibriumSolution, rounds: int = 5,
                            tol: float = 1e-9) -> EquilibriumSolution:
    """Improve ``init`` by re-solving one strategy block at a time.

    A block is one node's joint distribution (correlated) or one agent's
    mixture at one node (independent).  With every other block fixed, the
    root welfare and all touched incentive constraints are affine in the
    block, so each sub-step is an exact LP.  Updates are applied only when
    they keep feasibility and do not decrease the root social welfare, so the
    output is feasible and at least as good as the input.
    """
    free = _free_part(structure, frozen)
    current = init.copy()
    values, z = evaluate_values(structure, rewards, current)
    base_gap = _incentive_gaps(structure, z)
    if base_gap > 1e-6:
        raise ModelError(f"initial solution is infeasible (gap {base_gap:.3g})")
    current.values = values

    order = _bottom_up(structure, free)
    sw = float(values[0].sum())
    for _ in range(max(rounds, 0)):
        improved = False
        for nid in order:
            blocks = [(nid, None)] if kind == "ce" else [(nid, 0), (nid, 1)]
            for _, agent in blocks:
                cand = _block_lp_step(structure, kind, free, current, values, z, nid, agent)
                if cand is None:
                    continue
                new_vals, new_z = evaluate_values(structure, rewards, cand)
                if _incentive_gaps(structure, new_z) > max(base_gap, 1e-8):
                    continue
                new_sw = float(new_vals[0].sum())
                if new_sw >= sw - 1e-12:
                    cand.values = new_vals
                    current, values, z = cand, new_vals, new_z
                    if new_sw > sw + tol:
                        improved = True
                    sw = max(sw, new_sw)
        if not improved:
            break
    return current


def _block_lp_step(structure: Structure, kind: str, free: set, current: EquilibriumSolution,
                   values: np.ndarray, z: _Evaluation, nid: int, agent):
    """One exact LP over the chosen block, given ``current``'s values and Z
    matrices; returns a candidate or ``None``."""
    node = structure.nodes[nid]
    m1, m2 = node.menus
    z1, z2 = z[(nid, 0)], z[(nid, 1)]

    # gradient of this node's value vector in the block coordinates
    if kind == "ce":
        k = len(m1) * len(m2)
        grad_here = np.stack([z1.ravel(), z2.ravel()])  # (2, k)
    elif agent == 0:
        k = len(m1)
        grad_here = np.stack([z1 @ current.profiles[nid].mu2, z2 @ current.profiles[nid].mu2])
    else:
        k = len(m2)
        grad_here = np.stack([current.profiles[nid].mu1 @ z1, current.profiles[nid].mu1 @ z2])

    # propagate gradients upward through the free ancestors: a node's Z
    # entries move with its children's values, its value with its Z entries
    anc = _free_ancestors(structure, free, nid)
    grads = {nid: grad_here}  # node id -> (2, k) gradient of its value vector
    zgrads = {}  # node id -> (|A1|, |A2|, 2, k) gradients of its Z entries
    for qid in anc:
        qm1, qm2 = structure.nodes[qid].menus
        zg = np.zeros((len(qm1), len(qm2), 2, k))
        for a, la in enumerate(qm1):
            for b, lb in enumerate(qm2):
                for p, cid in structure.nodes[qid].children[(la, lb)]:
                    gc = grads.get(cid)
                    if gc is not None:
                        zg[a, b] += p * gc
        zgrads[qid] = zg
        grads[qid] = np.tensordot(current.profiles[qid].joint_distribution(), zg, axes=2)
    if 0 not in grads:
        return None  # block cannot influence the root

    objective = grads[0].sum(axis=0)

    rows_ub: list = []
    rhs_ub: list = []

    def add_ge(linear: np.ndarray, const: float):
        # linear @ b + const >= 0  ->  -linear @ b <= const
        rows_ub.append(-linear)
        rhs_ub.append(const)

    # own-node incentives
    if kind == "ce":  # the stage game's swap rows, A_ub mu <= 0
        a_ub, b_ub = _ce_constraints(BimatrixGame(z1, z2))
        if a_ub is not None:
            rows_ub.extend(a_ub)
            rhs_ub.extend(b_ub)
    elif agent == 0:
        for a in range(len(m1)):  # agent 1 cannot gain by any pure row
            add_ge(grad_here[0], -grad_here[0][a])
        for b in range(len(m2)):  # agent 2 cannot gain by any pure column
            add_ge(grad_here[1] - z2[:, b], 0.0)
    else:
        for b in range(len(m2)):
            add_ge(grad_here[1], -grad_here[1][b])
        for a in range(len(m1)):
            add_ge(grad_here[0] - z1[a], 0.0)

    # incentives at every free ancestor whose Z entries move with the block
    for qid in anc:
        qm1, qm2 = structure.nodes[qid].menus
        zq1, zq2 = z[(qid, 0)], z[(qid, 1)]
        zgrad = zgrads[qid]
        prof = current.profiles[qid]
        if kind == "ce":
            mu = prof.mu_joint
            for a in range(len(qm1)):
                for alt in range(len(qm1)):
                    if alt == a:
                        continue
                    lin = np.zeros(k)
                    const = 0.0
                    for b in range(len(qm2)):
                        const += mu[a, b] * (zq1[a, b] - zq1[alt, b])
                        lin += mu[a, b] * (zgrad[a, b][0] - zgrad[alt, b][0])
                    add_ge(lin, const)
            for b in range(len(qm2)):
                for alt in range(len(qm2)):
                    if alt == b:
                        continue
                    lin = np.zeros(k)
                    const = 0.0
                    for a in range(len(qm1)):
                        const += mu[a, b] * (zq2[a, b] - zq2[a, alt])
                        lin += mu[a, b] * (zgrad[a, b][1] - zgrad[a, alt][1])
                    add_ge(lin, const)
        else:
            mu1q, mu2q = prof.mu1, prof.mu2
            vgrad = grads[qid]
            vq = values[qid]
            for a in range(len(qm1)):
                lin = vgrad[0].copy()
                const = vq[0]
                for b in range(len(qm2)):
                    lin -= mu2q[b] * zgrad[a, b][0]
                    const -= mu2q[b] * zq1[a, b]
                add_ge(lin, const)
            for b in range(len(qm2)):
                lin = vgrad[1].copy()
                const = vq[1]
                for a in range(len(qm1)):
                    lin -= mu1q[a] * zgrad[a, b][1]
                    const -= mu1q[a] * zq2[a, b]
                add_ge(lin, const)

    lp = LinearProgram(
        c=objective,
        a_ub=np.asarray(rows_ub) if rows_ub else None,
        b_ub=np.asarray(rhs_ub) if rhs_ub else None,
        a_eq=np.ones((1, k)),
        b_eq=np.array([1.0]),
    )
    try:
        res = lp_solve(lp)
    except SolverError:
        return None
    if res.status != "optimal":
        return None

    cand = current.copy()
    prof = current.profiles[nid]
    if kind == "ce":
        mu = np.clip(res.x.reshape(len(m1), len(m2)), 0.0, None)
        mu /= mu.sum()
        cand.profiles[nid] = StageSolution("ce", None, None, mu, prof.payoffs.copy())
    else:
        b = np.clip(res.x, 0.0, None)
        b /= b.sum()
        if agent == 0:
            cand.profiles[nid] = StageSolution("ne", b, prof.mu2.copy(), None, prof.payoffs.copy())
        else:
            cand.profiles[nid] = StageSolution("ne", prof.mu1.copy(), b, None, prof.payoffs.copy())
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
    """
    free = _free_part(structure, frozen)
    cache = cache or StageGameCache()
    rng = np.random.default_rng(0)

    current = init.copy()
    values, _ = evaluate_values(structure, rewards, current)
    current.values = values
    sw = float(values[0].sum())

    order = _bottom_up(structure, free)
    for _ in range(max(rounds, 0)):
        best = None
        for nid in order:
            node = structure.nodes[nid]
            z1, z2 = stage_matrices(structure, rewards, node, current.values)
            try:
                candidates = cache.stage_candidates(BimatrixGame(z1, z2), kind)
            except (SolverError, ResourceLimitError):
                continue
            cur_joint = current.profiles[nid].joint_distribution()
            for candidate in candidates:
                if np.abs(candidate.joint_distribution() - cur_joint).max() < 1e-9:
                    continue
                trial = _apply_and_reinduce(structure, rewards, kind, free, current,
                                            nid, candidate, cache, rng)
                trial_sw = float(trial.values[0].sum())
                if trial_sw > sw + 1e-9 and (best is None or trial_sw > best[0] + 1e-12):
                    best = (trial_sw, trial)
        if best is None:
            break
        sw, current = best
    return current


def _apply_and_reinduce(structure: Structure, rewards, kind: str, free: set,
                        current: EquilibriumSolution, nid: int,
                        candidate: StageSolution, cache: StageGameCache, rng):
    """Set ``candidate`` at ``nid`` and re-select equilibria bottom-up above it."""
    trial = current.copy()
    trial.values = current.values.copy()
    trial.profiles[nid] = candidate
    trial.values[nid] = candidate.payoffs
    for qid in _free_ancestors(structure, free, nid):
        qnode = structure.nodes[qid]
        z1, z2 = stage_matrices(structure, rewards, qnode, trial.values)
        sol = cache.solve(BimatrixGame(z1, z2), kind, "sw-optimal", rng)
        trial.profiles[qid] = sol
        trial.values[qid] = sol.payoffs
    return trial
