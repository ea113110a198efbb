"""Spans and counts around the library's public layer entry points.

The tracer replaces each entry point, in every ``nscsg`` module that binds
it, with a wrapper that records a span (id, parent span, operation id, entry
point, start, end) and updates the layer's counters.  Spans stay in memory
and are written out once, at the end of the traced pass.  Nothing inside the
library is edited: the spans sit at the calls into each layer.

Counts are deterministic for a fixed seed; times are wall-clock busy time of
the wrapped calls, and a layer's self time subtracts the time covered by its
direct child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from math import comb

import numpy as np

#: layer -> entry points wrapped in it.  Names are module attributes, or
#: ``Class.method`` for a method.
ENTRY_POINTS = {
    "model": ("nn_forward", "observe_all", "refresh_percepts", "joint_actions", "successors",
              "canonical_key"),
    "unfold": ("unfold_tree", "unfold_regions"),
    "gbi": ("run_gbi", "run_minimax", "stage_matrices", "StageGameCache.solve"),
    "nfg": ("enumerate_ne", "swne", "swce", "any_equilibrium", "zero_sum_value"),
    "lp": ("lp_solve",),
    "speprog": ("evaluate_values", "reinduction_solve", "coordinate_ascent_solve",
                "solve_exact_grid", "check_feasibility", "assignment_from_solution"),
    "fsi": ("run_fsi", "freeze_partition", "solve_exact_grid_on_free"),
    "verify": ("check_spne", "check_spce", "best_response_value", "simulate"),
    "benchmarks": ("build",),
}

#: Pseudo entry point for the bundle's reward callbacks (layer ``model``).
REWARD = "reward"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters while installed; one per traced pass."""

    def __init__(self):
        self._spans = array("q")  # rows of (id, parent, op, entry, start_ns, end_ns)
        self._stack: list[int] = []
        self._next_id = 0
        self._op = 0
        self.ops = [""]  # op index -> operation id; 0 is "outside any operation"
        self.entries: list[str] = []  # entry index -> "layer.name"
        self._entry_index: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.max_gap = 0.0
        self._free_sizes: list[int] = []
        self._reward_child_ns: dict[int, int] = {}  # enclosing span -> reward time
        self._pipeline_start = 0
        self._setup_counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- operations ------------------------------------------------------

    def begin_op(self, name) -> None:
        """Tag the following spans with operation ``name`` (``None``: none)."""
        if name is None:
            self._op = 0
            return
        self.ops.append(name)
        self._op = len(self.ops) - 1

    def start_pipeline(self) -> None:
        """End the set-up: layer metrics count only what follows, except
        ``benchmarks.build_s``, which is the set-up's build time."""
        self._pipeline_start = self._next_id
        self._setup_counts = Counter(self.counts)

    # -- wrapping --------------------------------------------------------

    def _entry(self, key: str) -> int:
        if key not in self._entry_index:
            self._entry_index[key] = len(self.entries)
            self.entries.append(key)
        return self._entry_index[key]

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before(args)`` returns a
        token handed to ``after(args, result, token)`` on success."""
        entry = self._entry(f"{layer}.{name}")
        spans, stack, counts = self._spans, self._stack, self.counts
        calls_key = f"{layer}.{name}.calls"
        errors_key = f"{layer}.{name}.errors"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            counts[calls_key] += 1
            token = before(args) if before is not None else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, parent, self._op, entry, start, end))
            if after is not None:
                after(args, result, token)
            return result

        return traced

    def wrap_rewards(self, rewards):
        """Reward structures whose callbacks are counted as ``model.reward``.

        There are millions of reward calls, so they are not kept as spans:
        each call's time is added to its enclosing span instead, which keeps
        that span's self time right and the span table small."""
        from nscsg import RewardStructure

        return tuple(RewardStructure(self._aggregated(r.action_reward),
                                     self._aggregated(r.state_reward))
                     for r in rewards)

    def _aggregated(self, fn):
        counts, stack, child_ns = self.counts, self._stack, self._reward_child_ns
        calls_key = f"model.{REWARD}.calls"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                counts[calls_key] += 1
                counts[f"model.{REWARD}.ns"] += dur
                parent = stack[-1] if stack else -1
                child_ns[parent] = child_ns.get(parent, 0) + dur

        return traced

    def install(self) -> None:
        """Wrap every entry point in every loaded ``nscsg`` module binding it,
        and in the benchmark's own modules."""
        from nscsg import benchmarks, fsi, gbi, lp, model, nfg, speprog, unfold, verify

        homes = {"model": model, "unfold": unfold, "gbi": gbi, "nfg": nfg, "lp": lp,
                 "speprog": speprog, "fsi": fsi, "verify": verify, "benchmarks": benchmarks}
        hooks = self._hooks()
        binders = [m for key, m in sys.modules.items()
                   if m is not None and (key == "nscsg" or key.startswith("nscsg.")
                                         or key in ("workloads", "randgames"))]
        for layer, names in ENTRY_POINTS.items():
            for name in names:
                before, after = hooks.get(name, (None, None))
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(homes[layer], cls_name)
                    orig = getattr(cls, meth)
                    self._patch(cls, meth, self.wrap(layer, name, orig, before, after))
                    continue
                orig = getattr(homes[layer], name)
                traced = self.wrap(layer, name, orig, before, after)
                for mod in binders:
                    if getattr(mod, name, None) is orig:
                        self._patch(mod, name, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- counters fed by results -----------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def unfold_before(args):
            return counts["model.refresh_percepts.calls"]

        def unfold_after(args, structure, refresh_before):
            nodes = len(structure.nodes)
            transitions = structure.n_transitions()
            counts["unfold.nodes"] += nodes
            counts["unfold.transitions"] += transitions
            # every node but the root is created by exactly one transition
            counts["unfold.merged_transitions"] += transitions - (nodes - 1)
            counts["unfold.expanded"] += len(structure.nonleaf_ids())
            counts["unfold.refreshes"] += counts["model.refresh_percepts.calls"] - refresh_before

        def cache_before(args):
            cache = args[0]
            return cache.hits, cache.misses

        def cache_after(args, result, before):
            cache = args[0]
            counts["gbi.cache_hits"] += cache.hits - before[0]
            counts["gbi.cache_misses"] += cache.misses - before[1]

        def ne_after(args, points, _):
            m, n = args[0].shape
            counts["nfg.bases"] += comb(m + n, m) + comb(m + n, n)
            counts["nfg.ne_found"] += len(points)

        def lp_after(args, result, _):
            if result.status != "optimal":
                counts["lp.nonoptimal"] += 1

        def grid_after(args, result, _):
            counts["speprog.grid_points"] += result.checked
            counts["speprog.grid_feasible"] += result.feasible

        def fsi_after(args, result, _):
            trace = result[1]
            counts["fsi.iterations"] += len(trace) - 1
            counts["fsi.improving"] += sum(b.social_welfare > a.social_welfare + 1e-12
                                           for a, b in zip(trace, trace[1:]))
            counts["fsi.kept_incumbent"] += sum(row.status.endswith(":kept-incumbent")
                                                for row in trace)

        def freeze_after(args, result, _):
            self._free_sizes.append(len(result[0]))

        def check_after(args, report, _):
            counts["verify.nodes_checked"] += len(report.gaps) // 2
            self.max_gap = max(self.max_gap, report.max_gap)

        return {
            "unfold_tree": (unfold_before, unfold_after),
            "unfold_regions": (unfold_before, unfold_after),
            "StageGameCache.solve": (cache_before, cache_after),
            "enumerate_ne": (None, ne_after),
            "lp_solve": (None, lp_after),
            "solve_exact_grid": (None, grid_after),
            "run_fsi": (None, fsi_after),
            "freeze_partition": (None, freeze_after),
            "check_spne": (None, check_after),
            "check_spce": (None, check_after),
        }

    # -- results ---------------------------------------------------------

    def span_table(self) -> np.ndarray:
        """Spans as rows (id, parent, op, entry, start_ns, end_ns), ordered by id."""
        rows = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, 6)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def write_spans(self, path) -> None:
        """Write every span, the reward time per enclosing span (-1: none)
        and the operation and entry-point names."""
        table = self.span_table()
        rewards = np.array(sorted(self._reward_child_ns.items()), dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(path, spans=table, reward_ns_by_span=rewards,
                            ops=np.array(json.dumps(self.ops)),
                            entries=np.array(json.dumps(self.entries)))

    def layer_metrics(self) -> dict:
        """Per-layer counts, busy times and self times (seconds)."""
        table = self.span_table()
        ids, parents, entry = table[:, 0], table[:, 1], table[:, 3]
        if not np.array_equal(ids, np.arange(ids.shape[0])):
            raise RuntimeError("span ids are not contiguous")
        dur = (table[:, 5] - table[:, 4]).astype(float) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        for sid, ns in self._reward_child_ns.items():
            if sid >= 0:
                child[sid] += ns * 1e-9
        self_time = dur - child
        names = np.array(self.entries, dtype=object)[entry]
        build_s = float(dur[names == "benchmarks.build"].sum())

        # everything below describes the pipeline only
        piped = ids >= self._pipeline_start
        if not piped.any():
            raise RuntimeError("the traced pipeline recorded no spans")
        dur, self_time, names, parents = dur[piped], self_time[piped], names[piped], parents[piped]
        has_parent = parents >= self._pipeline_start
        layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)
        parent_layer = np.where(has_parent,
                                layer_of[np.where(has_parent, parents - self._pipeline_start, 0)],
                                "")

        def busy(*entry_names) -> float:
            return float(dur[np.isin(names, entry_names)].sum())

        def outermost(layer) -> float:
            return float(dur[(layer_of == layer) & (parent_layer != layer)].sum())

        c = self.counts - self._setup_counts
        out = {
            "model.nn_forward_calls": c["model.nn_forward.calls"],
            "model.nn_forward_s": busy("model.nn_forward"),
            "model.observe_calls": c["model.observe_all.calls"],
            "model.refresh_calls": c["model.refresh_percepts.calls"],
            "model.successors_calls": c["model.successors.calls"],
            "model.successors_s": busy("model.successors"),
            "model.canonical_key_calls": c["model.canonical_key.calls"],
            "model.canonical_key_s": busy("model.canonical_key"),
            "model.reward_calls": c[f"model.{REWARD}.calls"],
            "model.reward_s": c[f"model.{REWARD}.ns"] * 1e-9,
            "unfold.s": outermost("unfold"),
            "unfold.nodes": c["unfold.nodes"],
            "unfold.transitions": c["unfold.transitions"],
            "unfold.refreshes_per_node": _ratio(c["unfold.refreshes"], c["unfold.expanded"]),
            "unfold.merge_ratio": _ratio(c["unfold.merged_transitions"], c["unfold.transitions"]),
            "gbi.s": busy("gbi.run_gbi", "gbi.run_minimax"),
            "gbi.stage_games": c["gbi.stage_matrices.calls"],
            "gbi.stage_matrices_s": busy("gbi.stage_matrices"),
            "gbi.cache_hits": c["gbi.cache_hits"],
            "gbi.cache_misses": c["gbi.cache_misses"],
            "gbi.cache_hit_ratio": _ratio(c["gbi.cache_hits"],
                                          c["gbi.cache_hits"] + c["gbi.cache_misses"]),
            "nfg.enumerate_ne_calls": c["nfg.enumerate_ne.calls"],
            "nfg.enumerate_ne_s": busy("nfg.enumerate_ne"),
            "nfg.bases": c["nfg.bases"],
            "nfg.ne_found": c["nfg.ne_found"],
            "lp.solve_calls": c["lp.lp_solve.calls"],
            "lp.solve_s": busy("lp.lp_solve"),
            "lp.nonoptimal": c["lp.nonoptimal"] + c["lp.lp_solve.errors"],
            "speprog.evaluate_values_calls": c["speprog.evaluate_values.calls"],
            "speprog.evaluate_values_s": busy("speprog.evaluate_values"),
            "speprog.reinduction_s": busy("speprog.reinduction_solve"),
            "speprog.coordinate_ascent_s": busy("speprog.coordinate_ascent_solve"),
            "speprog.grid_points": c["speprog.grid_points"],
            "speprog.grid_feasible_ratio": _ratio(c["speprog.grid_feasible"],
                                                  c["speprog.grid_points"]),
            "fsi.s": busy("fsi.run_fsi"),
            "fsi.iterations": c["fsi.iterations"],
            "fsi.improving_ratio": _ratio(c["fsi.improving"], c["fsi.iterations"]),
            "fsi.free_nodes": float(np.mean(self._free_sizes)) if self._free_sizes else 0.0,
            "fsi.kept_incumbent": c["fsi.kept_incumbent"],
            "verify.s": outermost("verify"),
            "verify.nodes_checked": c["verify.nodes_checked"],
            "verify.max_gap": self.max_gap,
            "benchmarks.build_s": build_s,
            "trace.spans": int(piped.sum()),
        }
        for layer in ENTRY_POINTS:
            if layer != "benchmarks":  # runs in set-up only
                out[f"{layer}.self_s"] = float(self_time[layer_of == layer].sum())
        out["model.self_s"] += out["model.reward_s"]
        return out
