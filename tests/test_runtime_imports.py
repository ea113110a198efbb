"""The library's runtime dependency is numpy alone: a pass through every
solver path, in a fresh interpreter, loads no test-only package and not
``numpy.ma``, which ``np.unique`` imports (about 30 ms of set-up)."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LIBRARY_PASS = """
import sys
from nscsg.benchmarks import build
from nscsg.fsi import FsiConfig, run_fsi
from nscsg.gbi import run_gbi
from nscsg.speprog import solve_exact_grid
from nscsg.unfold import unfold_regions, unfold_tree
from nscsg.verify import check_spce, check_spne

bm = build("parking", {"horizon": 4, "reward_structure": 2})
graph = unfold_regions(bm.model, bm.initial, bm.horizon)
for kind, check in (("ne", check_spne), ("ce", check_spce)):
    run_gbi(graph, bm.rewards, kind)
    for solver in ("reinduce", "coordinate-ascent"):
        solution, _ = run_fsi(graph, bm.rewards, kind,
                              FsiConfig(m_max=2, solver=solver, solver_rounds=1))
        assert check(graph, bm.rewards, solution).passed
bm = build("counterexample", {"phi": -10})
tree = unfold_tree(bm.model, bm.initial, bm.horizon)
solve_exact_grid(tree, bm.rewards, "ne", 2)
run_fsi(tree, bm.rewards, "ne", FsiConfig(m_max=2, solver="grid", grid_resolution=2))
print(" ".join(sorted(sys.modules)))
"""


def test_library_pass_loads_only_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LIBRARY_PASS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "nscsg.fsi" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("scipy", "hypothesis")
            or m.split(".")[:2] == ["numpy", "ma"]] == []
