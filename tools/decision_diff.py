#!/usr/bin/env python3
"""Decision values of this tree against a parent commit, on five fixed trainings.

Run from anywhere inside the repository:

    python3 tools/decision_diff.py --parent b19b8a8

The parent commit is exported with `git archive` (bench_pairs.export) into
a temporary directory; the change side is this working tree. Each side
trains the configurations of CONFIGS in one child process, with
`PYTHONPATH` set to that side's `src` and BLAS at 1 thread, and scores the
first 200 rows of the target pool. Per configuration the script prints
the largest change in decision values relative to the parent's largest
|f|, the largest relative change of the final objective, how many scored
rows change their predicted (argmax) class, each side's training
seconds (train_multiclass, timed in its worker), each side's tracemalloc
peak of train_multiclass (from a second, untimed training, so tracing
does not slow the timed one), and per class on each side the outer
iterations, the certified saddle gap, the live atoms (metric weights
above 0) and the stored atoms.

Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import REPO, export

SCORED_ROWS = 200

# name -> (SyntheticSpec source rows per class, target rows per class or
# None for the whole pool, HfaConfig keywords)
CONFIGS = {
    "default rbf, n = 900": (100, None, {}),
    "criterion-08 shape, n = 660": (100, 10, {}),
    "train-72 shape": (8, 4, {}),
    "linear, C = 1, lam = 1, n = 900": (100, None, {"kernel_family": "linear"}),
    "linear, C = 10, lam = 100, n = 900": (100, None, {"kernel_family": "linear", "C": 10.0, "lam": 100.0}),
}

# the child process: reads CONFIGS as JSON on stdin and writes one JSON
# record per configuration; it uses only names both sides define
WORKER = """
import json, sys, time, tracemalloc
import numpy as np
from hfa.core import HfaConfig
from hfa.data import SyntheticSpec, generate_synthetic, sample_protocol
from hfa.evaluate import decision_matrix, train_multiclass

out = {}
for name, (per_source, per_target, kwargs) in json.load(sys.stdin).items():
    source, pool = generate_synthetic(SyntheticSpec(source_per_class=per_source))
    target = pool if per_target is None else sample_protocol(pool, per_target, seed=0)[0]
    start = time.perf_counter()
    models = train_multiclass(source, target, HfaConfig(**kwargs))
    seconds = time.perf_counter() - start
    tracemalloc.start()
    train_multiclass(source, target, HfaConfig(**kwargs))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _, scores = decision_matrix(models, pool.X[:%d])
    out[name] = {
        "scores": scores.tolist(),
        "train_s": seconds,
        "peak_mib": peak / 2**20,
        "objective": [float(m.objective_trace[-1]) for _, m in models],
        "iterations": [len(m.objective_trace) for _, m in models],
        "gaps": [float(m.saddle_gap) for _, m in models],
        "live_atoms": [int(np.sum(m.metric.weights > 0)) for _, m in models],
        "stored_atoms": [len(m.metric.weights) for _, m in models],
    }
json.dump(out, sys.stdout)
""" % SCORED_ROWS


def relative_change(parent, change) -> float:
    """max |change - parent| / max |parent| over all entries."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    if parent.shape != change.shape:
        raise ValueError(f"shape mismatch {parent.shape} vs {change.shape}")
    scale = float(np.max(np.abs(parent))) if parent.size else 0.0
    return float(np.max(np.abs(change - parent))) / scale if scale > 0 else 0.0


def max_objective_change(parent, change) -> float:
    """The largest |change - parent| / |parent| over the per-class objectives."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    return float(np.max(np.abs(change - parent) / np.abs(parent)))


def class_changes(parent, change) -> int:
    """How many rows have a different argmax column on the two sides."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    return int(np.sum(np.argmax(parent, axis=1) != np.argmax(change, axis=1)))


def compare(parent: dict, change: dict) -> dict:
    """One configuration's records from both sides, summarised."""
    return {
        "decision_rel": relative_change(parent["scores"], change["scores"]),
        "class_changes": class_changes(parent["scores"], change["scores"]),
        "rows": len(parent["scores"]),
        "objective_rel": max_objective_change(parent["objective"], change["objective"]),
        "same_iterations": parent["iterations"] == change["iterations"],
        **{f"{key}_{side}": record[key]
           for key in ("train_s", "peak_mib", "iterations", "gaps", "live_atoms", "stored_atoms")
           for side, record in (("parent", parent), ("change", change))},
    }


def train_side(root: Path) -> dict:
    """Run WORKER with root/src first on the path and BLAS at 1 thread."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(CONFIGS), env=env, cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"training in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def render(name: str, summary: dict) -> str:
    gaps = {side: " ".join(f"{g:.1e}" for g in summary[f"gaps_{side}"]) for side in ("parent", "change")}
    return "\n".join([
        f"{name}:",
        f"  max |df| / max |f| {summary['decision_rel']:.2e}, "
        f"final objective max rel diff {summary['objective_rel']:.2e}",
        f"  predicted-class changes {summary['class_changes']} of {summary['rows']} rows",
        f"  training seconds parent {summary['train_s_parent']:.3f} change {summary['train_s_change']:.3f}",
        f"  traced peak MiB parent {summary['peak_mib_parent']:.1f} change {summary['peak_mib_change']:.1f}",
        f"  outer iterations parent {summary['iterations_parent']} change {summary['iterations_change']}"
        + ("" if summary["same_iterations"] else "  (differ)"),
        f"  certified gaps parent {gaps['parent']}",
        f"                 change {gaps['change']}",
        f"  live atoms parent {summary['live_atoms_parent']} change {summary['live_atoms_change']}",
        f"  stored atoms parent {summary['stored_atoms_parent']} change {summary['stored_atoms_change']}",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="decision_parent_") as tmp:
        commit = export(args.parent, Path(tmp))
        parent = train_side(Path(tmp))
    change = train_side(REPO)
    print(f"parent {commit}, change: working tree; {SCORED_ROWS} pool rows scored per configuration")
    for name in CONFIGS:
        print(render(name, compare(parent[name], change[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
