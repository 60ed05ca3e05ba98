#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<n>.json.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent 8e67a84 --out BENCH_17.json \\
        --workload predict-bulk --workload train-72 --seeds 1-10 \\
        --held-out-seed 104729 --held-out-pairs 2 --claim "peak_rss_mb on predict-bulk falls"

The parent commit is exported with `git archive REV | tar -x` into a
temporary directory, so the repository's `.git` is left alone; the
change side is this working tree. Each pair runs this tree's
`bench/run.py --workload W --seed S --seconds R --trace 0` once with the
working directory set to each side, one run at a time; R is the
`run_seconds` of BENCHMARK.json. The side that goes first alternates
from pair to pair, parent first on the first pair. For
every end-to-end metric in BENCHMARK.json the file gives each side's
runs, median and quartiles (`statistics.quantiles(runs, n=4)`), the pairs
the change won (ties count for neither side), the change of the median
relative to the parent's, the parent's spread (Q3 - Q1) over its
median, and a verdict against the metric's bound (see `verdict`).
Held-out pairs are summarised apart from the others.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quartiles(runs: list[float]) -> dict:
    """Median, Q1 and Q3 of the runs; with one run all three are that run."""
    if len(runs) == 1:
        q1 = q3 = runs[0]
    else:
        q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}


def verdict(parent: dict, change: dict, sign: float, bound: float) -> str:
    """'unresolved', 'worse' or 'within_bound' for one metric's quartiles.

    A metric whose parent runs spread (Q3 - Q1) wider than `bound` times
    their median is unresolved, as these pairs cannot tell a change of that
    size from noise, unless every change run beats every parent run.
    Otherwise it is worse when the change's median is worse than the
    parent's by more than `bound`, relative, and within_bound else. sign is
    +1 when higher is better, -1 when lower is.
    """
    base = abs(parent["median"])
    beats_every_run = min(sign * x for x in change["runs"]) > max(sign * x for x in parent["runs"])
    if parent["q3"] - parent["q1"] > bound * base and not beats_every_run:
        return "unresolved"
    if sign * (change["median"] - parent["median"]) < -bound * base:
        return "worse"
    return "within_bound"


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: parent[i] and change[i] ran as pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    base = p["median"]
    return {
        "parent": p,
        "change": c,
        "change_wins_pairs": f"{wins}/{len(parent)}",
        "median_change_rel": (c["median"] - base) / base if base else None,
        "parent_iqr_rel": (p["q3"] - p["q1"]) / base if base else None,
        # the change's median beats the parent's by more than the parent's Q3 - Q1
        "clears_parent_iqr": sign * (c["median"] - base) > p["q3"] - p["q1"],
        "verdict": verdict(p, c, sign, bound),
    }


def export(rev: str, into: Path) -> str:
    """Extract the committed files of rev into `into`; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=REPO, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def bench_run(side: Path, workload: str, seed: int, seconds: int) -> dict:
    """One end-to-end run of this tree's bench/run.py in `side`; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {side} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize_pairs(pairs: list[dict], metrics: list[dict]) -> dict:
    if not pairs:
        return {}
    return {
        m["name"]: dict(
            {"unit": m["unit"], "better": m["better"], "bound": m["bound"]},
            **summarize([p["parent"]["metrics"][m["name"]] for p in pairs],
                        [p["change"]["metrics"][m["name"]] for p in pairs], m["better"], m["bound"]),
        )
        for m in metrics
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--held-out-pairs", type=int, default=0)
    parser.add_argument("--claim", default="")
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()
    report = {
        "about": f"bench/run.py --seconds {seconds} --trace 0, written by tools/bench_pairs.py: "
                 "parent exported with git archive, change is the working tree; one run at a time, "
                 "the side that goes first alternating from pair to pair (parent first on the first)",
        "parent_commit": None,
        "change_tree": f"working tree on {head}",
        "claim": args.claim,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        roots = {"parent": Path(tmp), "change": REPO}
        report["parent_commit"] = export(args.parent, roots["parent"])
        order = 0
        for workload in args.workload:
            runs = [(seed, False) for seed in args.seeds]
            runs += [(args.held_out_seed, True)] * (args.held_out_pairs if args.held_out_seed is not None else 0)
            pairs = []
            for seed, held_out in runs:
                first = SIDES[order % 2]
                order += 1
                pair = {"seed": seed, "held_out": held_out, "first": first}
                for side in (first, SIDES[1 - SIDES.index(first)]):
                    pair[side] = bench_run(roots[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          + ", ".join(f"{k}={v:.6g}" for k, v in pair[side]["metrics"].items()), flush=True)
                pairs.append(pair)
                # rewritten after every pair, so a stopped series keeps what it measured
                report["workloads"][workload] = {
                    "pairs": pairs,
                    "end_to_end": summarize_pairs([p for p in pairs if not p["held_out"]], metrics),
                    "held_out": summarize_pairs([p for p in pairs if p["held_out"]], metrics),
                    "all_runs_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
                }
                Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
