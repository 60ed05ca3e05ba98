#!/usr/bin/env python3
"""End-to-end benchmark of the `hfa` command-line tool.

Run from the repository root:

    python3 bench/run.py --workload train-72 --seed 1 --seconds 30 --trace 0

Each run is a closed loop with one client: the timed `hfa` commands run
one at a time, each in a fresh child process (`python -m hfa.cli` with
`src` on the path), all on one CPU. With `--trace 0` each command
follows a run of the fixed reference command (bench/reference.py), so
that the command's time can be given relative to the host's speed, and
the last line of standard output is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of traced runs
(see bench/spans.py). bench/README.md describes the workloads and every
metric.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child, on every commit:
# counters and outputs must repeat exactly, and the timed command must not
# compete with its own helper threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

# This process and every child run on one CPU, so that the reference
# command and the timed command meet the same share of the host.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# Seed to confirm a gain on after the change was written with other seeds.
HELD_OUT_SEED = 104729
# Set-up runs at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_MIN_S in all, at most SETUP_MAX_REPEATS times; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 1.5
COMMAND_TIMEOUT_S = 150

# Counters that must read the same in every traced run of the command.
# model_bytes needs no entry: every output must be byte-identical anyway.
EXACT_REPEAT = ("svm.pair_updates", "svm.solve_dual.calls", "core.outer_iterations", "core.hit_t_max")


class CheckFailed(Exception):
    """A timed command's output is wrong."""


@dataclass
class Job:
    """A workload's timed `hfa` command, its files, and the check of its output."""

    name: str
    args: list[str]
    cwd: Path
    output: Path
    reads: list[Path]
    # returns accuracy, accuracy_gain and model_bytes; raises CheckFailed
    check: Callable[[Path], dict]


# ---------------------------------------------------------------- workloads
#
# Each workload's problem is fixed: the generator geometry, the training
# split and the experiment's trials. The run seed only shuffles the row
# order of the input files, which changes SMO's tie-breaking and so the
# solver's path, not the problem. Each class keeps its rows in order, so
# the split protocol (it draws per class) picks the same samples whatever
# the seed. Drawing a new split per seed instead moves the work of a
# training run by 20-30% from seed to seed, which no run here is long
# enough to average out.

GEOMETRY = 0  # generator seed of `hfa generate`'s default pair
SPLIT_SEED = 0
TRAIN_SOURCE_PER_CLASS = 8
TRAIN_TARGET_PER_CLASS = 4
PREDICT_SOURCE_PER_CLASS = 30
PREDICT_TARGET_PER_CLASS = 10
EXPERIMENT_TRIALS = 1
EXPERIMENT_SOURCE_PER_CLASS = 10
PREDICT_QUERY_PER_CLASS = 1000
# Prediction cost depends only on the model's shape, not on how far the
# alternation ran, so the set-up training stops early: set-up runs 3 times.
PREDICT_SETUP_T_MAX = 3


# hfa is imported inside the functions below: main() puts src on the path.

def _shuffle(dataset, rng):
    """Rows in a random order that keeps each class's rows in their order."""
    labels = rng.permutation(dataset.y)
    order = np.empty(len(dataset), dtype=np.int64)
    for c in np.unique(dataset.y):
        order[labels == c] = np.flatnonzero(dataset.y == c)
    return dataset.subset(order)


def _inputs(seed: int, **counts):
    """The fixed (source, target pool) pair, rows shuffled by the run seed."""
    from hfa.data import SyntheticSpec, generate_synthetic

    source, pool = generate_synthetic(SyntheticSpec(seed=GEOMETRY, **counts))
    rng = np.random.default_rng(seed)
    return _shuffle(source, rng), _shuffle(pool, rng)


def _save_csv(dataset, path: Path) -> Path:
    from hfa.data import save_dense_csv

    save_dense_csv(dataset, path)
    return path


def _accuracy_pair(models, train_target, test) -> tuple[float, float]:
    """(accuracy, accuracy minus the target-only SVM's) on test rows."""
    from hfa.core import HfaConfig
    from hfa.evaluate import accuracy, svm_t_baseline

    acc = accuracy(models, test)
    base = accuracy(svm_t_baseline(train_target, HfaConfig()), test)
    return acc, acc - base


def setup_train(work: Path, seed: int) -> Job:
    """8 source and 4 target rows per class: n = 72 per binary model."""
    from hfa.data import sample_protocol
    from hfa.model_io import load_model_set

    source, pool = _inputs(seed, source_per_class=TRAIN_SOURCE_PER_CLASS)
    train_t, held_out = sample_protocol(pool, TRAIN_TARGET_PER_CLASS, SPLIT_SEED)
    classes = sorted(int(c) for c in set(source.y) | set(train_t.y))
    reads = [_save_csv(source, work / "source.csv"), _save_csv(train_t, work / "target.csv")]

    def check(path: Path) -> dict:
        model_set = load_model_set(path)
        if model_set.classes != classes:
            raise CheckFailed(f"{path} reloads with classes {model_set.classes}, expected {classes}")
        acc, gain = _accuracy_pair(list(model_set.models), train_t, held_out)
        return {"accuracy": acc, "accuracy_gain": gain, "model_bytes": path.stat().st_size}

    args = ["train", "--source", "source.csv", "--target", "target.csv", "--out", "model.json"]
    return Job("train", args, work, work / "model.json", reads, check)


def _report_blocks(text: str) -> dict[str, tuple[list[float], float]]:
    """method -> (per-trial accuracies, printed mean) from an experiment report."""
    blocks = {}
    for block in text.split("method = ")[1:]:
        lines = block.splitlines()
        table = lines.index("trial\tseed\taccuracy")
        accs = []
        for line in lines[table + 1:]:
            if line.startswith("mean = "):
                blocks[lines[0]] = (accs, float(line[len("mean = "):]))
                break
            accs.append(float(line.split("\t")[2]))
    return blocks


def setup_experiment(work: Path, seed: int) -> Job:
    """`hfa experiment` at 3 target and 10 source rows per class: n = 78."""
    source, target = _inputs(seed)
    reads = [_save_csv(source, work / "source.csv"), _save_csv(target, work / "target.csv")]

    def check(path: Path) -> dict:
        blocks = _report_blocks(path.read_text(encoding="utf-8"))
        if sorted(blocks) != ["hfa", "svm_t"]:
            raise CheckFailed(f"{path}: expected hfa and svm_t blocks, got {sorted(blocks)}")
        for method, (accs, mean) in blocks.items():
            if len(accs) != EXPERIMENT_TRIALS:
                raise CheckFailed(f"{path}: {method} has {len(accs)} trials, expected {EXPERIMENT_TRIALS}")
            if mean != float(np.mean(accs)):
                raise CheckFailed(f"{path}: {method} mean {mean!r} is not the mean of its trials")
        hfa_mean, svm_t_mean = blocks["hfa"][1], blocks["svm_t"][1]
        return {"accuracy": hfa_mean, "accuracy_gain": hfa_mean - svm_t_mean, "model_bytes": 0}

    args = [
        "experiment", "--source", "source.csv", "--target", "target.csv",
        "--per-class-target", "3", "--per-class-source", str(EXPERIMENT_SOURCE_PER_CLASS),
        "--trials", str(EXPERIMENT_TRIALS), "--seed", str(SPLIT_SEED), "--out", "report.txt",
    ]
    return Job("experiment", args, work, work / "report.txt", reads, check)


def setup_predict(work: Path, seed: int) -> Job:
    """Train a 240-row model set in process; time `hfa predict` on 6000 rows."""
    from hfa.core import HfaConfig
    from hfa.data import sample_protocol
    from hfa.evaluate import decision_matrix, train_multiclass
    from hfa.model_io import save_model_set

    source, pool = _inputs(
        seed,
        source_per_class=PREDICT_SOURCE_PER_CLASS,
        target_per_class=PREDICT_TARGET_PER_CLASS + PREDICT_QUERY_PER_CLASS,
    )
    train_t, query = sample_protocol(pool, PREDICT_TARGET_PER_CLASS, SPLIT_SEED)
    models = train_multiclass(source, train_t, HfaConfig(t_max=PREDICT_SETUP_T_MAX))
    model_path = work / "model.json"
    save_model_set(models, model_path, {})
    reads = [model_path, _save_csv(query, work / "query.csv")]

    def check(path: Path) -> dict:
        # criterion 05: the CLI, reading the saved file, reproduces the
        # in-memory models' decision values exactly
        classes, expected = decision_matrix(models, query.X)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = "row,predicted_class," + ",".join(f"score_class{c}" for c in classes)
        if not lines or lines[0] != header or len(lines) != len(query) + 1:
            raise CheckFailed(f"{path}: unexpected header or row count")
        rows = [line.split(",") for line in lines[1:]]
        scores = np.array([[float(v) for v in row[2:]] for row in rows])
        predicted = np.array([int(row[1]) for row in rows])
        if not np.array_equal(scores, expected):
            raise CheckFailed(f"{path}: scores differ from the in-process decision values")
        if not np.array_equal(predicted, classes[np.argmax(expected, axis=1)]):
            raise CheckFailed(f"{path}: predicted classes are not the argmax of the scores")
        acc = float(np.mean(predicted == query.y))
        _, gain = _accuracy_pair(models, train_t, query)
        return {"accuracy": acc, "accuracy_gain": gain, "model_bytes": model_path.stat().st_size}

    args = ["predict", "--model", "model.json", "--target", "query.csv", "--out", "predictions.csv"]
    return Job("predict", args, work, work / "predictions.csv", reads, check)


WORKLOADS = {
    "train-72": setup_train,
    "experiment-fewshot": setup_experiment,
    "predict-bulk": setup_predict,
}


# ---------------------------------------------------------------- running

def _child_env() -> dict:
    env = dict(os.environ)  # carries BLAS_ENV
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    digest: str | None  # sha256 of the output; None when the command failed


def launch(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one command in a fresh child (through launch.py) and wait for it."""
    launcher = [sys.executable, str(BENCH / "launch.py"), str(COMMAND_TIMEOUT_S), str(log), "--", *argv]
    out = subprocess.run(launcher, cwd=cwd, env=_child_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_job(job: Job, traced_to: Path | None = None) -> Sample:
    """Run the job's command once; the digest is of its output file."""
    if traced_to is None:
        argv = [sys.executable, "-m", "hfa.cli", *job.args]
    else:
        argv = [sys.executable, str(BENCH / "spans.py"), str(traced_to), job.name, "--", *job.args]
    job.output.unlink(missing_ok=True)
    log = job.cwd / f"{job.name}.log"
    result = launch(argv, job.cwd, log)
    digest = None
    if result["returncode"] == 0 and job.output.is_file():
        digest = hashlib.sha256(job.output.read_bytes()).hexdigest()
    else:
        print(f"FAIL {job.name}: exit {result['returncode']}, see {log}", file=sys.stderr)
    return Sample(result["wall_s"], result["peak_rss_kb"] / 1024.0, digest)


def run_reference(work: Path) -> Sample:
    """Run bench/reference.py once; the digest is of its standard output."""
    log = work / "reference.log"
    result = launch([sys.executable, str(BENCH / "reference.py")], work, log)
    digest = None
    if result["returncode"] == 0:
        digest = hashlib.sha256(log.read_bytes()).hexdigest()
    else:
        print(f"FAIL reference: exit {result['returncode']}, see {log}", file=sys.stderr)
    return Sample(result["wall_s"], result["peak_rss_kb"] / 1024.0, digest)


class Tally:
    """Attempts, failures, and the first verified output of the job."""

    def __init__(self, job: Job):
        self.job = job
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.quality: dict = {}

    def record(self, sample: Sample, what: str = "output") -> None:
        """Count one command; its output must match the first verified output."""
        self.attempted += 1
        try:
            if sample.digest is None:
                raise CheckFailed("command failed")
            if self.digest is None:
                self.quality = self.job.check(self.job.output)
                self.digest = sample.digest
            elif sample.digest != self.digest:
                raise CheckFailed(f"{what} differs from the first output's bytes")
        except (CheckFailed, ValueError, IndexError) as exc:  # the latter two: malformed output
            self.fail(f"{self.job.name}: {exc}")

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {message}", file=sys.stderr)


def measure(job: Job, seconds: float, tally: Tally) -> tuple[list[Sample], list[Sample]]:
    """Run the reference command, then the timed command, while another such
    pair still fits in `seconds`; at least once. Returns both lists of samples.

    The reference's output must be the same every time; a difference or a
    failed reference run fails the pair's attempt.
    """
    samples, references = [], []
    first_reference = None
    start = time.perf_counter()
    while True:
        reference = run_reference(job.cwd)
        first_reference = first_reference or reference.digest
        sample = run_job(job)
        if reference.digest is None or reference.digest != first_reference:
            tally.attempted += 1
            tally.fail("the reference command failed or changed its output")
        else:
            tally.record(sample)
        samples.append(sample)
        references.append(reference)
        if time.perf_counter() - start + reference.wall_s + sample.wall_s > seconds:
            return samples, references


def end_to_end(
    job: Job, samples: list[Sample], references: list[Sample], setup_times: list[float], tally: Tally
) -> dict[str, float]:
    walls = [s.wall_s for s in samples]
    wall_s = statistics.median(walls)
    reference_s = statistics.median(s.wall_s for s in references)
    print(
        f"{job.name}: {len(walls)} runs, median {wall_s:.4f} s, fastest {min(walls):.4f} s; "
        f"reference median {reference_s:.4f} s"
    )
    print(f"wall_s = {wall_s!r} s (lower is better; not in BENCHMARK.json, it follows the host's drift)")
    return {
        # The host's speed drifts by up to 60% over minutes; the reference
        # command, run just before each timed command on the same CPU,
        # measures that speed, and the ratio of medians cancels it.
        "wall_rel": wall_s / reference_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "file_bytes": float(sum(p.stat().st_size for p in job.reads + [job.output] if p.exists())),
        "accuracy": tally.quality.get("accuracy", 0.0),
    }


def traced(job: Job, work: Path, seconds: float, tally: Tally) -> dict[str, float]:
    """Untraced and traced runs of the command, alternating, while another
    pair still fits in `seconds`; at least two pairs.

    Every output, traced or not, must be byte-identical to the first, and
    every traced run must read the same exact-repeat counters. Per-layer
    values come from the fastest traced run.
    """
    untraced, runs = [], []
    start = time.perf_counter()
    while True:
        plain = run_job(job)
        tally.record(plain)
        untraced.append(plain)
        path = work / f"{job.name}.{len(runs)}.spans.json"
        sample = run_job(job, traced_to=path)
        tally.record(sample, what="output with tracing on")
        runs.append((sample, _load_spans(path, tally)))
        if len(runs) >= 2 and time.perf_counter() - start + plain.wall_s + sample.wall_s > seconds:
            break
    fastest, record = min(runs, key=lambda run: run[0].wall_s)
    fastest_untraced = min(s.wall_s for s in untraced)
    print(f"{job.name}: {len(runs)} pairs, fastest untraced {fastest_untraced:.4f} s, traced {fastest.wall_s:.4f} s")

    values = spans.layer_metrics(record["spans"])
    for _, other in runs:
        again = spans.layer_metrics(other["spans"])
        for name in EXACT_REPEAT:
            if again[name] != values[name]:
                tally.fail(f"{job.name}: {name} read {values[name]!r} and {again[name]!r}")
    values["model_io.model_bytes"] = float(tally.quality.get("model_bytes", 0))
    values["evaluate.accuracy_gain"] = tally.quality.get("accuracy_gain", 0.0)
    # process start, imports and writing the spans: all outside cli.main
    main_s = sum(s[5] - s[4] for s in record["spans"] if s[2] == "cli.main")
    values["cli.startup_s"] = fastest.wall_s - main_s
    values["trace.overhead_s"] = fastest.wall_s - fastest_untraced
    return values


def _load_spans(path: Path, tally: Tally) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        tally.fail(f"no spans in {path}: {exc}")
        return {"spans": [], "untraced": []}
    if record["untraced"]:
        print(f"note: bindings not found, not traced: {', '.join(record['untraced'])}", file=sys.stderr)
    return record


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"  # a checkout without .git, as the benchmark may run in
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "git_commit": commit,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def metric_table(kind: str) -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for BENCHMARK.json's "end_to_end" or "per_layer" list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}


def _print_metric(name: str, value: float, unit: str, better: str) -> None:
    print(f"{name} = {value!r} {unit} ({better} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the hfa command-line tool.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hfa" / "cli.py").is_file():
        print(f"error: {SRC / 'hfa'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"  # concurrent runs do not collide
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
    ):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        job = WORKLOADS[args.workload](work, args.seed)
        setup_times.append(time.perf_counter() - start)

    tally = Tally(job)
    if args.trace:
        values = traced(job, work, args.seconds, tally)
        table = metric_table("per_layer")
    else:
        samples, references = measure(job, args.seconds, tally)
        values = end_to_end(job, samples, references, setup_times, tally)
        table = metric_table("end_to_end")

    print(f"workload {args.workload}, seed {args.seed}, {tally.attempted} commands")
    for name, (unit, better) in table.items():
        _print_metric(name, values[name], unit, better)
    _print_metric("error_rate", tally.failed / tally.attempted, "fraction", "lower")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if tally.failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
