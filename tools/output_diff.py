#!/usr/bin/env python3
"""Byte comparison of every `hfa` command output of this tree against a parent commit.

Run from anywhere inside the repository:

    python3 tools/output_diff.py --parent 024d75a

The parent commit is exported with `git archive` (bench_pairs.export) into
a temporary directory; the change side is this working tree. On each side
the commands of COMMANDS run in order, each as `python -m hfa.cli ARGS` in
one work directory, with `PYTHONPATH` set to that side's `src` and BLAS at
1 thread, so later commands read the files earlier ones wrote. Each
command's stdout, stderr, exit code and output files are kept in
`<work>/records/<command>/`, with the work directory's path in stdout and
stderr replaced by `<work>`. Per command the script prints whether each of
them is byte-equal on both sides, and it exits 1 when any differs.

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import REPO, export

DATA = ["--source", "source.csv", "--target", "target.csv"]
TRAINS = {
    "default": [],
    "linear-C1": ["--kernel", "linear", "--C", "1"],
    "linear-C10-lambda100": ["--kernel", "linear", "--C", "10", "--lambda", "100"],
    "standardize": ["--config", "standardize.cfg"],
}
EXPERIMENTS = {
    "experiment-2,3": ["--per-class-target", "2,3", "--trials", "2"],
    "experiment-3-source10": ["--per-class-target", "3", "--per-class-source", "10", "--trials", "3"],
}

# every synthetic.* key, with an odd class count, so the fixed latent
# geometry is compared beyond the defaults, the class alone at the origin too.
# Its target file is also a query for the standardize model: of that model's
# width, d_t = 20, and 800 rows, 3 of predict's row blocks over its 300 target rows
SYNTHETIC = {"latent_dim": 4, "num_classes": 5, "d_s": 9, "d_t": 20, "seed": 11,
             "source_per_class": 12, "target_per_class": 160}

# (record name, hfa arguments, output files), run in this order
COMMANDS = (
    [("generate", ["generate", "--out", "."], ["source.csv", "target.csv"]),
     ("generate-synthetic-keys", ["generate", "--config", "synthetic.cfg", "--source", "gen-source.csv",
                                  "--target", "gen-target.csv"], ["gen-source.csv", "gen-target.csv"])]
    + [(f"train-{name}", ["train", *DATA, *flags, "--out", f"{name}.json"], [f"{name}.json"])
       for name, flags in TRAINS.items()]
    + [(f"predict-{name}", ["predict", "--model", f"{name}.json", "--target", "target.csv",
                            "--out", f"{name}.csv"], [f"{name}.csv"])
       for name in TRAINS]
    + [("predict-standardize-blocks", ["predict", "--model", "standardize.json", "--target", "gen-target.csv",
                                       "--out", "standardize-blocks.csv"], ["standardize-blocks.csv"])]
    + [(f"{name}{suffix}", ["experiment", *DATA, *flags, *config, "--out", f"{name}{suffix}.txt"],
        [f"{name}{suffix}.txt"])
       for name, flags in EXPERIMENTS.items()
       for suffix, config in (("", []), ("-standardize", ["--config", "standardize.cfg"]))]
)

STREAMS = ("stdout", "stderr", "exit_code")


def run_side(root: Path, work: Path) -> Path:
    """Run COMMANDS in `work` with root/src on the path; returns the records directory."""
    work.mkdir(parents=True)
    (work / "standardize.cfg").write_text("data.standardize = true\n", encoding="utf-8")
    lines = [f"synthetic.{key} = {value}\n" for key, value in SYNTHETIC.items()]
    (work / "synthetic.cfg").write_text("".join(lines), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    records = work / "records"
    for name, args, outputs in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "hfa.cli", *args], cwd=work, env=env,
                              capture_output=True, text=True)
        record = records / name
        (record / "files").mkdir(parents=True)
        (record / "stdout").write_text(proc.stdout.replace(str(work), "<work>"), encoding="utf-8")
        (record / "stderr").write_text(proc.stderr.replace(str(work), "<work>"), encoding="utf-8")
        (record / "exit_code").write_text(f"{proc.returncode}\n", encoding="utf-8")
        for out in outputs:
            if (work / out).exists():
                shutil.copyfile(work / out, record / "files" / out)
    return records


def compare(parent: Path, change: Path) -> dict:
    """{command: {item: byte-equal?}} for two records directories; the items
    are the streams and every output file either side has ("files/NAME").
    A command or file that one side lacks is unequal."""
    result = {}
    for name in sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()}):
        files = {f"files/{p.name}" for side in (parent, change) if (side / name / "files").is_dir()
                 for p in (side / name / "files").iterdir()}
        result[name] = {}
        for item in [*STREAMS, *sorted(files)]:
            a, b = parent / name / item, change / name / item
            result[name][item] = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
    return result


def render(result: dict) -> str:
    lines = []
    for name, items in result.items():
        state = "equal" if all(items.values()) else "DIFFERS"
        lines.append(f"{name}: {state}  " + "  ".join(f"{item} {'=' if eq else '!='}" for item, eq in items.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output_diff_") as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        commit = export(args.parent, tmp / "tree")
        result = compare(run_side(tmp / "tree", tmp / "parent"), run_side(REPO, tmp / "change"))
    print(f"parent {commit}, change: working tree; {len(COMMANDS)} commands")
    print(render(result))
    return 0 if all(all(items.values()) for items in result.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
