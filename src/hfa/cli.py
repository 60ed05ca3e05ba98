"""Command-line entry point: generate | train | predict | experiment.

Settings resolve in three layers: the defaults of HfaConfig,
SyntheticSpec and CliConfig, then a flat "key = value" config file
(--config), then command-line flags. Each value is range-checked as it
is applied, so a bad file value fails naming its file, line and key, and
a bad flag value naming its flag. Output files are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial artifact; exit status is 0 only when
the requested artifact was fully written.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from hfa.core import HfaConfig
from hfa.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_dense_csv,
    load_sparse,
    save_dense_csv,
    standardize_apply,
    standardize_pair,
)
from hfa.evaluate import _check_feasible, decision_matrix, render_report, run_experiment, train_multiclass
from hfa.model_io import ModelFormatError, _require, _vector, load_model_set, save_model_set

__all__ = ["CliConfig", "main"]

# prediction rows formatted per block: the text of one block, not of the
# whole predictions file, is held at once
_WRITE_ROWS = 1024


def _parse_optional_float(text: str):
    return None if text.lower() in ("none", "median") else float(text)

def _parse_optional_int(text: str):
    return None if text.lower() == "none" else int(text)

def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")

def _parse_int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("expected a comma-separated list of integers")
    return values


@dataclass(frozen=True)
class CliConfig:
    """Resolved settings for one invocation; see CONFIG_KEYS for file keys.
    Range-checks the protocol values and base_seed, as HfaConfig and SyntheticSpec check theirs."""

    hfa: HfaConfig = HfaConfig()
    synthetic: SyntheticSpec = SyntheticSpec()
    per_class_target: tuple[int, ...] = (3,)
    per_class_source: int | None = None
    trials: int = 10
    base_seed: int = 0
    source: str | None = None
    target: str | None = None
    model: str | None = None
    out: str | None = None

    def __post_init__(self):
        if min(self.per_class_target) < 1:
            raise ValueError("per_class_target must be positive")
        if self.per_class_source is not None and self.per_class_source < 1:
            raise ValueError("per_class_source must be none or positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")


# config-file key -> (CliConfig section, or None for its own fields; field; value parser)
CONFIG_KEYS = {
    "kernel.family": ("hfa", "kernel_family", str),
    "kernel.gamma": ("hfa", "kernel_gamma", _parse_optional_float),
    "hfa.C": ("hfa", "C", float),
    "hfa.lambda": ("hfa", "lam", float),
    "hfa.t_max": ("hfa", "t_max", int),
    "hfa.conv_tol": ("hfa", "conv_tol", float),
    "protocol.per_class_target": (None, "per_class_target", _parse_int_list),
    "protocol.per_class_source": (None, "per_class_source", _parse_optional_int),
    "protocol.trials": (None, "trials", int),
    "protocol.base_seed": (None, "base_seed", int),
    "data.standardize": ("hfa", "standardize", _parse_bool),
    "paths.source": (None, "source", str),
    "paths.target": (None, "target", str),
    "paths.model": (None, "model", str),
    "paths.out": (None, "out", str),
}
# every SyntheticSpec field is a size or a seed: an int
CONFIG_KEYS.update((f"synthetic.{f.name}", ("synthetic", f.name, int)) for f in fields(SyntheticSpec))

# argparse dest (the flag's name) -> the config keys its flag sets; --seed
# is both the generation seed and the experiment base seed
FLAG_KEYS = {
    "C": ("hfa.C",), "lambda": ("hfa.lambda",), "kernel": ("kernel.family",), "gamma": ("kernel.gamma",),
    "per_class_target": ("protocol.per_class_target",), "per_class_source": ("protocol.per_class_source",),
    "trials": ("protocol.trials",), "seed": ("synthetic.seed", "protocol.base_seed"),
    "source": ("paths.source",), "target": ("paths.target",), "model": ("paths.model",), "out": ("paths.out",),
}


def _set(cfg: CliConfig, key: str, value) -> CliConfig:
    """cfg with one config key changed; HfaConfig, SyntheticSpec and CliConfig check the value."""
    section, name, _ = CONFIG_KEYS[key]
    if section is None:
        return replace(cfg, **{name: value})
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


def load_config_file(path, cfg: CliConfig) -> CliConfig:
    """Apply a flat "key = value" file to cfg; unknown keys are rejected."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                cfg = _set(cfg, key, CONFIG_KEYS[key][2](value))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """Defaults, overlaid by the config file, overlaid by flags parsed as their config keys are."""
    cfg = CliConfig()
    if args.config is not None:
        cfg = load_config_file(args.config, cfg)
    for dest, keys in FLAG_KEYS.items():
        value = getattr(args, dest)
        if value is not None:
            try:
                for key in keys:
                    cfg = _set(cfg, key, CONFIG_KEYS[key][2](value))
            except ValueError as exc:
                raise ValueError(f"bad value for --{dest.replace('_', '-')}: {exc}") from exc
    return cfg


def _atomic(path, writer) -> None:
    """Run writer(tmp_path) and rename the result over path."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        raise FileNotFoundError(f"output directory {path.parent} does not exist")
    tmp = path.with_name(path.name + ".part")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_dataset(path, training: bool = True) -> Dataset:
    """Dense CSV for .csv files, the sparse text format otherwise. A training
    file needs a data row; a query file for predict may have none."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file {path} does not exist")
    data = load_dense_csv(path) if path.suffix.lower() == ".csv" else load_sparse(path)
    if training and len(data) == 0:
        raise ValueError(f"dataset file {path} has no data rows")
    return data


def _require_path(value, flag: str) -> str:
    if value is None:
        raise ValueError(f"missing required path: pass {flag} or set its config key")
    return value


def _counts_text(d: Dataset) -> str:
    return ", ".join(f"{c}:{k}" for c, k in sorted(d.class_counts().items()))


def _progress(tau: int, metric, step) -> None:
    """The trainer's monitor: stderr lines for each halved step and each outer iteration."""
    for t in step.halved:
        print("outer %d step halved to t = %.3e" % (tau, t), file=sys.stderr)
    print("outer %d objective %.10e gap %.3e" % (tau, step.objective, step.gap), file=sys.stderr)


def cmd_generate(cfg: CliConfig) -> None:
    source, target = generate_synthetic(cfg.synthetic)
    out_dir = Path(cfg.out) if cfg.out is not None else Path(".")
    source_path = Path(cfg.source) if cfg.source is not None else out_dir / "source.csv"
    target_path = Path(cfg.target) if cfg.target is not None else out_dir / "target.csv"
    _atomic(source_path, lambda tmp: save_dense_csv(source, tmp))
    _atomic(target_path, lambda tmp: save_dense_csv(target, tmp))
    print(f"wrote {source_path}: {len(source)} samples, dim {source.dim}, classes {_counts_text(source)}")
    print(f"wrote {target_path}: {len(target)} samples, dim {target.dim}, classes {_counts_text(target)}")


def cmd_train(cfg: CliConfig) -> None:
    source = _load_dataset(_require_path(cfg.source, "--source"))
    target = _load_dataset(_require_path(cfg.target, "--target"))
    out = cfg.out if cfg.out is not None else (cfg.model if cfg.model is not None else "model.json")
    metadata = {}
    if cfg.hfa.standardize:
        source, target, mean_t, scale_t = standardize_pair(source, target)
        metadata["standardize"] = {"target_mean": mean_t.tolist(), "target_scale": scale_t.tolist()}
        _target_standardization(metadata, out, target.dim)  # fail now on what predict would refuse
    models = train_multiclass(source, target, cfg.hfa, monitor=_progress)
    _atomic(out, lambda tmp: save_model_set(models, tmp, metadata))
    for c, model in models:
        trace = model.objective_trace
        # the gap never rises: only a class that ran out of iterations or halvings ends above conv_tol
        above = f" (above hfa.conv_tol = {cfg.hfa.conv_tol})" if model.saddle_gap > cfg.hfa.conv_tol else ""
        print(f"class {c}: final objective {float(trace[-1])!r} after {len(trace)} iterations, "
              f"certified gap {model.saddle_gap:.3e}{above}")
    print(f"wrote {out}: {len(models)} models")


def _target_standardization(metadata: dict, path, d_t: int) -> tuple[np.ndarray, np.ndarray]:
    """The target_mean and target_scale that cmd_train writes to metadata["standardize"]:
    d_t finite numbers each, every scale positive."""
    params = metadata["standardize"]
    if not isinstance(params, dict):
        raise ModelFormatError(f"{path}: metadata 'standardize' must be an object")
    vectors = [_vector(_require(params, key, path), d_t, path, f"metadata.standardize.{key}", "target feature")
               for key in ("target_mean", "target_scale")]
    if not np.all(vectors[1] > 0):
        raise ModelFormatError(f"{path}: field 'metadata.standardize.target_scale' must be positive")
    return vectors[0], vectors[1]


def _write_predictions(path, classes: np.ndarray, scores: np.ndarray) -> None:
    """One CSV line per row, formatted a block of _WRITE_ROWS rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,predicted_class," + ",".join(f"score_class{c}" for c in classes) + "\n")
        for start in range(0, len(scores), _WRITE_ROWS):
            block = scores[start : start + _WRITE_ROWS]
            predicted = classes[np.argmax(block, axis=1)].tolist()
            for i, (label, row) in enumerate(zip(predicted, block.tolist()), start):
                fh.write(f"{i},{label},{','.join(map(repr, row))}\n")


def cmd_predict(cfg: CliConfig) -> None:
    model_path = _require_path(cfg.model, "--model")
    model_set = load_model_set(model_path)
    test = _load_dataset(_require_path(cfg.target, "--target"), training=False)
    d_t = model_set.models[0][1].dim
    if test.dim != d_t:
        raise ValueError(f"{cfg.target} has {test.dim} features, model {model_path} expects target dimension {d_t}")
    count, X = len(test), test.X
    del test  # X then holds the only copy of the query rows, which standardizing replaces
    if "standardize" in model_set.metadata:
        X = standardize_apply(X, *_target_standardization(model_set.metadata, model_path, d_t))
    classes, scores = decision_matrix(list(model_set.models), X)
    out = cfg.out if cfg.out is not None else "predictions.csv"
    _atomic(out, lambda tmp: _write_predictions(tmp, classes, scores))
    print(f"wrote {out}: {count} predictions")


def cmd_experiment(cfg: CliConfig) -> None:
    source = _load_dataset(_require_path(cfg.source, "--source"))
    target = _load_dataset(_require_path(cfg.target, "--target"))
    for m in cfg.per_class_target:  # every size fits the target pool before the first one trains
        _check_feasible(target, m, "target", need_rest=True)
    blocks = []
    for m in cfg.per_class_target:
        run = run_experiment(
            source,
            target,
            cfg.hfa,
            per_class_target=m,
            trials=cfg.trials,
            base_seed=cfg.base_seed,
            per_class_source=cfg.per_class_source,
            monitor=_progress,
        )
        blocks.append(render_report(run.hfa))
        blocks.append(render_report(run.svm_t))
        print(
            f"per_class_target {m}: hfa {run.hfa.mean:.4f} ± {run.hfa.std:.4f}"
            f"  svm_t {run.svm_t.mean:.4f} ± {run.svm_t.std:.4f}"
        )
    out = cfg.out if cfg.out is not None else "report.txt"
    _atomic(out, lambda tmp: tmp.write_text("\n".join(blocks), encoding="utf-8"))
    print(f"wrote {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfa",
        description="Cross-domain SVM adaptation between feature spaces of different dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key = value settings file")
    common.add_argument("--seed", metavar="N", help="generation seed / experiment base seed")
    common.add_argument("--out", metavar="PATH", help="output artifact path")
    common.add_argument("--source", metavar="PATH", help="source dataset file")
    common.add_argument("--target", metavar="PATH", help="target dataset file")
    common.add_argument("--model", metavar="PATH", help="model file to write or read")
    common.add_argument("--per-class-target", metavar="LIST",
                        help="target training samples per class, comma separated")
    common.add_argument("--per-class-source", metavar="N",
                        help="source training samples per class (default: all)")
    common.add_argument("--trials", metavar="N", help="experiment repetitions")
    common.add_argument("--lambda", metavar="X", help="metric trace budget")
    common.add_argument("--C", metavar="X", help="SVM regularization")
    common.add_argument("--kernel", metavar="{linear,rbf}", help="kernel family")
    common.add_argument("--gamma", metavar="X", help="RBF bandwidth (default: per-domain median rule)")
    sub.add_parser("generate", parents=[common], help="write a synthetic source/target dataset pair")
    sub.add_parser("train", parents=[common], help="train one-vs-rest models and save them")
    sub.add_parser("predict", parents=[common], help="score a test file with a saved model set")
    sub.add_parser("experiment", parents=[common], help="repeated-split comparison against the target-only SVM")
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "predict": cmd_predict,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        COMMANDS[args.command](cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
