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
import logging
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
    standardize_fit,
)
from hfa.evaluate import decision_matrix, render_report, run_experiment, train_multiclass
from hfa.model_io import load_model_set, save_model_set

__all__ = ["CliConfig", "main"]

log = logging.getLogger("hfa")


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
    """Resolved settings for one invocation; see CONFIG_KEYS for file keys."""

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
# data.py postpones annotations, so each field's type arrives as its name
CONFIG_KEYS.update((f"synthetic.{f.name}", ("synthetic", f.name, {"int": int, "float": float}[f.type]))
                   for f in fields(SyntheticSpec))

# argparse dest (the flag's name) -> the config keys its flag sets; --seed
# is both the generation seed and the experiment base seed
FLAG_KEYS = {
    "C": ("hfa.C",), "lambda": ("hfa.lambda",), "kernel": ("kernel.family",), "gamma": ("kernel.gamma",),
    "per_class_target": ("protocol.per_class_target",), "per_class_source": ("protocol.per_class_source",),
    "trials": ("protocol.trials",), "seed": ("synthetic.seed", "protocol.base_seed"),
    "source": ("paths.source",), "target": ("paths.target",), "model": ("paths.model",), "out": ("paths.out",),
}


def _set(cfg: CliConfig, key: str, value) -> CliConfig:
    """cfg with one config key changed; HfaConfig and SyntheticSpec check the value."""
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
    """Defaults, overlaid by the config file, overlaid by flags."""
    cfg = CliConfig()
    if args.config is not None:
        cfg = load_config_file(args.config, cfg)
    for dest, keys in FLAG_KEYS.items():
        value = getattr(args, dest)
        if value is not None:
            try:
                for key in keys:
                    cfg = _set(cfg, key, _parse_int_list(value) if dest == "per_class_target" else value)
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


def _load_dataset(path) -> Dataset:
    """Dense CSV for .csv files, the sparse text format otherwise."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file {path} does not exist")
    if path.suffix.lower() == ".csv":
        return load_dense_csv(path)
    return load_sparse(path)


def _require_path(value, flag: str) -> str:
    if value is None:
        raise ValueError(f"missing required path: pass {flag} or set its config key")
    return value


def _counts_text(d: Dataset) -> str:
    return ", ".join(f"{c}:{k}" for c, k in sorted(d.class_counts().items()))


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
    metadata = {}
    if cfg.hfa.standardize:
        mean_s, scale_s = standardize_fit(source.X)
        source = Dataset(source.domain, standardize_apply(source.X, mean_s, scale_s), source.y)
        mean_t, scale_t = standardize_fit(target.X)
        target = Dataset(target.domain, standardize_apply(target.X, mean_t, scale_t), target.y)
        metadata["standardize"] = {"target_mean": mean_t.tolist(), "target_scale": scale_t.tolist()}
    models = train_multiclass(source, target, cfg.hfa)
    out = cfg.out if cfg.out is not None else (cfg.model if cfg.model is not None else "model.json")
    _atomic(out, lambda tmp: save_model_set(models, tmp, metadata))
    for c, model in models:
        trace = model.objective_trace
        print(f"class {c}: final objective {float(trace[-1])!r} after {len(trace)} iterations, "
              f"certified gap {model.saddle_gap:.3e}")
    print(f"wrote {out}: {len(models)} models")


def cmd_predict(cfg: CliConfig) -> None:
    model_set = load_model_set(_require_path(cfg.model, "--model"))
    test = _load_dataset(_require_path(cfg.target, "--target"))
    d_t = model_set.models[0][1].dim
    if len(test) and test.dim != d_t:
        raise ValueError(f"test features have dimension {test.dim}, model expects target dimension {d_t}")
    X = test.X
    if "standardize" in model_set.metadata:
        params = model_set.metadata["standardize"]
        X = standardize_apply(X, np.asarray(params["target_mean"]), np.asarray(params["target_scale"]))
    classes, scores = decision_matrix(list(model_set.models), X)
    predicted = classes[np.argmax(scores, axis=1)]
    header = "row,predicted_class," + ",".join(f"score_class{c}" for c in classes)
    lines = [header]
    for i, (label, row) in enumerate(zip(predicted.tolist(), scores.tolist())):
        lines.append(f"{i},{label},{','.join(map(repr, row))}")
    out = cfg.out if cfg.out is not None else "predictions.csv"
    _atomic(out, lambda tmp: tmp.write_text("\n".join(lines) + "\n", encoding="utf-8"))
    print(f"wrote {out}: {len(test)} predictions")


def cmd_experiment(cfg: CliConfig) -> None:
    source = _load_dataset(_require_path(cfg.source, "--source"))
    target = _load_dataset(_require_path(cfg.target, "--target"))
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
    common.add_argument("--seed", type=int, metavar="N", help="generation seed / experiment base seed")
    common.add_argument("--out", metavar="PATH", help="output artifact path")
    common.add_argument("--source", metavar="PATH", help="source dataset file")
    common.add_argument("--target", metavar="PATH", help="target dataset file")
    common.add_argument("--model", metavar="PATH", help="model file to write or read")
    common.add_argument("--per-class-target", metavar="LIST",
                        help="target training samples per class, comma separated")
    common.add_argument("--per-class-source", type=int, metavar="N",
                        help="source training samples per class (default: all)")
    common.add_argument("--trials", type=int, metavar="N", help="experiment repetitions")
    common.add_argument("--lambda", type=float, metavar="X", help="metric trace budget")
    common.add_argument("--C", type=float, metavar="X", help="SVM regularization")
    common.add_argument("--kernel", choices=("linear", "rbf"), help="kernel family")
    common.add_argument("--gamma", type=float, metavar="X", help="RBF bandwidth (default: per-domain median rule)")
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
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        cfg = resolve_config(args)
        COMMANDS[args.command](cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
