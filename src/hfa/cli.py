"""Command-line entry point: generate | train | predict | experiment.

Settings resolve in three layers: built-in defaults, then a flat
"key = value" config file (--config), then command-line flags. Output
files are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial artifact; exit status is 0 only when
the requested artifact was fully written.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, replace
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


# config-file key -> (CliConfig attribute, value parser)
CONFIG_KEYS = {
    "kernel.family": ("kernel_family", str),
    "kernel.gamma": ("kernel_gamma", _parse_optional_float),
    "hfa.C": ("C", float),
    "hfa.lambda": ("lam", float),
    "hfa.t_max": ("t_max", int),
    "hfa.conv_tol": ("conv_tol", float),
    "protocol.per_class_target": ("per_class_target", _parse_int_list),
    "protocol.per_class_source": ("per_class_source", _parse_optional_int),
    "protocol.trials": ("trials", int),
    "protocol.base_seed": ("base_seed", int),
    "data.standardize": ("standardize", _parse_bool),
    "paths.source": ("source", str),
    "paths.target": ("target", str),
    "paths.model": ("model", str),
    "paths.out": ("out", str),
    "synthetic.latent_dim": ("latent_dim", int),
    "synthetic.num_classes": ("num_classes", int),
    "synthetic.d_s": ("d_s", int),
    "synthetic.d_t": ("d_t", int),
    "synthetic.class_sep": ("class_sep", float),
    "synthetic.pair_split": ("pair_split", float),
    "synthetic.within_pair_std": ("within_pair_std", float),
    "synthetic.nuisance_std": ("nuisance_std", float),
    "synthetic.noise_std": ("noise_std", float),
    "synthetic.seed": ("seed", int),
    "synthetic.source_per_class": ("source_per_class", int),
    "synthetic.target_per_class": ("target_per_class", int),
}


@dataclass(frozen=True)
class CliConfig:
    """Resolved settings for one invocation; see CONFIG_KEYS for file keys."""

    kernel_family: str = "rbf"
    kernel_gamma: float | None = None
    C: float = 1.0
    lam: float = 1.0
    t_max: int = 100
    conv_tol: float = 1e-5
    per_class_target: tuple[int, ...] = (3,)
    per_class_source: int | None = None
    trials: int = 10
    base_seed: int = 0
    standardize: bool = False
    source: str | None = None
    target: str | None = None
    model: str | None = None
    out: str | None = None
    latent_dim: int = 5
    num_classes: int = 6
    d_s: int = 30
    d_t: int = 20
    class_sep: float = 4.5
    pair_split: float = 1.4
    within_pair_std: float = 0.6
    nuisance_std: float = 3.0
    noise_std: float = 1.0
    seed: int = 0
    source_per_class: int = 100
    target_per_class: int = 50

    def hfa_config(self) -> HfaConfig:
        return HfaConfig(
            C=self.C,
            lam=self.lam,
            kernel_family=self.kernel_family,
            kernel_gamma=self.kernel_gamma,
            t_max=self.t_max,
            conv_tol=self.conv_tol,
            standardize=self.standardize,
        )

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            latent_dim=self.latent_dim,
            num_classes=self.num_classes,
            d_s=self.d_s,
            d_t=self.d_t,
            class_sep=self.class_sep,
            pair_split=self.pair_split,
            within_pair_std=self.within_pair_std,
            nuisance_std=self.nuisance_std,
            noise_std=self.noise_std,
            seed=self.seed,
            source_per_class=self.source_per_class,
            target_per_class=self.target_per_class,
        )


def load_config_file(path) -> dict:
    """Parse a flat "key = value" file; unknown keys are rejected."""
    path = Path(path)
    updates = {}
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
            attr, parser = CONFIG_KEYS[key]
            try:
                updates[attr] = parser(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return updates


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """Defaults, overlaid by the config file, overlaid by flags."""
    cfg = CliConfig()
    if args.config is not None:
        cfg = replace(cfg, **load_config_file(args.config))
    flags = {}
    for attr in ("C", "lam", "trials", "source", "target", "model", "out"):
        value = getattr(args, attr)
        if value is not None:
            flags[attr] = value
    if args.kernel is not None:
        flags["kernel_family"] = args.kernel
    if args.gamma is not None:
        flags["kernel_gamma"] = args.gamma
    if args.per_class_target is not None:
        flags["per_class_target"] = _parse_int_list(args.per_class_target)
    if args.per_class_source is not None:
        flags["per_class_source"] = args.per_class_source
    if args.seed is not None:
        # one flag, both roles: generation seed and experiment base seed
        flags["seed"] = args.seed
        flags["base_seed"] = args.seed
    return replace(cfg, **flags)


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
    spec = cfg.synthetic_spec()
    source, target = generate_synthetic(spec)
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
    hfa_cfg = cfg.hfa_config()
    metadata = {}
    if cfg.standardize:
        mean_s, scale_s = standardize_fit(source.X)
        source = Dataset(source.domain, standardize_apply(source.X, mean_s, scale_s), source.y)
        mean_t, scale_t = standardize_fit(target.X)
        target = Dataset(target.domain, standardize_apply(target.X, mean_t, scale_t), target.y)
        metadata["standardize"] = {"target_mean": mean_t.tolist(), "target_scale": scale_t.tolist()}
    models = train_multiclass(source, target, hfa_cfg)
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
    if len(test):
        classes, scores = decision_matrix(list(model_set.models), X)
        predicted = classes[np.argmax(scores, axis=1)]
    else:
        classes = np.array(model_set.classes)
        scores = np.empty((0, classes.size))
        predicted = np.empty(0, dtype=int)
    header = "row,predicted_class," + ",".join(f"score_class{c}" for c in classes)
    lines = [header]
    for i in range(len(test)):
        score_text = ",".join(repr(float(s)) for s in scores[i])
        lines.append(f"{i},{int(predicted[i])},{score_text}")
    out = cfg.out if cfg.out is not None else "predictions.csv"
    _atomic(out, lambda tmp: tmp.write_text("\n".join(lines) + "\n", encoding="utf-8"))
    print(f"wrote {out}: {len(test)} predictions")


def cmd_experiment(cfg: CliConfig) -> None:
    source = _load_dataset(_require_path(cfg.source, "--source"))
    target = _load_dataset(_require_path(cfg.target, "--target"))
    hfa_cfg = cfg.hfa_config()
    blocks = []
    for m in cfg.per_class_target:
        run = run_experiment(
            source,
            target,
            hfa_cfg,
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
    common.add_argument("--per-class-target", metavar="LIST", dest="per_class_target",
                        help="target training samples per class, comma separated")
    common.add_argument("--per-class-source", type=int, metavar="N", dest="per_class_source",
                        help="source training samples per class (default: all)")
    common.add_argument("--trials", type=int, metavar="N", help="experiment repetitions")
    common.add_argument("--lambda", type=float, metavar="X", dest="lam", help="metric trace budget")
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
