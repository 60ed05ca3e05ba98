"""JSON persistence for trained models (format version 2).

A saved model is the target kernel expansion f(x) = k(X_t, x)' coef + b
that prediction needs, and none of the training state. There is one
file format, "hfa-model-set", for a one-vs-rest collection: the class
labels, one shared X_t and kernel, coef as a classes x n_t matrix (one
row per class), one bias per class, and free-form metadata. Floats are
written with Python's shortest round-trip repr, so loading reproduces
decision values exactly. Files of any other format or version are
rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hfa.core import KernelExpansion, _check_shared
from hfa.linalg import KernelSpec

__all__ = [
    "ModelFormatError",
    "ModelSet",
    "save_model_set",
    "load_model_set",
]

FORMAT_MODEL_SET = "hfa-model-set"
VERSION = 2


class ModelFormatError(ValueError):
    """Model file is missing, malformed, or of an unexpected format."""


def _array(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def _require(record: dict, key: str, path):
    if key not in record:
        raise ModelFormatError(f"{path}: missing field {key!r}")
    return record[key]


def _load_json(path) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except IsADirectoryError:
        raise ModelFormatError(f"model file {path} is a directory") from None
    except (FileNotFoundError, NotADirectoryError):
        raise ModelFormatError(f"model file {path} does not exist") from None
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: byte {exc.start + 1} is not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    if payload.get("format") != FORMAT_MODEL_SET:
        raise ModelFormatError(f"{path}: expected format {FORMAT_MODEL_SET!r}, got {payload.get('format')!r}")
    if payload.get("version") != VERSION:
        raise ModelFormatError(f"{path}: model format version {payload.get('version')!r} cannot be read "
                               f"(only version {VERSION}); retrain with `hfa train` to write a current file")
    return payload


def _list(value, length: int, path, field: str, per: str) -> list:
    """A JSON list of exactly `length` entries, one per `per`."""
    if not isinstance(value, list) or len(value) != length:
        got = f"{len(value)} entries" if isinstance(value, list) else f"a {type(value).__name__}"
        raise ModelFormatError(f"{path}: field {field!r} has {got}, expected {length} (one per {per})")
    return value


def _vector(value, length: int, path, field: str, per: str) -> np.ndarray:
    """A JSON list of exactly `length` finite numbers, as a float array."""
    value = _numbers(_list(value, length, path, field, per), path, field)
    try:
        vec = np.array(value, dtype=float)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ModelFormatError(f"{path}: field {field!r}: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise ModelFormatError(f"{path}: field {field!r} has non-finite values")
    return vec


def _numbers(values: list, path, field: str) -> list:
    """values, if every entry is a JSON number: numpy would also read true and "0.5" as numbers."""
    for v in values:
        if type(v) not in (int, float):
            raise ModelFormatError(f"{path}: field {field!r} has {json.dumps(v)}, not a number")
    return values


def _shared_from(payload: dict, path) -> tuple[np.ndarray, KernelSpec]:
    """The target rows and kernel spec every expansion in a file uses."""
    kernel = _require(payload, "kernel", path)
    if not isinstance(kernel, dict):
        raise ModelFormatError(f"{path}: field 'kernel' must be an object")
    family = _require(kernel, "family", path)
    rows = _require(payload, "X_t", path)
    try:
        spec = KernelSpec(family, kernel.get("gamma"))
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: field 'kernel': {exc}") from exc
    try:
        X = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: field 'X_t': {exc}") from exc
    if X.ndim != 2:
        raise ModelFormatError(f"{path}: field 'X_t' must be a 2-D array of rows, got shape {X.shape}")
    for row in rows:
        _numbers(row, path, "X_t")
    if not np.all(np.isfinite(X)):
        raise ModelFormatError(f"{path}: field 'X_t' has non-finite values")
    return X, spec


@dataclass(frozen=True, eq=False)
class ModelSet:
    """One-vs-rest model collection plus free-form metadata.

    metadata is a JSON-serializable dict for pipeline state that must
    travel with the models (e.g. feature standardization parameters).
    """

    models: tuple[tuple[int, KernelExpansion], ...]
    metadata: dict

    @property
    def classes(self) -> list[int]:
        return [c for c, _ in self.models]


def save_model_set(models, path, metadata: dict | None = None) -> None:
    """Write a one-vs-rest collection as a "hfa-model-set" JSON file.

    models is a nonempty list of (class label, model) pairs as produced
    by the multiclass trainer; every model must share the target rows
    and kernel, and class order is preserved.
    """
    if not models:
        raise ValueError("a model set needs at least one model")
    _check_shared(models)
    first = models[0][1]
    record = {
        "format": FORMAT_MODEL_SET,
        "version": VERSION,
        "classes": [int(c) for c, _ in models],
        "kernel": {"family": first.kernel.family, "gamma": first.kernel.gamma},
        "X_t": _array(first.X),
        "coef": [_array(e.coef) for _, e in models],
        "bias": [float(e.bias) for _, e in models],
        "metadata": metadata if metadata is not None else {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")  # json.dumps runs the C encoder, json.dump Python's


def load_model_set(path) -> ModelSet:
    """Read a "hfa-model-set" JSON file back into (class, expansion) pairs
    that share one X_t array, plus metadata."""
    payload = _load_json(path)
    classes = _require(payload, "classes", path)
    if not isinstance(classes, list) or len(classes) == 0:
        raise ModelFormatError(f"{path}: field 'classes' must be a nonempty list")
    for c in classes:
        if type(c) is not int:
            raise ModelFormatError(f"{path}: field 'classes' entry {json.dumps(c)} is not an integer label")
    if len(set(classes)) != len(classes):
        duplicated = sorted({c for c in classes if classes.count(c) > 1})
        raise ModelFormatError(f"{path}: field 'classes' repeats label(s) {duplicated}")
    X, spec = _shared_from(payload, path)
    rows = _list(_require(payload, "coef", path), len(classes), path, "coef", "class in 'classes'")
    coef = [_vector(row, X.shape[0], path, f"coef[{i}]", "X_t row") for i, row in enumerate(rows)]
    bias = _vector(_require(payload, "bias", path), len(classes), path, "bias", "class in 'classes'")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelFormatError(f"{path}: metadata must be an object")
    models = tuple((c, KernelExpansion(X, spec, w, float(b))) for c, w, b in zip(classes, coef, bias))
    return ModelSet(models=models, metadata=metadata)
