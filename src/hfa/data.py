"""Datasets, file ingestion, PCA, split protocol and synthetic data.

Two on-disk formats are supported and documented in the README: a dense
CSV with header "label,f0,...,f{d-1}", and a sparse text format with
lines "label idx:val ..." (1-based, strictly ascending indices) plus an
optional leading "#dim N" line.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hfa.linalg import sym_eigen, symmetrize

__all__ = [
    "ParseError",
    "Dataset",
    "PcaBasis",
    "SyntheticSpec",
    "load_dense_csv",
    "save_dense_csv",
    "load_sparse",
    "pca_fit_transform",
    "sample_protocol",
    "generate_synthetic",
    "standardize_fit",
    "standardize_apply",
]


class ParseError(ValueError):
    """Malformed dataset file; message carries path and line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


@dataclass(frozen=True)
class Dataset:
    """Row-sample feature matrix with integer labels and a domain tag."""

    domain: str
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or y.size != X.shape[0]:
            raise ValueError(f"labels must be one per row, got {y.shape} for {X.shape}")
        if y.size and not np.issubdtype(y.dtype, np.integer):
            rounded = np.asarray(y, dtype=float)
            if not np.all(rounded == np.floor(rounded)):
                raise ValueError("labels must be integers")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(np.int64))

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.y)

    def class_counts(self) -> dict[int, int]:
        labels, counts = np.unique(self.y, return_counts=True)
        return {int(c): int(k) for c, k in zip(labels, counts)}

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.domain, self.X[idx], self.y[idx])

    def binary_view(self, positive_class: int) -> "Dataset":
        """Relabel as +1 for positive_class, -1 for everything else."""
        y = np.where(self.y == positive_class, 1, -1)
        return Dataset(self.domain, self.X, y)


def _dense_header(path, reader) -> int:
    """Check a dense CSV header row; return the feature count."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(path, 1, "empty file") from None
    if len(header) < 2 or header[0] != "label":
        raise ParseError(path, 1, 'header must be "label,f0,...,f{d-1}"')
    dim = len(header) - 1
    expected = [f"f{i}" for i in range(dim)]
    if header[1:] != expected:
        raise ParseError(path, 1, f"feature columns must be f0..f{dim - 1}")
    return dim


# A body line of plain number characters: on these numpy's number parsing
# and Python's float() and int() accept the same fields with the same values
# (compared token by token). Any other character, such as a quote, an
# underscore, a letter of "nan" or a Unicode space, sends the file to the
# per-line parser.
_PLAIN_LINE = re.compile(r"[0-9+\-.eE,\t ]*(?:\r\n|\r|\n)?")


def load_dense_csv(path) -> Dataset:
    """Read a dense CSV dataset; see module docstring for the format.

    The accepted files, their values and every error are those of the
    per-line parser, _load_dense_csv_lines; parsing is numpy-first. After
    the header check, a body made only of plain number characters, with
    no line longer than csv's field limit, is parsed by one numpy call.
    Any other body, any file numpy rejects, and any file numpy reads but
    the per-line parser would not (numpy skips blank lines, so its row
    count differs from the line count, and reads negative labels) are
    parsed line by line. X is C-contiguous.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            dim = _dense_header(path, csv.reader(fh))
            limit = csv.field_size_limit()
            lines = 0
            for line in fh:
                if len(line) > limit or _PLAIN_LINE.fullmatch(line) is None:
                    return _load_dense_csv_lines(path)
                lines += 1
    except UnicodeDecodeError:
        # the per-line parser may meet a bad row before the bad byte
        return _load_dense_csv_lines(path)
    if lines == 0:
        # numpy warns on a file without data rows
        return Dataset(path.stem, np.empty((0, dim)), np.array([], dtype=np.int64))
    try:
        # an open file, because given a path numpy imports its compressed-file openers
        with warnings.catch_warnings(), open(path, encoding="utf-8") as fh:
            warnings.simplefilter("error")
            body = np.loadtxt(fh, delimiter=",", skiprows=1, comments=None,
                              dtype=[("y", np.int64), ("X", np.float64, (dim,))], ndmin=1)
    except (ValueError, Warning):
        return _load_dense_csv_lines(path)
    if body.shape[0] != lines or body["y"].min() < 0:
        return _load_dense_csv_lines(path)
    return Dataset(path.stem, np.ascontiguousarray(body["X"]), body["y"])


def _load_dense_csv_lines(path) -> Dataset:
    """The per-line dense CSV parser: csv.reader and one float() per value."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        dim = _dense_header(path, reader)
        labels: list[int] = []
        rows: list[list[float]] = []
        for row in reader:
            line = reader.line_num
            if len(row) != dim + 1:
                raise ParseError(path, line, f"expected {dim + 1} fields, got {len(row)}")
            try:
                label = int(row[0])
            except ValueError:
                raise ParseError(path, line, f"label {row[0]!r} is not an integer") from None
            if label < 0:
                raise ParseError(path, line, f"negative label {label}")
            try:
                values = [float(tok) for tok in row[1:]]
            except ValueError:
                raise ParseError(path, line, "non-numeric feature value") from None
            labels.append(label)
            rows.append(values)
    X = np.array(rows, dtype=float) if rows else np.empty((0, dim))
    return Dataset(path.stem, X, np.array(labels, dtype=np.int64))


def save_dense_csv(dataset: Dataset, path) -> None:
    """Write the dense CSV format; floats use shortest round-trip repr."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.dim)])
        for label, row in zip(dataset.y, dataset.X):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def load_sparse(path) -> Dataset:
    """Read the sparse "label idx:val ..." format into dense vectors."""
    path = Path(path)
    declared_dim: int | None = None
    labels: list[int] = []
    entries: list[list[tuple[int, float]]] = []
    max_index = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if lineno == 1 and len(parts) == 2 and parts[0] == "dim":
                    try:
                        declared_dim = int(parts[1])
                    except ValueError:
                        raise ParseError(path, lineno, f"bad dimension {parts[1]!r}") from None
                    if declared_dim < 1:
                        raise ParseError(path, lineno, "declared dimension must be positive")
                    continue
                raise ParseError(path, lineno, f"unknown directive {line!r}")
            tokens = line.split()
            try:
                label = int(tokens[0])
            except ValueError:
                raise ParseError(path, lineno, f"label {tokens[0]!r} is not an integer") from None
            if label < 0:
                raise ParseError(path, lineno, f"negative label {label}")
            row: list[tuple[int, float]] = []
            prev = 0
            for tok in tokens[1:]:
                idx_str, sep, val_str = tok.partition(":")
                if not sep:
                    raise ParseError(path, lineno, f"expected idx:val, got {tok!r}")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(path, lineno, f"bad entry {tok!r}") from None
                if idx < 1:
                    raise ParseError(path, lineno, f"indices are 1-based, got {idx}")
                if idx <= prev:
                    raise ParseError(path, lineno, f"indices must ascend, got {idx} after {prev}")
                if declared_dim is not None and idx > declared_dim:
                    raise ParseError(path, lineno, f"index {idx} exceeds declared dimension {declared_dim}")
                row.append((idx, val))
                prev = idx
            labels.append(label)
            entries.append(row)
            max_index = max(max_index, prev)
    dim = declared_dim if declared_dim is not None else max_index
    if dim == 0:
        raise ParseError(path, 1, "no dimension declared and no features present")
    X = np.zeros((len(entries), dim))
    for i, row in enumerate(entries):
        for idx, val in row:
            X[i, idx - 1] = val
    return Dataset(path.stem, X, np.array(labels, dtype=np.int64))


@dataclass(frozen=True)
class PcaBasis:
    """Centered projection basis with the full covariance spectrum."""

    mean: np.ndarray
    components: np.ndarray  # (k, d), rows are principal directions
    eigenvalues: np.ndarray  # all d, descending, clipped at numerical rank

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.components.T

    @property
    def retained_energy(self) -> float:
        total = float(self.eigenvalues.sum())
        if total == 0.0:
            return 1.0
        k = self.components.shape[0]
        return float(self.eigenvalues[:k].sum()) / total


def pca_fit_transform(dataset: Dataset, energy: float) -> tuple[Dataset, PcaBasis]:
    """Project onto the fewest principal axes holding `energy` variance.

    Parameters
    ----------
    dataset : Dataset
        At least two samples.
    energy : float in (0, 1]
        Fraction of total centered variance to retain.

    Returns
    -------
    (projected, basis) : Dataset and PcaBasis
        Output dim k is the smallest k whose leading eigenvalue sum
        reaches the requested energy; eigenvalues below 1e-12 of the
        largest count as zero so round-off cannot inflate k.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must lie in (0, 1], got {energy}")
    n = len(dataset)
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    mean = dataset.X.mean(axis=0)
    Xc = dataset.X - mean
    cov = symmetrize(Xc.T @ Xc / (n - 1))
    w, V = sym_eigen(cov)
    cutoff = (w[0] if w[0] > 0 else 0.0) * 1e-12
    w = np.where(w > cutoff, w, 0.0)
    total = float(w.sum())
    if total == 0.0:
        k = 1  # flat data: a single (zero-variance) axis
    else:
        ratios = np.cumsum(w) / total
        k = int(np.searchsorted(ratios, energy - 1e-12)) + 1
        k = min(k, w.size)
    basis = PcaBasis(mean=mean, components=V[:, :k].T, eigenvalues=w)
    return Dataset(dataset.domain, Xc @ V[:, :k], dataset.y), basis


def sample_protocol(dataset: Dataset, per_class: int, seed: int) -> tuple[Dataset, Dataset]:
    """Draw per_class training samples per class without replacement.

    Returns (train, rest) with original row order preserved inside each
    part; deterministic in seed.
    """
    if per_class < 1:
        raise ValueError("per_class must be positive")
    rng = np.random.default_rng(seed)
    picks = []
    for c in np.unique(dataset.y):
        idx = np.flatnonzero(dataset.y == c)
        if idx.size < per_class:
            raise ValueError(f"class {int(c)} has {idx.size} samples, needs {per_class}")
        picks.append(rng.choice(idx, size=per_class, replace=False))
    train_idx = np.sort(np.concatenate(picks))
    mask = np.zeros(len(dataset), dtype=bool)
    mask[train_idx] = True
    return dataset.subset(train_idx), dataset.subset(np.flatnonzero(~mask))


@dataclass(frozen=True)
class SyntheticSpec:
    """Shared-latent two-domain generator settings.

    Both domains observe the same class structure through fixed random
    injective maps from a common latent space, so adaptation across the
    differing feature dimensions is possible in principle.  Classes come
    in pairs: each pair shares an anchor on a circle of radius class_sep
    in the first two latent coordinates and its two members sit at
    +-pair_split along the third, with within_pair_std spread on that
    axis.  Remaining latent coordinates carry class-independent variance
    nuisance_std.  A small training sample must spend capacity modelling
    the nuisance directions before it can resolve the pair axis, so the
    pairs are where a larger auxiliary sample genuinely helps.
    """

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

    def __post_init__(self):
        if self.latent_dim < 3:
            raise ValueError("latent_dim must be >= 3: two anchor coordinates plus the pair axis")
        if self.d_s < 1 or self.d_t < 1:
            raise ValueError("dimensions must be positive")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if not self.class_sep > 0 or not self.noise_std >= 0:
            raise ValueError("class_sep must be positive and noise_std nonnegative")
        if not (self.pair_split > 0 and self.within_pair_std > 0 and self.nuisance_std > 0):
            raise ValueError("pair_split, within_pair_std and nuisance_std must be positive")
        if self.source_per_class < 1 or self.target_per_class < 1:
            raise ValueError("per-class counts must be positive")


def _latent_layout(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Class means and per-coordinate latent deviations for a spec."""
    means = np.zeros((spec.num_classes, spec.latent_dim))
    anchors = spec.num_classes // 2
    for a in range(anchors):
        angle = 2.0 * np.pi * a / anchors
        anchor = spec.class_sep * np.array([np.cos(angle), np.sin(angle)])
        means[2 * a, :2] = anchor
        means[2 * a + 1, :2] = anchor
        means[2 * a, 2] = spec.pair_split
        means[2 * a + 1, 2] = -spec.pair_split
    # odd class count: the leftover class sits alone at the origin
    sds = np.ones(spec.latent_dim)
    sds[2] = spec.within_pair_std
    sds[3:] = spec.nuisance_std
    return means, sds


def _draw_domain(rng, means, sds, A, per_class, noise_std, tag) -> Dataset:
    num_classes, latent = means.shape
    y = np.repeat(np.arange(num_classes), per_class)
    z = means[y] + sds * rng.standard_normal((y.size, latent))
    X = z @ A.T
    if noise_std > 0:
        X = X + noise_std * rng.standard_normal(X.shape)
    order = rng.permutation(y.size)
    return Dataset(tag, X[order], y[order])


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Sample (source, target) datasets from the shared-latent model.

    Latent class means follow the paired-anchor layout described on
    SyntheticSpec; each domain sees A @ z plus isotropic noise through
    its own full-column-rank map A.  Deterministic in spec.seed.
    """
    if spec.d_s < spec.latent_dim or spec.d_t < spec.latent_dim:
        raise ValueError("domain dimensions must be >= latent_dim so the maps stay injective")
    rng = np.random.default_rng(spec.seed)
    means, sds = _latent_layout(spec)
    A_s = rng.standard_normal((spec.d_s, spec.latent_dim))
    A_t = rng.standard_normal((spec.d_t, spec.latent_dim))
    source = _draw_domain(rng, means, sds, A_s, spec.source_per_class, spec.noise_std, "source")
    target = _draw_domain(rng, means, sds, A_t, spec.target_per_class, spec.noise_std, "target")
    return source, target


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and scale from training rows; zero-variance scales become 1."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    return mean, scale


def standardize_apply(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=float) - mean) / scale
