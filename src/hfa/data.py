"""Datasets, file ingestion, split protocol and synthetic data.

Two on-disk formats are supported and documented in the README: a dense
CSV with header "label,f0,...,f{d-1}", and a sparse text format with
lines "label idx:val ..." (1-based, strictly ascending indices) plus an
optional leading "#dim N" line. A non-finite feature value (nan, inf,
or a number such as 1e400 that overflows) is a ParseError naming its line.
Dense CSV is parsed numpy-first: a plain body is read by one block reader,
_plain_blocks, which load_dense_csv runs over blocks of _BLOCK_ROWS lines
and `hfa predict` over its scoring blocks.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ParseError",
    "Dataset",
    "SyntheticSpec",
    "load_dense_csv",
    "save_dense_csv",
    "load_sparse",
    "sample_protocol",
    "generate_synthetic",
    "standardize_fit",
    "standardize_apply",
    "standardize_pair",
]


class ParseError(ValueError):
    """Malformed dataset file, or an input text file that is not UTF-8;
    message carries path and line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature rows X and one integer label per row; which domain they are
    is fixed by the argument a Dataset is passed as."""

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

    def class_counts(self) -> dict[int, int]:
        labels, counts = np.unique(self.y, return_counts=True)
        return {int(c): int(k) for c, k in zip(labels, counts)}

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.X[idx], self.y[idx])

    def binary_view(self, positive_class: int) -> "Dataset":
        """Relabel as +1 for positive_class, -1 for everything else."""
        y = np.where(self.y == positive_class, 1, -1)
        return Dataset(self.X, y)


@contextmanager
def _name_bad_utf8_line(path):
    """Turn a UnicodeDecodeError raised in the block into a ParseError at the
    first line of path (split at \\n, \\r and \\r\\n) that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        lines = Path(path).read_bytes().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, lineno, f"byte {exc.start + 1} is not UTF-8 text ({exc.reason})") from None
        raise


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


# The bytes of a plain body: on number characters and line ends numpy's
# number parsing and Python's float() and int() accept the same fields with
# the same values (compared token by token). Any other byte, such as a quote,
# an underscore, a letter of "nan", a Unicode space or a byte that is not
# UTF-8, sends the file to the per-line parser.
_PLAIN_BYTES = b"0123456789+-.eE,\t \r\n"


# rows per numpy call of load_dense_csv: a block of lines and its parsed
# rows stay small beside X
_BLOCK_ROWS = 256


def load_dense_csv(path) -> Dataset:
    """Read a dense CSV dataset; see module docstring for the format.

    The accepted files, their values and every error are those of the
    per-line parser, _load_dense_csv_lines; parsing is numpy-first. After
    the header check, a body made only of plain number bytes, with no
    line longer than csv's field limit, is parsed by _plain_blocks in
    blocks of _BLOCK_ROWS lines into one C-contiguous X, sized from the
    line count. Any other body, and any body _plain_blocks gives up on,
    is parsed line by line.
    """
    path = Path(path)
    dim = _dense_csv_dim(path)
    lines = _plain_body_lines(path) if dim is not None else None
    if lines is None:
        return _load_dense_csv_lines(path)
    X, y = np.empty((lines, dim)), np.empty(lines, dtype=np.int64)
    bounds = [(start, min(start + _BLOCK_ROWS, lines)) for start in range(0, lines, _BLOCK_ROWS)]
    try:
        for start, X_block, y_block in _plain_blocks(path, dim, bounds):
            X[start : start + len(y_block)], y[start : start + len(y_block)] = X_block, y_block
    except _NotPlain:
        return _load_dense_csv_lines(path)
    return Dataset(X, y)


def _dense_csv_dim(path) -> int | None:
    """The feature count a dense CSV's header declares (ParseError if the
    header is malformed), or None if the file's first bytes are not UTF-8:
    the per-line parser may meet a bad row before the bad byte."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _dense_header(path, csv.reader(fh))
    except UnicodeDecodeError:
        return None


def _plain_body_lines(path) -> int | None:
    """Number of lines after the header line, or None if the body has a byte
    outside _PLAIN_BYTES or a line longer than csv's field limit.

    The file is read 64 KB at a time. A header _dense_header accepts is one
    line, and bytes.splitlines splits where text mode with newline="" does,
    at \\n, \\r and \\r\\n; the last line of each read is held back, since
    the next read may continue it.
    """
    limit = csv.field_size_limit()
    lines, rest, header = 0, b"", True
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 16)
            rows = (rest + chunk).splitlines(keepends=True)
            rest = rows.pop() if chunk and rows else b""
            if header and rows:
                del rows[0]
                header = False
            if len(rest) > limit or b"".join(rows).translate(None, _PLAIN_BYTES) \
                    or max(map(len, rows), default=0) > limit:
                return None
            lines += len(rows)
            if not chunk:
                return lines


class _NotPlain(Exception):
    """A block of a dense CSV body that numpy would not read as the per-line parser does."""


def _plain_blocks(path, dim: int, bounds):
    """Yield (start, X, y) for each (start, stop) of bounds, which split the
    lines after a dim-feature header in order, as np.loadtxt parses them:
    X C-contiguous, y int64. The body must be one _plain_body_lines counted.

    Raises _NotPlain at the first block numpy rejects or warns on, or reads
    other than the per-line parser would: numpy skips blank lines, so its
    row count differs from the line count, reads negative labels, and reads
    1e400 as inf. Also raises it after the last block if lines remain.
    """
    row = [("y", np.int64), ("X", np.float64, (dim,))]
    with open(path, encoding="utf-8") as fh:
        next(fh)  # the header
        for start, stop in bounds:
            block = list(itertools.islice(fh, stop - start))
            try:
                with warnings.catch_warnings():  # not held across the yield
                    warnings.simplefilter("error")
                    body = np.loadtxt(block, delimiter=",", comments=None, dtype=row, ndmin=1) \
                        if block else np.empty(0, dtype=row)
            except (ValueError, Warning):
                raise _NotPlain from None
            X, y = np.ascontiguousarray(body["X"]), body["y"].copy()
            del block, body  # before the caller reads the next block
            if len(y) != stop - start or (len(y) and y.min() < 0) or not np.isfinite(X).all():
                raise _NotPlain
            yield start, X, y
        if next(fh, None) is not None:
            raise _NotPlain


def _load_dense_csv_lines(path) -> Dataset:
    """The per-line dense CSV parser: csv.reader and one float() per value."""
    path = Path(path)
    with _name_bad_utf8_line(path), open(path, newline="", encoding="utf-8") as fh:
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
            for tok, value in zip(row[1:], values):
                if not math.isfinite(value):
                    raise ParseError(path, line, f"non-finite feature value {tok!r}")
            labels.append(label)
            rows.append(values)
    X = np.array(rows, dtype=float) if rows else np.empty((0, dim))
    return Dataset(X, np.array(labels, dtype=np.int64))


def save_dense_csv(dataset: Dataset, path) -> None:
    """Write the dense CSV format as csv.writer would (CRLF line ends, no
    field needs quoting); floats use shortest round-trip repr."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["label"] + [f"f{i}" for i in range(dataset.dim)]) + "\r\n")
        for label, row in zip(dataset.y.tolist(), dataset.X.tolist()):
            fh.write(",".join(map(repr, [label] + row)) + "\r\n")


def load_sparse(path) -> Dataset:
    """Read the sparse "label idx:val ..." format into dense vectors."""
    path = Path(path)
    declared_dim: int | None = None
    labels: list[int] = []
    entries: list[list[tuple[int, float]]] = []
    max_index = 0
    with _name_bad_utf8_line(path), open(path, encoding="utf-8") as fh:
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
                if not math.isfinite(val):
                    raise ParseError(path, lineno, f"non-finite feature value in {tok!r}")
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
    return Dataset(X, np.array(labels, dtype=np.int64))


def sample_protocol(dataset: Dataset, per_class: int, seed: int) -> tuple[Dataset, Dataset]:
    """Draw per_class training samples per class without replacement.

    Returns (train, rest) with original row order preserved inside each
    part; deterministic in seed.
    """
    if per_class < 1:
        raise ValueError("per_class must be positive")
    rng = np.random.default_rng(seed)
    picks = []
    for c in dataset.class_counts():
        idx = np.flatnonzero(dataset.y == c)
        if idx.size < per_class:
            raise ValueError(f"class {c} has {idx.size} samples, needs {per_class}")
        picks.append(rng.choice(idx, size=per_class, replace=False))
    train_idx = np.sort(np.concatenate(picks))
    mask = np.zeros(len(dataset), dtype=bool)
    mask[train_idx] = True
    return dataset.subset(train_idx), dataset.subset(np.flatnonzero(~mask))


# the generator's latent geometry, the same for every SyntheticSpec (see its docstring)
_CLASS_SEP = 4.5
_PAIR_SPLIT = 1.4
_WITHIN_PAIR_STD = 0.6
_NUISANCE_STD = 3.0
_NOISE_STD = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Sizes and seed of the shared-latent two-domain generator.

    Fixed random injective maps take one latent space (latent_dim
    coordinates) into d_s source and d_t target features, so both domains
    share the class structure. Its geometry is fixed by the module
    constants: classes come in pairs, each pair sharing an anchor at
    radius _CLASS_SEP in latent coordinates 0-1, its members at
    +-_PAIR_SPLIT along coordinate 2 with spread _WITHIN_PAIR_STD there;
    an odd class out sits at the origin. Further coordinates carry
    class-independent spread _NUISANCE_STD, so a small sample must model
    them before it can resolve the pair axis, which a larger auxiliary
    sample helps with. Every feature adds noise of spread _NOISE_STD.
    Each domain draws source_per_class or target_per_class samples of
    each of num_classes classes; seed fixes every draw.
    """

    latent_dim: int = 5
    num_classes: int = 6
    d_s: int = 30
    d_t: int = 20
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.source_per_class < 1 or self.target_per_class < 1:
            raise ValueError("per-class counts must be positive")


def _latent_layout(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Class means and per-coordinate latent deviations for a spec."""
    means = np.zeros((spec.num_classes, spec.latent_dim))
    anchors = spec.num_classes // 2
    for a in range(anchors):
        angle = 2.0 * np.pi * a / anchors
        anchor = _CLASS_SEP * np.array([np.cos(angle), np.sin(angle)])
        means[2 * a, :2] = anchor
        means[2 * a + 1, :2] = anchor
        means[2 * a, 2] = _PAIR_SPLIT
        means[2 * a + 1, 2] = -_PAIR_SPLIT
    # odd class count: the leftover class sits alone at the origin
    sds = np.ones(spec.latent_dim)
    sds[2] = _WITHIN_PAIR_STD
    sds[3:] = _NUISANCE_STD
    return means, sds


def _draw_domain(rng, means, sds, A, per_class) -> Dataset:
    num_classes, latent = means.shape
    y = np.repeat(np.arange(num_classes), per_class)
    z = means[y] + sds * rng.standard_normal((y.size, latent))
    X = z @ A.T + _NOISE_STD * rng.standard_normal((y.size, A.shape[0]))
    order = rng.permutation(y.size)
    return Dataset(X[order], y[order])


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
    source = _draw_domain(rng, means, sds, A_s, spec.source_per_class)
    target = _draw_domain(rng, means, sds, A_t, spec.target_per_class)
    return source, target


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and scale from training rows. A constant column
    (max == min) gets its value as mean and scale 1, so it maps to 0 in every
    row; any other scale below 1e-12 becomes 1."""
    X = np.asarray(X, dtype=float)
    # std squares deviations, so it overflows above about 1e154: such columns are measured
    # in units of their largest |x|, the others keep their bits; an overflowing mean stays non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        mean, scale = X.mean(axis=0), X.std(axis=0)
    big = np.isinf(scale)
    if big.any():
        peak = np.max(np.abs(X[:, big]), axis=0)
        scale[big] = (X[:, big] / peak).std(axis=0) * peak
    scale = np.where(scale < 1e-12, 1.0, scale)
    # the mean of a constant column is off by its rounding error, which the
    # absolute floor above can keep or even blow up
    if X.shape[0]:
        constant = X.max(axis=0) == X.min(axis=0)
        mean[constant] = X[0, constant]
        scale[constant] = 1.0
    return mean, scale


def standardize_apply(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=float) - mean) / scale


def standardize_pair(source: Dataset, target: Dataset) -> tuple[Dataset, Dataset, np.ndarray, np.ndarray]:
    """Each domain z-scored with its own standardize_fit; returns both, then
    the target's mean and scale, which map further target rows. A feature
    that does not standardize to finite values (its mean overflows, say)
    fails with one ValueError naming its domain and index."""
    fitted = []
    for domain, data in (("source", source), ("target", target)):
        mean, scale = standardize_fit(data.X)
        with np.errstate(over="ignore", invalid="ignore"):
            Z = standardize_apply(data.X, mean, scale)
        finite = np.isfinite(Z).all(axis=0)
        if not finite.all():
            raise ValueError(f"{domain} feature {int(np.argmin(finite))} overflows standardization: rescale it")
        fitted.append((Z, mean, scale))
    (Zs, _, _), (Zt, mean_t, scale_t) = fitted
    return Dataset(Zs, source.y), Dataset(Zt, target.y), mean_t, scale_t
