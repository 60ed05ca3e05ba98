"""Dataset containers, file formats, PCA, splits and the generator."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfa.data import (
    Dataset,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    load_dense_csv,
    load_sparse,
    sample_protocol,
    save_dense_csv,
    standardize_apply,
    standardize_fit,
    standardize_pair,
)
from hfa.data import _load_dense_csv_lines  # the per-line fallback, the oracle here
from pca import pca_fit_transform  # demos/pca.py


def small_dataset():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    return Dataset(X, np.array([0, 1, 1, 2]))


# ---------------------------------------------------------------- Dataset


def test_dataset_basic_accessors():
    ds = small_dataset()
    assert len(ds) == 4
    assert ds.dim == 2
    assert ds.class_counts() == {0: 1, 1: 2, 2: 1}


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]))


def test_dataset_subset_and_binary_view():
    ds = small_dataset()
    sub = ds.subset([2, 0])
    assert np.array_equal(sub.X, ds.X[[2, 0]])
    assert list(sub.y) == [1, 0]
    bv = ds.binary_view(1)
    assert list(bv.y) == [-1, 1, 1, -1]
    assert np.array_equal(bv.X, ds.X)


# ---------------------------------------------------------------- dense CSV


def test_dense_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ds = Dataset(rng.standard_normal((13, 5)), rng.integers(0, 4, size=13))
    path = tmp_path / "rt.csv"
    save_dense_csv(ds, path)
    back = load_dense_csv(path)
    # repr round-trips doubles exactly
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_dense_csv_bytes_match_csv_writer(tmp_path):
    # save_dense_csv writes what csv.writer's default dialect writes for the
    # same fields, on signed zeros, tiny, huge and subnormal floats and
    # labels up to the int64 limit
    X = np.array([[-0.0, 1e-300, 1e16], [5e-324, -1.7976931348623157e308, 0.1], [1.0, -2.5, 3e-7]])
    y = np.array([0, 2**63 - 1, 123456789012])
    path = tmp_path / "w.csv"
    save_dense_csv(Dataset(X, y), path)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["label", "f0", "f1", "f2"])
    for label, row in zip(y, X):
        writer.writerow([int(label)] + [repr(float(v)) for v in row])
    assert path.read_bytes() == want.getvalue().encode("utf-8")
    assert b"-0.0,1e-300,1e+16\r\n" in path.read_bytes()


def test_dense_csv_header_only_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,f0,f1,f2\n")
    ds = load_dense_csv(path)
    assert len(ds) == 0
    assert ds.dim == 3


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "empty file"),
        ("label\n", 1, "header"),
        ("x,f0\n", 1, "header"),
        ("label,f1,f0\n", 1, "f0..f1"),
        ("label,f0\n1,2,3\n", 2, "expected 2 fields"),
        ("label,f0\nabc,2\n", 2, "not an integer"),
        ("label,f0\n-1,2\n", 2, "negative label"),
        ("label,f0\n1,two\n", 2, "non-numeric"),
        # non-finite values: numpy reads 1e400 as inf and hands the file to
        # the per-line parser, which names the value; nan is not plain bytes
        ("label,f0\n1,2\n1,1e400\n", 3, "non-finite feature value '1e400'"),
        pytest.param("label,f0\n" + "1,2\n" * 300 + "1,-1e400\n", 302, "non-finite feature value '-1e400'",
                     id="-1e400 in the second block"),
        ("label,f0,f1\n1,2,3\n1,4,nan\n", 3, "non-finite feature value 'nan'"),
    ],
)
def test_dense_csv_errors_name_the_line(tmp_path, text, line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_dense_csv(path)
    assert err.value.line == line
    assert fragment in str(err.value)
    assert str(path) in str(err.value)


# Tokens the two dense CSV parsers may read differently: numpy rejects
# quoted fields, "1_0" and "0x10", strips "\x1c", skips blank lines and
# reads "-1", where the per-line parser reads quoted fields and "1_0" and
# refuses "\x1c", blank lines and negative labels; the rest parse or fail
# the same in both.
ODD_LABELS = ["-1", "3.0", "+3", " 3", "99999999999999999999", '"2"', "-0", ""]
ODD_VALUES = ['"1.5"', "1_0", "nan", "1e400", "0x10", "-0.0", " 2.5 ", "inf", "", "x", "2\x1c", "2\u2003"]
ODD_LINES = [" ", "\t", "  \t "]


@st.composite
def dense_csv_texts(draw):
    """Dense CSV text: valid rows, then 0-2 faults from the tokens above."""
    dim = draw(st.integers(1, 3))
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = [
        ",".join([str(draw(st.integers(0, 5)))] + [draw(floats) for _ in range(dim)])
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["blank", "whitespace", "label", "value", "fields"]))
        at = draw(st.integers(0, len(lines)))
        if fault in ("blank", "whitespace") or not lines:
            lines.insert(at, "" if fault == "blank" else draw(st.sampled_from(ODD_LINES)))
            continue
        at = min(at, len(lines) - 1)
        fields = lines[at].split(",")
        if fault == "label":
            fields[0] = draw(st.sampled_from(ODD_LABELS))
        elif fault == "value" and len(fields) > 1:
            fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(ODD_VALUES))
        else:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
        lines[at] = ",".join(fields)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([",".join(["label"] + [f"f{i}" for i in range(dim)])] + lines)
    return text + newline if draw(st.booleans()) else text


def _dense_outcome(load, path):
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _assert_parsers_agree(path):
    """load_dense_csv gives the per-line parser's X and y bits, or the same
    exception type, message and (for a ParseError) line."""
    fast, lines = _dense_outcome(load_dense_csv, path), _dense_outcome(_load_dense_csv_lines, path)
    if isinstance(lines, Dataset):
        assert isinstance(fast, Dataset), fast
        assert fast.X.shape == lines.X.shape
        assert fast.X.tobytes() == lines.X.tobytes()  # bits, so -0.0 differs from 0.0
        assert fast.y.dtype == lines.y.dtype and fast.y.tobytes() == lines.y.tobytes()
        assert fast.X.flags.c_contiguous
    else:
        assert fast == lines


@settings(max_examples=300, deadline=None)
@given(text=dense_csv_texts())
def test_dense_csv_agrees_with_per_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_parsers_agree(path)


@pytest.mark.parametrize(
    "text",
    [
        "label,f0\n1,2\n\n3,4\n",  # blank line inside
        "label,f0\n1,2\n3,4\n\n",  # blank line at the end
        "label,f0\r\n1,2\r\n\r\n3,4",  # blank CRLF line, no final newline
        "label,f0\n1,2\n-1,4\n",  # negative label
        "label,f0\n1,2\n2,1_0\n",  # float() reads 1_0, numpy does not
        'label,f0\n"1",2\n',  # quoted field
        "label,f0\n1,2\x1c\n",  # numpy strips the separator character, float() does not
        "label,f0\n1,0." + "0" * 131072 + "1\n",  # numpy reads it, csv refuses a field this long
        b"label,f0\n-1,2\n" + b"1,2\n" * 5000 + b"\xff\n",  # a bad row, then a byte that is not UTF-8
        "label,f0\n",  # header only
        "label,f0,f1",  # header only, no final newline
        "label,f0,f1\r\n",  # header only, CRLF
        "label,f0\n" + "1,2\n" * 300 + "\n3,4\n",  # a blank line in the second block of rows
        "label,f0\n" + "1,2\n" * 300 + "-1,4\n",  # a negative label in the second block
        "label,f0\n" + "1,2\n" * 512,  # two whole blocks
    ],
)
def test_dense_csv_where_numpy_and_per_line_parser_differ(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    _assert_parsers_agree(path)


def test_dense_csv_load_holds_one_copy_of_the_rows(tmp_path):
    # numpy parses the body in row blocks straight into X: the load's traced
    # peak stays well under two copies of the rows (numpy's (label, row)
    # records and X at once came to 2.2 X.nbytes)
    rng = np.random.default_rng(24)
    data = Dataset(rng.standard_normal((6000, 20)), rng.integers(0, 6, 6000))
    path = tmp_path / "query.csv"
    save_dense_csv(data, path)
    tracemalloc.start()
    try:
        loaded = load_dense_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.X, data.X) and np.array_equal(loaded.y, data.y)
    assert peak <= 1.5 * loaded.X.nbytes


# ---------------------------------------------------------------- sparse


def test_sparse_matches_dense_oracle(tmp_path):
    dense = np.array(
        [
            [0.0, 1.5, 0.0, -2.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 0.0, 0.0, 0.25],
        ]
    )
    labels = [2, 0, 1]
    path = tmp_path / "s.txt"
    path.write_text("#dim 4\n2 2:1.5 4:-2.0\n0\n1 1:3.0 4:0.25\n")
    ds = load_sparse(path)
    assert np.array_equal(ds.X, dense)
    assert list(ds.y) == labels


def test_sparse_infers_dimension_from_largest_index(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1 3:2.0\n0 5:1.0\n")
    ds = load_sparse(path)
    assert ds.dim == 5
    assert ds.X[0, 2] == 2.0
    assert ds.X[1, 4] == 1.0


def test_sparse_skips_blank_lines(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("#dim 2\n\n1 1:1.0\n\n\n0 2:2.0\n")
    ds = load_sparse(path)
    assert len(ds) == 2


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("1 0:2.0\n", 1, "1-based"),
        ("1 2:1.0 2:3.0\n", 1, "ascend"),
        ("1 3:1.0 2:3.0\n", 1, "ascend"),
        ("#dim 2\n1 3:1.0\n", 2, "exceeds declared dimension"),
        ("1 nocolon\n", 1, "idx:val"),
        ("1 a:b\n", 1, "bad entry"),
        ("abc 1:1.0\n", 1, "not an integer"),
        ("-4 1:1.0\n", 1, "negative label"),
        ("#dim x\n", 1, "bad dimension"),
        ("#dim 0\n", 1, "positive"),
        ("1 1:1.0\n#dim 5\n", 2, "unknown directive"),
        ("#wat\n", 1, "unknown directive"),
        ("1\n", 1, "no dimension"),
        ("1 1:2.0\n2 1:1.0 2:1e400\n", 2, "non-finite feature value in '2:1e400'"),
        ("1 1:inf\n", 1, "non-finite feature value in '1:inf'"),
    ],
)
def test_sparse_errors_name_the_line(tmp_path, text, line, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_sparse(path)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "loader,data,line,column",
    [
        (load_dense_csv, b"label,f\xff0\n1,2\n", 1, 8),
        (load_dense_csv, b"label,f0\r\n1,2\r\n1,\xe92\r\n", 3, 3),
        # far past the first read of the header check and the plain-body scan
        pytest.param(load_dense_csv, b"label,f0\n" + b"1,2\n" * 30000 + b"1,2\xff\n", 30002, 4,
                     id="dense past 64 KB"),
        (load_sparse, b"1 1:2\r1 1:\xe2\x82\n", 2, 5),
        (load_sparse, b"\xfe1 1:2\n", 1, 1),
    ],
)
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, loader, data, line, column):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}: byte {column} is not UTF-8 text (")


SPARSE_BLANKS = ["", " ", "\t", "  \t "]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sparse_files(draw):
    """A matrix with zeros and its labels written as "label idx:val" lines,
    with or without a "#dim" header and with blank lines after any header;
    returns (text, X as it must load or None for no dimension, y)."""
    rows, dim = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    values = st.one_of(st.just(0.0), st.just(-0.0), FINITE)
    X = np.array([[draw(values) for _ in range(dim)] for _ in range(rows)]).reshape(rows, dim)
    y = np.array([draw(st.integers(0, 10**6)) for _ in range(rows)], dtype=np.int64)
    # every value whose bits are not those of +0.0 is written, so -0.0 survives
    written = (X != 0) | np.signbit(X)
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    lines = [
        sep.join([str(label)] + [f"{j + 1}:{float(x)!r}" for j, x in enumerate(row) if w[j]])
        for label, row, w in zip(y, X, written)
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(SPARSE_BLANKS)))
    if draw(st.booleans()):
        lines.insert(0, f"#dim {dim}")
    else:
        # without a header the dimension is the largest index written
        used = np.flatnonzero(written.any(axis=0))
        X = X[:, : used[-1] + 1] if used.size else None
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else ""), X, y


@settings(max_examples=200, deadline=None)
@given(case=sparse_files())
def test_sparse_round_trip(tmp_path_factory, case):
    text, X, y = case
    path = tmp_path_factory.mktemp("sparse") / "data.txt"
    path.write_bytes(text.encode("utf-8"))
    if X is None:
        with pytest.raises(ParseError, match="no dimension") as err:
            load_sparse(path)
        assert err.value.line == 1
        return
    ds = load_sparse(path)
    assert ds.X.shape == X.shape and ds.X.tobytes() == X.tobytes()  # bits, so -0.0 differs from 0.0
    assert ds.y.dtype == y.dtype and ds.y.tobytes() == y.tobytes()


# fault -> fragment of its ParseError message
SPARSE_FAULTS = {
    "index 0": "1-based",
    "descending index": "ascend",
    "repeated index": "ascend",
    "index above dim": "exceeds declared dimension",
    "no colon": "idx:val",
    "negative label": "negative label",
    "non-integer label": "not an integer",
    "unknown directive": "unknown directive",
}


@st.composite
def sparse_files_with_a_fault(draw):
    """Valid "label idx:val" lines, blank ones among them, around one faulty
    line; returns (text, the faulty line's 1-based number, fault)."""
    dim = draw(st.integers(2, 6))
    fault = draw(st.sampled_from(sorted(SPARSE_FAULTS)))
    header = fault == "index above dim" or draw(st.booleans())

    def valid_line():
        cols = sorted(draw(st.lists(st.integers(1, dim), unique=True, max_size=dim)))
        return " ".join([str(draw(st.integers(0, 9)))] + [f"{j}:{draw(FINITE)!r}" for j in cols])

    lines = [valid_line() if draw(st.booleans()) else draw(st.sampled_from(SPARSE_BLANKS))
             for _ in range(draw(st.integers(0, 5)))]
    i, j = sorted(draw(st.lists(st.integers(1, dim), min_size=2, max_size=2, unique=True)))
    label, v = draw(st.integers(0, 9)), repr(draw(FINITE))
    # "#dim N" is a header on line 1 only, so it is a fault only after one
    directives = ["wat", "dim", "dim 3 4", "dims 3"] + (["dim 3"] if header else [])
    bad = {
        "index 0": f"{label} 0:{v}",
        "descending index": f"{label} {j}:{v} {i}:{v}",
        "repeated index": f"{label} {i}:{v} {i}:{v}",
        "index above dim": f"{label} {i}:{v} {dim + draw(st.integers(1, 3))}:{v}",
        "no colon": f"{label} {i}:{v} " + draw(st.sampled_from(["3", "3=1.0", "x", "1.5"])),
        "negative label": f"-{draw(st.integers(1, 9))} {i}:{v}",
        "non-integer label": draw(st.sampled_from(["1.5", "x", "2e3", "1/2"])) + f" {i}:{v}",
        "unknown directive": "#" + draw(st.sampled_from(directives)),
    }[fault]
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    lines += [valid_line() for _ in range(draw(st.integers(0, 2)))]
    if header:
        lines.insert(0, f"#dim {dim}")
        at += 1
    return "\n".join(lines) + "\n", at + 1, fault


@settings(max_examples=200, deadline=None)
@given(case=sparse_files_with_a_fault())
def test_sparse_rejects_each_fault_at_its_line(tmp_path_factory, case):
    text, line, fault = case
    path = tmp_path_factory.mktemp("sparse") / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_sparse(path)
    assert err.value.line == line
    assert SPARSE_FAULTS[fault] in str(err.value)


# ---------------------------------------------------------------- PCA


def pca_k_oracle(X, energy):
    """Smallest axis count reaching the energy fraction, by direct search."""
    Xc = X - X.mean(axis=0)
    w = np.linalg.eigvalsh(Xc.T @ Xc / (X.shape[0] - 1))[::-1]
    w = np.where(w > 1e-12 * max(w[0], 0.0), w, 0.0)
    total = w.sum()
    for k in range(1, w.size + 1):
        if w[:k].sum() >= energy * total - 1e-12 * total:
            return k
    return w.size


def test_pca_output_dim_matches_oracle():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n, d = int(rng.integers(5, 40)), int(rng.integers(2, 12))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 4.0, size=d)
        energy = float(rng.uniform(0.3, 1.0))
        ds = Dataset(X, np.zeros(n, dtype=int))
        proj, basis = pca_fit_transform(ds, energy)
        assert proj.dim == pca_k_oracle(X, energy)
        assert basis.retained_energy >= energy - 1e-9


def test_pca_full_energy_keeps_numerical_rank():
    rng = np.random.default_rng(3)
    n, d = 8, 20  # rank limited by samples
    X = rng.standard_normal((n, d))
    proj, _ = pca_fit_transform(Dataset(X, np.zeros(n, dtype=int)), 1.0)
    assert proj.dim == n - 1


def test_pca_projected_covariance_is_diagonal():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 7)) @ rng.standard_normal((7, 7))
    ds = Dataset(X, np.zeros(60, dtype=int))
    proj, basis = pca_fit_transform(ds, 0.95)
    cov = proj.X.T @ proj.X / (len(ds) - 1)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) <= 1e-8 * np.max(np.diag(cov))
    assert np.allclose(np.diag(cov), basis.eigenvalues[: proj.dim], rtol=1e-8)


def test_pca_transform_reproduces_training_projection():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((25, 6))
    ds = Dataset(X, np.zeros(25, dtype=int))
    proj, basis = pca_fit_transform(ds, 0.8)
    assert np.allclose(basis.transform(X), proj.X, atol=1e-12)


def test_pca_flat_data_collapses_to_one_axis():
    X = np.ones((5, 4)) * 2.5
    proj, basis = pca_fit_transform(Dataset(X, np.zeros(5, dtype=int)), 0.9)
    assert proj.dim == 1
    assert np.allclose(proj.X, 0.0)
    assert basis.retained_energy == 1.0


def test_pca_rejects_bad_arguments():
    ds = small_dataset()
    with pytest.raises(ValueError):
        pca_fit_transform(ds, 0.0)
    with pytest.raises(ValueError):
        pca_fit_transform(ds, 1.5)
    with pytest.raises(ValueError):
        pca_fit_transform(ds.subset([0]), 0.9)


# ---------------------------------------------------------------- protocol


def test_protocol_counts_and_partition():
    rng = np.random.default_rng(21)
    y = np.repeat([0, 1, 2], [30, 25, 40])
    ds = Dataset(rng.standard_normal((y.size, 3)), y)
    for seed in range(100):
        train, rest = sample_protocol(ds, 5, seed)
        assert train.class_counts() == {0: 5, 1: 5, 2: 5}
        assert len(train) + len(rest) == len(ds)
        assert rest.class_counts() == {0: 25, 1: 20, 2: 35}


def test_protocol_is_deterministic_in_seed():
    ds = small_dataset()
    big = Dataset(np.tile(ds.X, (10, 1)), np.tile(ds.y, 10))
    a_train, a_rest = sample_protocol(big, 3, 42)
    b_train, b_rest = sample_protocol(big, 3, 42)
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_rest.y, b_rest.y)
    c_train, _ = sample_protocol(big, 3, 43)
    assert not np.array_equal(a_train.X, c_train.X)


def test_protocol_preserves_row_order():
    rng = np.random.default_rng(2)
    X = np.arange(50, dtype=float)[:, None]
    ds = Dataset(X, rng.integers(0, 2, size=50))
    train, rest = sample_protocol(ds, 4, 0)
    assert np.all(np.diff(train.X[:, 0]) > 0)
    assert np.all(np.diff(rest.X[:, 0]) > 0)


def test_protocol_error_names_short_class():
    ds = small_dataset()  # class 0 has one sample
    with pytest.raises(ValueError, match="class 0"):
        sample_protocol(ds, 2, 0)


# ---------------------------------------------------------------- synthetic


def test_synthetic_shapes_and_priors():
    spec = SyntheticSpec(seed=4)
    source, target = generate_synthetic(spec)
    assert source.X.shape == (spec.num_classes * spec.source_per_class, spec.d_s)
    assert target.X.shape == (spec.num_classes * spec.target_per_class, spec.d_t)
    assert source.class_counts() == {c: spec.source_per_class for c in range(spec.num_classes)}
    assert target.class_counts() == {c: spec.target_per_class for c in range(spec.num_classes)}


def test_synthetic_deterministic_in_seed():
    a = generate_synthetic(SyntheticSpec(seed=1))
    b = generate_synthetic(SyntheticSpec(seed=1))
    c = generate_synthetic(SyntheticSpec(seed=2))
    assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].y, b[1].y)
    assert not np.array_equal(a[0].X, c[0].X)


def test_synthetic_rejects_noninjective_maps():
    with pytest.raises(ValueError, match="injective"):
        generate_synthetic(SyntheticSpec(latent_dim=10, d_s=8, d_t=20))


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(num_classes=1)
    with pytest.raises(ValueError):
        SyntheticSpec(source_per_class=0)


# ---------------------------------------------------------------- scaling


def test_standardize_round_trip():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((40, 4)) * [1.0, 5.0, 0.2, 9.0] + [2.0, -3.0, 0.0, 100.0]
    mean, scale = standardize_fit(X)
    Z = standardize_apply(X, mean, scale)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_standardize_constant_feature_maps_to_zero():
    X = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
    mean, scale = standardize_fit(X)
    assert scale[0] == 1.0
    Z = standardize_apply(X, mean, scale)
    assert np.allclose(Z[:, 0], 0.0)


@pytest.mark.parametrize("value", [123456.789, -0.1, 1e200, 1e308])
def test_standardize_constant_column_is_exactly_zero(value):
    # the mean of 11 copies of 123456.789 rounds 1.5e-11 off the value, and
    # the old absolute 1e-12 floor on the scale kept that error: every row
    # read -1. The other column keeps the bits of the plain fit.
    rng = np.random.default_rng(23)
    other = rng.standard_normal(11) * 7.0 + 2.0
    X = np.column_stack([np.full(11, value), other])
    mean, scale = standardize_fit(X)
    assert (mean[0], scale[0]) == (value, 1.0)
    assert np.array_equal(standardize_apply(X, mean, scale)[:, 0], np.zeros(11))
    with np.errstate(over="ignore", invalid="ignore"):
        assert (mean[1], scale[1]) == (X.mean(axis=0)[1], X.std(axis=0)[1])


def test_standardize_pair_scales_each_domain_by_its_own_fit():
    rng = np.random.default_rng(18)
    source = Dataset(rng.standard_normal((9, 3)) * 4.0 + 1.0, np.arange(9) % 2)
    target = Dataset(rng.standard_normal((5, 2)) * [0.5, 30.0], np.arange(5) % 2)
    zs, zt, mean_t, scale_t = standardize_pair(source, target)
    assert np.array_equal(zs.X, standardize_apply(source.X, *standardize_fit(source.X)))
    assert np.array_equal(zt.X, standardize_apply(target.X, mean_t, scale_t))
    for fitted, want in zip((mean_t, scale_t), standardize_fit(target.X)):
        assert np.array_equal(fitted, want)
    assert np.array_equal(zs.y, source.y) and np.array_equal(zt.y, target.y)
