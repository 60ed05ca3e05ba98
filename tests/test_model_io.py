"""Round-trip and format-validation tests for model persistence."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfa.core import HfaConfig, KernelExpansion, hfa_train
from hfa.data import Dataset, SyntheticSpec, generate_synthetic
from hfa.evaluate import decision_matrix, train_multiclass
from hfa.linalg import KernelSpec
from hfa.model_io import ModelFormatError, load_model_set, save_model_set


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    source = Dataset(rng.standard_normal((12, 6)),
                     np.where(rng.standard_normal(12) > 0, 1, -1))
    target = Dataset(rng.standard_normal((7, 4)),
                     np.where(rng.standard_normal(7) > 0, 1, -1))
    if abs(int(np.sum(source.y)) + int(np.sum(target.y))) == 19:
        return small_model(seed + 100)
    return hfa_train(source, target, HfaConfig(t_max=5))


def small_set(kernel_family="rbf"):
    spec = SyntheticSpec(latent_dim=3, num_classes=3, d_s=8, d_t=6,
                         source_per_class=8, target_per_class=4, seed=2)
    source, target = generate_synthetic(spec)
    return target, train_multiclass(source, target, HfaConfig(t_max=3, kernel_family=kernel_family))


def edit_record(path, edit):
    record = json.loads(path.read_text(encoding="utf-8"))
    edit(record)
    path.write_text(json.dumps(record), encoding="utf-8")


def count_floats(value) -> int:
    if isinstance(value, float):
        return 1
    if isinstance(value, list):
        return sum(count_floats(v) for v in value)
    if isinstance(value, dict):
        return sum(count_floats(v) for v in value.values())
    return 0


def _set_file(tmp_path):
    _, models = small_set()
    path = tmp_path / "set.json"
    save_model_set(models, path)
    return path


def _rejected(path, *fragments):
    with pytest.raises(ModelFormatError) as info:
        load_model_set(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    for fragment in fragments:
        assert fragment in message


def test_single_model_round_trip_exact(tmp_path):
    # one binary model is saved as a set of one class
    model = small_model()
    path = tmp_path / "model.json"
    save_model_set([(1, model)], path)
    loaded_set = load_model_set(path)
    assert loaded_set.classes == [1]
    loaded = loaded_set.models[0][1]
    assert isinstance(loaded, KernelExpansion)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, loaded.dim))
    a = model.decision_function(X)
    b = loaded.decision_function(X)
    assert np.array_equal(a, b)  # exact float reproduction, stronger than 1e-12
    assert np.max(np.abs(a - b)) <= 1e-12
    assert np.array_equal(loaded.coef, model.coef)
    assert loaded.bias == model.bias
    assert np.array_equal(loaded.X, model.X)
    assert loaded.kernel == model.kernel
    # a reloaded set saves back to the same bytes
    again = tmp_path / "again.json"
    save_model_set(loaded_set.models, again, loaded_set.metadata)
    assert again.read_bytes() == path.read_bytes()


def test_trained_model_is_its_expansion(tmp_path):
    # a trained HfaModel saves and scores as the plain expansion of its four fields
    target, models = small_set()
    plain = [(c, KernelExpansion(m.X, m.kernel, m.coef, m.bias)) for c, m in models]
    assert all(isinstance(m, KernelExpansion) for _, m in models)
    save_model_set(models, tmp_path / "trained.json")
    save_model_set(plain, tmp_path / "plain.json")
    assert (tmp_path / "trained.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    X = np.random.default_rng(3).standard_normal((10, target.dim))
    assert np.array_equal(decision_matrix(models, X)[1], decision_matrix(plain, X)[1])
    for (_, m), (_, e) in zip(models, plain):
        assert np.array_equal(m.decision_function(X), e.decision_function(X))


def test_model_set_bytes_match_json_dump(tmp_path):
    # the file holds what json.dump writes for its record, plus a newline
    _, models = small_set()
    path = tmp_path / "set.json"
    save_model_set(models, path, metadata={"note": "fixture"})
    want = io.StringIO()
    json.dump(json.loads(path.read_text(encoding="utf-8")), want)
    assert path.read_bytes() == (want.getvalue() + "\n").encode("utf-8")


def test_model_set_round_trip(tmp_path):
    target, models = small_set()
    path = tmp_path / "set.json"
    save_model_set(models, path, metadata={"note": "fixture"})
    loaded = load_model_set(path)
    assert loaded.classes == [0, 1, 2]
    assert loaded.metadata == {"note": "fixture"}
    X = np.random.default_rng(7).standard_normal((11, target.dim))
    shared = loaded.models[0][1].X
    for (c0, m0), (c1, m1) in zip(models, loaded.models):
        assert c0 == c1
        assert np.array_equal(m0.decision_function(X), m1.decision_function(X))
        assert np.array_equal(m1.coef, m0.coef)
        assert m1.bias == m0.bias
        assert np.array_equal(m1.X, m0.X)
        assert m1.X is shared  # one X_t array serves every class
        assert m1.coef.flags.c_contiguous


def per_model_columns(models, X) -> np.ndarray:
    """decision_function of each model, stacked as columns in class order."""
    return np.column_stack([m.decision_function(X) for _, m in sorted(models, key=lambda cm: cm[0])])


@st.composite
def expansion_sets(draw):
    """A one-vs-rest set of 2-6 expansions sharing one X_t, query rows,
    and a generator for the mixed lists built from it."""
    n_t, d_t, k = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = draw(st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", 0.05), KernelSpec("rbf", 1.7)]))
    X_t = rng.standard_normal((n_t, d_t))
    labels = rng.permutation(10)[:k].tolist()  # distinct, not in ascending order
    models = [(c, KernelExpansion(X_t, kernel, rng.standard_normal(n_t), float(rng.standard_normal())))
              for c in labels]
    return models, rng.standard_normal((int(rng.integers(1, 30)), d_t)), rng


@settings(max_examples=60, deadline=None)
@given(drawn=expansion_sets())
def test_reloaded_set_scores_exactly(tmp_path_factory, drawn):
    models, query, rng = drawn
    path = tmp_path_factory.mktemp("set") / "set.json"
    save_model_set(models, path)
    loaded = load_model_set(path)
    classes, scores = decision_matrix(models, query)
    assert np.array_equal(classes, sorted(c for c, _ in models))
    # one shared kernel block gives the per-model products bit for bit
    assert np.array_equal(scores, per_model_columns(models, query))
    loaded_classes, loaded_scores = decision_matrix(list(loaded.models), query)
    assert np.array_equal(loaded_classes, classes) and np.array_equal(loaded_scores, scores)
    again = path.with_name("again.json")
    save_model_set(loaded.models, again, loaded.metadata)
    assert again.read_bytes() == path.read_bytes()
    # a single 1-D row and zero rows
    assert np.array_equal(decision_matrix(models, query[0])[1], per_model_columns(models, query[0]))
    empty = decision_matrix(models, query[:0])[1]
    assert empty.shape == (0, len(models)) and np.array_equal(empty, per_model_columns(models, query[:0]))
    # mixed lists: a copy of X_t (equal values, another array) scores as the
    # set does; other rows or another kernel make it no one-vs-rest set
    X_t, kernel = models[0][1].X, models[0][1].kernel
    variants = [(X_t.copy(), kernel), (rng.standard_normal(X_t.shape), kernel),
                (X_t, KernelSpec("rbf", 0.3) if kernel.family == "linear" else KernelSpec("linear"))]
    for v, variant in enumerate(variants):
        mixed = [(c, KernelExpansion(*variant, m.coef, m.bias) if i % 2 else m) for i, (c, m) in enumerate(models)]
        if v == 0:
            assert np.array_equal(decision_matrix(mixed, query)[1], scores)
        else:
            with pytest.raises(ValueError, match="share the target rows and kernel"):
                decision_matrix(mixed, query)


@pytest.mark.parametrize("family", ["rbf", "linear"])
def test_model_set_file_holds_only_the_expansion(tmp_path, family):
    target, models = small_set(family)
    path = tmp_path / "set.json"
    save_model_set(models, path)
    record = json.loads(path.read_text(encoding="utf-8"))
    for stale in ("metric", "ks_sqrt", "kt_sqrt", "kt_inv_sqrt", "source", "models"):
        assert stale not in record
    n_t, d_t, k = len(target), target.dim, len(models)
    # X_t, one coef row and one bias per class, and the RBF bandwidth:
    # nothing of order n^2 is stored
    assert count_floats(record) == n_t * d_t + k * n_t + k + (family == "rbf")


def test_model_set_default_metadata(tmp_path):
    model = small_model()
    path = tmp_path / "set.json"
    save_model_set([(0, model)], path)
    assert load_model_set(path).metadata == {}


def test_model_set_needs_shared_target_rows(tmp_path):
    a, b = small_model(0), small_model(1)
    with pytest.raises(ValueError, match="share the target rows"):
        save_model_set([(0, a), (1, b)], tmp_path / "set.json")
    with pytest.raises(ValueError, match="at least one model"):
        save_model_set([], tmp_path / "set.json")


def test_wrong_format_tag(tmp_path):
    path = tmp_path / "set.json"
    save_model_set([(0, small_model())], path)
    for tag in ("hfa-models", None):
        edit_record(path, lambda r: r.update(format=tag))
        _rejected(path, "expected format 'hfa-model-set'", f"got {tag!r}")


def test_single_model_format_rejected(tmp_path):
    # the retired one-model record: kernel, X_t, a coef vector and a scalar bias
    e = small_model()
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "format": "hfa-model", "version": 2,
        "kernel": {"family": e.kernel.family, "gamma": e.kernel.gamma},
        "X_t": e.X.tolist(), "coef": e.coef.tolist(), "bias": e.bias,
    }), encoding="utf-8")
    _rejected(path, "expected format 'hfa-model-set'", "got 'hfa-model'")


@pytest.mark.parametrize("version", [1, 3, None, "2"])
def test_other_versions_rejected(tmp_path, version):
    path = tmp_path / "set.json"
    save_model_set([(0, small_model())], path)
    edit_record(path, lambda r: r.update(version=version))
    with pytest.raises(ModelFormatError) as info:
        load_model_set(path)
    message = str(info.value)
    assert str(path) in message
    assert f"version {version!r}" in message
    assert "retrain with `hfa train`" in message


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model_set(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="JSON object"):
        load_model_set(path)


def test_missing_field(tmp_path):
    path = tmp_path / "set.json"
    save_model_set([(0, small_model())], path)
    edit_record(path, lambda r: r.pop("coef"))
    with pytest.raises(ModelFormatError, match="coef"):
        load_model_set(path)


def test_set_length_mismatch_and_empty(tmp_path):
    model = small_model()
    path = tmp_path / "set.json"
    save_model_set([(0, model)], path)
    edit_record(path, lambda r: r.update(classes=[0, 1]))
    with pytest.raises(ModelFormatError, match="classes"):
        load_model_set(path)
    edit_record(path, lambda r: r.update(classes=[], coef=[], bias=[]))
    with pytest.raises(ModelFormatError, match="empty"):
        load_model_set(path)


def test_coef_rows_must_match_classes(tmp_path):
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r["coef"].pop())
    _rejected(path, "'coef'", "2 entries", "expected 3")


def test_coef_row_must_match_target_rows(tmp_path):
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r["coef"][1].append(0.5))
    _rejected(path, "'coef[1]'", "X_t row")


def test_bias_must_match_classes(tmp_path):
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r.update(bias=r["bias"][:2]))
    _rejected(path, "'bias'", "2 entries", "expected 3")


@pytest.mark.parametrize("rows, fragment", [
    ([1.0, 2.0], "2-D"),
    ([[[1.0]]], "2-D"),
    ([[1.0, 2.0], [3.0]], "'X_t'"),
    ([[1.0, float("nan")]], "non-finite"),
    ([[1.0, float("inf")]], "non-finite"),
])
def test_X_t_must_be_a_finite_matrix(tmp_path, rows, fragment):
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r.update(X_t=rows))
    _rejected(path, "'X_t'", fragment)


@pytest.mark.parametrize("label", [1.5, True, "1", None])
def test_class_labels_must_be_json_integers(tmp_path, label):
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r["classes"].__setitem__(1, label))
    _rejected(path, "'classes'", f"entry {json.dumps(label)} is not an integer label")


def test_duplicate_class_label_rejected(tmp_path):
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r.update(classes=[2, 0, 2]))
    _rejected(path, "'classes'", "repeats label(s) [2]")


@pytest.mark.parametrize("value", ["0.5", True, None])
@pytest.mark.parametrize("field", ["coef[1]", "bias", "X_t"])
def test_coef_bias_and_rows_must_be_numbers(tmp_path, field, value):
    path = _set_file(tmp_path)

    def edit(record):
        entries = {"coef[1]": record["coef"][1], "bias": record["bias"], "X_t": record["X_t"][2]}[field]
        entries[0] = value

    edit_record(path, edit)
    _rejected(path, f"'{field}'", f"has {json.dumps(value)}, not a number")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("field", ["coef[1]", "bias"])
def test_coef_and_bias_must_be_finite(tmp_path, field, value):
    path = _set_file(tmp_path)

    def edit(record):
        (record["coef"][1] if field == "coef[1]" else record["bias"])[-1] = value

    edit_record(path, edit)
    _rejected(path, f"'{field}'")


def test_unknown_kernel_family(tmp_path):
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r["kernel"].update(family="poly"))
    _rejected(path, "'kernel'", "unknown kernel family 'poly'")


def test_infinite_kernel_gamma_rejected(tmp_path):
    # json reads the literal Infinity, and an rbf kernel of infinite gamma
    # would score NaN or the bare bias
    path = _set_file(tmp_path)
    edit_record(path, lambda r: r["kernel"].update(gamma=float("inf")))
    assert '"gamma": Infinity' in path.read_text(encoding="utf-8")
    _rejected(path, "'kernel'", "gamma > 0 and finite")


def test_file_is_plain_text_with_named_arrays(tmp_path):
    path = tmp_path / "set.json"
    save_model_set([(0, small_model())], path)
    text = path.read_text(encoding="utf-8")
    for name in ("X_t", "kernel", "coef", "bias"):
        assert f'"{name}"' in text
