"""End-to-end command-line tests driven through main(argv)."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hfa.core
from hfa.cli import FLAG_KEYS, CliConfig, build_parser, main, resolve_config
from hfa.core import HfaConfig
from hfa.data import Dataset, SyntheticSpec, generate_synthetic, load_dense_csv, sample_protocol, save_dense_csv
from hfa.evaluate import decision_matrix, train_multiclass
from hfa.model_io import load_model_set


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small two-class corpus plus a trained model set, shared read-only."""
    root = tmp_path_factory.mktemp("cli_corpus")
    spec = SyntheticSpec(latent_dim=3, num_classes=2, d_s=10, d_t=8,
                         source_per_class=15, target_per_class=10, seed=1)
    source, target = generate_synthetic(spec)
    save_dense_csv(source, root / "source.csv")
    save_dense_csv(target, root / "target.csv")
    model = root / "model.json"
    code = main(["train", "--source", str(root / "source.csv"),
                 "--target", str(root / "target.csv"), "--out", str(model)])
    assert code == 0
    return root


def test_generate_round_trips(tmp_path):
    out_s = tmp_path / "s.csv"
    out_t = tmp_path / "t.csv"
    args = ["generate", "--source", str(out_s), "--target", str(out_t), "--seed", "3"]
    assert main(args) == 0
    source = load_dense_csv(out_s)
    target = load_dense_csv(out_t)
    assert source.dim == 30 and target.dim == 20  # d_s != d_t honored
    assert len(source) == 600 and len(target) == 300
    first = out_s.read_bytes()
    assert main(args) == 0
    assert out_s.read_bytes() == first  # fixed seed, identical files


def test_generate_spec_from_config(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text(
        "synthetic.num_classes = 2\n"
        "synthetic.d_s = 7\n"
        "synthetic.d_t = 5\n"
        "synthetic.latent_dim = 3\n"
        "synthetic.source_per_class = 4\n"
        "synthetic.target_per_class = 3\n",
        encoding="utf-8",
    )
    assert main(["generate", "--config", str(conf), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "dim 7" in out and "dim 5" in out
    assert load_dense_csv(tmp_path / "source.csv").dim == 7


def test_train_reports_objective_and_writes_models(corpus, capsys, tmp_path):
    out = tmp_path / "m.json"
    code = main(["train", "--source", str(corpus / "source.csv"),
                 "--target", str(corpus / "target.csv"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "final objective" in captured.out and "iterations" in captured.out
    assert "outer 0 objective" in captured.err  # per-iteration trace on stderr
    iterations = [int(n) for n in re.findall(r"after (\d+) iterations", captured.out)]
    assert len(iterations) == 2
    for n in iterations:
        assert n <= 100
    ms = load_model_set(out)
    assert ms.classes == [0, 1]
    gaps = [float(g) for g in re.findall(r", certified gap (\S+)$", captured.out, re.M)]
    assert len(gaps) == 2
    assert all(g <= HfaConfig().conv_tol for g in gaps)


def test_train_marks_classes_that_end_above_conv_tol(tmp_path, capsys):
    # at the train-72 shape with hfa.t_max = 6 some classes stop at t_max
    # with their gap above conv_tol and some below it; a class's summary
    # line carries the marker exactly when its gap is above conv_tol, and a
    # class that converged before t_max carries none
    source, pool = generate_synthetic(SyntheticSpec(source_per_class=8))
    save_dense_csv(source, tmp_path / "source.csv")
    save_dense_csv(sample_protocol(pool, 4, seed=0)[0], tmp_path / "target.csv")
    (tmp_path / "run.cfg").write_text("hfa.t_max = 6\n", encoding="utf-8")
    code = main(["train", "--config", str(tmp_path / "run.cfg"), "--source", str(tmp_path / "source.csv"),
                 "--target", str(tmp_path / "target.csv"), "--out", str(tmp_path / "m.json")])
    assert code == 0
    summary = r"^class \d+: .* after (\d+) iterations, certified gap (\S+)( \(above hfa\.conv_tol = 1e-05\))?$"
    lines = re.findall(summary, capsys.readouterr().out, re.M)
    assert len(lines) == 6
    marked = [bool(marker) for _, _, marker in lines]
    assert marked == [float(gap) > HfaConfig().conv_tol for _, gap, _ in lines]
    assert any(marked) and not all(marked)
    converged = [bool(marker) for n, _, marker in lines if int(n) < 6]
    assert converged and not any(converged)


def _expected_progress(source, target, cfg):
    """The stderr lines of `hfa train`, built from the trainer's monitor
    with the pinned formats."""
    lines = []

    def monitor(tau, metric, step):
        lines.extend("outer %d step halved to t = %.3e" % (tau, t) for t in step.halved)
        lines.append("outer %d objective %.10e gap %.3e" % (tau, step.objective, step.gap))

    train_multiclass(source, target, cfg, monitor=monitor)
    return lines


@pytest.mark.parametrize("forced", [False, True])
def test_train_progress_lines_on_stderr(corpus, tmp_path, capsys, monkeypatch, forced):
    # stderr holds exactly one line per halved step and one per outer
    # iteration, class after class. forced: every warm-started solve reports
    # an objective far above the accepted one (dual objectives here are
    # below C n = 50), so every Frank-Wolfe step is halved until the
    # halvings run out, the step is t = 0 and the alternation ends
    if forced:
        solve = hfa.core.solve_dual

        def higher(K, y, C, warm_start=None):
            sol = solve(K, y, C, warm_start=warm_start)
            return sol if warm_start is None else replace(sol, objective=sol.objective + 1e6)

        monkeypatch.setattr(hfa.core, "solve_dual", higher)
    source, target = load_dense_csv(corpus / "source.csv"), load_dense_csv(corpus / "target.csv")
    want = _expected_progress(source, target, HfaConfig())
    capsys.readouterr()
    assert main(["train", "--source", str(corpus / "source.csv"), "--target", str(corpus / "target.csv"),
                 "--out", str(tmp_path / "m.json")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == want
    number = r"-?\d\.\d+e[+-]\d\d"
    for line in err:
        assert re.fullmatch(rf"outer \d+ (objective {number} gap {number}|step halved to t = {number})", line)
    halvings = [line for line in err if "halved" in line]
    if forced:
        # two classes, each stopped at iteration 1 after the full halving run
        assert len(halvings) == 2 * hfa.core._MAX_HALVINGS
        assert [line.split()[1] for line in err if "objective" in line] == ["0", "1", "0", "1"]
    else:
        assert not halvings


def test_train_missing_input_fails(tmp_path, capsys):
    code = main(["train", "--source", str(tmp_path / "absent.csv"),
                 "--target", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def run_child(argv):
    """`python -m hfa.cli argv` in a fresh interpreter, so numpy's warnings
    print to stderr as a user sees them rather than being raised."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "hfa.cli", *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("command, kernel, domain, rows", [
    ("train", "linear", "target", 1),
    ("train", "linear", "source", 1),
    ("experiment", "linear", "target", None),
    ("train", "rbf", "target", 2),
])
def test_overflowing_features_fail_naming_domain_and_remedy(corpus, tmp_path, command, kernel, domain, rows):
    """Features near 1e200 overflow the kernel. The command prints one error
    line naming the domain and a remedy, no numpy RuntimeWarning, and exits
    1 (run_child shows the stderr a user sees)."""
    data = load_dense_csv(corpus / f"{domain}.csv")
    X = data.X.copy()
    X[:rows, 0] = 1e200  # rows None: the whole column, so every experiment split has it
    paths = {d: corpus / f"{d}.csv" for d in ("source", "target")}
    paths[domain] = tmp_path / f"{domain}.csv"
    save_dense_csv(Dataset(X, data.y), paths[domain])
    argv = [command, "--kernel", kernel, "--source", str(paths["source"]), "--target", str(paths["target"]),
            "--out", str(tmp_path / "out"), "--trials", "1"]
    proc = run_child(argv)
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {domain} features overflow the {kernel} kernel: "
                           "rescale them or set data.standardize = true\n")
    assert not (tmp_path / "out").exists()


def test_rbf_train_runs_no_eigendecomposition(tmp_path):
    # at the benchmark's train-72 shape (8 source and 4 target rows per
    # class, rbf) every free-set Newton step solves through its Cholesky
    # factor: `hfa train` never calls the symmetric eigensolver
    source, pool = generate_synthetic(SyntheticSpec(source_per_class=8))
    target = sample_protocol(pool, 4, seed=0)[0]
    save_dense_csv(source, tmp_path / "source.csv")
    save_dense_csv(target, tmp_path / "target.csv")
    with mock.patch.object(np.linalg, "eigh", side_effect=np.linalg.eigh) as eigh, \
            mock.patch.object(np.linalg, "cholesky", side_effect=np.linalg.cholesky) as cholesky:
        code, err = run_main(["train", "--source", tmp_path / "source.csv", "--target", tmp_path / "target.csv",
                              "--out", tmp_path / "model.json"])
    assert code == 0, err
    assert eigh.call_count == 0 and cholesky.call_count > 0


@pytest.mark.parametrize("rows, value, trains", [(1, 1e200, True), (None, 1e308, False)])
def test_standardized_train_writes_only_what_predict_loads(corpus, tmp_path, rows, value, trains):
    """Every model `hfa train` writes, `hfa predict` loads. One target row at
    1e200 in feature 0 standardizes to a finite scale with no numpy
    RuntimeWarning, and predict scores every row finitely; a whole column at
    1e308, with its first row at 1.5e308, overflows its mean, and train
    prints one error line, with no RuntimeWarning, and writes no file."""
    data = load_dense_csv(corpus / "target.csv")
    X = data.X.copy()
    X[:rows, 0] = value
    if rows is None:
        X[0, 0] = 1.5 * value  # not constant: a constant column standardizes to 0
    target, model, config = tmp_path / "target.csv", tmp_path / "model.json", tmp_path / "std.cfg"
    save_dense_csv(Dataset(X, data.y), target)
    config.write_text("data.standardize = true\n", encoding="utf-8")
    train = run_child(["train", "--config", config, "--kernel", "linear", "--source", corpus / "source.csv",
                       "--target", target, "--out", model])
    if not trains:
        assert train.returncode == 1
        assert train.stderr == "error: target feature 0 overflows standardization: rescale it\n"
        assert not model.exists()
        return
    assert train.returncode == 0, train.stderr
    assert all(line.startswith("outer ") for line in train.stderr.splitlines())
    predict = run_child(["predict", "--model", model, "--target", target, "--out", tmp_path / "p.csv"])
    assert predict.returncode == 0, predict.stderr
    scores = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1)[:, 2:]
    assert scores.shape == (len(data), 2) and np.all(np.isfinite(scores))


def test_standardized_constant_column_trains(corpus, tmp_path):
    # a constant target column of 1e200 standardizes to 0 in every row, so
    # the linear kernel does not overflow; its mean is the value itself
    data = load_dense_csv(corpus / "target.csv")
    X = data.X.copy()
    X[:, 0] = 1e200
    target, model, config = tmp_path / "target.csv", tmp_path / "model.json", tmp_path / "std.cfg"
    save_dense_csv(Dataset(X, data.y), target)
    config.write_text("data.standardize = true\n", encoding="utf-8")
    code, err = run_main(["train", "--config", config, "--kernel", "linear", "--source", corpus / "source.csv",
                          "--target", target, "--out", model])
    assert code == 0, err
    params = load_model_set(model).metadata["standardize"]
    assert (params["target_mean"][0], params["target_scale"][0]) == (1e200, 1.0)
    code, err = run_main(["predict", "--model", model, "--target", target, "--out", tmp_path / "p.csv"])
    assert code == 0, err


# feature values: ordinary ones, any finite double, and the magnitudes
# that overflow a kernel (1e200) or a column's mean (1e308)
FEATURES = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e308, 1e308),
                     st.sampled_from([1e200, -1e200, 1e308, -1e308]))


@st.composite
def csv_domain(draw):
    """A two-class domain with 2-6 rows per class and 1-3 features, some
    of them constant columns."""
    counts = [draw(st.integers(2, 6)) for _ in range(2)]
    d = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(FEATURES, min_size=d, max_size=d),
                               min_size=sum(counts), max_size=sum(counts))))
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    X[:, constant] = X[0, constant]
    return Dataset(X, np.repeat([0, 1], counts))


def run_main(argv) -> tuple[int, str]:
    """main(argv) in process, as the `hfa` command runs it: its exit code and
    stderr, with numpy warnings printed to stderr as they would be, not raised."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


@settings(max_examples=40, deadline=None)
@given(csv_domain(), csv_domain(), st.booleans(), st.sampled_from(["linear", "rbf"]))
def test_every_model_train_writes_predict_loads(source, target, standardize, kernel):
    # either train fails with exactly one error line and writes no file, or
    # predict loads what train wrote and scores every target row finitely
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dense_csv(source, tmp / "source.csv")
        save_dense_csv(target, tmp / "target.csv")
        (tmp / "run.cfg").write_text(f"data.standardize = {str(standardize).lower()}\n", encoding="utf-8")
        code, err = run_main(["train", "--config", tmp / "run.cfg", "--kernel", kernel, "--source",
                              tmp / "source.csv", "--target", tmp / "target.csv", "--out", tmp / "model.json"])
        if code != 0:
            assert code == 1 and [line.startswith("error: ") for line in err.splitlines()].count(True) == 1, err
            assert not (tmp / "model.json").exists()
            return
        code, err = run_main(["predict", "--model", tmp / "model.json", "--target", tmp / "target.csv",
                              "--out", tmp / "p.csv"])
        assert code == 0, err
        scores = np.loadtxt(tmp / "p.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2:]
        assert scores.shape == (len(target), 2) and np.all(np.isfinite(scores))


def test_predict_consistent_with_loaded_models(corpus, tmp_path):
    out = tmp_path / "preds.csv"
    code = main(["predict", "--model", str(corpus / "model.json"),
                 "--target", str(corpus / "target.csv"), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "row,predicted_class,score_class0,score_class1"
    ms = load_model_set(corpus / "model.json")
    target = load_dense_csv(corpus / "target.csv")
    scores = {c: m.decision_function(target.X) for c, m in ms.models}
    assert len(lines) == len(target) + 1
    for i, line in enumerate(lines[1:]):
        row, pred, s0, s1 = line.split(",")
        assert int(row) == i
        assert float(s0) == scores[0][i]  # exact round-trip through the CSV
        assert float(s1) == scores[1][i]
        want = 0 if scores[0][i] >= scores[1][i] else 1
        assert int(pred) == want


def test_predict_file_of_several_blocks_matches_joined_lines(corpus, tmp_path):
    # the file is written a block of rows at a time; its bytes are those of
    # the whole file built as one joined string
    ms = load_model_set(corpus / "model.json")
    n_t, d_t = ms.models[0][1].X.shape
    rows = 5 * hfa.core._row_blocks(n_t, 10**6)[0][1] // 2
    rng = np.random.default_rng(3)
    save_dense_csv(Dataset(rng.standard_normal((rows, d_t)), rng.integers(0, 2, rows)), tmp_path / "q.csv")
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(corpus / "model.json"), "--target", str(tmp_path / "q.csv"),
                 "--out", str(out)]) == 0
    classes, scores = decision_matrix(list(ms.models), load_dense_csv(tmp_path / "q.csv").X)
    predicted = classes[np.argmax(scores, axis=1)]
    lines = ["row,predicted_class," + ",".join(f"score_class{c}" for c in classes)]
    for i, (label, row) in enumerate(zip(predicted.tolist(), scores.tolist())):
        lines.append(f"{i},{label},{','.join(map(repr, row))}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _with_standardize(corpus, tmp_path, params):
    record = json.loads((corpus / "model.json").read_text(encoding="utf-8"))
    record["metadata"] = {"standardize": params}
    path = tmp_path / "std.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


@pytest.mark.parametrize("params, fragment", [
    ({"target_mean": [0.0] * 8}, "'target_scale'"),
    ({"target_mean": [0.0] * 7, "target_scale": [1.0] * 8}, "'metadata.standardize.target_mean' has 7 entries"),
    ({"target_mean": [0.0] * 8, "target_scale": [1.0] * 9}, "'metadata.standardize.target_scale' has 9 entries"),
    ({"target_mean": [0.0] * 8, "target_scale": [1.0] * 7 + [0.0]}, "must be positive"),
    ({"target_mean": [0.0] * 7 + ["0"], "target_scale": [1.0] * 8}, "not a number"),
    ([0.0] * 8, "must be an object"),
])
def test_predict_rejects_bad_standardize_metadata(corpus, tmp_path, capsys, params, fragment):
    model = _with_standardize(corpus, tmp_path, params)
    assert main(["predict", "--model", str(model), "--target", str(corpus / "target.csv"),
                 "--out", str(tmp_path / "preds.csv")]) == 1
    err = capsys.readouterr().err
    assert str(model) in err and fragment in err
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("command", ["train", "experiment"])
@pytest.mark.parametrize("domain", ["source", "target"])
def test_header_only_training_file_fails_naming_it(corpus, tmp_path, domain, command, standardize):
    """A source or target file with a header and no data rows fails before
    any standardizing: one error line that names the file, no numpy
    RuntimeWarning, exit 1 and no output (predict still takes such a file,
    see below)."""
    paths = {d: corpus / f"{d}.csv" for d in ("source", "target")}
    paths[domain] = tmp_path / f"{domain}.csv"
    header = (corpus / f"{domain}.csv").read_text(encoding="utf-8").splitlines()[0]
    paths[domain].write_text(header + "\n", encoding="utf-8")
    (tmp_path / "run.cfg").write_text(f"data.standardize = {str(standardize).lower()}\n", encoding="utf-8")
    code, err = run_main([command, "--config", tmp_path / "run.cfg", "--source", paths["source"],
                          "--target", paths["target"], "--out", tmp_path / "out", "--trials", "1"])
    assert code == 1
    assert err == f"error: dataset file {paths[domain]} has no data rows\n"
    assert not (tmp_path / "out").exists()


def test_predict_empty_test_file(corpus, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("label," + ",".join(f"f{i}" for i in range(8)) + "\n", encoding="utf-8")
    out = tmp_path / "preds.csv"
    code = main(["predict", "--model", str(corpus / "model.json"),
                 "--target", str(empty), "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == "row,predicted_class,score_class0,score_class1\n"


def test_predict_dimension_mismatch(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    save_dense_csv(Dataset(np.zeros((2, 5)), np.zeros(2, dtype=int)), bad)
    out = tmp_path / "preds.csv"
    code = main(["predict", "--model", str(corpus / "model.json"),
                 "--target", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "dimension 8" in err  # names the expected target dimension
    assert not out.exists()  # failed run leaves no artifact
    assert not list(tmp_path.glob("*.part"))


@pytest.mark.parametrize("rows", [0, 2])
def test_predict_query_width_names_both_files(corpus, tmp_path, capsys, rows):
    query = tmp_path / "query.csv"
    save_dense_csv(Dataset(np.zeros((rows, 2)), np.zeros(rows, dtype=int)), query)
    model = corpus / "model.json"
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model), "--target", str(query), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {query} has 2 features, model {model} expects target dimension 8\n"
    assert not out.exists()


def test_experiment_writes_both_arms(corpus, tmp_path):
    out = tmp_path / "report.txt"
    args = ["experiment", "--source", str(corpus / "source.csv"),
            "--target", str(corpus / "target.csv"), "--out", str(out),
            "--per-class-target", "3", "--trials", "2", "--seed", "5"]
    assert main(args) == 0
    text = out.read_text(encoding="utf-8")
    assert "method = hfa" in text and "method = svm_t" in text
    assert "protocol.base_seed = 5" in text
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first  # reproducible from the base seed


def test_experiment_m_sweep(corpus, tmp_path):
    out = tmp_path / "report.txt"
    assert main(["experiment", "--source", str(corpus / "source.csv"),
                 "--target", str(corpus / "target.csv"), "--out", str(out),
                 "--per-class-target", "3,5", "--trials", "1"]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("method = hfa") == 2
    assert "protocol.per_class_target = 3" in text
    assert "protocol.per_class_target = 5" in text


def test_commands_leave_numpy_ma_unimported(corpus, tmp_path):
    """train, experiment and predict never import numpy.ma or logging.

    np.median and np.unique without return_counts import numpy.ma on first
    use, which costs about 13 ms per command; logging (with traceback and
    string) costs about 4.5 ms and 0.45 MB. A fresh interpreter is needed,
    because another test may already have imported them into this one.
    """
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    source, target = corpus / "source.csv", corpus / "target.csv"
    commands = [
        ["train", "--source", str(source), "--target", str(target), "--out", str(tmp_path / "m.json")],
        ["experiment", "--source", str(source), "--target", str(target), "--out", str(tmp_path / "r.txt"),
         "--per-class-target", "3", "--trials", "2"],
        ["predict", "--model", str(tmp_path / "m.json"), "--target", str(target),
         "--out", str(tmp_path / "p.csv")],
    ]
    script = textwrap.dedent(f"""
        import sys
        from hfa.cli import main
        seen = []
        for argv in {commands!r}:
            assert main(argv) == 0, argv
            seen.append(("numpy.ma" in sys.modules, "logging" in sys.modules))
        print(seen)
    """)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # (numpy.ma, logging) after train, experiment, predict
    assert proc.stdout.splitlines()[-1] == "[(False, False), (False, False), (False, False)]"


def test_flag_overrides_config_file(corpus, tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("protocol.trials = 3\nhfa.C = 2.0\n", encoding="utf-8")
    out = tmp_path / "report.txt"
    assert main(["experiment", "--config", str(conf),
                 "--source", str(corpus / "source.csv"),
                 "--target", str(corpus / "target.csv"), "--out", str(out),
                 "--per-class-target", "3", "--trials", "2"]) == 0
    text = out.read_text(encoding="utf-8")
    assert "protocol.trials = 2" in text  # flag wins
    assert "hfa.C = 2.0" in text  # file value survives where no flag given


def test_config_unknown_key_rejected(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("hfa.weight = 3\n", encoding="utf-8")
    assert main(["generate", "--config", str(conf), "--out", str(tmp_path)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_bad_value_names_line(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("# comment\nhfa.C = abc\n", encoding="utf-8")
    assert main(["generate", "--config", str(conf), "--out", str(tmp_path)]) == 1
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    ("train", "hfa.C = -1"),
    ("train", "hfa.C = inf"),
    ("train", "kernel.family = poly"),
    ("generate", "synthetic.latent_dim = 2"),
    ("train", "synthetic.latent_dim = 2"),
])
def test_config_out_of_range_value_names_file_line_and_key(corpus, tmp_path, capsys, command, line):
    # the settings classes' own range checks fire while the file is read,
    # for every key and every subcommand
    conf = tmp_path / "conf.txt"
    conf.write_text(f"# comment\n{line}\n", encoding="utf-8")
    out = tmp_path / "out.json"
    code = main([command, "--config", str(conf), "--source", str(corpus / "source.csv"),
                 "--target", str(corpus / "target.csv"), "--out", str(out)])
    assert code == 1
    key = line.split(" = ")[0]
    assert f"{conf}:2: bad value for {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--C", "-1", "C must be positive"),
    ("--lambda", "0", "lam must be positive"),
    ("--gamma", "-1", "kernel_gamma must be positive"),
    ("--C", "inf", "C must be positive and finite"),
    ("--lambda", "inf", "lam must be positive and finite"),
    ("--gamma", "inf", "kernel_gamma must be positive and finite"),
    ("--seed", "-1", "seed must be non-negative"),
    ("--trials", "0", "trials must be positive"),
    ("--per-class-target", "3,0", "per_class_target must be positive"),
    ("--per-class-source", "0", "per_class_source must be none or positive"),
    # a flag's value is parsed by its config key's parser, not by argparse
    ("--kernel", "poly", "unknown kernel family 'poly'"),
    ("--seed", "abc", "invalid literal for int()"),
    ("--gamma", "wide", "could not convert string to float"),
])
def test_flag_out_of_range_value_names_flag(corpus, tmp_path, capsys, flag, value, message):
    out = tmp_path / "out.json"
    code = main(["train", flag, value, "--source", str(corpus / "source.csv"),
                 "--target", str(corpus / "target.csv"), "--out", str(out)])
    assert code == 1
    assert f"error: bad value for {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, want", [
    (["--C", "2"], CliConfig(hfa=HfaConfig(C=2.0))),
    (["--lambda", "2.5"], CliConfig(hfa=HfaConfig(lam=2.5))),
    (["--kernel", "linear"], CliConfig(hfa=HfaConfig(kernel_family="linear"))),
    (["--gamma", "0.5"], CliConfig(hfa=HfaConfig(kernel_gamma=0.5))),
    (["--seed", "7"], CliConfig(synthetic=SyntheticSpec(seed=7), base_seed=7)),
    (["--per-class-target", "3,5"], CliConfig(per_class_target=(3, 5))),
    (["--per-class-source", "4"], CliConfig(per_class_source=4)),
    (["--trials", "2"], CliConfig(trials=2)),
    (["--source", "s.csv"], CliConfig(source="s.csv")),
    (["--target", "t.csv"], CliConfig(target="t.csv")),
    (["--model", "m.json"], CliConfig(model="m.json")),
    (["--out", "o.txt"], CliConfig(out="o.txt")),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_each_flag_lands_in_its_field(flags, want):
    # and nowhere else: every other setting keeps its default
    assert resolve_config(build_parser().parse_args(["experiment", *flags])) == want


@pytest.mark.parametrize("flag, value", [
    ("--gamma", "median"),
    ("--per-class-source", "none"),
    ("--kernel", "linear"),
    ("--per-class-target", "2,3"),
    ("--seed", "7"),
])
def test_flag_value_resolves_as_its_config_lines(tmp_path, flag, value):
    # a flag accepts exactly the spellings of the config keys it sets
    conf = tmp_path / "conf.txt"
    conf.write_text("".join(f"{key} = {value}\n" for key in FLAG_KEYS[flag[2:].replace("-", "_")]),
                    encoding="utf-8")
    by_flag = resolve_config(build_parser().parse_args(["train", flag, value]))
    assert by_flag == resolve_config(build_parser().parse_args(["train", "--config", str(conf)]))


@pytest.mark.parametrize("line", [
    "protocol.trials = 0",
    "protocol.per_class_target = 3,-1",
    "protocol.per_class_source = 0",
    "protocol.base_seed = -1",
    "synthetic.seed = -1",
])
@pytest.mark.parametrize("command", ["generate", "train", "experiment"])
def test_protocol_and_seed_values_checked_as_read(corpus, tmp_path, capsys, command, line):
    # under every subcommand, whether or not it uses the value
    conf = tmp_path / "conf.txt"
    conf.write_text(f"{line}\n", encoding="utf-8")
    paths = ["--out", str(tmp_path)] if command == "generate" else [
        "--source", str(corpus / "source.csv"), "--target", str(corpus / "target.csv"), "--out", str(tmp_path / "out")]
    assert main([command, "--config", str(conf), *paths]) == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err.startswith(f"error: {conf}:1: bad value for {key}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["conf.txt"]  # nothing written


@pytest.mark.parametrize("sizes, message", [
    ("3,500", "target class 0 has 10 samples, needs 500"),
    ("3,10", "target pool leaves no held-out samples at 10 per class"),
])
def test_experiment_checks_every_size_before_training(corpus, tmp_path, capsys, sizes, message):
    out = tmp_path / "report.txt"
    with mock.patch("hfa.evaluate.hfa_train", side_effect=AssertionError("trained")):
        code = main(["experiment", "--source", str(corpus / "source.csv"), "--target", str(corpus / "target.csv"),
                     "--per-class-target", sizes, "--trials", "1", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_config_comments_and_paths(corpus, tmp_path):
    out = tmp_path / "preds.csv"
    conf = tmp_path / "conf.txt"
    conf.write_text(
        "# prediction settings\n"
        f"paths.model = {corpus / 'model.json'}\n"
        f"paths.target = {corpus / 'target.csv'}\n"
        f"paths.out = {out}\n",
        encoding="utf-8",
    )
    assert main(["predict", "--config", str(conf)]) == 0
    assert out.exists()


def test_missing_required_path(capsys):
    assert main(["train"]) == 1
    assert "--source" in capsys.readouterr().err


def test_unwritable_output_directory(corpus, capsys, tmp_path):
    code = main(["predict", "--model", str(corpus / "model.json"),
                 "--target", str(corpus / "target.csv"),
                 "--out", str(tmp_path / "no_such_dir" / "preds.csv")])
    assert code == 1
    assert "does not exist" in capsys.readouterr().err


def test_standardize_survives_train_predict(tmp_path, capsys):
    spec = SyntheticSpec(latent_dim=3, num_classes=2, d_s=6, d_t=5,
                         source_per_class=10, target_per_class=6, seed=2)
    source, target = generate_synthetic(spec)
    # shift one feature so raw and standardized predictions must differ
    shifted = Dataset(target.X * np.array([1, 1, 1, 1, 40.0]), target.y)
    save_dense_csv(source, tmp_path / "s.csv")
    save_dense_csv(shifted, tmp_path / "t.csv")
    conf = tmp_path / "conf.txt"
    conf.write_text("data.standardize = true\nhfa.t_max = 4\n", encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--config", str(conf), "--source", str(tmp_path / "s.csv"),
                 "--target", str(tmp_path / "t.csv"), "--out", str(model)]) == 0
    ms = load_model_set(model)
    assert "standardize" in ms.metadata
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model), "--target", str(tmp_path / "t.csv"),
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    # training rows score through the stored scaling: the stored target X
    # are standardized, so raw rows must map onto them before scoring
    scores = {c: m.decision_function((shifted.X - np.array(ms.metadata["standardize"]["target_mean"]))
                                     / np.array(ms.metadata["standardize"]["target_scale"]))
              for c, m in ms.models}
    row0 = lines[1].split(",")
    assert float(row0[2]) == scores[0][0]


def test_console_entry_point(tmp_path):
    """The `hfa` script declared in pyproject.toml runs once installed.

    A copy of the project is installed into a throwaway venv with
    setuptools' own `develop --no-deps`, which needs neither the network
    nor the `wheel` package; the script then runs without PYTHONPATH, so
    only the install can make `hfa` importable.
    """
    import os
    import shutil
    import subprocess
    import venv
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy(repo / "pyproject.toml", project)
    shutil.copytree(repo / "src", project / "src")
    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / "bin"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [str(bin_dir / "python"), "-c", "from setuptools import setup; setup()",
         "-q", "develop", "--no-deps"],
        cwd=project, env=env, capture_output=True, text=True, timeout=120)
    assert install.returncode == 0, install.stderr
    proc = subprocess.run([str(bin_dir / "hfa"), "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "experiment" in proc.stdout
