"""The comparison step of tools/output_diff.py on fixed record directories."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))  # output_diff imports bench_pairs from its own directory
_spec = importlib.util.spec_from_file_location("output_diff", TOOLS / "output_diff.py")
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)


def write_record(records, name, stdout="wrote a.json\n", stderr="", code=0, files=None):
    record = records / name
    (record / "files").mkdir(parents=True)
    (record / "stdout").write_text(stdout)
    (record / "stderr").write_text(stderr)
    (record / "exit_code").write_text(f"{code}\n")
    for file, data in (files or {}).items():
        (record / "files" / file).write_bytes(data)


def test_compare_fixed_records(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, "train", files={"a.json": b"{1}"})
    write_record(change, "train", files={"a.json": b"{1}"})
    write_record(parent, "predict", stderr="outer 0\n", files={"p.csv": b"1,2\n", "gone.csv": b""})
    write_record(change, "predict", stderr="outer 1\n", code=1, files={"p.csv": b"1,3\n"})
    write_record(parent, "experiment")
    result = output_diff.compare(parent, change)
    assert result["train"] == {"stdout": True, "stderr": True, "exit_code": True, "files/a.json": True}
    assert result["predict"] == {"stdout": True, "stderr": False, "exit_code": False,
                                 "files/gone.csv": False, "files/p.csv": False}
    # a command that one side lacks differs in every item
    assert result["experiment"] == {"stdout": False, "stderr": False, "exit_code": False}
    text = output_diff.render(result)
    assert "train: equal" in text and "predict: DIFFERS" in text and "files/p.csv !=" in text


def test_commands_cover_every_train_and_its_predict():
    names = [name for name, _, _ in output_diff.COMMANDS]
    assert names[0] == "generate" and len(names) == len(set(names)) == 14
    for train in (n for n in names if n.startswith("train-")):
        assert "predict-" + train[len("train-"):] in names
