"""The package's exported names exist, and the library never reaches into tests/."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hfa

SRC = Path(hfa.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = ["hfa"] + [f"hfa.{m.name}" for m in pkgutil.iter_modules([str(SRC)])]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def test_library_imports_nothing_from_tests():
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                roots = [node.module.split(".")[0]]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {r}" for r in roots if r in test_modules]
    assert not offenders, offenders
