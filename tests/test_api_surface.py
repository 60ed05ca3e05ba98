"""The package's exported names exist, and the library never reaches into tests/."""

import ast
import dataclasses
import importlib
import pkgutil
import typing
from pathlib import Path

import numpy as np
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


def _loaded_names(paths, attributes_only=False, copied_into=None) -> set[str]:
    """Names read as a Name or an Attribute anywhere in the given files;
    import statements and __all__ strings are not reads. With copied_into,
    a class name, an argument passed straight into a call of that class
    (Dataset(d.X, d.y)) is copied, not read."""
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        copied = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", "")) == copied_into
                  for arg in [*node.args, *(kw.value for kw in node.keywords)]}
        for node in ast.walk(tree):
            if id(node) in copied:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_used_outside_tests(name):
    # the library ships only what training, prediction, experiments and the
    # demos run; test-only helpers belong in the tests/ oracles
    used = _loaded_names(sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "demos").glob("*.py")))
    exported = importlib.import_module(name).__all__
    unused = [attr for attr in exported if not (attr.startswith("__") and attr.endswith("__")) and attr not in used]
    assert not unused, f"{name}.__all__ exports names that only tests use: {unused}"


DATACLASSES = sorted(
    {obj for name in MODULES for obj in vars(importlib.import_module(name)).values()
     if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__.startswith("hfa.")},
    key=lambda cls: (cls.__module__, cls.__name__),
)


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_every_field_is_read_outside_tests(cls):
    # a field that nothing outside the tests reads is state kept for no one;
    # copying it into the next instance of its own class is not reading it
    root = SRC.parents[1]
    paths = sorted(SRC.glob("*.py")) + sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    read = _loaded_names(paths, attributes_only=True, copied_into=cls.__name__)
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread, f"{cls.__name__} declares fields nothing outside tests reads: {unread}"


def _holds_array(tp) -> bool:
    """Whether a resolved annotation is an ndarray, or a record or container type holding one."""
    if tp is np.ndarray:
        return True
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return any(_holds_array(hints[f.name]) for f in dataclasses.fields(tp))
    return any(_holds_array(arg) for arg in typing.get_args(tp))


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_records_holding_arrays_compare_by_identity(cls):
    # the __eq__ a dataclass generates compares field tuples, which raises on
    # an ndarray field (its truth value is ambiguous), and frozen=True's
    # __hash__ hashes the fields (TypeError): such a record declares eq=False.
    # Records of plain values keep eq, since _check_shared compares kernels.
    if _holds_array(cls):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    else:
        assert cls.__eq__ is not object.__eq__, cls


def test_package_names_load_with_their_module():
    # a bare `import hfa` imports no submodule; each exported name then
    # loads its module on first use, as the very object that module defines
    import os
    import subprocess
    import sys

    script = "import sys, hfa; print(sorted(m for m in sys.modules if m.startswith('hfa')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['hfa']"
    for name in hfa.__all__:
        assert name in dir(hfa), name
        if name != "__version__":
            value = getattr(hfa, name)
            assert value.__module__.startswith("hfa."), name
            assert getattr(importlib.import_module(value.__module__), name) is value, name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hfa.no_such_name
