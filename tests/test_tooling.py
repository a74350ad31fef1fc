"""Checks on the repository's tooling against the package it measures."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import driverid
import driverid.models

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "driverid"

# top-level src/ names kept with no caller in src/, each with its reason
UNCALLED_ALLOWED = {
    "tree_depth": "the grid's planned per-cell tree accounting; tests use it now",
    "separability_achieved": "the threefold-over-chance rule; test_eval.py pins it and test_synth.py checks a corpus with it",
    "trimmed_histogram": "the paper's histogram feature on one signal; tests check it against its oracle",
}


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_trace_boundary_resolves(tracing):
    # The tracer only warns about a boundary it cannot find, and that layer's
    # metrics then read 0; a renamed function must fail here instead.
    boundaries = [(module, attr) for module, attr, _, _ in tracing.BOUNDARIES]
    boundaries.append(tracing.CELL_BOUNDARY)
    missing = [
        f"{module}.{attr}"
        for module, attr in boundaries
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert boundaries and not missing


def test_every_top_level_name_has_a_caller_in_src():
    # A top-level function, class or constant of src/ must be loaded somewhere
    # in src/ (an import does not count), in the `__all__` of `driverid` or
    # `driverid.models`, or be on UNCALLED_ALLOWED. Names match by spelling,
    # so `entry.fit` counts as a caller of every `fit`.
    defined, loaded = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, path.relative_to(SRC)) for name in targets if not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    exported = set(driverid.__all__) | set(driverid.models.__all__)
    uncalled = [f"{path}: {name}" for name, path in defined.items() if name not in loaded | exported]
    assert sorted(uncalled) == sorted(
        f"{defined[name]}: {name}" for name in UNCALLED_ALLOWED
    ), "give each new name a caller in src/, or move it to tests/"


def test_every_oracle_is_called_from_a_property():
    # Each rewrite lands with an oracle in tests/oracles.py and a hypothesis
    # property against it, so every oracle must be named inside some @given test.
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    oracles = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "given" for d in node.decorator_list
            ):
                called.update(name.id for name in ast.walk(node) if isinstance(name, ast.Name))
    assert oracles and sorted(oracles - called) == []
