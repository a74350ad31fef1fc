"""Checks on the repository's tooling against the package it measures."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
