"""In-memory span recorder for the traced benchmark run.

The benchmark wraps driverid's layer-boundary functions from the outside:
each wrapper opens a span (name, start, end, parent span, run id, counts)
around the original call. A function is rebound wherever a ``driverid``
module holds it, so ``driverid.cli.build_datasets`` is traced as well as
``driverid.pipeline.build_datasets``. The package itself is not modified,
and the original bindings are restored when the traced pass ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nesting follows the call stack."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent, run_id=self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, keep: bool = True) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if not keep:
            if self.spans[-1] is not span:
                raise RuntimeError(f"span {span.name!r} has children and cannot be dropped")
            self.spans.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# ---------------------------------------------------------------- counters
# Each counter receives (counts, args, kwargs, result) after the call and
# adds metric-named counts to the span.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_parse(counts, args, kwargs, trip):
    counts["ingest.parse_log.rows"] = len(trip)


def _count_serialize(counts, args, kwargs, text):
    counts["ingest.bytes_written"] = len(text) if text.isascii() else len(text.encode("utf-8"))


def _count_clean(counts, args, kwargs, cleaned):
    counts["preprocess.samples_in"] = len(_arg(args, kwargs, 0, "trip"))
    counts["preprocess.samples_out"] = len(cleaned)
    counts["preprocess.stops"] = len(cleaned.stop_intervals)
    counts["preprocess.breaks"] = int(cleaned.break_after.sum())


def _count_segment(counts, args, kwargs, result):
    train, test = result
    counts["segment.windows.train"] = len(train)
    counts["segment.windows.test"] = len(test)


def _count_train(counts, args, kwargs, model):
    kind = model.kind
    counts[f"models.{kind}.rows"] = len(_arg(args, kwargs, 1, "train"))
    if kind == "mlp":
        counts["models.mlp.epochs_run"] = int(model.params.epochs_run)
    elif kind == "dtree":
        counts["models.dtree.nodes"] = tree_nodes(model.params)


def _count_save(counts, args, kwargs, result):
    sink = _arg(args, kwargs, 1, "sink")
    if isinstance(sink, (str, os.PathLike)):
        counts["models.io.model_bytes"] = os.path.getsize(sink)


def tree_nodes(tree) -> int:
    """Node count of a CART tree held as linked nodes or as parallel arrays.

    ROADMAP plans to move trees to parallel arrays; the count must survive
    that change, because a change that claims a gain may not edit the benchmark.
    """
    if hasattr(tree, "left") and not hasattr(tree.left, "__len__"):
        stack, n = [tree], 0
        while stack:
            node = stack.pop()
            if node is None:
                continue
            n += 1
            stack.extend((node.left, node.right))
        return n
    return len(tree.feature)


# ------------------------------------------------------------ the boundaries
# (module, attribute, span name or callable(args, kwargs) -> name, counter)
BOUNDARIES = (
    ("driverid.ingest", "parse_log", "ingest.parse_log", _count_parse),
    ("driverid.ingest", "serialize_log", "ingest.serialize_log", _count_serialize),
    ("driverid.preprocess", "clean", "preprocess.clean", _count_clean),
    ("driverid.preprocess", "denoise", "preprocess.denoise", None),
    ("driverid.preprocess", "reorient", "preprocess.reorient", None),
    ("driverid.preprocess", "fill_gaps", "preprocess.fill_gaps", None),
    ("driverid.preprocess", "detect_stops", "preprocess.detect_stops", None),
    ("driverid.preprocess", "remove_stops", "preprocess.remove_stops", None),
    ("driverid.segment", "segment_trip", "segment.segment_trip", _count_segment),
    ("driverid.features", "extract_sequence", "features.extract_sequence", None),
    ("driverid.features", "fit_standardizer", "features.fit_standardizer", None),
    ("driverid.features", "apply_standardizer", "features.apply_standardizer", None),
    ("driverid.pipeline", "build_datasets", "pipeline.build_datasets", None),
    (
        "driverid.pipeline", "train_model",
        lambda args, kwargs: f"models.{_arg(args, kwargs, 0, 'kind')}.train", _count_train,
    ),
    (
        "driverid.models", "predict",
        lambda args, kwargs: f"models.{_arg(args, kwargs, 0, 'model').kind}.predict", None,
    ),
    ("driverid.models.io", "save_model", "models.io.save_model", _count_save),
    ("driverid.models.io", "load_model", "models.io.load_model", None),
    ("driverid.evaluation", "evaluate", "evaluation.evaluate", None),
    ("driverid.evaluation", "write_reports", "evaluation.write_reports", None),
    (
        "driverid.cli", "main",
        lambda args, kwargs: f"cli.{_arg(args, kwargs, 0, 'argv')[0]}", None,
    ),
)
# iter_grid is a generator: one span per yielded grid cell.
CELL_BOUNDARY = ("driverid.evaluation", "iter_grid")


def _wrap(tracer: Tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with tracer.span(span_name) as span:
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(span.counts, args, kwargs, result)
        return result

    return wrapper


def _wrap_cells(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rows = fn(*args, **kwargs)
        while True:
            span = tracer.open("evaluation.cell")
            try:
                row = next(rows)
            except StopIteration:
                tracer.close(span, keep=False)
                return
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span)
            span.counts["evaluation.cells_failed"] = int(row.error is not None)
            yield row

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Rebind every boundary function in every loaded driverid module."""
    replacements = {}
    for module, attr, name, counter in BOUNDARIES:
        fn = _lookup(module, attr)
        if fn is not None:
            replacements[id(fn)] = (fn, _wrap(tracer, fn, name, counter))
    fn = _lookup(*CELL_BOUNDARY)
    if fn is not None:
        replacements[id(fn)] = (fn, _wrap_cells(tracer, fn))

    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "driverid" or mod_name.startswith("driverid.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in undo:
            setattr(mod, attr, value)


def _lookup(module: str, attr: str):
    # A later refactor may rename a boundary; the traced run then reports 0
    # for its metrics instead of failing.
    fn = getattr(importlib.import_module(module), attr, None)
    if fn is None:
        print(f"warning: trace boundary {module}.{attr} not found; its metrics read 0",
              file=sys.stderr)
    return fn


# --------------------------------------------------------------- aggregation


def layer_values(spans: list[Span]) -> tuple[dict, dict, dict, float]:
    """Total time, self time and counts per span name, plus top-level time."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    total, self_time, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    top_level = 0.0
    for s in spans:
        total[s.name] += s.duration
        self_time[s.name] += s.duration - children[s.id]
        for key, value in s.counts.items():
            counts[key] += value
        if s.parent is None:
            top_level += s.duration
    return total, self_time, counts, top_level
