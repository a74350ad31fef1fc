"""Self-test of the benchmark's own accounting, on a tiny corpus (a few seconds).

    python3 perfbench/selftest.py

Checks that a grid cell that fails counts as failed rather than as fast,
that the traced run's bindings are restored and its cell counter agrees,
that seed 1234 reproduces the acceptance corpus, and that the metric
tables agree with BENCHMARK.json. Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

if not run.import_driverid():
    raise SystemExit(2)

import driverid.pipeline  # noqa: E402
from driverid.evaluation import GridSpec  # noqa: E402
from driverid.synth import generate_trip, make_profiles  # noqa: E402
from tracing import Span, Tracer, layer_values, traced  # noqa: E402
from workloads import Digests, GridSlice, Ledger, make_trips  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def failing_cell_counts_as_failed(tmp: Path) -> None:
    # 30-minute trips: the 60-minute window yields no training windows, so
    # both of its cells fail inside the grid and carry an error
    grid = GridSpec(
        window_minutes_list=(2.0, 60.0), overlap_list=(0.5,),
        feature_subset_list=("mean",), model_list=("knn", "dtree"), repetitions=1,
    )
    workload = GridSlice(hours=0.5, grid=grid)
    trips = workload.setup(1234, tmp / "setup")
    ledger = Ledger()
    tracer = Tracer("selftest")
    with traced(tracer):
        result = workload.run_pass(trips, tmp / "grid")
    workload.check(result, tmp / "grid", 1234, ledger, Digests(tmp / "d.json"))
    check(driverid.pipeline.build_datasets.__module__ == "driverid.pipeline"
          and not hasattr(driverid.pipeline.build_datasets, "__wrapped__"),
          "traced bindings are restored after the pass")
    failed_cells = sum(1 for f in ledger.failures if f.startswith("grid cell 60 min"))
    check(failed_cells == 2, f"both 60-minute cells count as failed ({failed_cells})")
    check(ledger.failed / ledger.attempted > 0,
          f"fail_ratio rises above 0 ({ledger.failed}/{ledger.attempted})")
    check(result.items == 2, f"throughput counts only the 2 successful cells ({result.items})")
    _, _, counts, _ = layer_values(tracer.spans)
    check(counts["evaluation.cells_failed"] == 2,
          f"trace counts 2 failed cells ({counts['evaluation.cells_failed']})")
    cells = [s for s in tracer.spans if s.name == "evaluation.cell"]
    check(len(cells) == 4, f"one span per grid cell ({len(cells)})")


def self_time_arithmetic() -> None:
    spans = [Span(0, "a", 0.0, 10.0), Span(1, "b", 1.0, 4.0, parent=0),
             Span(2, "b", 5.0, 6.0, parent=0), Span(3, "c", 2.0, 3.0, parent=1)]
    total, self_time, _, top = layer_values(spans)
    check((self_time["a"], total["b"], self_time["b"], top) == (6.0, 4.0, 3.0, 10.0),
          "self time is duration minus direct children")


def seed_1234_is_acceptance_corpus() -> None:
    ours = make_trips(1234, hours=0.05)
    theirs = [generate_trip(p, 0.05 * 3600.0, 2.0, driver_id=f"driver{i + 1:02d}")[0]
              for i, p in enumerate(make_profiles(10, "easy", 1234))]
    check(all(a == b for a, b in zip(ours, theirs)) and len(ours) == 10,
          "seed 1234 reproduces the conftest corpus trips")
    other = make_trips(1, hours=0.05)
    check(not all(a == b for a, b in zip(ours, other)), "another seed draws other trips")


def tables_match_benchmark_json() -> None:
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        print("skip BENCHMARK.json not present")
        return
    spec = json.loads(path.read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "end_to_end names and units match run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
          "per_layer names and units match run.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
          "workload names match run.py")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        failing_cell_counts_as_failed(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    self_time_arithmetic()
    seed_1234_is_acceptance_corpus()
    tables_match_benchmark_json()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
