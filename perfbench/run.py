"""driverid benchmark: one workload per process, end-to-end or traced per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli-e2e --seed 1234 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

A run sets its inputs up three times (reporting the median set-up time),
then repeats the workload's timed pass while another pass still fits in
--seconds (at least once). With --trace 1 it instead makes one untraced and
one traced pass and reports per-layer metrics from the traced one. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Human-readable lines above it name every metric with its unit,
the environment and the sha256 of each output artifact. Spans, results and
artifact digests are kept under perfbench/.work/.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One sequential job: BLAS gets one thread. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
SETUPS = 3
WORKLOAD_NAMES = ("cli-e2e", "dense-knn", "grid-slice")

# (name, unit) -- the same names and units as BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput", "items/s"),
    ("accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
)
MODEL_KINDS = ("knn", "dtree", "rforest", "mlp")
PER_LAYER = (
    ("ingest.parse_log.s", "s"),
    ("ingest.parse_log.rows", "count"),
    ("ingest.serialize_log.s", "s"),
    ("ingest.bytes_written", "bytes"),
    ("preprocess.clean.s", "s"),
    ("preprocess.denoise.s", "s"),
    ("preprocess.reorient.s", "s"),
    ("preprocess.fill_gaps.s", "s"),
    ("preprocess.detect_stops.s", "s"),
    ("preprocess.remove_stops.s", "s"),
    ("preprocess.samples_in", "count"),
    ("preprocess.samples_out", "count"),
    ("preprocess.stops", "count"),
    ("preprocess.breaks", "count"),
    ("segment.segment_trip.s", "s"),
    ("segment.windows.train", "count"),
    ("segment.windows.test", "count"),
    ("features.extract_sequence.s", "s"),
    ("features.fit_standardizer.s", "s"),
    ("features.apply_standardizer.s", "s"),
    ("pipeline.build_datasets.self_s", "s"),
    *(
        (f"models.{kind}.{what}", unit)
        for kind in MODEL_KINDS
        for what, unit in (("train_s", "s"), ("predict_s", "s"), ("rows", "count"))
    ),
    ("models.mlp.epochs_run", "count"),
    ("models.dtree.nodes", "count"),
    ("models.io.save_model.s", "s"),
    ("models.io.load_model.s", "s"),
    ("models.io.model_bytes", "bytes"),
    ("evaluation.evaluate.self_s", "s"),
    ("evaluation.cell_s.p50", "s"),
    ("evaluation.cell_s.p58", "s"),
    ("evaluation.write_reports.s", "s"),
    ("evaluation.cells_failed", "count"),
    ("cli.clean.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.evaluate.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not import_driverid():
        return 2

    from workloads import WORKLOADS  # needs driverid on the path

    workload = WORKLOADS[args.workload]()
    result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def import_driverid() -> bool:
    """Import driverid from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import driverid
    except ImportError as err:
        print(f"error: cannot import driverid from {ROOT / 'src'}: {err}", file=sys.stderr)
        return False
    if Path(driverid.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"error: driverid was imported from {driverid.__file__}, not this checkout",
              file=sys.stderr)
        return False
    return True


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    from tracing import traced
    from workloads import Digests, Ledger

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    digests = Digests(WORK / "digests.json")

    setup_times, inputs = [], None
    for i in range(1 if trace else SETUPS):
        t = time.perf_counter()
        made = workload.setup(seed, work / f"setup{i}")
        setup_times.append(time.perf_counter() - t)
        if inputs is None:
            inputs = made
        else:
            ledger.check(workload.same_inputs(inputs, made), "set-up is not deterministic")
            workload.discard(made)

    def one_pass(index, tracer=None):
        """Times one pass (traced if a tracer is given), then checks its outputs untraced."""
        out = work / f"pass{index}"
        try:
            with traced(tracer) if tracer else contextlib.nullcontext():
                result = workload.run_pass(inputs, out)
            workload.check(result, out, seed, ledger, digests)
            result.outputs = {}
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)

    if trace:
        metrics, passes = traced_metrics(workload, seed, one_pass)
    else:
        started = time.perf_counter()
        passes = [one_pass(0)]
        while time.perf_counter() - started + statistics.median(p.wall_s for p in passes) <= seconds:
            passes.append(one_pass(len(passes)))
        metrics = end_to_end(passes, setup_times)
    digests.save()

    env = environment()
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": unit}
                    for name, unit in (PER_LAYER if trace else END_TO_END)},
    }
    lines = summary(workload, seed, trace, result, passes, setup_times, ledger, digests, env)
    record = dict(result, workload=workload.name, seed=seed, trace=int(trace), environment=env,
                  passes=[dataclasses.asdict(p) for p in passes], setup_s_all=setup_times,
                  failures=ledger.failures, sha256=digests.current)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result, lines


def end_to_end(passes, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "throughput": statistics.median(p.items / p.wall_s for p in passes),
        "accuracy": statistics.median(p.accuracy for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_metrics(workload, seed, one_pass):
    from tracing import Tracer, layer_values

    untraced = one_pass(0)
    tracer = Tracer(run_id=f"{workload.name}:seed{seed}:pid{os.getpid()}")
    traced_pass = one_pass(1, tracer)
    WORK.joinpath("traces").mkdir(exist_ok=True)
    tracer.write_jsonl(WORK / "traces" / f"{workload.name}-seed{seed}.jsonl")

    total, self_time, counts, top_level = layer_values(tracer.spans)
    cells = sorted(s.duration for s in tracer.spans if s.name == "evaluation.cell")
    special = {
        "evaluation.cell_s.p50": statistics.median(cells) if cells else 0.0,
        # the highest order statistic with ten cells beyond it (24 cells: the 58th percentile)
        "evaluation.cell_s.p58": cells[max(0, len(cells) - 11)] if cells else 0.0,
        "trace.overhead_s": traced_pass.wall_s - untraced.wall_s,
        "trace.unaccounted_s": traced_pass.wall_s - top_level,
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".self_s"):
            metrics[name] = self_time[name[: -len(".self_s")]]
        elif name.endswith(".s") or name.endswith("_s"):
            metrics[name] = total[name[:-2]]
        else:
            metrics[name] = counts[name]
    return metrics, [untraced, traced_pass]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else the env setting."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def summary(workload, seed, trace, result, passes, setup_times, ledger, digests, env) -> list[str]:
    n = len(passes)
    lines = [
        f"# driverid benchmark: workload {workload.name}, seed {seed}, trace {int(trace)}",
        "# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
    ]
    if trace:
        lines += [f"{name:34s} {m['value']:>16.6g} {m['unit']}"
                  for name, m in result["metrics"].items()]
    else:
        m = result["metrics"]
        walls = [p.wall_s for p in passes]
        rows = [
            ("setup_s", m["setup_s"]["value"], "s", f"median of {len(setup_times)}"),
            ("wall_s", m["wall_s"]["value"], "s", f"median of {n}, max {max(walls):.4f}"),
        ]
        for phase in passes[0].phases:
            rows.append((phase, statistics.median(p.phases[phase] for p in passes), "s",
                         f"median of {n}"))
        rows += [
            (workload.throughput_name, m["throughput"]["value"], f"{workload.item_unit}/s",
             f"median of {n}"),
            ("accuracy", m["accuracy"]["value"], "fraction", "deterministic"),
            ("fail_ratio", ledger.failed / max(ledger.attempted, 1), "ratio",
             f"{ledger.failed} of {ledger.attempted} operations"),
            ("peak_rss_mb", m["peak_rss_mb"]["value"], "MB", "ru_maxrss"),
        ]
        lines += [f"{name:16s} {value:>14.6g} {unit:12s} {note}" for name, value, unit, note in rows]
    lines += [f"sha256 {key} {digest}" for key, digest in sorted(digests.current.items())]
    lines += [f"FAILED {what}" for what in ledger.failures]
    return lines


def run_all(args) -> int:
    """Each workload in its own process; sums the counts and prefixes the metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def _finite(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


if __name__ == "__main__":
    raise SystemExit(main())
