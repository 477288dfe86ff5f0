"""relight benchmark: time enhance and train workloads, check every output.

    python3 perfbench/run.py --workload enhance-64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Load is a closed loop: one process and one caller, which sends the next
input only after the previous result has returned.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of ``spans.py`` with ``--trace 1``.  See README.md
for the workloads and what each metric means.

Set-up and the reference outputs run in child processes of this script
(``--probe``) so that neither the reference computation's time nor its
memory counts against relight.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SCRIPT = Path(__file__).resolve()
SRC = SCRIPT.parent.parent / "src"
RESULTS = SCRIPT.parent / "results"
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
MIN_OPS = TAIL_BEYOND + 1
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    """A workload; README.md gives the reason for each."""

    name: str
    kind: str  # "enhance" or "train"
    size: int
    pool: int  # distinct seeded inputs the run cycles through
    setup_samples: int  # set-ups per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enhance-64", "enhance", 64, 8, 9),
        Workload("enhance-256", "enhance", 256, 2, 3),
        Workload("train-64", "train", 64, 4, 5),
    )
}


def build(wl: Workload):
    import workloads

    return (workloads.Enhance if wl.kind == "enhance" else workloads.TrainStep)(wl.size)


def setup(wl: Workload, seed: int):
    """Import relight, build the model, run one warm-up operation.

    Returns (model, seconds).  Nothing may import numpy or relight before
    this runs, because their import is part of the set-up time.
    """
    t0 = time.perf_counter()
    model = build(wl)
    import inputs

    model.run(inputs.pair(seed, wl.pool, wl.size))  # index just past the timed pool
    return model, time.perf_counter() - t0


def probe(wl: Workload, seed: int, what: str):
    """Child process: print one set-up time, or the pool's reference results."""
    if what == "setup":
        print(json.dumps({"setup_s": setup(wl, seed)[1]}))
        return
    model = build(wl)
    import inputs

    expected = [model.reference(p) for p in inputs.pool(seed, wl.pool, wl.size)]
    json.dump([e.tolist() if hasattr(e, "tolist") else e for e in expected], sys.stdout)


def run_child(wl: Workload, seed: int, what: str) -> str:
    cmd = [sys.executable, str(SCRIPT), "--workload", wl.name, "--seed", str(seed), "--probe", what]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{what} probe for {wl.name} failed with exit code {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


@dataclass
class Timing:
    latencies: list[float]
    failed: int
    elapsed: float

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(model, items, expected, seconds: float, min_ops: int, errors, tracer=None) -> Timing:
    """Closed loop over ``items`` for ``seconds`` (and at least ``min_ops``).

    An operation fails when it raises one of ``errors`` or its result
    fails ``model.check`` against the expected result for its input.
    Only the operation itself is inside each latency sample; the loop's
    wall time, and so the throughput, also covers the checks.
    """
    latencies, failed = [], 0
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        k = i % len(items)
        if tracer is not None:
            tracer.op_id = i
        t = time.perf_counter()
        try:
            result = model.run(items[k])
        except errors:
            result = None
        latencies.append(time.perf_counter() - t)
        if result is None or not model.check(result, expected[k]):
            failed += 1
        i += 1
    return Timing(latencies, failed, time.perf_counter() - start)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(latencies)
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def blas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def emit(name: str, value: float, unit: str, note: str = ""):
    print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}".rstrip())


def end_to_end(wl: Workload, model, items, expected, seconds, errors, setup_samples):
    """Untraced run: the end-to-end metrics, printed with their notes."""
    timing = measure(model, items, expected, seconds, MIN_OPS, errors)
    tail_value, tail_pct = tail(timing.latencies)
    done = "images" if wl.kind == "enhance" else "steps"
    rows = [
        ("throughput_per_s", timing.attempted / timing.elapsed, "1/s",
         f"{done}/s, {timing.attempted} in {timing.elapsed:.2f} s"),
        ("latency_p50_ms", 1e3 * statistics.median(timing.latencies), "ms", ""),
        ("latency_tail_ms", 1e3 * tail_value, "ms", f"p{tail_pct:.1f}, {TAIL_BEYOND} of {timing.attempted} samples beyond"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        ("setup_s", statistics.median(setup_samples), "s", "median of " + ", ".join(f"{v:.3f}" for v in setup_samples)),
    ]
    for row in rows:
        emit(*row)
    metrics = {name: (value, unit) for name, value, unit, _ in rows}
    return metrics, timing.attempted, timing.failed, {"tail_percentile": tail_pct, "setup_samples": setup_samples}


def per_layer(wl: Workload, model, items, expected, seconds, errors, seed):
    """Traced run: half untraced, half traced; the per-layer metrics and the overhead."""
    import spans

    plain = measure(model, items, expected, seconds / 2.0, 1, errors)
    labels = {id(model.d_global): "global", id(model.d_patch): "patch"} if wl.kind == "train" else {}
    with spans.Tracer(labels) as tracer:
        traced = measure(model, items, expected, seconds / 2.0, 1, errors, tracer)
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"{wl.name}-seed{seed}-spans.json")
    values = tracer.metrics(traced.attempted)
    metrics = {name: (values[name], unit) for name, unit in spans.metric_units().items()}
    plain_tput = plain.attempted / plain.elapsed
    traced_tput = traced.attempted / traced.elapsed
    overhead = 1.0 - traced_tput / plain_tput
    print(
        f"tracing overhead {100 * overhead:.2f}% of untraced throughput_per_s "
        f"({traced_tput:.4g}/s traced over {traced.attempted} ops, {plain_tput:.4g}/s untraced over {plain.attempted})"
    )
    print("per operation:")
    for name, (value, unit) in metrics.items():
        if value:
            emit(name, value, unit)
    extras = {"trace_overhead": overhead, "untraced_throughput_per_s": plain_tput, "traced_throughput_per_s": traced_tput}
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed, extras


def main_run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    setup_samples = [float(json.loads(run_child(wl, seed, "setup"))["setup_s"]) for _ in range(wl.setup_samples - 1)]
    expected_raw = json.loads(run_child(wl, seed, "reference"))

    model, own_setup = setup(wl, seed)
    setup_samples.append(own_setup)
    import inputs
    import numpy as np
    from relight.errors import RelightError

    items = inputs.pool(seed, wl.pool, wl.size)
    expected = [np.array(e) if wl.kind == "enhance" else e for e in expected_raw]
    env = environment()
    print(f"workload {wl.name}  seed {seed}  {'traced' if trace else 'untraced'}  closed loop, 1 caller")
    print("env " + json.dumps(env))
    if trace:
        metrics, attempted, failed, extras = per_layer(wl, model, items, expected, seconds, RelightError, seed)
    else:
        metrics, attempted, failed, extras = end_to_end(wl, model, items, expected, seconds, RelightError, setup_samples)
    emit("error_rate", failed / attempted, "", f"{failed} of {attempted} failed")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{wl.name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({"workload": wl.name, "seed": seed, "env": env, **extras, **result}, f, indent=1)
    return result


def main_all(seed: int, seconds: float, trace: bool) -> dict:
    """Run every workload in its own process; combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} failed with exit code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    return combined


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "reference"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        sys.exit("--seed must be >= 0")
    if not (SRC / "relight" / "generator.py").is_file():
        sys.exit(f"relight sources not found under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = main_all(args.seed, args.seconds, bool(args.trace))
    elif args.probe:
        probe(WORKLOADS[args.workload], args.seed, args.probe)
        return 0
    else:
        result = main_run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
