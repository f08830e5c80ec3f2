"""mixbudget benchmark: one workload, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The seed makes every input (synthetic pools, typing corpus, split and
model seeds); the program sees only the generated inputs. The run sets
up its inputs several times (``setup_s`` is their median), runs one
untimed warm-up for in-process workloads, then repeats the workload's
timed pass until ``--seconds`` have passed (``wall_s`` is the median
pass). Every operation's outputs are checked; failures are counted.

``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics from the traced ones, plus the tracing overhead. The
spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Above it the run
prints every metric by name with its unit and sample count, and the
machine it ran on; the same, with the failed checks, goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``. BLAS and OpenMP thread
variables are inherited as they are and never set here.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

# set-ups per run: at least SETUP_MIN_REPS, and more while they take less
# than SETUP_MIN_S in total, up to SETUP_MAX_REPS
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 10, 3.0
# printed on the last line of an untraced run (the traced run prints the
# per-layer metrics instead)
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info() -> dict:
    """BLAS name and version from numpy's build record; thread count from
    the loaded OpenBLAS library, when it is one."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_info(seed: int) -> dict:
    import numpy as np

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, warm up and measure one workload; returns the result dict."""
    from layers import LAYER_METRICS, Tracer, layer_metrics
    from workloads import Ops, Pass, PassFailed

    ops = Ops()
    tracer = Tracer() if trace else None
    setup_times = []
    state = None
    reps = 1 if trace else SETUP_MIN_REPS
    while len(setup_times) < reps or (
            not trace and sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
        rep = len(setup_times)
        state = None  # free the previous set-up's inputs first
        p = Pass(ops, tracer)
        if trace:
            tracer.pass_id = "setup"
            tracer.install()
        try:
            state = wl.setup(seed, workdir, rep, p)
        finally:
            if trace:
                tracer.uninstall()
        setup_times.append(p.wall)

    if wl.in_process:
        wl.warmup(state, seed, Pass(ops))

    walls = {False: [], True: []}
    rates: dict[str, tuple] = {}
    op_times: dict[str, list] = {}
    traced_ids = []
    deadline = time.perf_counter() + seconds
    i = failed_passes = 0
    while True:
        now = time.perf_counter()
        if now >= deadline and walls[False] and (walls[True] or not trace):
            break
        if now >= deadline and failed_passes >= 3:
            break
        traced = trace and i % 2 == 1
        p = Pass(ops, tracer if traced else None)
        if traced:
            tracer.pass_id = i
            tracer.install()
        try:
            wl.run_pass(state, seed, p)
            if traced:
                pass_wall = p.wall
                if not wl.in_process:
                    tracer.pass_id = (i, "extra")
                    wl.traced_extra(state, seed, p)
        except PassFailed:
            failed_passes += 1
            i += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            walls[True].append(pass_wall)
            traced_ids.append(i)
        else:
            walls[False].append(p.wall)
            for name, (value, unit) in wl.rates(p).items():
                rates.setdefault(name, ([], unit))[0].append(value)
            for op, seconds_in_op in p.times.items():
                op_times.setdefault(op, []).append(seconds_in_op)
        i += 1

    if not walls[False]:
        raise RuntimeError(f"every pass failed: {ops.failures[:5]}")

    def stat(values, unit):
        return {"value": statistics.median(values), "unit": unit, "n": len(values)}

    end_to_end = {
        "setup_s": stat(setup_times, "s"),
        "wall_s": stat(walls[False], "s"),
        "peak_rss_mb": {"value": peak_rss_mb(not wl.in_process), "unit": "MB", "n": 1},
        "fail_frac": {"value": ops.failed / max(ops.attempted, 1), "unit": "ratio",
                      "n": ops.attempted},
    }
    for name, (values, unit) in rates.items():
        end_to_end[name] = stat(values, unit)

    result = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "attempted": ops.attempted, "failed": ops.failed,
              "failures": ops.failures[:50], "end_to_end": end_to_end,
              "op_seconds": {op: statistics.median(v) for op, v in op_times.items()},
              "samples": {"setup_s": setup_times, "wall_s": walls[False]}}
    if trace:
        extra_ids = [] if wl.in_process else [(i, "extra") for i in traced_ids]
        layers = layer_metrics(tracer, "setup", traced_ids, extra_ids)
        serial, parallel = layers["cli.sweep_serial.s"], layers["cli.sweep.s"]
        layers["cli.sweep.parallel_speedup"] = serial / parallel if parallel and serial else 0.0
        layers["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        result["per_layer"] = {name: {"value": layers[name], "unit": unit, "n": len(traced_ids)}
                               for name, unit in LAYER_METRICS.items()}
        result["absent"] = tracer.absent
        spans_path = OUT / f"{wl.name}-seed{seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mixbudget" / "__init__.py").is_file():
        print(f"error: no mixbudget sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    result["machine"] = machine_info(args.seed)

    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"{wl.name} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    shown = dict(result["end_to_end"])
    shown.update(result.get("per_layer", {}))
    for name, m in shown.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} (n={m['n']})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if result.get("absent"):
        print(f"  absent (wrapped function missing): {', '.join(result['absent'])}")
    print(f"result: {path.relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name]["value"], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name]["value"],
                          "unit": result["end_to_end"][name]["unit"]}
                   for name in END_TO_END}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
