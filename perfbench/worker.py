"""One workload in one fresh process; prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (import phdelay, build the inputs, one warm-up op),
``timed`` (set-up, then the closed-loop timed phase with tracing off) or
``trace`` (set-up, an untraced phase of S/2 seconds, then the workload's
fixed traced block).  ``run.py`` starts these processes with the BLAS
thread count fixed to 1.

Reported times are speed-normalized.  The CPUs of a shared host run at
speeds that drift by 40-90 % over seconds to minutes as neighbours load
them, and Python-bound code follows that drift almost one to one.  So the
timed phase runs a fixed speed probe (``speed_probe_s``) at least every
``PROBE_EVERY_S`` seconds, between ops and outside their timers, and each
op's latency is scaled by ``REF_PROBE_S / probe``, the probe time taken as
the mean of the probes just before and just after the op.  A normalized
time is the time the op would take on a CPU on which the probe takes
``REF_PROBE_S``.  The raw wall-clock figures are reported beside them.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_start = time.perf_counter()
sys.path.insert(0, str(SRC))
import phdelay  # noqa: E402  (import time is part of setup_s)

IMPORT_S = time.perf_counter() - _start

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

#: probe time of the reference CPU speed that reported times are scaled to
REF_PROBE_S = 1e-3
#: longest gap between two speed probes in the timed phase
PROBE_EVERY_S = 0.2
_PROBE_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


def speed_probe_s():
    """Fastest of three runs of a fixed mix of Python arithmetic and 8x8 products.

    A gauge of how fast this CPU runs Python-bound numpy code right now; it
    is the benchmark's own code, so no change to phdelay moves it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, a = 0.0, _PROBE_MATRIX
        for i in range(300):
            acc += i * i % 7
            a = 0.1 * (a @ _PROBE_MATRIX) + _PROBE_MATRIX
            acc += float(a[0, 0])
        best = min(best, time.perf_counter() - t0)
    return best


def _run_ops(wl, cases, seconds, run, on_op=None):
    """Closed loop over ``cases`` (cycled).

    Returns the raw latencies, the speed-normalized latencies (equal to the
    raw ones when ``seconds`` is None), the failed-op count and the
    problems found.  Stops once ``seconds`` have passed and ``min_ops`` ops
    are done, at a cycle end when the workload asks for whole cycles.
    ``seconds=None`` runs each case once, without speed probes.
    """
    latencies, probe_index, failed, problems = [], [], 0, []
    probes = []  # (taken at, probe seconds)
    begin = time.perf_counter()
    i = 0
    while True:
        if seconds is None:
            if i == len(cases):
                break
        elif time.perf_counter() - begin >= seconds and len(latencies) >= wl.min_ops:
            if not wl.whole_cycles or i % len(cases) == 0:
                break
        if seconds is not None and (
                not probes or time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S):
            probes.append((time.perf_counter(), speed_probe_s()))
        case = cases[i % len(cases)]
        if on_op is not None:
            on_op(i)
        t0 = time.perf_counter()
        try:
            out = run(case)
            latencies.append(time.perf_counter() - t0)
            found = wl.check(case, out)
        except Exception as exc:  # an exception is a failed op, not a crash
            latencies.append(time.perf_counter() - t0)
            found = [f"{type(exc).__name__}: {exc}"]
        probe_index.append(len(probes) - 1)
        if found:
            failed += 1
            problems.append(found)
        i += 1
    if seconds is None:
        return latencies, latencies, failed, problems
    probes.append((time.perf_counter(), speed_probe_s()))
    scaled = [lat * 2.0 * REF_PROBE_S / (probes[k][1] + probes[k + 1][1])
              for lat, k in zip(latencies, probe_index)]
    return latencies, scaled, failed, problems


def _setup(name, seed):
    workdir = ROOT / ".perfbench_out" / f"cli-{os.getpid()}"
    wl = workloads.build(name, seed, workdir)
    latencies, _, _, problems = _run_ops(wl, [wl.warmup], None, wl.run)
    setup_s = IMPORT_S + latencies[0]
    return wl, setup_s, setup_s * REF_PROBE_S / speed_probe_s(), problems[0] if problems else []


def _latency_metrics(latencies):
    cut = statistics.quantiles(latencies, n=100, method="inclusive")
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1e3 * cut[49], "op_p90_ms": 1e3 * cut[89]}


def _peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _subprocess_median(code, repeats=5):
    """Median over fresh interpreters of the time ``code`` reports or takes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=60)
        wall = time.perf_counter() - t0
        values.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return statistics.median(values)


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    args = parser.parse_args()

    if not Path(phdelay.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"phdelay was imported from {phdelay.__file__}, not from {SRC}")
    wl, raw_setup_s, setup_s, warm_problems = _setup(args.workload, args.seed)
    result = {"setup_s": setup_s, "raw": {"setup_s": raw_setup_s},
              "warmup_problems": warm_problems, "env": _environment()}
    try:
        if args.mode == "timed":
            raw, lat, failed, problems = _run_ops(wl, wl.cases, args.seconds, wl.run)
            result.update(_latency_metrics(lat), attempted=len(lat), failed=failed,
                          problems=problems[:5], peak_rss_mb=_peak_rss_mb(args.workload))
            result["raw"].update(_latency_metrics(raw))
        elif args.mode == "trace":
            result.update(_trace(wl, args))
    finally:
        wl.close()
    print(json.dumps(result))


def _trace(wl, args):
    run = wl.run_traced or wl.run
    lat, _, failed, problems = _run_ops(wl, wl.cases, args.seconds / 2.0, run)
    untraced = len(lat) / sum(lat)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        def mark(i):
            tracer.op_id = i
        t_lat, _, t_failed, t_problems = _run_ops(wl, wl.trace_cases, None, run, mark)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    traced = len(t_lat) / sum(t_lat)
    metrics.update({
        "cli.import_s": _subprocess_median(
            "import time; t = time.perf_counter(); import phdelay.cli; "
            "print(time.perf_counter() - t)"),
        "cli.spawn_s": _subprocess_median("pass"),
        "trace.op_wall_s": sum(t_lat),
        "trace.untraced_ops_per_s": untraced,
        "trace.traced_ops_per_s": traced,
        "trace.overhead_ratio": traced / untraced,
    })
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    return {"attempted": len(lat) + len(t_lat), "failed": failed + t_failed,
            "problems": (problems + t_problems)[:5], "metrics": metrics}


if __name__ == "__main__":
    main()
