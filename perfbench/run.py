"""phdelay benchmark: one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see BENCHMARK.json and perfbench/README.md): certify-mix,
audit-long-window, ensemble-short-delay, cli-session.  ``--workload all``
runs the four in turn.

With ``--trace 0`` the benchmark starts ``SETUP_PROBES`` fresh worker
processes one after the other.  Each times ``import phdelay`` plus one
warm-up op; the last one then runs the closed-loop timed phase.  It prints
the end-to-end metrics: ``setup_s`` (median over the probes),
``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb``.  With
``--trace 1`` one worker runs an untraced phase and then the workload's
fixed traced block, and the per-layer metrics are printed.  Either way
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``fail_ratio`` is
``failed / attempted``.  Every worker runs single-threaded: the BLAS
thread count is fixed to 1 through the environment of the children.
"""

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("certify-mix", "audit-long-window", "ensemble-short-delay", "cli-session")
SETUP_PROBES = 5
#: every worker must end this many seconds after the benchmark started
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _cpu_model():
    model = platform.processor()
    if model:
        return model
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _worker(workload, seed, seconds, mode, env, deadline):
    """Run one worker process in its own session; kill the session when late."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any phdelay child
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, env, deadline):
    """Run one workload; returns (result, raw wall-clock figures, environment)."""
    if trace:
        workers = [_worker(workload, seed, seconds, "trace", env, deadline)]
        metrics = workers[0]["metrics"]
    else:
        workers = [_worker(workload, seed, seconds, "setup", env, deadline)
                   for _ in range(SETUP_PROBES - 1)]
        workers.append(_worker(workload, seed, seconds, "timed", env, deadline))
        metrics = {name: workers[-1][name] for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = statistics.median(w["setup_s"] for w in workers)
    res = workers[-1]
    raw = dict(res["raw"], setup_s=statistics.median(w["raw"]["setup_s"] for w in workers))
    warm_failed = [w["warmup_problems"] for w in workers if w["warmup_problems"]]
    result = {"attempted": res["attempted"] + len(workers),
              "failed": res["failed"] + len(warm_failed),
              "problems": warm_failed + res["problems"], "metrics": metrics}
    return result, raw, dict(res["env"], cpu=_cpu_model())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phdelay" / "__init__.py").is_file():
        print(f"error: no phdelay sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so the set-up probes time imports, not compilation
    compileall.compile_dir(SRC / "phdelay", quiet=2)
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: "1" for var in THREAD_VARS})

    names = NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    total = {"attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, raw, env_record = run_workload(name, args.seed, args.seconds,
                                                   args.trace, env, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"# workload {name}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}")
        print("# env " + json.dumps(env_record, sort_keys=True))
        units = END_TO_END if not args.trace else layertrace.metric_units()
        for metric, value in result["metrics"].items():
            print(f"{name}  {metric} = {value:.6g} {units[metric]}")
        for metric, value in raw.items():
            print(f"{name}  wall-clock {metric} = {value:.6g} {END_TO_END[metric]}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name}  fail_ratio = {ratio:.6g} 1  "
              f"({result['failed']} of {result['attempted']} ops failed)")
        for problem in result["problems"][:5]:
            print(f"{name}  failed op: {problem}")
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + m: {"value": v, "unit": units[m]}
                                 for m, v in result["metrics"].items()})
    print(json.dumps({"correct": total["failed"] == 0, "attempted": total["attempted"],
                      "failed": total["failed"], "metrics": total["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
