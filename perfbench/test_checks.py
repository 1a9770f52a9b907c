"""Self-tests of the benchmark: its checks must bite and its counts repeat.

    python3 -m pytest -q perfbench

Run from the root of a checkout.  These tests exercise the benchmark, not
phdelay; they live beside it and are not part of the package's test suite.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

WORKDIR = ROOT / ".perfbench_out" / "selftest"


def _failed_ops(wl, case, run=None):
    _, _, failed, problems = worker._run_ops(wl, [case], None, run or wl.run)
    return failed, problems


def test_same_seed_same_inputs():
    a = workloads.build("certify-mix", 7, WORKDIR)
    b = workloads.build("certify-mix", 7, WORKDIR)
    c = workloads.build("certify-mix", 8, WORKDIR)
    assert all(x.n == y.n and (x.system.Z == y.system.Z).all()
               for x, y in zip(a.cases, b.cases))
    assert any(x.n != y.n or x.system.Z.shape != y.system.Z.shape
               or not (x.system.Z == y.system.Z).all() for x, y in zip(a.cases, c.cases))


def test_wrong_expected_verdict_is_a_failed_op():
    wl = workloads.build("certify-mix", 3, WORKDIR)
    case = next(c for c in wl.cases if c.n == 16)
    assert _failed_ops(wl, case) == (0, [])
    flipped = dataclasses.replace(case, expect_certified=not case.expect_certified)
    failed, problems = _failed_ops(wl, flipped)
    assert failed == 1 and any("certify_delay_ph" in p for p in problems[0])


def test_miscertified_audit_without_violations_is_a_failed_op():
    wl = workloads.build("audit-long-window", 3, WORKDIR)
    bad = next(c for c in wl.cases if c.expect_violations)
    traj, record = wl.run(bad)
    assert record.violations, "the mis-certified system must show violations"
    assert wl.check(bad, (traj, record)) == []
    silent = (traj, dataclasses.replace(record, violations=[]))
    failed, problems = _failed_ops(wl, bad, run=lambda _case: silent)
    assert failed == 1 and "no energy violations" in problems[0][0]


def test_energy_growth_without_input_is_a_failed_op():
    wl = workloads.build("ensemble-short-delay", 3, WORKDIR)
    case = dataclasses.replace(wl.cases[0], T=0.2)
    traj, record = wl.run(case)
    assert wl.check(case, (traj, record)) == []
    ramp = np.linspace(1.0, 10.0, traj.padded_states.shape[1])
    grown = dataclasses.replace(traj, padded_states=traj.padded_states * ramp)
    assert any("energy grew" in p for p in wl.check(case, (grown, record)))


def test_wrong_cli_exit_code_is_a_failed_op():
    wl = workloads.build("cli-session", 3, WORKDIR)
    try:
        for case in {id(c): c for c in wl.cases}.values():
            assert _failed_ops(wl, case) == (0, []), case.argv
            wrong = dataclasses.replace(case, expect_code=(case.expect_code + 1) % 4)
            failed, problems = _failed_ops(wl, wrong)
            assert failed == 1 and "exit" in problems[0][0], case.argv
    finally:
        wl.close()


def test_timed_latencies_are_scaled_by_the_speed_probe():
    wl = workloads.build("certify-mix", 3, WORKDIR)
    small = [c for c in wl.cases if c.n == 2][:5]
    wl.min_ops = 1
    raw, scaled, failed, _ = worker._run_ops(wl, small, 0.05, wl.run)
    assert failed == 0 and len(raw) == len(scaled) >= len(small)
    ratios = [s / r for r, s in zip(raw, scaled)]
    assert all(0.1 < x < 10.0 for x in ratios)


def test_an_exception_is_a_failed_op():
    wl = workloads.build("certify-mix", 3, WORKDIR)

    def boom(_case):
        raise ValueError("broken op")

    assert _failed_ops(wl, wl.cases[0], run=boom) == (1, [["ValueError: broken op"]])


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def _is_count(name, unit):
    return unit in ("count", "bytes") or name.endswith("success_ratio")


@pytest.mark.parametrize("workload", bench.NAMES)
def test_layer_counts_repeat_with_one_seed(workload):
    first, second = _traced(workload, 11), _traced(workload, 11)
    counts = {m for m, v in first.items() if _is_count(m, v["unit"])}
    assert counts and counts == {m for m, v in second.items() if _is_count(m, v["unit"])}
    assert {m: first[m]["value"] for m in counts} == {m: second[m]["value"] for m in counts}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.metric_units()
    assert {w["name"] for w in spec["workloads"]} <= set(bench.NAMES)
    assert list(workloads.NAMES) == list(bench.NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

