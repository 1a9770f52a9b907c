"""Each narrative demo runs to completion and prints its story."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # as the tier-1 run treats in-process code: dev mode, and every warning
    # an error (pyproject's warning filter does not reach the subprocess)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_certifies():
    """The README's quick start runs as printed and prints what its comment
    promises: CERTIFIED and a min eigenvalue of 0.5."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    verdict, min_eigenvalue = proc.stdout.splitlines()[0].split()
    assert verdict == "CERTIFIED"
    assert float(min_eigenvalue) == pytest.approx(0.5, abs=1e-12)
