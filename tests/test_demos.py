"""The demo scripts, run as a user runs them: a subprocess with the
package on ``PYTHONPATH``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("args, flag", [
    (["--sizes", "0"], "--sizes"),
    (["--sizes", "10,-5"], "--sizes"),
    (["--sizes", ""], "--sizes"),
    (["--sizes", "ten"], "--sizes"),
    (["--seed", "-1"], "--seed"),
    (["--gap", "nan"], "--gap"),
    (["--gap", "-1"], "--gap"),
])
def test_scaling_benchmark_rejects_bad_flags(args, flag):
    proc = _run_demo("scaling_benchmark.py", *args)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_scaling_benchmark_runs():
    proc = _run_demo("scaling_benchmark.py", "--sizes", "10", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0].split()[0] == "homes"
    assert rows[1].split()[0] == "10"
