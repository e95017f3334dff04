"""The demo scripts, run as a user runs them: a subprocess with the
package on ``PYTHONPATH``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_scaling_benchmark_runs():
    proc = _run_demo("scaling_benchmark.py")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0].split()[0] == "homes"
    assert [row.split()[0] for row in rows[1:4]] == ["10", "50", "100"]
    assert [row.split()[-1] for row in rows[1:4]] == ["lp-certified"] * 3
    assert rows[-1].startswith("model growth:")
