"""Self-test of the benchmark: one day per workload.

    python3 -m pytest perfbench/tests -q

Runs from any directory; the benchmark itself runs at the repository root.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SMALL_HOMES = 4  # for the in-process comparison, which needs no full-size day

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import spans  # noqa: E402
import workloads as wl_mod  # noqa: E402


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] == (2 if trace else 1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("env {") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_reports_are_byte_identical(workload, tmp_path):
    from cems import replication_config

    wl = wl_mod.WORKLOADS[workload]
    config = tmp_path / "day.json"
    wl_mod.write_day(config, SMALL_HOMES, 7, replication_config())
    runner = wl_mod.Runner(tmp_path)
    plain = runner.run(wl.argv(config, tmp_path / "plain"))
    tracer = spans.Tracer()
    tracer.day = 0
    with spans.installed(tracer):
        traced = runner.run(wl.argv(config, tmp_path / "traced"), tracer)
    assert plain.rc == traced.rc == 0, plain.stderr + traced.stderr
    assert wl_mod.differing_reports(wl, tmp_path / "plain", tmp_path / "traced") == []
    recorded = {name for name, *_ in tracer.spans}
    assert {"op", "domain.load", "milp.build", "cli.write"} <= recorded
    assert not tracer.missing


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_native_stdout_is_captured_and_counted(monkeypatch, tmp_path, capfd):
    import ctypes

    import cems.cli

    libc = ctypes.CDLL(None)
    libc.puts.argtypes = [ctypes.c_char_p]

    def leaky_main(argv):
        libc.puts(b"native line")  # C stdio, buffered: reaches fd 1 only on flush
        print("python line")
        return 0

    monkeypatch.setattr(cems.cli, "main", leaky_main)
    result = wl_mod.Runner(tmp_path).run([])
    assert result.rc == 0
    assert result.leak_lines == 1 and "native line" in result.leaked
    assert "line" not in capfd.readouterr().out
