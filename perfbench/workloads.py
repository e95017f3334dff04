"""The benchmark's workloads and the one operation they repeat.

An operation is one ``cems`` CLI invocation on one synthetic day, run
in-process through ``cems.cli.main`` with the process's fd 1 captured, so
that native solver output neither reaches the benchmark's own stdout nor
goes uncounted.  Day ``k`` of seed ``s`` is
``generate_synthetic_community(homes, s + k % cycle, replication_config())``;
the program sees only the config file written from it.
"""
from __future__ import annotations

import ctypes
import hashlib
import io
import json
import os
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import cems.cli
from cems import config_to_json, generate_synthetic_community

DEFAULT_SEED = 1
# relative tolerance on the community cost against a pinned reference,
# in the checker's own form: |cost - ref| <= tol * (1 + |ref|)
COST_TOL = 1e-6

SOLVE_REPORTS = ("schedule.json", "settlement.json", "settlement.csv", "feasibility.json")
LP_REPORTS = ("model.lp",)


@dataclass(frozen=True)
class Workload:
    name: str
    homes: int
    command: tuple[str, ...]
    reports: tuple[str, ...]
    cycle: int

    def argv(self, config: Path, out: Path) -> list[str]:
        return [*self.command, "--config", str(config), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pooled-day", 10, ("solve", "--scenario", "system", "--jobs", "1"), SOLVE_REPORTS, 64),
        Workload("selfish-day", 200, ("solve", "--scenario", "none", "--jobs", "1"), SOLVE_REPORTS, 16),
        Workload("export-large", 1000, ("export-lp", "--scenario", "system"), LP_REPORTS, 12),
    )
}


def day_seed(seed: int, k: int, workload: Workload) -> int:
    return seed + k % workload.cycle


def write_day(path: Path, homes: int, seed: int, template) -> None:
    config = generate_synthetic_community(homes, seed, template)
    path.write_text(config_to_json(config))


# ---------------------------------------------------------------------------
# running one operation


@dataclass(frozen=True)
class OpResult:
    rc: int
    wall: float
    stderr: str
    leaked: str  # what reached fd 1 below the Python layer

    @property
    def leak_lines(self) -> int:
        return len(self.leaked.splitlines())


class Runner:
    """Runs ``cems.cli.main`` with Python's streams and fd 1 captured."""

    def __init__(self, work: Path):
        self.capture = work / "fd1.capture"
        self._libc = ctypes.CDLL(None)
        self._libc.fflush.argtypes = [ctypes.c_void_p]
        self._libc.fflush.restype = ctypes.c_int

    def run(self, argv: list[str], tracer=None) -> OpResult:
        """Run one operation; ``tracer`` (already installed) gets the root
        span.  Only the ``main`` call is timed.  The CLI's own summary line
        is discarded; its reports are on disk."""
        out, err = io.StringIO(), io.StringIO()
        sys.stdout.flush()
        saved = os.dup(1)
        with open(self.capture, "w+b") as fh:
            os.dup2(fh.fileno(), 1)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    root = tracer.span("op") if tracer is not None else nullcontext()
                    start = perf_counter()
                    try:
                        with root:
                            rc = cems.cli.main(argv)
                    except Exception:
                        rc = -1
                        traceback.print_exc()
                    wall = perf_counter() - start
            finally:
                self._libc.fflush(None)
                os.dup2(saved, 1)
                os.close(saved)
            fh.seek(0)
            leaked = fh.read().decode(errors="replace")
        return OpResult(rc, wall, err.getvalue(), leaked)


# ---------------------------------------------------------------------------
# checking an operation's reports


def observe(workload: Workload, out: Path) -> dict:
    """The figures an operation's reports are judged by."""
    if workload.reports == LP_REPORTS:
        data = (out / "model.lp").read_bytes()
        return {
            "lp_sha256": hashlib.sha256(data).hexdigest(),
            "lp_bytes": len(data),
            "lp_complete": data.startswith(b"\\ ") and data.endswith(b"End\n"),
        }
    feasibility = json.loads((out / "feasibility.json").read_text())
    settlement = json.loads((out / "settlement.json").read_text())
    return {
        "violations": len(feasibility["violations"]),
        "cost_matches_solver": feasibility["cost_matches_solver"],
        "community_cost": settlement["community_daily_cost"],
    }


def problems(workload: Workload, result: OpResult, out: Path, reference: dict | None) -> tuple[dict, list[str]]:
    """Observed figures and every reason the operation failed, if any."""
    if result.rc != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return {}, [f"exit code {result.rc}: {tail[0]}"]
    try:
        seen = observe(workload, out)
    except (OSError, ValueError, KeyError) as exc:
        return {}, [f"reports unreadable: {exc!r}"]
    found = []
    if workload.reports == LP_REPORTS:
        if not seen["lp_complete"]:
            found.append("model.lp is truncated")
        if reference is not None and seen["lp_sha256"] != reference["lp_sha256"]:
            found.append(f"model.lp sha256 {seen['lp_sha256']} != pinned {reference['lp_sha256']}")
    else:
        if seen["violations"]:
            found.append(f"{seen['violations']} checker violation(s)")
        if not seen["cost_matches_solver"]:
            found.append("checker cost does not match the solver objective")
        if reference is not None:
            ref = reference["community_cost"]
            if abs(seen["community_cost"] - ref) > COST_TOL * (1.0 + abs(ref)):
                found.append(f"community cost {seen['community_cost']!r} != pinned {ref!r}")
    return seen, found


def differing_reports(workload: Workload, a: Path, b: Path) -> list[str]:
    """Report files that differ between two output directories."""
    return [name for name in workload.reports if (a / name).read_bytes() != (b / name).read_bytes()]


def load_references(path: Path, workload: Workload, seed: int) -> dict:
    """Pinned figures by day seed; empty unless this is the default seed."""
    if seed != DEFAULT_SEED:
        return {}
    pinned = json.loads(path.read_text())["workloads"].get(workload.name, {})
    if pinned.get("homes") != workload.homes:
        return {}
    return {int(s): ref for s, ref in pinned["days"].items()}
