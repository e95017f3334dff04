"""One benchmark run: set-up, the measured loop, metrics and the result line.

Imported by ``run.py`` once the checkout's ``src/`` is on the path.
"""
from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads as wl_mod
from cems import replication_config

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
WARMUP_HOMES = 2

# per-layer metric name -> unit; see README.md for the workload each moves
PER_LAYER_UNITS = {
    "domain.load_s": "s",
    "domain.validate_s": "s",
    "milp.build_s": "s",
    "milp.write_lp_s": "s",
    "solve.assemble_s": "s",
    "solve.highs_s": "s",
    "solve.extract_s": "s",
    "solve.check_s": "s",
    "trading.settle_s": "s",
    "cli.write_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "milp.lp_bytes": "bytes",
    "milp.models": "count",
    "milp.vars": "count",
    "milp.rows": "count",
    "milp.nnz": "count",
    "milp.binaries": "count",
    "solve.calls": "count",
    "solve.nonoptimal": "count",
    "check.violations": "count",
    "solve.stdout_leak_lines": "count",
}
SPAN_METRICS = {
    "domain.load_s": "domain.load",
    "domain.validate_s": "domain.validate",
    "milp.build_s": "milp.build",
    "milp.write_lp_s": "milp.write_lp",
    "solve.extract_s": "solve.extract",
    "solve.check_s": "solve.check",
    "trading.settle_s": "trading.settle",
    "cli.write_s": "cli.write",
}
LAYER_SPANS = (*SPAN_METRICS.values(), "solve.solve_model")
DAY_COUNTS = ("milp.models", "milp.vars", "milp.rows", "milp.nnz", "milp.binaries",
              "solve.calls", "solve.nonoptimal", "check.violations")


def environment() -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


class Bench:
    """One benchmark run: set-up, the measured loop, the metrics."""

    def __init__(self, wl, args, root: Path, work: Path):
        self.wl = wl
        self.root = root
        self.seed = args.seed
        self.work = work
        self.template = replication_config()
        self.runner = wl_mod.Runner(work)
        self.references = wl_mod.load_references(HERE / "references.json", wl, self.seed)
        self.ops: list[dict] = []
        self.setup_times: list[float] = []
        self.leak_lines = 0

    def op(self, config: Path, out: Path, seed_day: int | None, tracer=None) -> dict:
        """Run and check one operation; returns its record."""
        gc.collect()  # each CLI invocation starts without the previous day's garbage
        result = self.runner.run(self.wl.argv(config, out), tracer)
        seen, found = wl_mod.problems(self.wl, result, out, self.references.get(seed_day))
        self.leak_lines += result.leak_lines
        record = {"day_seed": seed_day, "wall_s": result.wall, "traced": tracer is not None,
                  "leak_lines": result.leak_lines, "seen": seen, "problems": found}
        self.ops.append(record)
        return record

    def setup(self) -> float:
        """Median time of a set-up: import ``cems.cli`` in a fresh
        interpreter, write the first day's config, and run one warm-up
        operation on a fixed two-home day in this process."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        times = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import cems.cli"], cwd=self.root, env=env, check=True)
            wl_mod.write_day(self.work / "day.json", self.wl.homes, wl_mod.day_seed(self.seed, 0, self.wl), self.template)
            warm = self.work / "warmup.json"
            wl_mod.write_day(warm, WARMUP_HOMES, wl_mod.DEFAULT_SEED, self.template)
            record = self.op(warm, self.work / "warmup", None)
            times.append(perf_counter() - start)
            if record["problems"]:
                raise RuntimeError(f"warm-up operation failed: {record['problems']}")
        self.setup_times = times
        self.ops.clear()
        return statistics.median(times)

    def days(self, seconds: float):
        """Yield ``(k, day seed, config path)`` until ``seconds`` have passed;
        always at least one day."""
        deadline = perf_counter() + seconds
        k = 0
        while k == 0 or perf_counter() < deadline:
            seed_day = wl_mod.day_seed(self.seed, k, self.wl)
            config = self.work / "day.json"
            wl_mod.write_day(config, self.wl.homes, seed_day, self.template)
            yield k, seed_day, config
            k += 1

    def end_to_end(self, seconds: float, setup_s: float) -> dict:
        peak_rss_mb = None
        for _, seed_day, config in self.days(seconds):
            self.op(config, self.work / "out", seed_day)
            if peak_rss_mb is None:
                # A user runs one day per process.  Read the peak after the
                # first day: how many later days fit in the run depends on
                # timing, and each one can leave the heap more fragmented.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [r["wall_s"] for r in self.ops]
        return {
            "day_s_p50": (statistics.median(walls), "s"),
            "days_per_s": (len(walls) / sum(walls), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def per_layer(self, seconds: float, tracer) -> dict:
        rows, plain, traced = [], [], []
        for k, seed_day, config in self.days(seconds):
            untraced = self.op(config, self.work / "out", seed_day)
            tracer.day = k
            with spans.installed(tracer):
                record = self.op(config, self.work / "out-traced", seed_day, tracer)
            differ = wl_mod.differing_reports(self.wl, self.work / "out", self.work / "out-traced") \
                if not (untraced["problems"] or record["problems"]) else []
            if differ:
                record["problems"].append(f"traced reports differ: {', '.join(differ)}")
            plain.append(untraced["wall_s"])
            traced.append(record["wall_s"])
            rows.append(self._layer_row(tracer, k, record))
        metrics = {
            name: (statistics.median_low if PER_LAYER_UNITS[name] != "s" else statistics.median)(
                [row[name] for row in rows])
            for name in rows[0]
        }
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["solve.stdout_leak_lines"] = self.leak_lines
        return {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}

    @staticmethod
    def _layer_row(tracer, k: int, record: dict) -> dict:
        self_times = tracer.self_times(k)
        counts = tracer.counts[k]
        row = {metric: self_times.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
        row["solve.highs_s"] = counts.get("solve.highs_s", 0.0)
        row["solve.assemble_s"] = self_times.get("solve.solve_model", 0.0) - row["solve.highs_s"]
        layers = sum(self_times.get(span, 0.0) for span in LAYER_SPANS)
        row["trace.unattributed_s"] = sum(self_times.values()) - layers
        row["milp.lp_bytes"] = record["seen"].get("lp_bytes", 0)
        for name in DAY_COUNTS:
            row[name] = counts.get(name, 0)
        return row


def run(args, root: Path) -> int:
    """Run one benchmark and print its result; returns the exit code."""
    import cems

    if not Path(cems.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: imported cems from {cems.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in wl_mod.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = wl_mod.WORKLOADS[args.workload]
    work = root / ".perfbench" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, args, root, work)
    try:
        setup_s = bench.setup()
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        metrics = bench.end_to_end(args.seconds, setup_s)
    else:
        metrics = bench.per_layer(args.seconds, tracer)

    env = environment()
    failed = sum(1 for r in bench.ops if r["problems"])
    detail = {"workload": wl.name, "seed": args.seed, "homes": wl.homes, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": bench.setup_times, "ops": bench.ops,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    if tracer is not None:
        detail["trace_spans"] = tracer.to_dict()
    for name in ("out", "out-traced", "warmup", "day.json", "warmup.json", "fd1.capture"):
        path = work / name
        shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name}: seed {args.seed}, {wl.homes} homes, {len(bench.ops)} ops, "
          f"{failed} failed, trace {args.trace}")
    for r in bench.ops:
        for problem in r["problems"]:
            print(f"failed day {r['day_seed']}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
