"""In-memory span recorder and the wrap points that feed it.

Spans are recorded from outside the program: :func:`installed` replaces
functions at the module attributes through which ``cems.cli``,
``cems.scenarios`` and ``cems.domain`` call them, and restores the originals
on exit, so untraced operations in the same process run the unmodified
code.  The recorder is not thread-safe; the benchmark runs ``--jobs 1``.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans as ``[name, start, end, parent, day]`` plus per-day counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self.day: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.day])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[self.day][name] += amount

    def self_times(self, day: int) -> dict[str, float]:
        """Per span name, the summed self time (duration minus the time its
        direct children cover) of that day's spans."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, d in self.spans:
            if d == day and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, d) in enumerate(self.spans):
            if d == day:
                out[name] += (end - start) - child_time[idx]
        return dict(out)

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "day": d}
                for n, s, e, p, d in self.spans
            ],
            "counts": {str(d): dict(c) for d, c in self.counts.items()},
            "missing_wrap_points": self.missing,
        }


# ---------------------------------------------------------------------------
# hooks: counters read off a wrapped call's result


def _count_model(tracer: Tracer, model) -> None:
    tracer.add("milp.models")
    tracer.add("milp.vars", model.n_variables)
    tracer.add("milp.rows", model.n_constraints)
    tracer.add("milp.binaries", model.n_binaries)
    tracer.add("milp.nnz", sum(len(c.terms) for c in model.constraints))


def _count_solve(tracer: Tracer, solution) -> None:
    tracer.add("solve.calls")
    tracer.add("solve.highs_s", solution.solve_time)
    if solution.status != "optimal":
        tracer.add("solve.nonoptimal")


def _count_check(tracer: Tracer, report) -> None:
    tracer.add("check.violations", len(report.violations))


# (module, attribute, span name, hook)
WRAP_POINTS = (
    ("cems.cli", "load_community_config", "domain.load", None),
    ("cems.cli", "validate_config", "domain.validate", None),
    ("cems.domain", "validate_config", "domain.validate", None),
    ("cems.cli", "run_scenario", "scenario", None),
    ("cems.cli", "build_system_centric_model", "milp.build", _count_model),
    ("cems.cli", "build_home_model", "milp.build", _count_model),
    ("cems.scenarios", "build_system_centric_model", "milp.build", _count_model),
    ("cems.scenarios", "build_home_model", "milp.build", _count_model),
    ("cems.cli", "write_lp", "milp.write_lp", None),
    ("cems.scenarios", "solve_model", "solve.solve_model", _count_solve),
    ("cems.scenarios", "extract_schedule", "solve.extract", None),
    ("cems.scenarios", "check_schedule_feasibility", "solve.check", _count_check),
    ("cems.scenarios", "settle_day", "trading.settle", None),
    ("cems.scenarios", "settle_day_at_external_prices", "trading.settle", None),
    ("cems.cli", "schedule_to_dict", "cli.write", None),
    ("cems.cli", "settlement_to_dict", "cli.write", None),
    ("cems.cli", "_feasibility_to_dict", "cli.write", None),
    ("cems.cli", "_write_json", "cli.write", None),
    ("cems.cli", "_write_csv", "cli.write", None),
    ("cems.cli", "_write_atomic", "cli.write", None),
)


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every wrap point through ``tracer`` for the duration."""
    saved = []
    try:
        for module_name, attr, name, hook in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in tracer.missing:
                    tracer.missing.append(f"{module_name}.{attr}")
                    print(f"perfbench: no wrap point {module_name}.{attr}", file=sys.stderr)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, hook))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
