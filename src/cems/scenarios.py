"""End-to-end scheduling scenarios and cross-scenario reporting.

Three ways to run the same community through a day:

* ``system``: one pooled MILP schedules every home at once, then the local
  market settles the result at the mid-market rate.
* ``prosumer``: every home schedules itself against the external prices;
  the fixed schedules are then pooled and settled at the mid-market rate.
* ``none``: the same selfish schedules, but each home settles directly
  with the external provider; no local market at all.

Every scenario goes through one pipeline, :func:`run_scenarios`: a schedule
step (the pooled model for ``system``, the per-home selfish stage for
``prosumer`` and ``none``), then the independent checker, then settlement.
``prosumer`` and ``none`` differ only in how they settle, so a run asking
for both solves and checks the selfish stage once and settles it twice.

Every run returns a :class:`ScenarioResult` carrying the schedule, the
settlement, an independent feasibility report and the community cost, so
the scenarios plot and compare uniformly.
"""
from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .domain import CommunityConfig, generate_synthetic_community
from .milp import build_home_model, build_system_centric_model
from .solve import (
    CommunitySchedule,
    FeasibilityReport,
    HomeSchedule,
    SolverError,
    SolverOptions,
    check_schedule_feasibility,
    community_cost,
    extract_schedule,
    solve_model,
)
from .trading import SettlementReport, settle_day, settle_day_at_external_prices

SCENARIO_KINDS = ("system", "prosumer", "none")


class InfeasibleHomeError(RuntimeError):
    """A home's own scheduling problem has no feasible day."""

    def __init__(self, home_id: str, status: str):
        super().__init__(f"stage-1 scheduling failed for home {home_id!r}: {status}")
        self.home_id = home_id
        self.status = status


@dataclass(frozen=True)
class ScenarioResult:
    kind: str
    config: CommunityConfig
    schedule: CommunitySchedule
    settlement: SettlementReport
    feasibility: FeasibilityReport
    community_cost: float
    build_time: float
    solve_time: float
    solver_status: str
    objective: float | None = None
    per_home_objective: dict[str, float] | None = None


@dataclass(frozen=True)
class _Scheduled:
    """What a schedule step hands to the check and settle steps."""

    schedule: CommunitySchedule
    build_time: float
    solve_time: float
    solver_status: str
    objective: float | None = None
    per_home_objective: dict[str, float] | None = None


def _schedule_pooled(config: CommunityConfig, options: SolverOptions | None) -> _Scheduled:
    """Solve the community MILP."""
    start = time.perf_counter()
    model = build_system_centric_model(config)
    build_time = time.perf_counter() - start
    solution = solve_model(model, options)
    if solution.values is None:
        raise SolverError(f"system-centric model ended {solution.status}")
    return _Scheduled(
        schedule=extract_schedule(solution, model, config),
        build_time=build_time,
        solve_time=solution.solve_time,
        solver_status=solution.status,
        objective=solution.objective,
    )


def _schedule_selfish(
    config: CommunityConfig, options: SolverOptions | None, jobs: int
) -> _Scheduled:
    """Selfish per-home solves; independent, so optionally run in parallel.

    Results merge in config order regardless of completion order.
    """
    build_time = 0.0
    models = {}
    for home in config.homes:
        start = time.perf_counter()
        models[home.id] = build_home_model(config, home.id)
        build_time += time.perf_counter() - start

    def solve_one(home_id: str):
        return home_id, solve_model(models[home_id], options)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            solutions = dict(pool.map(solve_one, models))
    else:
        solutions = dict(solve_one(hid) for hid in models)

    homes: dict[str, HomeSchedule] = {}
    objectives: dict[str, float] = {}
    solve_time = 0.0
    worst = "optimal"
    for home in config.homes:
        solution = solutions[home.id]
        solve_time += solution.solve_time
        if solution.values is None:
            raise InfeasibleHomeError(home.id, solution.status)
        if solution.status != "optimal":
            worst = solution.status
        one = extract_schedule(solution, models[home.id], config)
        homes[home.id] = one.homes[home.id]
        objectives[home.id] = float(solution.objective)
    net = np.sum([homes[h.id].net for h in config.homes], axis=0)
    return _Scheduled(
        schedule=CommunitySchedule(homes=homes, community_net=net),
        build_time=build_time,
        solve_time=solve_time,
        solver_status=worst,
        per_home_objective=objectives,
    )


def _settle(
    kind: str, config: CommunityConfig, step: _Scheduled, feasibility: FeasibilityReport
) -> ScenarioResult:
    """Settle a checked schedule the way ``kind`` trades.

    ``none`` bills every home at the provider's prices, so its community
    cost is the sum of the individual bills, which double-pays the buy/sell
    spread on any energy that crosses between neighbors.  The other kinds
    settle at the mid-market rate, which is budget balanced against the
    pooled exchange.
    """
    if kind == "none":
        settlement = settle_day_at_external_prices(step.schedule, config)
        cost = settlement.community_daily_cost
    else:
        settlement = settle_day(step.schedule, config)
        cost = community_cost(step.schedule, config)
    # shallow on purpose: results settling one step share its schedule
    return ScenarioResult(
        kind=kind,
        config=config,
        settlement=settlement,
        feasibility=feasibility,
        community_cost=cost,
        **vars(step),
    )


def run_scenarios(
    config: CommunityConfig,
    kinds: Sequence[str] = SCENARIO_KINDS,
    options: SolverOptions | None = None,
    jobs: int = 1,
) -> list[ScenarioResult]:
    """Run each scenario in ``kinds`` on ``config``, results in that order.

    Each schedule step and its checker pass run at most once: the selfish
    stage serves both ``prosumer`` and ``none``, and its schedule and
    feasibility report, arrays included, are shared by the results that
    settle it.  ``jobs`` is the number of threads for the selfish per-home
    solves.  An unknown kind raises :class:`ValueError` before anything is
    solved.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {kind!r}")
    checked: dict[bool, tuple[_Scheduled, FeasibilityReport]] = {}
    results = []
    for kind in kinds:
        selfish = kind != "system"
        if selfish not in checked:
            if selfish:
                step = _schedule_selfish(config, options, jobs)
            else:
                step = _schedule_pooled(config, options)
            # The selfish models never saw the community band, so a breach
            # of it is reportable but not an extraction bug.
            feasibility = check_schedule_feasibility(
                step.schedule,
                config,
                reference_objective=step.objective,
                community_peak_as_warning=selfish,
            )
            checked[selfish] = step, feasibility
        results.append(_settle(kind, config, *checked[selfish]))
    return results


def run_scenario(
    kind: str, config: CommunityConfig, options: SolverOptions | None = None, jobs: int = 1
) -> ScenarioResult:
    return run_scenarios(config, (kind,), options, jobs)[0]


def run_system_centric(config: CommunityConfig, options: SolverOptions | None = None) -> ScenarioResult:
    """Pooled scheduling: solve the community MILP, verify, settle."""
    return run_scenario("system", config, options)


def run_prosumer_centric(
    config: CommunityConfig, options: SolverOptions | None = None, jobs: int = 1
) -> ScenarioResult:
    """Selfish schedules pooled and settled at the mid-market rate.

    Settlement is financial only: the selfish schedules are not re-solved.
    """
    return run_scenario("prosumer", config, options, jobs)


def run_no_cems(
    config: CommunityConfig, options: SolverOptions | None = None, jobs: int = 1
) -> ScenarioResult:
    """Selfish schedules, each home billed by the external provider alone."""
    return run_scenario("none", config, options, jobs)


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Costs and external exchanges of several scenario runs, side by side."""

    scenarios: tuple[str, ...]
    community_cost: dict[str, float]
    per_home_cost: dict[str, dict[str, float]]
    ep_demand: dict[str, np.ndarray]
    ep_sales: dict[str, np.ndarray]


def compare(results: Sequence[ScenarioResult]) -> ComparisonReport:
    """Tabulate community cost, per-home cost and per-slot external
    demand/sales across runs of the same config."""
    if not results:
        raise ValueError("nothing to compare")
    first = results[0].config
    for r in results[1:]:
        if r.config != first:
            raise ValueError(f"scenario {r.kind!r} ran on a different config")
    return ComparisonReport(
        scenarios=tuple(r.kind for r in results),
        community_cost={r.kind: r.community_cost for r in results},
        per_home_cost={r.kind: dict(r.settlement.per_home_daily_cost) for r in results},
        ep_demand={r.kind: np.maximum(r.schedule.community_net, 0.0) for r in results},
        ep_sales={r.kind: np.maximum(-r.schedule.community_net, 0.0) for r in results},
    )


def comparison_to_dict(report: ComparisonReport) -> dict:
    return {
        "scenarios": list(report.scenarios),
        "community_cost": dict(report.community_cost),
        "per_home_cost": {k: dict(v) for k, v in report.per_home_cost.items()},
        "ep_demand": {k: list(v) for k, v in report.ep_demand.items()},
        "ep_sales": {k: list(v) for k, v in report.ep_sales.items()},
    }


def comparison_to_csv(report: ComparisonReport, stream: IO[str]) -> None:
    """One row per scenario: ``scenario,community_cost``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["scenario", "community_cost"])
    for kind in report.scenarios:
        writer.writerow([kind, repr(report.community_cost[kind])])


def comparison_homes_to_csv(report: ComparisonReport, stream: IO[str]) -> None:
    """One row per (scenario, home): ``scenario,home,cost``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["scenario", "home", "cost"])
    for kind in report.scenarios:
        for home, cost in report.per_home_cost[kind].items():
            writer.writerow([kind, home, repr(cost)])


def comparison_slots_to_csv(report: ComparisonReport, stream: IO[str]) -> None:
    """One row per (scenario, slot): ``scenario,slot,ep_demand,ep_sales``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["scenario", "slot", "ep_demand", "ep_sales"])
    for kind in report.scenarios:
        demand, sales = report.ep_demand[kind], report.ep_sales[kind]
        for t in range(len(demand)):
            writer.writerow([kind, t + 1, repr(float(demand[t])), repr(float(sales[t]))])


# ---------------------------------------------------------------------------
# scaling benchmark


@dataclass(frozen=True)
class BenchRow:
    n_homes: int
    build_time: float
    solve_time: float
    status: str
    objective: float | None
    n_variables: int
    n_constraints: int
    n_binaries: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    sizes: tuple[int, ...]
    seed: int


def bench_scaling(
    sizes: Sequence[int],
    seed: int,
    template: CommunityConfig,
    options: SolverOptions | None = None,
) -> BenchReport:
    """Build and solve system-centric models for scaled communities.

    Communities come from :func:`generate_synthetic_community`, so model
    dimensions grow linearly in the home count.  A row that fails records
    its status and the run continues with the next size.
    """
    options = options or SolverOptions(relative_mip_gap=1e-3)
    rows = []
    for n in sizes:
        config = generate_synthetic_community(n, seed, template)
        start = time.perf_counter()
        model = build_system_centric_model(config)
        build_time = time.perf_counter() - start
        try:
            solution = solve_model(model, options)
            status, objective, solve_time = solution.status, solution.objective, solution.solve_time
        except SolverError as exc:
            status, objective, solve_time = f"error: {exc}", None, 0.0
        rows.append(
            BenchRow(
                n_homes=n,
                build_time=build_time,
                solve_time=solve_time,
                status=status,
                objective=objective,
                n_variables=model.n_variables,
                n_constraints=model.n_constraints,
                n_binaries=model.n_binaries,
            )
        )
    return BenchReport(rows=tuple(rows), sizes=tuple(sizes), seed=seed)


def bench_to_csv(report: BenchReport, stream: IO[str]) -> None:
    """Deterministic part of the benchmark (no wall times):
    ``n_homes,status,objective,variables,constraints,binaries``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n_homes", "status", "objective", "variables", "constraints", "binaries"])
    for r in report.rows:
        writer.writerow(
            [r.n_homes, r.status, "" if r.objective is None else repr(r.objective),
             r.n_variables, r.n_constraints, r.n_binaries]
        )


def bench_timings_to_csv(report: BenchReport, stream: IO[str]) -> None:
    """Wall times, kept out of the deterministic report:
    ``n_homes,build_time_s,solve_time_s``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n_homes", "build_time_s", "solve_time_s"])
    for r in report.rows:
        writer.writerow([r.n_homes, f"{r.build_time:.6f}", f"{r.solve_time:.6f}"])


def bench_to_dict(report: BenchReport) -> dict:
    return {
        "sizes": list(report.sizes),
        "seed": report.seed,
        "rows": [
            {
                "n_homes": r.n_homes,
                "status": r.status,
                "objective": r.objective,
                "variables": r.n_variables,
                "constraints": r.n_constraints,
                "binaries": r.n_binaries,
            }
            for r in report.rows
        ],
    }
