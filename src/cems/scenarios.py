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

:func:`run_scenarios` builds each step's binary-free LPs and hands them to
one step function, :func:`_solve_lp_first`: the LPs, then a netting step
that removes each home's same-slot buying and selling, the binaries set
from the flows, then the checker.  A clean check at the LPs' cost proves
the schedule MILP-optimal; anything else builds and solves the exact MILP
for the models at fault.  The step reports every backend call as the
:class:`~cems.solve.Solution` it returned, with the values in column
order.

Every run returns a :class:`ScenarioResult`: the checked step plus the
settlement and the community cost, so the scenarios plot and compare
uniformly.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from typing import IO, Callable, Sequence

import numpy as np

from .domain import CommunityConfig, generate_synthetic_community
from .milp import (
    HomeModelBatch,
    MilpModel,
    build_home_model,
    build_system_centric_model,
)
from .solve import (
    CommunitySchedule,
    FeasibilityReport,
    LpSession,
    Solution,
    SolverError,
    SolverOptions,
    check_schedule_feasibility,
    extract_schedule,
    solve_model,
)
from .trading import SettlementReport, settle_day, settle_day_at_external_prices

SCENARIO_KINDS = ("system", "prosumer", "none")

# which solves produced a schedule step: the binary-free LPs alone, proven
# optimal by the checker, or the exact MILP for at least one of its models
LP_CERTIFIED = "lp-certified"
MILP_FALLBACK = "milp-fallback"


class InfeasibleHomeError(RuntimeError):
    """A home's own scheduling problem has no feasible day."""

    def __init__(self, home_id: str, status: str):
        super().__init__(f"stage-1 scheduling failed for home {home_id!r}: {status}")
        self.home_id = home_id
        self.status = status


@dataclass(frozen=True)
class _Scheduled:
    """A checked schedule step.  ``solve_path`` is :data:`LP_CERTIFIED` or
    :data:`MILP_FALLBACK`; ``fallback_reason`` says why the MILP ran: the
    LP's status (``lp_<status>``), the checker's violated families and
    ``cost_mismatch``, comma-separated.  ``solves`` holds every backend
    call of the step, in order.  A pooled step has an ``objective``, a
    selfish one a ``per_home_objective``."""

    schedule: CommunitySchedule
    feasibility: FeasibilityReport
    build_time: float
    solve_time: float
    solver_status: str
    solve_path: str
    objective: float | None = None
    per_home_objective: dict[str, float] | None = None
    fallback_reason: str | None = None
    solves: tuple[Solution, ...] = ()


@dataclass(frozen=True, kw_only=True)
class ScenarioResult(_Scheduled):
    """One scenario's day: its schedule step, settled the way ``kind``
    trades, at ``community_cost``."""

    kind: str
    config: CommunityConfig
    settlement: SettlementReport
    community_cost: float


# each netting move: a sale, the purchase it meets, and the flow that
# carries the matched energy inside the home instead
_NETTING = (("res_sell", "com_load", "res_load"),
            ("ess_sell", "com_load", "ess_load"),
            ("res_sell", "com_charge", "res_charge"))
_NETTED = ("com_buy", "com_sell", "res_sell", "ess_sell", "com_load", "com_charge", "res_load",
           "ess_load", "res_charge")


def _net_overlaps(s: CommunitySchedule, rows: np.ndarray) -> CommunitySchedule:
    """Remove the same-slot overlap of buying and selling from schedule
    ``s``'s ``rows`` (a mask over its homes), in three moves made in turn:
    PV sold while the home's load is bought serves the load, storage
    discharged to the pool while the load is bought serves the load, and
    PV sold while the storage is charged from the pool charges it.  Each
    move lowers the purchase and the sale by the amount it moves, so every
    home's net, its storage books and the community's cost stay as they
    were.  Storage discharged to the pool while it is charged from the pool
    is left alone: moving it would change the storage books.  Entries no
    move touches keep their bits."""
    flows = {role: getattr(s, role).copy() for role in _NETTED}
    for sale, purchase, inside in _NETTING:
        amount = np.where(rows[:, None], np.minimum(flows[sale], flows[purchase]), 0.0)
        moved = amount > 0.0
        amount = amount[moved]
        for role in (sale, purchase, "com_buy", "com_sell"):
            flows[role][moved] -= amount
        flows[inside][moved] += amount
    return replace(s, community_net=None, **flows)


def _binaries_from_flows(s: CommunitySchedule, rows: np.ndarray) -> CommunitySchedule:
    """Set the binaries of schedule ``s``'s ``rows`` (a mask over its
    homes) from the flows they gate: a home's storage mode is 1 where it
    charges more than it discharges, and its trading mode is 1 where it
    buys more than it sells.  When every row is set, so is the community
    status: 1 where the community imports."""
    rows = rows[:, None]
    return replace(
        s,
        mode_home=np.where(rows, s.com_buy > s.com_sell, s.mode_home),
        mode_ess=np.where(rows, s.res_charge + s.com_charge > s.ess_load + s.ess_sell, s.mode_ess),
        status_flags=s.status_flags if s.status_flags is None or not rows.all()
        else (s.community_net > 0).astype(float),
    )


def _faulted(
    report: FeasibilityReport, owner: dict[str, int], candidates: set[int]
) -> dict[int, set[str]]:
    """The candidate models the report faults, each with its reasons.  A
    violation names the model that owns its home; one naming no home, and
    a cost mismatch, fault every candidate."""
    reasons: dict[int, set[str]] = {}
    for v in report.violations:
        i = owner.get(v.home)
        for j in candidates if i is None else candidates & {i}:
            reasons.setdefault(j, set()).add(v.family)
    if not report.cost_matches_solver:
        for j in candidates:
            reasons.setdefault(j, set()).add("cost_mismatch")
    return reasons


def _solve_lp_first(
    models: Sequence[MilpModel],
    milp: Callable[[int], MilpModel],
    config: CommunityConfig,
    options: SolverOptions | None,
    build_time: float,
    selfish: bool,
) -> _Scheduled:
    """The schedule step: solve its built binary-free LPs (the pooled
    model's, or one per home) and check the schedule they make together
    once; ``milp(i)`` builds the exact MILP of model ``i``, only for a
    model that falls back.

    The LP solutions are extracted into one schedule at once; the rows
    solved as LPs are netted (:func:`_net_overlaps`) and their binaries set
    from their flows.  The LP is a relaxation of the MILP, so its value
    bounds the MILP optimum from below, and a schedule that passes the
    checker at the LP's cost is an optimal MILP solution.  A model whose LP
    is not ``optimal``, or that the checker faults, is built and re-solved
    as the exact MILP; its rows, with the MILP's own binaries, replace its
    LP rows, and the schedule is checked again.  The pooled LP objective is
    the checker's cost reference; a selfish home's bill is linear in its
    flows, which netting and the binaries do not change, and its models
    never saw the community band, so a breach of it is a warning.  The
    step's ``build_time`` adds the fallback MILPs' builds to the given one.

    The models are solved one after another in the order given, in one
    :class:`~cems.solve.LpSession`: the LPs of one sparsity structure (the
    homes of one DER pattern) share a HiGHS instance, and each starts from
    the optimal basis of the last LP before it of that structure that ended
    ``optimal``, so only the first LP of each structure runs cold.  A start
    moves the LP along another path to an optimal vertex, so a value can
    differ from a cold solve's in its last bits; the checker still judges
    every schedule.  The fallback MILPs each run on a fresh instance.

    A MILP left without values raises :class:`SolverError` for the pooled
    model and :class:`InfeasibleHomeError` for a home.
    """
    solved: dict[int, MilpModel] = {}  # the model of each model's last solve
    solutions: dict[int, Solution] = {}  # and that solve
    exact: dict[int, set[str]] = {}  # models re-solved as the MILP, and why
    solves: list[Solution] = []
    owner = {hid: i for i, m in enumerate(models) for hid in m.layout.homes}

    def solve(batch: dict[int, MilpModel]) -> None:
        session = LpSession(options)
        for i, m in batch.items():
            solved[i] = m
            solutions[i] = solve_model(m, session=session)
            solves.append(solutions[i])

    def fall_back(reasons: dict[int, set[str]]) -> None:
        """Build and solve the faulted models' MILPs."""
        nonlocal build_time
        exact.update(reasons)
        start = time.perf_counter()
        batch = {i: milp(i) for i in sorted(reasons)}
        build_time += time.perf_counter() - start
        solve(batch)
        for i in batch:
            solution = solutions[i]
            if solution.x is None:
                if selfish:
                    raise InfeasibleHomeError(models[i].layout.homes[0], solution.status)
                raise SolverError(f"system-centric model ended {solution.status}", solution.status)

    def assemble() -> CommunitySchedule:
        """The schedule of every model's last solve, extracted at once,
        with the rows solved as LPs netted and their binaries set from
        their flows; a re-solved model's rows keep the MILP's own
        binaries."""
        order = range(len(models))
        schedule = extract_schedule([solutions[i] for i in order], [solved[i] for i in order], config)
        lp_rows = np.array([owner[hid] not in exact for hid in schedule.homes])
        return _binaries_from_flows(_net_overlaps(schedule, lp_rows), lp_rows)

    def check(schedule: CommunitySchedule) -> FeasibilityReport:
        return check_schedule_feasibility(
            schedule,
            config,
            reference_objective=None if selfish else solutions[0].objective,
            community_peak_as_warning=selfish,
        )

    solve(dict(enumerate(models)))
    unsolved = {i: {f"lp_{s.status}"} for i, s in solutions.items() if s.status != "optimal"}
    if unsolved:
        fall_back(unsolved)
    schedule = assemble()
    feasibility = check(schedule)
    faulted = _faulted(feasibility, owner, set(range(len(models))) - set(exact))
    if faulted:
        fall_back(faulted)
        schedule = assemble()
        feasibility = check(schedule)

    final = [solutions[i] for i in range(len(models))]
    return _Scheduled(
        schedule=schedule,
        feasibility=feasibility,
        build_time=build_time,
        solve_time=sum(s.solve_time for s in solves),
        solver_status=next((s.status for s in reversed(final) if s.status != "optimal"), "optimal"),
        solve_path=MILP_FALLBACK if exact else LP_CERTIFIED,
        objective=None if selfish else final[0].objective,
        per_home_objective={m.layout.homes[0]: float(s.objective) for m, s in zip(models, final)}
        if selfish else None,
        fallback_reason=",".join(sorted(set().union(*exact.values()))) or None,
        solves=tuple(solves),
    )


def _settle(kind: str, config: CommunityConfig, step: _Scheduled) -> ScenarioResult:
    """Settle a checked schedule the way ``kind`` trades.

    ``none`` bills every home at the provider's prices, so its community
    cost is the sum of the individual bills, which double-pays the buy/sell
    spread on any energy that crosses between neighbors.  The other kinds
    settle at the mid-market rate, which is budget balanced against the
    pooled exchange's bill.  Either way the settlement's daily total is the
    community cost.
    """
    if kind == "none":
        settlement = settle_day_at_external_prices(step.schedule, config)
    else:
        settlement = settle_day(step.schedule, config)
    # shallow on purpose: results settling one step share its schedule
    return ScenarioResult(
        kind=kind,
        config=config,
        settlement=settlement,
        community_cost=settlement.community_daily_cost,
        **vars(step),
    )


def run_scenarios(
    config: CommunityConfig,
    kinds: Sequence[str] = SCENARIO_KINDS,
    options: SolverOptions | None = None,
) -> list[ScenarioResult]:
    """Run each scenario in ``kinds`` on ``config``, results in that order.

    Each schedule step runs at most once: the selfish
    stage serves both ``prosumer`` and ``none``, and its schedule and
    feasibility report, arrays included, are shared by the results that
    settle it.  An unknown kind raises :class:`ValueError` before anything
    is solved.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {kind!r}")
    steps: dict[bool, _Scheduled] = {}
    results = []
    for kind in kinds:
        selfish = kind != "system"
        if selfish not in steps:
            start = time.perf_counter()
            # every build goes through this module's build_home_model and
            # build_system_centric_model, which the benchmark's tracer
            # (perfbench/spans.py) wraps to time and count every model
            if selfish:
                # home by home, cut from one batch of numbers
                batch = HomeModelBatch(config, lp=True)
                models = [build_home_model(config, home.id, batch, lp=True) for home in config.homes]
                milp = lambda i: build_home_model(config, config.homes[i].id)  # noqa: E731
            else:
                models = [build_system_centric_model(config, lp=True)]
                milp = lambda i: build_system_centric_model(config)  # noqa: E731
            build_time = time.perf_counter() - start
            steps[selfish] = _solve_lp_first(models, milp, config, options, build_time, selfish)
        results.append(_settle(kind, config, steps[selfish]))
    return results


def run_scenario(kind: str, config: CommunityConfig, options: SolverOptions | None = None) -> ScenarioResult:
    """Run one scenario: ``system``, ``prosumer`` or ``none``."""
    return run_scenarios(config, (kind,), options)[0]


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
    solve_path: str | None  # None when the backend failed


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
    dimensions grow linearly in the home count.  Each row reports the size
    of the paper's model, the MILP, and solves the day as the ``system``
    scenario (:func:`run_scenario`): its binary-free LP first, the MILP
    only as the fallback.  The build time covers the size MILP and the
    scenario's builds.  A row that fails records its status and the run
    continues with the next size.
    """
    options = options or SolverOptions(relative_mip_gap=1e-3)
    rows = []
    for n in sizes:
        config = generate_synthetic_community(n, seed, template)
        start = time.perf_counter()
        model = build_system_centric_model(config)
        build_time = time.perf_counter() - start
        try:
            result = run_scenario("system", config, options)
            status, objective, solve_time = result.solver_status, result.objective, result.solve_time
            solve_path = result.solve_path
            build_time += result.build_time
        except SolverError as exc:
            # a model the step left without values has been through the MILP
            status, objective, solve_time = exc.status or f"error: {exc}", None, 0.0
            solve_path = None if exc.status is None else MILP_FALLBACK
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
                solve_path=solve_path,
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
    """Wall times and the solve path, kept out of the deterministic report:
    ``n_homes,build_time_s,solve_time_s,solve_path``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n_homes", "build_time_s", "solve_time_s", "solve_path"])
    for r in report.rows:
        writer.writerow([r.n_homes, f"{r.build_time:.6f}", f"{r.solve_time:.6f}", r.solve_path or ""])


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
