"""Solving, schedule extraction and independent feasibility checking.

The solver boundary is deliberately narrow: :func:`solve_model` hands the
arrays of a solver-neutral model from :mod:`cems.milp` to the backend and
returns a plain :class:`Solution` (status, objective, the values in column
order, and for a MILP the node count and dual bound).  A solve runs on a
fresh solver instance, unless an LP is given an :class:`LpSession`: then
it refills the session's instance of its structure and starts from that
structure's last optimal basis.  The bundled backend is the HiGHS solver
that SciPy ships: the model's arrays are handed to its bindings
(``scipy.optimize._highspy._core``) directly, with the options SciPy's MILP
front end would pass, and without that front end's per-call conversions and
checks.

:func:`check_schedule_feasibility` re-derives every physical constraint from
the raw config (temperatures through :mod:`cems.thermal`, storage books
re-accumulated from flows) rather than trusting the model rows, so it also
guards against builder bugs.
"""
from __future__ import annotations

import sys
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

try:
    # SciPy's own bindings of the HiGHS solver it bundles
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    raise ImportError(
        "cems needs SciPy >= 1.15, the first release that ships the HiGHS "
        "bindings scipy.optimize._highspy._core"
    ) from exc

from .domain import CommunityConfig, HomeConfig, is_number
from .milp import COMMUNITY, ROLE, ROLES, MilpModel
from .thermal import indoor_temperatures, pv_output_energy
from .trading import community_cost

_MS = _highs.HighsModelStatus
_MINIMIZE = int(_highs.ObjSense.kMinimize)

MODE_ROUND_TOL = 1e-6
# the checker's one tolerance: a magnitude not within it is a breach
TOLERANCE = 1e-6


class SolverError(Exception):
    """The backend failed for a reason other than infeasible/unbounded
    (``status`` is then ``None``), or a schedule step's model ended without
    values (``status`` is that model's)."""

    def __init__(self, message: str, status: str | None = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class SolverOptions:
    """Knobs forwarded to the backend: the relative MIP gap at which a solve
    stops, and an optional wall-time limit in seconds per solve."""

    relative_mip_gap: float = 1e-6
    time_limit: float | None = None


@dataclass(frozen=True)
class Solution:
    """What one solve of the model named ``model`` reported.  ``x`` holds
    the values in the model's column order, ``None`` when there are none.
    The branch-and-bound node count and dual bound are ``None`` for an LP.
    ``simplex_iterations`` is HiGHS's count, and ``warm_start`` says whether
    the solve started from a basis HiGHS accepted."""

    model: str
    status: str
    objective: float | None
    x: np.ndarray | None
    solve_time: float
    mip_gap: float | None = None
    message: str = ""
    mip_node_count: int | None = None
    mip_dual_bound: float | None = None
    simplex_iterations: int | None = None
    warm_start: bool = False


def _structure(model: MilpModel) -> tuple:
    """What two LPs must share for one's basis to start the other."""
    return model.n_variables, model.indptr.tobytes(), model.indices.tobytes()


class LpSession:
    """Kept HiGHS instances for a sequence of LP solves: one per sparsity
    structure (column count, row pointers and column indices), given the
    session's options once, together with the last optimal basis of that
    structure.  :func:`solve_model` refills an LP's kept instance and
    starts it from that basis.  A session is meant to serve one schedule
    step's LPs and then be dropped; its instances live until then.  The
    options are the ones SciPy's MILP front end would pass: no console
    log, presolve on and the MIP gap; a time limit is set before each run
    (:func:`solve_model`)."""

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()
        self._highs_options = _highs.HighsOptions()
        self._highs_options.log_to_console = False
        self._highs_options.presolve = "on"
        self._highs_options.mip_rel_gap = self.options.relative_mip_gap
        # per structure: its instance and its last optimal basis
        self._kept: dict[tuple, list] = {}

    def _new(self):
        """A fresh instance with the session's options."""
        highs = _highs._Highs()
        if highs.passOptions(self._highs_options) == _highs.HighsStatus.kError:
            raise SolverError("solver failed: HiGHS rejected the options")
        return highs

    def _entry(self, model: MilpModel) -> list:
        """The ``[instance, basis]`` of ``model``'s structure, made on first use."""
        key = _structure(model)
        if key not in self._kept:
            self._kept[key] = [self._new(), None]
        return self._kept[key]

    def basis(self, model: MilpModel) -> object:
        """The last optimal basis of ``model``'s structure in this session,
        ``None`` before one; opaque."""
        entry = self._kept.get(_structure(model))
        return None if entry is None else entry[1]


def solve_model(model: MilpModel, options: SolverOptions | None = None,
                session: LpSession | None = None) -> Solution:
    """Solve a model with the bundled HiGHS backend.

    The model's arrays go straight into HiGHS through the NumPy-array
    overload of the bindings' ``passModel``, with no copy into Python
    lists: the CSR matrix row-wise, and ``integrality`` as one int32 per
    column, whose codes (0 continuous, 1 integer, a binary by its bounds)
    are HiGHS's own column types.  An LP passes all zeros; HiGHS rejects
    an empty array.  The builders validated the arrays, so nothing is
    re-checked or re-shaped here.

    With a ``session`` (:class:`LpSession`), an LP does not get a fresh
    solver: it refills the session's instance of its structure, which
    ``passModel`` leaves cold, and starts from that structure's last
    optimal basis, if any; an LP that ends ``optimal`` leaves its basis
    there for the next.  This departs from a fresh solver per solve: what
    carries over is the instance and that one basis, never another model's
    numbers.  A MILP always runs on a fresh instance and never starts
    from a basis.  The session's options apply; ``options``, if given,
    must equal them.  Without a session, the solve runs on a fresh
    instance, cold.  HiGHS measures a time limit against an instance's
    run clock, which adds up over its runs, so the limit is set before
    each run to that clock plus the limit: it bounds each solve alone.
    ``solve_time`` is HiGHS's own ``run()``.
    """
    if session is None:
        session = LpSession(options)
    elif options is not None and options != session.options:
        raise ValueError("solve_model: options differ from the session's")
    is_mip = model.n_binaries > 0
    entry = None if is_mip else session._entry(model)
    highs = session._new() if is_mip else entry[0]
    time_limit = session.options.time_limit
    if (highs.passModel(
                model.n_variables, model.n_constraints, model.nnz, _highs.MatrixFormat.kRowwise,
                _MINIMIZE, 0.0, model.c, model.lb, model.ub, model.row_lower, model.row_upper,
                model.indptr[:-1], model.indices, model.data, model.integrality.astype(np.int32),
            ) == _highs.HighsStatus.kError
            or time_limit is not None and highs.setOptionValue(
                "time_limit", highs.getRunTime() + time_limit) == _highs.HighsStatus.kError):
        raise SolverError(f"solver failed on {model.name}: HiGHS rejected the model or its options")
    # HiGHS checks a start against the model and leaves itself cold on a misfit
    warm = (entry is not None and entry[1] is not None
            and highs.setBasis(entry[1]) != _highs.HighsStatus.kError)
    began = time.perf_counter()
    run_status = highs.run()
    elapsed = time.perf_counter() - began
    model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    if run_status == _highs.HighsStatus.kError:
        raise SolverError(f"solver failed on {model.name}: {message}")

    info = highs.getInfo()
    if model_status == _MS.kOptimal:
        status = "optimal"
    elif model_status in (_MS.kTimeLimit, _MS.kIterationLimit):
        # a MILP stopped early may hold an incumbent; an LP holds nothing usable
        has_incumbent = is_mip and info.objective_function_value != _highs.kHighsInf
        status = "feasible" if has_incumbent else "time_limit"
    elif model_status in (_MS.kInfeasible, _MS.kModelError):
        status = "infeasible"
    elif model_status == _MS.kUnbounded:
        status = "unbounded"
    else:
        raise SolverError(f"solver failed on {model.name}: {message}")
    iterations = info.simplex_iteration_count
    if status not in ("optimal", "feasible"):
        return Solution(model=model.name, status=status, objective=None, x=None,
                        solve_time=elapsed, message=message, simplex_iterations=iterations,
                        warm_start=warm)
    if entry is not None and status == "optimal":
        entry[1] = highs.getBasis()
    return Solution(
        model=model.name,
        status=status,
        objective=info.objective_function_value,
        x=np.array(highs.getSolution().col_value),
        solve_time=elapsed,
        mip_gap=info.mip_gap if is_mip else None,
        message=message,
        mip_node_count=info.mip_node_count if is_mip else None,
        mip_dual_bound=info.mip_dual_bound if is_mip else None,
        simplex_iterations=iterations,
        warm_start=warm,
    )


# ---------------------------------------------------------------------------
# schedules


# the roles of a schedule's (home, slot) arrays: indoor_temp has T + 1
# columns, the first the start-of-day temperature, and every other role T
SCHEDULE_ROLES = (
    "indoor_temp", "hvac_power", "com_load", "com_buy", "com_sell", "mode_home", "ess_level",
    "ess_load", "ess_sell", "com_charge", "res_charge", "res_load", "res_sell", "mode_ess",
)


@dataclass(frozen=True, eq=False)
class CommunitySchedule:
    """A day's decision values: one (home, slot) array per role, with a row
    per home of ``homes``, plus the community aggregates.  Roles of absent
    DERs are all-zero.

    ``community_net`` defaults to the sum of the homes' nets, added row by
    row.  ``status_flags`` and ``slot_costs`` are present only for
    schedules that came out of the system-centric model.
    """

    homes: tuple[str, ...]
    hvac_power: np.ndarray
    indoor_temp: np.ndarray
    com_load: np.ndarray
    com_buy: np.ndarray
    com_sell: np.ndarray
    mode_home: np.ndarray
    ess_level: np.ndarray
    ess_load: np.ndarray
    ess_sell: np.ndarray
    com_charge: np.ndarray
    res_charge: np.ndarray
    res_load: np.ndarray
    res_sell: np.ndarray
    mode_ess: np.ndarray
    community_net: np.ndarray | None = None
    status_flags: np.ndarray | None = None
    slot_costs: np.ndarray | None = None

    def __post_init__(self):
        if self.community_net is None:
            object.__setattr__(self, "community_net", np.sum(self.net, axis=0))

    @property
    def net(self) -> np.ndarray:
        """Each home's draw from (positive) or push to (negative) the pool."""
        return self.com_buy - self.com_sell


def _round_mode(x: np.ndarray) -> np.ndarray:
    rounded = np.round(x)
    return np.where(np.abs(x - rounded) <= MODE_ROUND_TOL, rounded, x)


def extract_schedule(solution: Solution | Sequence[Solution], model: MilpModel | Sequence[MilpModel],
                     config: CommunityConfig) -> CommunitySchedule:
    """Turn raw variable values into a schedule of the model's homes.

    ``solution`` and ``model`` are one model and its solve, or sequences of
    several models and the solve of each, which make one schedule of all
    their homes; a home model alone yields a one-home schedule.  Works for
    both model kinds.  The values of every model are scattered at once
    into a (role, home, slot) grid through the models' column codes, each
    model's homes numbered after the previous models', and each role's
    rows, in config order, are taken at once.  Mode and status values
    within ``1e-6`` of an integer are rounded to it; values farther away
    are left for the checker to flag.  The community's columns (of the
    pooled model) give the status flags and slot costs; a model without a
    mode or status column, such as a binary-free LP, gives zeros there.  A
    solution without values raises ``ValueError``, and so does a model home
    the config lacks (the first in model order) or one that two models
    share.
    """
    solutions, models = ([solution], [model]) if isinstance(model, MilpModel) else (solution, model)
    for solution in solutions:
        if solution.x is None:
            raise ValueError(f"solution has status {solution.status!r} and carries no values")
    T = config.horizon_slots
    homes = [hid for model in models for hid in model.layout.homes]
    ids = {home.id for home in config.homes}
    unknown = next((hid for hid in homes if hid not in ids), None)
    if unknown is not None:
        raise ValueError(f"model has home {unknown!r}, which the config lacks")
    position = {hid: code for code, hid in enumerate(homes)}
    if len(position) < len(homes):
        raise ValueError("a home is in more than one model")
    present = [home for home in config.homes if home.id in position]
    if not present:
        raise ValueError("model names no home of this config")

    layouts = [model.layout for model in models]
    var_home = np.concatenate([lay.var_home for lay in layouts])
    first = np.cumsum([0] + [len(lay.homes) for lay in layouts[:-1]])
    owner = np.repeat(first, [len(lay.var_home) for lay in layouts])
    # the community's entries land in the last home position
    grid = np.zeros((len(ROLES), len(homes) + 1, T))
    grid[np.concatenate([lay.var_role for lay in layouts]),
         np.where(var_home == COMMUNITY, COMMUNITY, var_home + owner),
         np.concatenate([lay.var_slot for lay in layouts]) - 1] = np.concatenate([s.x for s in solutions])

    block = grid[:, [position[home.id] for home in present]]
    arrays = {role: block[ROLE[role]] for role in SCHEDULE_ROLES if role != "indoor_temp"}
    arrays.update({role: _round_mode(arrays[role]) for role in ("mode_home", "mode_ess")})
    arrays["indoor_temp"] = np.empty((len(present), T + 1))
    arrays["indoor_temp"][:, 0] = [home.hvac.t_in_initial for home in present]
    arrays["indoor_temp"][:, 1:] = block[ROLE["temp_in"]]
    has_community = bool(np.any(var_home == COMMUNITY))
    return CommunitySchedule(
        homes=tuple(home.id for home in present),
        **arrays,
        status_flags=_round_mode(grid[ROLE["status"], COMMUNITY]) if has_community else None,
        slot_costs=grid[ROLE["slot_cost"], COMMUNITY] if has_community else None,
    )


# ---------------------------------------------------------------------------
# independent feasibility checking


@dataclass(frozen=True)
class Violation:
    family: str
    home: str | None
    slot: int | None
    magnitude: float


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...]
    max_violation: float
    cost_recomputed: float
    cost_matches_solver: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def _storage_levels(initial, outflow: np.ndarray, inflow: np.ndarray) -> np.ndarray:
    """Each slot's closing storage level under ``level = level - outflow +
    inflow``, along the last axis from one ``initial`` level per row,
    rounded exactly as that loop rounds: ``a - b`` is ``a + (-b)`` in
    floating point, and ``np.add.accumulate`` adds strictly left to right."""
    steps = np.empty(outflow.shape[:-1] + (2 * outflow.shape[-1] + 1,))
    steps[..., 0] = initial
    steps[..., 1::2] = -outflow
    steps[..., 2::2] = inflow
    return np.add.accumulate(steps, axis=-1)[..., 2::2]


def _breached(magnitude: np.ndarray) -> np.ndarray:
    # NaN is never within the tolerance
    return ~(magnitude <= TOLERANCE)


def _in_report_order(entries: list[tuple], homes: list) -> list[Violation]:
    """The breaches of ``entries``, each ``(family, block, magnitude,
    breached)`` with (home, slot) arrays whose rows are ``homes``: home by
    home, then block by block, then slot by slot, then family by family in
    the order of ``entries``."""
    breached = np.stack([e[3] for e in entries], axis=1)
    if not breached.any():
        return []
    magnitude = np.stack([e[2] for e in entries], axis=1)
    home, family, slot = np.nonzero(breached)
    block = np.array([e[1] for e in entries])
    order = np.lexsort((family, slot, block[family], home))
    home, family, slot = home[order], family[order], slot[order]
    return [Violation(entries[f][0], homes[h], t + 1, m)
            for h, f, t, m in zip(home.tolist(), family.tolist(), slot.tolist(),
                                  magnitude[home, family, slot].tolist())]


def check_schedule_feasibility(
    schedule: CommunitySchedule,
    config: CommunityConfig,
    reference_objective: float | None = None,
    community_peak_as_warning: bool = False,
) -> FeasibilityReport:
    """Re-verify a schedule against the raw config, at :data:`TOLERANCE`.

    Temperatures are re-simulated from HVAC powers and storage levels
    re-accumulated from flows, then compared with the schedule's own arrays,
    so a schedule cannot pass on the strength of its claimed state
    variables.  A value that is not a number is a breach wherever it
    enters, and the checker never raises on one.
    ``community_peak_as_warning`` downgrades pool-band breaches to warnings;
    the selfish baselines never constrained that band, so a breach there is
    reportable but not an extraction bug.

    Each constraint family is one array expression over the (home, slot)
    grid of every scheduled home.  Breaches are reported home by home in
    config order, then one ``unknown_home`` per schedule row whose home the
    config lacks, in row order, then community-wide; within a home, block
    by block in the order :func:`_check_homes` writes them, and within a
    block slot by slot, each slot's families in the block's order.  A
    block may hold families that apply to different homes (with PV or
    without, with storage or without).
    """
    violations: list[Violation] = []
    warnings: list[Violation] = []

    row = {hid: i for i, hid in enumerate(schedule.homes)}
    present = [home for home in config.homes if home.id in row]
    missing = [Violation("missing_home", home.id, None, np.inf)
               for home in config.homes if home.id not in row]
    if present:
        # a family that does not apply to a home may be NaN there; it is masked
        with np.errstate(invalid="ignore"):
            violations += _check_homes(present, schedule, [row[home.id] for home in present], config)
    if missing:
        # a missing home's one violation goes where that home's breaches would
        position = {home.id: i for i, home in enumerate(config.homes)}
        violations = sorted(violations + missing, key=lambda v: position[v.home])
    ids = {home.id for home in config.homes}
    violations += [Violation("unknown_home", hid, None, np.inf) for hid in schedule.homes if hid not in ids]

    net_sum = np.sum(schedule.net, axis=0)
    net_drift = np.abs(net_sum - schedule.community_net)[None, :]
    peak = (np.abs(schedule.community_net) - config.community_peak)[None, :]
    net_entry = ("community_net", 0, net_drift, _breached(net_drift))
    peak_entry = ("community_peak", 0, peak, _breached(peak))
    if community_peak_as_warning:
        violations += _in_report_order([net_entry], [None])
        warnings += _in_report_order([peak_entry], [None])
    else:
        violations += _in_report_order([net_entry, peak_entry], [None])

    cost = community_cost(schedule, config)
    matches = True
    if reference_objective is not None:
        matches = bool(abs(cost - reference_objective) <= TOLERANCE * (1.0 + abs(reference_objective)))
    return FeasibilityReport(
        violations=tuple(violations),
        warnings=tuple(warnings),
        max_violation=float(np.max([v.magnitude for v in violations], initial=0.0)),
        cost_recomputed=cost,
        cost_matches_solver=matches,
    )


def _check_homes(homes: list[HomeConfig], schedule: CommunitySchedule, rows: list[int],
                 config: CommunityConfig) -> list[Violation]:
    """The per-home breaches of :func:`check_schedule_feasibility`, for
    ``homes`` and their ``rows`` of ``schedule``."""
    dt = config.slot_hours
    s = {role: getattr(schedule, role)[rows] for role in SCHEDULE_ROLES}
    claimed_temp = s["indoor_temp"][:, 1:]

    def column(params, name: str, absent: float = 0.0) -> np.ndarray:
        """One parameter per home, as a column; ``absent`` for a missing device."""
        return np.array([absent if x is None else getattr(x, name) for x in params], dtype=float)[:, None]

    hvac = [home.hvac for home in homes]
    pvs = [home.pv for home in homes]
    esss = [home.ess for home in homes]
    has_pv = np.array([pv is not None for pv in pvs])[:, None]
    has_ess = np.array([ess is not None for ess in esss])[:, None]

    entries: list[tuple] = []

    def block(*families: tuple) -> None:
        """Add a block of ``(family, magnitude)`` or ``(family, magnitude,
        breached)`` entries; without a third entry a family is breached
        where its magnitude is not within the tolerance."""
        number = entries[-1][1] + 1 if entries else 0
        for family, magnitude, *breached in families:
            entries.append((family, number, magnitude, breached[0] if breached else _breached(magnitude)))

    p = s["hvac_power"]
    p_max = column(hvac, "p_max")
    block(("hvac_power_range", np.maximum(-p, p - p_max)))

    # a NaN power leaves the temperatures unknown (NaN) from its slot on
    temp = indoor_temperatures(column(hvac, "t_in_initial"), config.t_out, np.clip(p, 0.0, p_max),
                               column(hvac, "epsilon"), column(hvac, "eta_hvac"),
                               column(hvac, "conductivity_a"))[:, 1:]
    block(("temperature_recursion", np.abs(temp - claimed_temp)),
          ("comfort_band", np.maximum(column(hvac, "t_min") - temp, temp - column(hvac, "t_max"))))

    for role in ("com_load", "com_buy", "com_sell", "ess_load", "ess_sell",
                 "com_charge", "res_charge", "res_load", "res_sell"):
        block(("nonnegative_flow", -s[role]))

    for role in ("mode_home", "mode_ess"):
        mode = s[role]
        drift = np.abs(mode - np.round(mode))
        outside = ~((-TOLERANCE <= mode) & (mode <= 1 + TOLERANCE))
        block(("mode_integrality", np.maximum(np.maximum(drift, -mode), mode - 1),
               (drift > TOLERANCE) | outside))

    produced = pv_output_energy(config.ghi, column(pvs, "panel_area"), column(pvs, "efficiency"), dt)
    split = np.abs(s["res_load"] + s["res_sell"] + s["res_charge"] - produced)
    stray = np.abs(s["res_load"]) + np.abs(s["res_sell"]) + np.abs(s["res_charge"])
    block(("pv_split", split, _breached(split) & has_pv),
          ("absent_der_flow", stray, _breached(stray) & ~has_pv))

    efficiency = column(esss, "efficiency", absent=1.0)
    level_initial = column(esss, "level_initial")
    discharge = s["ess_load"] + s["ess_sell"]
    charge = s["res_charge"] + s["com_charge"]
    level = _storage_levels(level_initial[:, 0], discharge / efficiency, charge * efficiency)
    stray = np.abs(s["ess_load"]) + np.abs(s["ess_sell"]) + np.abs(s["com_charge"])
    storage = (
        ("ess_level_recursion", np.abs(level - s["ess_level"])),
        ("ess_level_range", np.maximum(column(esss, "level_min") - level, level - column(esss, "level_max"))),
        ("ess_charge_rate", charge - column(esss, "charge_rate_max") * dt * s["mode_ess"]),
        ("ess_discharge_rate", discharge - column(esss, "discharge_rate_max") * dt * (1.0 - s["mode_ess"])),
        ("ess_simultaneity", np.minimum(charge, discharge)),
    )
    block(*((family, m, _breached(m) & has_ess) for family, m in storage),
          ("absent_der_flow", stray, _breached(stray) & ~has_ess))
    # the terminal level is one entry, at the last slot
    terminal = np.zeros_like(level)
    terminal[:, -1:] = np.abs(level[:, -1:] - level_initial)
    block(("ess_terminal_level", terminal, _breached(terminal) & has_ess))

    fixed_load = np.array([home.fixed_load for home in homes], dtype=float)
    supplied = s["com_load"] + s["ess_load"] + s["res_load"]
    buy_gap = np.abs(s["com_buy"] - s["com_load"] - s["com_charge"])
    sell_gap = np.abs(s["com_sell"] - s["res_sell"] - s["ess_sell"])
    block(("home_balance", np.abs(fixed_load + p * dt - supplied)),
          ("buy_sell_definition", np.maximum(buy_gap, sell_gap)),
          ("buy_sell_exclusivity", np.minimum(s["com_buy"], s["com_sell"])))

    return _in_report_order(entries, [home.id for home in homes])


# ---------------------------------------------------------------------------
# schedule serialization


def schedule_to_dict(schedule: CommunitySchedule) -> dict:
    arrays = {role: getattr(schedule, role).tolist() for role in SCHEDULE_ROLES}
    arrays["net"] = schedule.net.tolist()
    return {
        "homes": {hid: {role: rows[i] for role, rows in arrays.items()}
                  for i, hid in enumerate(schedule.homes)},
        "community_net": schedule.community_net.tolist(),
        "status_flags": None if schedule.status_flags is None else schedule.status_flags.tolist(),
        "slot_costs": None if schedule.slot_costs is None else schedule.slot_costs.tolist(),
    }


def _is_finite_number(value) -> bool:
    """The config's number rule: a JSON number (:func:`cems.domain.is_number`)
    that is finite.  The comparison also rejects NaN, and an int too large
    for a float without converting it."""
    return is_number(value) and abs(value) <= sys.float_info.max


def _finite_series(value, path: str, n: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{path} must be a list of {n} numbers")
    bad = next((i for i, v in enumerate(value) if not _is_finite_number(v)), None)
    if bad is not None:
        raise ValueError(f"{path}[{bad}] must be a finite number")
    return np.array(value, dtype=float)


def schedule_from_dict(doc: Mapping, config: CommunityConfig) -> CommunitySchedule:
    """Rebuild a schedule written by :func:`schedule_to_dict`.

    Raises ``ValueError`` naming the offending path for a malformed
    document, a missing array, an entry that is not a finite JSON number,
    or a home the config lacks.  Every home needs every array: absent
    devices are written as zeros, so a missing array means a damaged file."""
    if not isinstance(doc, Mapping):
        raise ValueError("schedule document must be an object")
    homes_doc = doc.get("homes")
    if not isinstance(homes_doc, Mapping):
        raise ValueError("schedule document lacks a 'homes' mapping")
    T = config.horizon_slots
    ids = dict.fromkeys(home.id for home in config.homes)  # in config order
    arrays = {role: np.empty((len(ids), T + 1 if role == "indoor_temp" else T)) for role in SCHEDULE_ROLES}
    for i, hid in enumerate(ids):
        h = homes_doc.get(hid)
        if h is None:
            raise ValueError(f"schedule is missing home {hid!r}")
        if not isinstance(h, Mapping):
            raise ValueError(f"home {hid!r}: expected an object")
        missing = [role for role in SCHEDULE_ROLES if role not in h]
        if missing:
            raise ValueError(f"home {hid!r}: {missing[0]} is missing")
        for role, rows in arrays.items():
            rows[i] = _finite_series(h[role], f"home {hid!r}: {role}", rows.shape[1])
    extra = next((hid for hid in homes_doc if hid not in ids), None)
    if extra is not None:
        raise ValueError(f"schedule has home {extra!r}, which the config lacks")
    flags = doc.get("status_flags")
    costs = doc.get("slot_costs")
    return CommunitySchedule(
        homes=tuple(ids),
        **arrays,
        status_flags=None if flags is None else _finite_series(flags, "status_flags", T),
        slot_costs=None if costs is None else _finite_series(costs, "slot_costs", T),
    )
