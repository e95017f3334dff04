"""Mixed-integer model construction for day-ahead community scheduling.

Models are built as plain data (:class:`MilpModel`): variables with bounds
and a kind, linear constraints, and a linear objective.  Nothing in here
talks to a solver, so models can be handed to the bundled backend in
:mod:`cems.solve`, exported to LP text for an external solver, or inspected
directly in tests.

Two builders exist.  :func:`build_system_centric_model` prices the pooled
net exchange of the whole community: the per-slot cost is ``P * E`` when the
community imports ``E`` and ``alpha * P * E`` when it exports, made linear
with one status binary per slot and a four-sided big-M envelope around the
slot cost.  :func:`build_home_model` is the selfish counterpart used by the
baselines: one home, priced at the external buy/sell prices directly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .domain import CommunityConfig, HomeConfig
from .thermal import pv_output_energy

CONTINUOUS = "continuous"
BINARY = "binary"

INF = float("inf")


class ModelBuildError(Exception):
    pass


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float
    kind: str = CONTINUOUS


@dataclass(frozen=True)
class Constraint:
    """``sum(coef * var) sense rhs`` with sense one of ``<=``, ``>=``, ``=``."""

    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


@dataclass(frozen=True)
class VarMeta:
    """Where a variable lives: owning home (``None`` for community-level),
    1-based slot, and its role (``hvac_power``, ``ess_level``, ...)."""

    home: str | None
    slot: int
    role: str


@dataclass
class MilpModel:
    name: str
    variables: list[Variable]
    constraints: list[Constraint]
    objective: list[tuple[str, float]]
    metadata: dict[str, VarMeta]

    def variable_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def n_binaries(self) -> int:
        return sum(1 for v in self.variables if v.kind == BINARY)

    def validate(self) -> None:
        """Structural sanity: unique names, known references, sane bounds."""
        index = self.variable_index()
        if len(index) != len(self.variables):
            raise ModelBuildError("duplicate variable names")
        if set(self.metadata) != set(index):
            raise ModelBuildError("metadata does not cover the variable set exactly")
        for v in self.variables:
            if v.lb > v.ub:
                raise ModelBuildError(f"{v.name}: lb {v.lb} > ub {v.ub}")
            if v.kind == BINARY and (v.lb, v.ub) != (0.0, 1.0):
                raise ModelBuildError(f"{v.name}: binary variables must have bounds [0, 1]")
            if v.kind not in (CONTINUOUS, BINARY):
                raise ModelBuildError(f"{v.name}: unknown kind {v.kind!r}")
        for c in self.constraints:
            if c.sense not in ("<=", ">=", "="):
                raise ModelBuildError(f"{c.name}: unknown sense {c.sense!r}")
            for var, _ in c.terms:
                if var not in index:
                    raise ModelBuildError(f"{c.name}: references undeclared variable {var!r}")
        for var, _ in self.objective:
            if var not in index:
                raise ModelBuildError(f"objective references undeclared variable {var!r}")


def big_m_value(config: CommunityConfig) -> float:
    """Big-M constant for the community status and slot-cost envelope rows.

    ``2 * max(P) * (sum of per-home trading caps + community peak)``
    upper-bounds both the per-slot energy gap between total purchases and
    total sales and the magnitude of any slot cost, so those rows are
    safely slack whichever way the status binary points.
    """
    caps = sum(h.peak_limit for h in config.homes) + config.community_peak
    return 2.0 * float(np.max(config.buy_price)) * caps


def exclusivity_big_m(home: HomeConfig, config: CommunityConfig) -> float:
    """Tight but safe M for one home's buy/sell exclusivity rows.

    No feasible point has the home buying more than full HVAC power plus
    its largest fixed load plus the storage charge rate in one slot, nor
    selling more than peak PV output plus the discharge rate, so the larger
    of those (and the home's own trading cap) gates the binary without
    cutting anything.  Much tighter than the community-level constant,
    which keeps the LP relaxation strong.
    """
    dt = config.slot_hours
    buy_cap = home.hvac.p_max * dt + float(np.max(home.fixed_load))
    sell_cap = 0.0
    if home.ess is not None:
        buy_cap += home.ess.charge_rate_max * dt
        sell_cap += home.ess.discharge_rate_max * dt
    if home.pv is not None:
        sell_cap += pv_output_energy(
            float(np.max(config.ghi)), home.pv.panel_area, home.pv.efficiency, dt
        )
    return max(home.peak_limit, buy_cap, sell_cap)


_SANITIZE = re.compile(r"[^A-Za-z0-9]")


class _Builder:
    def __init__(self, name: str):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: list[tuple[str, float]] = []
        self.metadata: dict[str, VarMeta] = {}
        self._home_tags: dict[str | None, str] = {}

    def _tag(self, home: str | None) -> str:
        if home not in self._home_tags:
            tag = "com" if home is None else _SANITIZE.sub("_", home)
            if tag in self._home_tags.values():
                raise ModelBuildError(f"home id {home!r} collides with another id after sanitizing")
            self._home_tags[home] = tag
        return self._home_tags[home]

    def var(
        self,
        role: str,
        home: str | None,
        slot: int,
        lb: float,
        ub: float,
        kind: str = CONTINUOUS,
    ) -> str:
        name = f"{role}_{self._tag(home)}_{slot}"
        if name in self.metadata:
            raise ModelBuildError(f"duplicate variable {name}")
        self.variables.append(Variable(name=name, lb=lb, ub=ub, kind=kind))
        self.metadata[name] = VarMeta(home=home, slot=slot, role=role)
        return name

    def row(self, name: str, terms: Iterable[tuple[str, float]], sense: str, rhs: float):
        self.constraints.append(Constraint(name=name, terms=tuple(terms), sense=sense, rhs=rhs))

    def model(self) -> MilpModel:
        m = MilpModel(
            name=self.name,
            variables=self.variables,
            constraints=self.constraints,
            objective=self.objective,
            metadata=self.metadata,
        )
        m.validate()
        return m


def _add_home(b: _Builder, home: HomeConfig, config: CommunityConfig, big_m: float) -> dict[str, list[str]]:
    """Physics and coupling rows of one home; returns its variables by role."""
    T = config.horizon_slots
    dt = config.slot_hours
    hv, ess, pv = home.hvac, home.ess, home.pv
    tag = b._tag(home.id)
    cols: dict[str, list[str]] = {}

    def add(role: str, lb: float, ub: float, kind: str = CONTINUOUS) -> list[str]:
        cols[role] = [b.var(role, home.id, t, lb, ub, kind) for t in range(1, T + 1)]
        return cols[role]

    p = add("hvac_power", 0.0, hv.p_max)
    temp = add("temp_in", hv.t_min, hv.t_max)
    com_load = add("com_load", 0.0, INF)
    com_buy = add("com_buy", 0.0, INF)
    com_sell = add("com_sell", 0.0, INF)
    mode_home = add("mode_home", 0.0, 1.0, BINARY)
    if ess is not None:
        level = add("ess_level", ess.level_min, ess.level_max)
        ess_load = add("ess_load", 0.0, INF)
        ess_sell = add("ess_sell", 0.0, INF)
        com_charge = add("com_charge", 0.0, INF)
        mode_ess = add("mode_ess", 0.0, 1.0, BINARY)
    if pv is not None:
        res_load = add("res_load", 0.0, INF)
        res_sell = add("res_sell", 0.0, INF)
        if ess is not None:
            res_charge = add("res_charge", 0.0, INF)

    # indoor temperature recursion; comfort is carried by the temp bounds
    gain = (1.0 - hv.epsilon) * hv.eta_hvac / hv.conductivity_a
    for t in range(1, T + 1):
        terms = [(temp[t - 1], 1.0), (p[t - 1], -gain)]
        rhs = (1.0 - hv.epsilon) * config.t_out[t - 1]
        if t == 1:
            rhs += hv.epsilon * hv.t_in_initial
        else:
            terms.append((temp[t - 2], -hv.epsilon))
        b.row(f"temp_rec_{tag}_{t}", terms, "=", rhs)

    # home energy balance: fixed + HVAC met from community, storage and PV
    for t in range(1, T + 1):
        terms = [(com_load[t - 1], 1.0), (p[t - 1], -dt)]
        if ess is not None:
            terms.append((ess_load[t - 1], 1.0))
        if pv is not None:
            terms.append((res_load[t - 1], 1.0))
        b.row(f"balance_{tag}_{t}", terms, "=", float(home.fixed_load[t - 1]))

    # PV production split
    if pv is not None:
        for t in range(1, T + 1):
            e_res = pv_output_energy(float(config.ghi[t - 1]), pv.panel_area, pv.efficiency, dt)
            terms = [(res_load[t - 1], 1.0), (res_sell[t - 1], 1.0)]
            if ess is not None:
                terms.append((res_charge[t - 1], 1.0))
            b.row(f"res_split_{tag}_{t}", terms, "=", e_res)

    # storage: level recursion (discharge divided by the efficiency, charge
    # multiplied by it), rate caps gated by the charge/discharge mode binary,
    # and the end-of-day level restored
    if ess is not None:
        eta = ess.efficiency
        for t in range(1, T + 1):
            terms = [
                (level[t - 1], 1.0),
                (ess_load[t - 1], 1.0 / eta),
                (ess_sell[t - 1], 1.0 / eta),
                (com_charge[t - 1], -eta),
            ]
            if pv is not None:
                terms.append((res_charge[t - 1], -eta))
            rhs = 0.0
            if t == 1:
                rhs = ess.level_initial
            else:
                terms.append((level[t - 2], -1.0))
            b.row(f"ess_level_{tag}_{t}", terms, "=", rhs)
            charge_terms = [(com_charge[t - 1], 1.0), (mode_ess[t - 1], -ess.charge_rate_max * dt)]
            if pv is not None:
                charge_terms.insert(1, (res_charge[t - 1], 1.0))
            b.row(f"ess_charge_{tag}_{t}", charge_terms, "<=", 0.0)
            b.row(
                f"ess_discharge_{tag}_{t}",
                [
                    (ess_load[t - 1], 1.0),
                    (ess_sell[t - 1], 1.0),
                    (mode_ess[t - 1], ess.discharge_rate_max * dt),
                ],
                "<=",
                ess.discharge_rate_max * dt,
            )
        b.row(f"ess_terminal_{tag}", [(level[T - 1], 1.0)], "=", ess.level_initial)

    # net exchanged with the community, one direction at a time
    for t in range(1, T + 1):
        buy_terms = [(com_buy[t - 1], 1.0), (com_load[t - 1], -1.0)]
        if ess is not None:
            buy_terms.append((com_charge[t - 1], -1.0))
        b.row(f"buy_def_{tag}_{t}", buy_terms, "=", 0.0)
        sell_terms = [(com_sell[t - 1], 1.0)]
        if pv is not None:
            sell_terms.append((res_sell[t - 1], -1.0))
        if ess is not None:
            sell_terms.append((ess_sell[t - 1], -1.0))
        b.row(f"sell_def_{tag}_{t}", sell_terms, "=", 0.0)
        b.row(f"buy_mode_{tag}_{t}", [(com_buy[t - 1], 1.0), (mode_home[t - 1], -big_m)], "<=", 0.0)
        b.row(f"sell_mode_{tag}_{t}", [(com_sell[t - 1], 1.0), (mode_home[t - 1], big_m)], "<=", big_m)

    return cols


def build_system_centric_model(config: CommunityConfig) -> MilpModel:
    """Whole-community model minimizing the pooled day-ahead cost.

    Per home and slot: HVAC power within rating, comfort via temperature
    bounds, temperature recursion, energy balance, PV split, storage books
    with mode-gated rates and restored end level, buy/sell accounting with
    one-direction-at-a-time exclusivity.  Community-wide: the net exchange
    band and the linearized slot cost driven by one import/export status
    binary per slot.  Both big-M constants are derived from the config:
    :func:`big_m_value` for the community rows, the tighter
    :func:`exclusivity_big_m` for each home's exclusivity rows.
    """
    T = config.horizon_slots
    big_m = big_m_value(config)
    b = _Builder("system_centric")
    per_home = [_add_home(b, home, config, exclusivity_big_m(home, config)) for home in config.homes]

    status = [b.var("status", None, t, 0.0, 1.0, BINARY) for t in range(1, T + 1)]
    slot_cost = [b.var("slot_cost", None, t, -INF, INF) for t in range(1, T + 1)]

    for t in range(1, T + 1):
        gap_terms = [(cols["com_buy"][t - 1], 1.0) for cols in per_home]
        gap_terms += [(cols["com_sell"][t - 1], -1.0) for cols in per_home]
        b.row(f"peak_hi_com_{t}", gap_terms, "<=", config.community_peak)
        b.row(f"peak_lo_com_{t}", gap_terms, ">=", -config.community_peak)
        # status forced to 1 when net importing, 0 when net exporting
        b.row(f"status_on_com_{t}", gap_terms + [(status[t - 1], -big_m)], ">=", -big_m)
        b.row(f"status_off_com_{t}", gap_terms + [(status[t - 1], -big_m)], "<=", 0.0)
        price = float(config.buy_price[t - 1])
        sell_price = config.alpha * price
        # slot cost pinned to P * gap when importing, alpha * P * gap when exporting
        buy_gap = [(name, -price * coef) for name, coef in gap_terms]
        sell_gap = [(name, -sell_price * coef) for name, coef in gap_terms]
        c = slot_cost[t - 1]
        s = status[t - 1]
        b.row(f"cost_imp_lo_com_{t}", [(c, 1.0)] + buy_gap + [(s, -big_m)], ">=", -big_m)
        b.row(f"cost_imp_hi_com_{t}", [(c, 1.0)] + buy_gap + [(s, big_m)], "<=", big_m)
        b.row(f"cost_exp_lo_com_{t}", [(c, 1.0)] + sell_gap + [(s, big_m)], ">=", 0.0)
        b.row(f"cost_exp_hi_com_{t}", [(c, 1.0)] + sell_gap + [(s, -big_m)], "<=", 0.0)
        # redundant at integer points but they make the relaxation exact on
        # the cost side: the slot cost is convex in the gap, so both linear
        # pieces are global lower bounds
        b.row(f"cost_hull_imp_com_{t}", [(c, 1.0)] + buy_gap, ">=", 0.0)
        b.row(f"cost_hull_exp_com_{t}", [(c, 1.0)] + sell_gap, ">=", 0.0)

    b.objective = [(c, 1.0) for c in slot_cost]
    return b.model()


def build_home_model(config: CommunityConfig, home_id: str) -> MilpModel:
    """Single-home model: minimize the home's own bill at external prices.

    Same physics as the system model restricted to one home, plus the
    per-home cap on the traded amount.  The per-home cap also serves as the
    big-M in the buy/sell exclusivity rows, which it dominates by
    construction.  Objective: ``sum(P * buy - alpha * P * sell)``.
    """
    home = config.home(home_id)
    T = config.horizon_slots
    b = _Builder(f"home_{home_id}")
    cols = _add_home(b, home, config, home.peak_limit)
    tag = b._tag(home_id)
    for t in range(1, T + 1):
        gap = [(cols["com_buy"][t - 1], 1.0), (cols["com_sell"][t - 1], -1.0)]
        b.row(f"peak_hi_{tag}_{t}", gap, "<=", home.peak_limit)
        b.row(f"peak_lo_{tag}_{t}", gap, ">=", -home.peak_limit)
    b.objective = []
    for t in range(T):
        price = float(config.buy_price[t])
        b.objective.append((cols["com_buy"][t], price))
        b.objective.append((cols["com_sell"][t], -config.alpha * price))
    return b.model()


def relaxed(model: MilpModel) -> MilpModel:
    """The LP relaxation: binaries become continuous on [0, 1]."""
    return MilpModel(
        name=f"{model.name}_relaxed",
        variables=[
            Variable(v.name, v.lb, v.ub, CONTINUOUS) if v.kind == BINARY else v
            for v in model.variables
        ],
        constraints=model.constraints,
        objective=model.objective,
        metadata=model.metadata,
    )


# ---------------------------------------------------------------------------
# LP text export


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _expr(terms: Sequence[tuple[str, float]]) -> list[str]:
    parts = []
    for name, coef in terms:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(coef))} {name}")
    return parts


def _wrap(prefix: str, parts: list[str], per_line: int = 8) -> str:
    lines = []
    for i in range(0, len(parts), per_line):
        chunk = " ".join(parts[i : i + per_line])
        lines.append(f"{prefix}{chunk}" if i == 0 else f"      {chunk}")
    return "\n".join(lines) if lines else f"{prefix}0"


def write_lp(model: MilpModel, stream: IO[str]) -> None:
    """Write the model in CPLEX LP text format for out-of-process solving."""
    stream.write(f"\\ {model.name}\n")
    stream.write("Minimize\n")
    stream.write(_wrap(" obj: ", _expr(model.objective)) + "\n")
    stream.write("Subject To\n")
    sense_txt = {"<=": "<=", ">=": ">=", "=": "="}
    for c in model.constraints:
        body = _wrap(f" {c.name}: ", _expr(c.terms))
        stream.write(f"{body} {sense_txt[c.sense]} {_fmt(c.rhs)}\n")
    stream.write("Bounds\n")
    for v in model.variables:
        if v.kind == BINARY:
            continue
        if v.lb == -INF and v.ub == INF:
            stream.write(f" {v.name} free\n")
        elif v.ub == INF:
            stream.write(f" {v.name} >= {_fmt(v.lb)}\n")
        else:
            stream.write(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}\n")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        stream.write("Binary\n")
        for i in range(0, len(binaries), 8):
            stream.write(" " + " ".join(binaries[i : i + 8]) + "\n")
    stream.write("End\n")
