"""Mixed-integer model construction for day-ahead community scheduling.

Models are columnar plain data (:class:`MilpModel`): NumPy arrays for the
objective vector, the column bounds and integrality, the constraint matrix
in canonical CSR form (``indptr``/``indices``/``data``) with a lower and an
upper bound per row, and a :class:`Layout` of integer codes saying which
home, role and slot each column belongs to and which family each row
belongs to.  Nothing in here talks to a solver, so models can be handed to
the bundled backend in :mod:`cems.solve`, exported to LP text for an
external solver, or inspected directly in tests.  Variable and row names
are made from the codes only where they are read: :func:`write_lp`,
validation errors, and the read-only :attr:`MilpModel.constraints` view.

Two builders exist.  :func:`build_system_centric_model` prices the pooled
net exchange of the whole community: the per-slot cost is ``P * E`` when the
community imports ``E`` and ``alpha * P * E`` when it exports, made linear
with one status binary per slot and a four-sided big-M envelope around the
slot cost.  :func:`build_home_model` is the selfish counterpart used by the
baselines: one home, priced at the external buy/sell prices directly,
with its numbers cut from a :class:`HomeModelBatch` of the day's homes.

Each builder makes the MILP or, with ``lp=True``, its binary-free LP from
the same pattern code: the LP has no binary column (the home and storage
modes, the community status) and none of the rows that gate one (the
homes' buy/sell exclusivity, the status and slot-cost envelope rows); its
storage rate rows are plain caps.  The LP keeps every flow row, the band
and the slot-cost hull, so it is a relaxation of the MILP, and a schedule
that is feasible for the MILP at the LP's cost is MILP-optimal.

Homes with the same DER mix share one sparsity pattern, made once per mix
and horizon, which owns the structure of their blocks: the column and row
codes, the local row pointers, column indices and term order.  Its
structure is checked once, when it is made.  A model tiles the patterns
over its homes with NumPy index arithmetic, fills in each home's numbers,
and appends the community's coupling rows as array slices.

:func:`write_lp` relies on that layout, which :meth:`MilpModel.validate`
checks: each home's columns and rows form one block, in home order, before
the community's, and a home's rows reference only its own columns.  Homes
whose blocks have the same structure (local row pointers, column indices,
term order, row families and slots, column roles and slots, integrality;
compared as bytes, in one pass over the homes) form a group, and the
writer renders each group's rows and Bounds lines once, as a skeleton: the
text of its first home with a sentinel where the home tag goes and a slot
for each coefficient, row tail (sense and right-hand side) or bound that
is not bitwise equal across the group.  It then writes the homes in model
order, each as one join of the skeleton's segments with that home's number
texts and one replace of the sentinel by its tag.  The objective, the
community's rows and bounds, and the Binary list are rendered from arrays
over their own columns' names; the community's rows in runs of whole rows
of a bounded term count, so a large community's rows never become one
string.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .domain import COMMUNITY_TAG, CommunityConfig, HomeConfig, default_peak_limit, lp_tag
from .thermal import pv_output_energy

INF = float("inf")

# column roles and row families, by code
ROLES = (
    "hvac_power", "temp_in", "com_load", "com_buy", "com_sell", "mode_home",
    "ess_level", "ess_load", "ess_sell", "com_charge", "mode_ess",
    "res_load", "res_sell", "res_charge", "status", "slot_cost",
)
ROLE = {role: code for code, role in enumerate(ROLES)}
FAMILIES = (
    "temp_rec", "balance", "res_split", "ess_level", "ess_charge", "ess_discharge",
    "ess_terminal", "buy_def", "sell_def", "buy_mode", "sell_mode", "peak_hi", "peak_lo",
    "status_on", "status_off", "cost_imp_lo", "cost_imp_hi", "cost_exp_lo", "cost_exp_hi",
    "cost_hull_imp", "cost_hull_exp",
)
FAMILY = {family: code for code, family in enumerate(FAMILIES)}

COMMUNITY = -1  # home code of the community-level columns and rows


class ModelBuildError(Exception):
    pass


@dataclass(frozen=True)
class Constraint:
    """``sum(coef * var) sense rhs`` with sense one of ``<=``, ``>=``, ``=``."""

    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


@dataclass(frozen=True, eq=False)
class Layout:
    """Who owns each column and row, as codes, and the order LP text writes
    terms in.

    A home code indexes ``homes`` (and ``tags``, their name tags);
    :data:`COMMUNITY` marks community-level columns and rows.  Roles index
    :data:`ROLES` and families :data:`FAMILIES`.  Slots are 1-based; a row
    slot of 0 means the row has none.  ``term_order`` holds, row by row, the
    CSR positions of each row's terms in written order, and
    ``objective_order`` the columns of the written objective.
    """

    homes: tuple[str, ...]
    tags: tuple[str, ...]
    var_home: np.ndarray
    var_role: np.ndarray
    var_slot: np.ndarray
    row_home: np.ndarray
    row_family: np.ndarray
    row_slot: np.ndarray
    term_order: np.ndarray
    objective_order: np.ndarray

    def variable_names(self) -> list[str]:
        """``<role>_<home tag>_<slot>`` for every column."""
        return _labels(ROLES, self.var_role, self.tags, self.var_home, self.var_slot).tolist()

    def row_names(self) -> list[str]:
        """``<family>_<home tag>_<slot>`` for every row, with no slot part
        for a row that has none."""
        return _labels(FAMILIES, self.row_family, self.tags, self.row_home, self.row_slot).tolist()


def _first(mask: np.ndarray) -> int:
    """The first offending entry, looked up only to name it in an error."""
    return int(np.argmax(mask))


def _labels(kinds, kind, tags, home, slot, before="", after="") -> np.ndarray:
    """Labels as an object array, each between ``before`` and ``after``:
    one string per (kind, owner) pair and one per slot, then a single
    concatenation per label."""
    owners = (*tags, COMMUNITY_TAG)
    heads = np.array([f"{before}{k}_{o}" for k in kinds for o in owners], dtype=object)
    ends = [after] + [f"_{s}{after}" for s in range(1, int(slot.max(initial=0)) + 1)]
    return heads[kind * len(owners) + home % len(owners)] + np.array(ends, dtype=object)[slot]


def _senses(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row as ``sense rhs``: ``=`` where its bounds agree, ``<=`` under
    an upper bound alone, ``>=`` over a lower bound alone."""
    eq = lower == upper
    le = ~eq & (lower == -INF)
    return np.where(eq, "=", np.where(le, "<=", ">=")), np.where(le, upper, lower)


@dataclass(frozen=True, eq=False)
class MilpModel:
    """``minimize c @ x`` subject to ``row_lower <= A @ x <= row_upper``,
    ``lb <= x <= ub`` and ``x`` integral where ``integrality`` is 1.

    ``A`` is in canonical CSR form: each row's terms sit at
    ``indptr[i]:indptr[i + 1]`` of ``indices`` and ``data``, in increasing
    column order.  The builders mark every array read-only, so models of
    one structure can share them.
    """

    name: str
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    layout: Layout

    @property
    def n_variables(self) -> int:
        return len(self.c)

    @property
    def n_constraints(self) -> int:
        return len(self.row_lower)

    @property
    def n_binaries(self) -> int:
        return int(np.count_nonzero(self.integrality))

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def constraints(self) -> list[Constraint]:
        """One :class:`Constraint` per row, terms in written order, made from
        the arrays on each access."""
        names = self.layout.variable_names()
        order = self.layout.term_order
        terms = list(zip([names[j] for j in self.indices[order].tolist()], self.data[order].tolist()))
        senses, rhs = _senses(self.row_lower, self.row_upper)
        bounds = self.indptr.tolist()
        return [
            Constraint(name, tuple(terms[bounds[i]:bounds[i + 1]]), sense, value)
            for i, (name, sense, value) in enumerate(
                zip(self.layout.row_names(), senses.tolist(), rhs.tolist())
            )
        ]

    def validate(self) -> None:
        """Structural sanity: consistent shapes, codes that give unique
        names, a canonical CSR matrix over declared columns, sane bounds."""
        self._validate_sizes()
        self._validate_structure()
        self._validate_numbers()

    def _validate_sizes(self) -> None:
        """Every array's length, and one unique tag per home."""
        lay = self.layout
        n, m, nnz = len(self.c), len(self.row_lower), len(self.data)
        sizes = {
            "lb": (self.lb, n), "ub": (self.ub, n), "integrality": (self.integrality, n),
            "var_home": (lay.var_home, n), "var_role": (lay.var_role, n), "var_slot": (lay.var_slot, n),
            "row_upper": (self.row_upper, m), "row_home": (lay.row_home, m),
            "row_family": (lay.row_family, m), "row_slot": (lay.row_slot, m),
            "indptr": (self.indptr, m + 1), "indices": (self.indices, nnz),
            "term_order": (lay.term_order, nnz),
        }
        for what, (arr, size) in sizes.items():
            if arr.shape != (size,):
                raise ModelBuildError(f"{what} has shape {arr.shape}, expected ({size},)")
        if len(lay.tags) != len(lay.homes) or len(set(lay.tags) | {COMMUNITY_TAG}) != len(lay.tags) + 1:
            raise ModelBuildError("home tags must be unique, one per home, and not the community's")

    def _validate_structure(self) -> None:
        """Codes, names, the CSR pattern, integrality codes, the written
        objective's columns and the home blocks :func:`write_lp` relies on:
        everything but the numbers."""
        lay = self.layout
        n, nnz = len(self.c), len(self.data)
        owners = len(lay.homes) + 1
        for what, kinds, home, kind, slot, first_slot in (
            ("variable", ROLES, lay.var_home, lay.var_role, lay.var_slot, 1),
            ("row", FAMILIES, lay.row_home, lay.row_family, lay.row_slot, 0),
        ):
            if home.size == 0:
                continue
            last_slot = int(slot.max())
            if (home.min() < COMMUNITY or home.max() >= len(lay.homes) or kind.min() < 0
                    or kind.max() >= len(kinds) or slot.min() < first_slot):
                raise ModelBuildError(f"{what} code out of range")
            wide = len(kinds) * owners * (last_slot + 1) >= np.iinfo(np.int32).max
            key = kind.astype(np.int64 if wide else np.int32) * owners + home + 1
            key = key * (last_slot + 1) + slot
            if np.bincount(key).max() > 1:
                raise ModelBuildError(f"duplicate {what} names")

        def row_of(term: int) -> str:
            return lay.row_names()[int(np.searchsorted(self.indptr, term, side="right")) - 1]

        indptr, indices, order = self.indptr, self.indices, lay.term_order
        lengths = indptr[1:] - indptr[:-1]
        if indptr[0] != 0 or indptr[-1] != nnz or (lengths < 0).any():
            raise ModelBuildError("indptr does not delimit the terms row by row")
        if nnz and (indices.min() < 0 or indices.max() >= n):
            term = _first((indices < 0) | (indices >= n))
            raise ModelBuildError(
                f"{row_of(term)}: references column {indices[term]}, outside the {n} declared"
            )
        # columns increase within each row: a drop is allowed only where a row starts
        rising = indices[1:] > indices[:-1]
        starts = indptr[1:-1][(indptr[1:-1] > 0) & (indptr[1:-1] < nnz)]
        rising[starts - 1] = True
        if not rising.all():
            raise ModelBuildError(f"{row_of(_first(~rising))}: terms not in increasing column order")
        # term_order permutes the terms, each row's among themselves
        seen = np.zeros(nnz, dtype=bool)
        if ((order >= indptr[:-1].repeat(lengths)) & (order < indptr[1:].repeat(lengths))).all():
            seen[order] = True
        if not seen.all():
            raise ModelBuildError("term_order is not a reordering of each row's terms")
        if n and self.integrality.max() > 1:
            j = _first(self.integrality > 1)
            raise ModelBuildError(f"{lay.variable_names()[j]}: integrality must be 0 or 1")
        objective = lay.objective_order
        if objective.size and (objective.min() < 0 or objective.max() >= n):
            raise ModelBuildError("objective_order references an undeclared column")
        if len(np.unique(objective)) < len(objective):
            raise ModelBuildError("objective_order must list each column with a nonzero cost once")
        _home_blocks(self)  # the layout write_lp relies on

    def _validate_numbers(self) -> None:
        """Finite coefficients, sane column and row bounds, and a cost on
        no column the written objective leaves out."""
        lay = self.layout
        faults = _number_faults(self.c, self.lb, self.ub, self.integrality == 1, self.row_lower,
                                self.row_upper, self.data)
        if faults["cost"].any() or faults["coefficient"].any():
            raise ModelBuildError("non-finite coefficient")
        lb, ub = self.lb, self.ub
        if faults["bounds"].any():
            j = _first(faults["bounds"])
            raise ModelBuildError(f"{lay.variable_names()[j]}: lb {lb[j]} > ub {ub[j]}")
        if faults["binary"].any():
            j = _first(faults["binary"])
            raise ModelBuildError(f"{lay.variable_names()[j]}: binary variables must have bounds [0, 1]")
        if faults["rows"].any():
            i = _first(faults["rows"])
            raise ModelBuildError(f"{lay.row_names()[i]}: bounds [{self.row_lower[i]}, "
                                  f"{self.row_upper[i]}] bound no row")
        if np.count_nonzero(self.c) > np.count_nonzero(self.c[lay.objective_order]):
            raise ModelBuildError("objective_order must list each column with a nonzero cost once")


def _number_faults(c, lb, ub, binary, row_lower, row_upper, data) -> dict[str, np.ndarray]:
    """Masks of the numbers :meth:`MilpModel.validate` rejects, by kind:
    non-finite costs and coefficients, column bounds that cross, binary
    columns not bounded by [0, 1], and row bounds that bound no row.  The
    arrays may have a leading axis of models of one structure; ``binary``
    is per column."""
    lo, hi = row_lower, row_upper
    return {
        "cost": ~np.isfinite(c),
        "coefficient": ~np.isfinite(data),
        "bounds": ~(lb <= ub),
        "binary": binary & ((lb != 0.0) | (ub != 1.0)),
        "rows": ~(lo <= hi) | (lo == INF) | (hi == -INF) | ((lo == -INF) & (hi == INF)),
    }


def big_m_value(config: CommunityConfig) -> float:
    """Big-M constant for the community status and slot-cost envelope rows.

    ``2 * max(P) * (sum of per-home trading caps + community peak)``
    upper-bounds both the per-slot energy gap between total purchases and
    total sales and the magnitude of any slot cost, so those rows are
    safely slack whichever way the status binary points.
    """
    caps = sum(h.peak_limit for h in config.homes) + config.community_peak
    return 2.0 * float(np.max(config.buy_price)) * caps


# ---------------------------------------------------------------------------
# per-home patterns

# A home's numbers, one row of a table per home: these scalars, then the
# three per-slot series.  Patterns name their bounds, coefficients and row
# bounds by table column.
_SCALARS = (
    "0", "1", "-1", "inf", "-inf", "-gain", "-eps", "-dt", "1/eta", "-eta", "charge", "-charge",
    "discharge", "-M", "M", "peak", "-peak", "p_max", "t_min", "t_max", "level_min",
    "level_max", "level0",
)
_SERIES = ("temp", "load", "pv")
_BOUNDS = {
    "hvac_power": ("0", "p_max"),
    "temp_in": ("t_min", "t_max"),
    "ess_level": ("level_min", "level_max"),
    "mode_home": ("0", "1"),
    "mode_ess": ("0", "1"),
}
_BINARY_ROLES = ("mode_home", "mode_ess")


def _value_column(key, T: int) -> int:
    """Table column of a scalar name or a ``(series, slot)`` pair."""
    if isinstance(key, str):
        return _SCALARS.index(key)
    series, t = key
    return len(_SCALARS) + _SERIES.index(series) * T + t - 1


def _home_values(homes: Sequence[HomeConfig], config: CommunityConfig, selfish: bool) -> np.ndarray:
    """The table of every home's numbers, one row per home: the
    :data:`_SCALARS`, then the per-slot series.  Storage and PV entries of a
    home without the device are zeros or placeholders no pattern reads.

    ``M`` gates each home's buy/sell exclusivity rows: its trading cap when
    it is scheduled alone (``selfish``); in the pooled model, the largest of
    the cap, the most it can buy in a slot
    (:func:`cems.domain.default_peak_limit`) and the most it can sell (peak
    PV output plus the discharge rate).  That cuts nothing, and is much
    tighter than :func:`big_m_value`, which keeps the LP relaxation strong.
    No row of a binary-free LP reads ``M``."""
    T, dt = config.horizon_slots, config.slot_hours
    (eps, eta_hvac, conductivity, p_max, t_min, t_max, t_initial, peak,
     eta, charge, discharge, level_min, level_max, level0, area, efficiency) = np.array([
        (h.hvac.epsilon, h.hvac.eta_hvac, h.hvac.conductivity_a, h.hvac.p_max, h.hvac.t_min,
         h.hvac.t_max, h.hvac.t_in_initial, h.peak_limit)
        + (_NO_ESS if h.ess is None else (h.ess.efficiency, h.ess.charge_rate_max,
           h.ess.discharge_rate_max, h.ess.level_min, h.ess.level_max, h.ess.level_initial))
        + (_NO_PV if h.pv is None else (h.pv.panel_area, h.pv.efficiency))
        for h in homes
    ]).reshape(len(homes), 16).T
    big_m = peak
    if not selfish:
        buy_cap = [default_peak_limit(h.hvac.p_max, h.fixed_load, h.ess, dt) for h in homes]
        # PV output at the day's peak irradiance
        sell_cap = 0.0 + discharge * dt + pv_output_energy(float(config.ghi.max()), area, efficiency, dt)
        big_m = np.maximum(np.maximum(peak, buy_cap), sell_cap)
    scalars = {
        "0": 0.0, "1": 1.0, "-1": -1.0, "inf": INF, "-inf": -INF,
        "-gain": -((1.0 - eps) * eta_hvac / conductivity), "-eps": -eps, "-dt": -dt,
        "1/eta": 1.0 / eta, "-eta": -eta, "charge": charge * dt, "-charge": -charge * dt,
        "discharge": discharge * dt, "-M": -big_m, "M": big_m, "peak": peak, "-peak": -peak,
        "p_max": p_max, "t_min": t_min, "t_max": t_max, "level_min": level_min,
        "level_max": level_max, "level0": level0,
    }
    table = np.empty((len(homes), len(_SCALARS) + len(_SERIES) * T))
    for column, name in enumerate(_SCALARS):
        table[:, column] = scalars[name]
    series = table[:, len(_SCALARS):].reshape(len(homes), len(_SERIES), T)
    # the temperature recursion's constant part; slot 1 also carries the
    # start-of-day temperature
    series[:, 0] = (1.0 - eps)[:, None] * config.t_out[None, :]
    series[:, 0, 0] += eps * t_initial
    series[:, 1] = [h.fixed_load for h in homes]
    series[:, 2] = pv_output_energy(config.ghi[None, :], area[:, None], efficiency[:, None], dt)
    return table


# placeholder storage and PV parameters of a home without the device
_NO_ESS = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
_NO_PV = (0.0, 0.0)


@dataclass(frozen=True, eq=False)
class _Pattern:
    """The block of every home with one DER mix, in local numbering, by
    model array name.  ``lb``, ``ub``, ``row_lower``, ``row_upper`` and
    ``data`` hold columns of the home value table (:func:`_home_values`)
    rather than numbers; ``row_len`` is each row's term count and
    ``indptr`` the block's row pointers.  Terms are in canonical order;
    ``term_order`` is the written order.  ``var_home`` and ``row_home`` are
    zeros, the home codes of a one-home model.  A home scheduled alone
    writes its objective over the ``objective`` columns, its purchase and
    its sale in each slot.  Every array is read-only: a one-home model
    (:meth:`model`) shares them."""

    var_role: np.ndarray
    var_slot: np.ndarray
    integrality: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    row_family: np.ndarray
    row_slot: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    row_len: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    term_order: np.ndarray
    objective: np.ndarray
    indptr: np.ndarray
    var_home: np.ndarray
    row_home: np.ndarray

    def model(self, name: str, home: str, tag: str, c: np.ndarray,
              numbers: dict[str, np.ndarray]) -> MilpModel:
        """The one-home model of this block with the objective ``c`` and
        the home's ``numbers`` (by :data:`_NUMBERS` name), unchecked."""
        layout = Layout(
            homes=(home,), tags=(tag,), var_home=self.var_home, var_role=self.var_role,
            var_slot=self.var_slot, row_home=self.row_home, row_family=self.row_family,
            row_slot=self.row_slot, term_order=self.term_order, objective_order=self.objective,
        )
        return MilpModel(name=name, c=c, integrality=self.integrality, indptr=self.indptr,
                         indices=self.indices, layout=layout, **numbers)


@functools.lru_cache(maxsize=None)
def _home_roles(has_ess: bool, has_pv: bool, lp: bool) -> tuple[str, ...]:
    """A home's column roles in column order; each takes one column per slot.
    The binary-free LP (``lp``) has no mode columns."""
    roles = ("hvac_power", "temp_in", "com_load", "com_buy", "com_sell", "mode_home")
    if has_ess:
        roles += ("ess_level", "ess_load", "ess_sell", "com_charge", "mode_ess")
    if has_pv:
        roles += ("res_load", "res_sell") + (("res_charge",) if has_ess else ())
    return tuple(r for r in roles if r not in _BINARY_ROLES) if lp else roles


@functools.lru_cache(maxsize=None)
def _home_pattern(has_ess: bool, has_pv: bool, T: int, selfish: bool, lp: bool) -> _Pattern:
    """Physics and coupling rows of one home, plus its own trading band
    when it is scheduled alone (``selfish``).  Terms are ``(role, slot,
    coefficient)`` with the coefficient a value-table name.  The
    binary-free LP (``lp``) drops the mode columns and the exclusivity
    rows, and caps the storage rates without a mode.  The pattern's
    structure is checked here, once (:func:`_finish_pattern`)."""
    rows: list[tuple[str, int, list, str, object]] = []

    def row(family: str, slot: int, terms: list, sense: str, rhs) -> None:
        rows.append((family, slot, terms, sense, rhs))

    slots = range(1, T + 1)
    # indoor temperature recursion; comfort is carried by the temp bounds
    for t in slots:
        terms = [("temp_in", t, "1"), ("hvac_power", t, "-gain")]
        if t > 1:
            terms.append(("temp_in", t - 1, "-eps"))
        row("temp_rec", t, terms, "=", ("temp", t))

    # home energy balance: fixed + HVAC met from community, storage and PV
    for t in slots:
        terms = [("com_load", t, "1"), ("hvac_power", t, "-dt")]
        if has_ess:
            terms.append(("ess_load", t, "1"))
        if has_pv:
            terms.append(("res_load", t, "1"))
        row("balance", t, terms, "=", ("load", t))

    # PV production split
    if has_pv:
        for t in slots:
            terms = [("res_load", t, "1"), ("res_sell", t, "1")]
            if has_ess:
                terms.append(("res_charge", t, "1"))
            row("res_split", t, terms, "=", ("pv", t))

    # storage: level recursion (discharge divided by the efficiency, charge
    # multiplied by it), rate caps gated by the charge/discharge mode binary
    # (plain caps in the LP), and the end-of-day level restored
    if has_ess:
        for t in slots:
            terms = [("ess_level", t, "1"), ("ess_load", t, "1/eta"), ("ess_sell", t, "1/eta"),
                     ("com_charge", t, "-eta")]
            if has_pv:
                terms.append(("res_charge", t, "-eta"))
            if t > 1:
                terms.append(("ess_level", t - 1, "-1"))
            row("ess_level", t, terms, "=", "level0" if t == 1 else "0")
            charge = [("com_charge", t, "1")]
            if has_pv:
                charge.append(("res_charge", t, "1"))
            discharge = [("ess_load", t, "1"), ("ess_sell", t, "1")]
            if lp:
                row("ess_charge", t, charge, "<=", "charge")
                row("ess_discharge", t, discharge, "<=", "discharge")
            else:
                row("ess_charge", t, charge + [("mode_ess", t, "-charge")], "<=", "0")
                row("ess_discharge", t, discharge + [("mode_ess", t, "discharge")], "<=", "discharge")
        row("ess_terminal", 0, [("ess_level", T, "1")], "=", "level0")

    # net exchanged with the community, one direction at a time
    for t in slots:
        buy = [("com_buy", t, "1"), ("com_load", t, "-1")]
        if has_ess:
            buy.append(("com_charge", t, "-1"))
        row("buy_def", t, buy, "=", "0")
        sell = [("com_sell", t, "1")]
        if has_pv:
            sell.append(("res_sell", t, "-1"))
        if has_ess:
            sell.append(("ess_sell", t, "-1"))
        row("sell_def", t, sell, "=", "0")
        if not lp:
            row("buy_mode", t, [("com_buy", t, "1"), ("mode_home", t, "-M")], "<=", "0")
            row("sell_mode", t, [("com_sell", t, "1"), ("mode_home", t, "M")], "<=", "M")

    # a home scheduled alone keeps its own net within its trading cap
    if selfish:
        for t in slots:
            gap = [("com_buy", t, "1"), ("com_sell", t, "-1")]
            row("peak_hi", t, gap, "<=", "peak")
            row("peak_lo", t, gap, ">=", "-peak")

    return _finish_pattern(_home_roles(has_ess, has_pv, lp), T, rows)


def _finish_pattern(roles: tuple[str, ...], T: int, rows: list) -> _Pattern:
    first = {role: i * T for i, role in enumerate(roles)}
    col = lambda key: _value_column(key, T)  # noqa: E731
    bounds = {"=": (None, None), "<=": ("-inf", None), ">=": (None, "inf")}
    indices: list[int] = []
    coefs: list[int] = []
    term_order: list[int] = []
    for _, _, terms, _, _ in rows:
        cols = [first[role] + t - 1 for role, t, _ in terms]
        by_col = sorted(range(len(terms)), key=cols.__getitem__)
        rank = {k: pos for pos, k in enumerate(by_col)}
        term_order += [len(indices) + rank[k] for k in range(len(terms))]
        indices += [cols[k] for k in by_col]
        coefs += [col(terms[k][2]) for k in by_col]
    lower = [col(bounds[sense][0] or rhs) for _, _, _, sense, rhs in rows]
    upper = [col(bounds[sense][1] or rhs) for _, _, _, sense, rhs in rows]
    col_bounds = [_BOUNDS.get(role, ("0", "inf")) for role in roles]
    # value-table columns in intp, which np.take reads without a copy
    ints = functools.partial(np.array, dtype=np.int32)
    positions = functools.partial(np.array, dtype=np.intp)
    pattern = _Pattern(
        var_role=ints(np.repeat([ROLE[r] for r in roles], T)),
        var_slot=ints(np.tile(np.arange(1, T + 1), len(roles))),
        integrality=np.repeat([r in _BINARY_ROLES for r in roles], T).astype(np.uint8),
        lb=positions(np.repeat([col(lo) for lo, _ in col_bounds], T)),
        ub=positions(np.repeat([col(hi) for _, hi in col_bounds], T)),
        row_family=ints([FAMILY[r[0]] for r in rows]),
        row_slot=ints([r[1] for r in rows]),
        row_lower=positions(lower),
        row_upper=positions(upper),
        row_len=ints([len(r[2]) for r in rows]),
        indices=ints(indices),
        data=positions(coefs),
        term_order=ints(term_order),
        objective=positions([first[role] + t for t in range(T) for role in ("com_buy", "com_sell")]),
        indptr=ints(np.cumsum([0] + [len(r[2]) for r in rows])),
        var_home=np.zeros(len(roles) * T, dtype=np.int32),
        row_home=np.zeros(len(rows), dtype=np.int32),
    )
    for value in vars(pattern).values():
        value.flags.writeable = False
    # the structure, checked once on a one-home model with placeholder numbers
    model = pattern.model("pattern", "pattern", "pattern", np.zeros(len(pattern.var_role)),
                          {name: np.zeros(len(getattr(pattern, name))) for name in _NUMBERS})
    model._validate_sizes()
    model._validate_structure()
    return pattern


# ---------------------------------------------------------------------------
# assembly

# the arrays a builder fills, by model array name, with their dtypes; the
# builders fill ``row_len`` with each row's term count, and _model sums
# it into ``indptr``
_COLUMN_ARRAYS = {"lb": np.float64, "ub": np.float64, "integrality": np.uint8,
                  "var_home": np.int32, "var_role": np.int32, "var_slot": np.int32}
_ROW_ARRAYS = {"row_lower": np.float64, "row_upper": np.float64, "row_len": np.int32,
               "row_home": np.int32, "row_family": np.int32, "row_slot": np.int32}
_TERM_ARRAYS = {"indices": np.int32, "data": np.float64, "term_order": np.int32}
_LAYOUT_ARRAYS = ("var_home", "var_role", "var_slot", "row_home", "row_family", "row_slot",
                  "term_order")
# a pattern's arrays that hold structure, and those that name value-table columns
_STRUCTURE = ("var_role", "var_slot", "integrality", "row_family", "row_slot", "row_len",
              "indices", "term_order")
_NUMBERS = {"lb": "cols", "ub": "cols", "row_lower": "rows", "row_upper": "rows", "data": "terms"}


def _allocate(n: int, m: int, nnz: int) -> dict[str, np.ndarray]:
    if max(n, m, nnz) >= np.iinfo(np.int32).max:
        raise ModelBuildError(f"{n} columns, {m} rows and {nnz} terms do not fit int32 indices")
    return {name: np.empty(size, dtype)
            for arrays, size in ((_COLUMN_ARRAYS, n), (_ROW_ARRAYS, m), (_TERM_ARRAYS, nnz))
            for name, dtype in arrays.items()}


def _part(arrays: dict[str, np.ndarray], cols: slice, rows: slice,
          terms: slice) -> dict[str, np.ndarray]:
    """Views of ``arrays`` over some of the columns, rows and terms."""
    return {name: a[cols if name in _COLUMN_ARRAYS else rows if name in _ROW_ARRAYS else terms]
            for name, a in arrays.items()}


def _fill_homes(out: dict[str, np.ndarray], patterns: Sequence[_Pattern], sizes: np.ndarray,
                homes: Sequence[HomeConfig], config: CommunityConfig) -> np.ndarray:
    """Write the homes' blocks end to end into ``out``, views of the
    model's leading columns, rows and terms; ``sizes`` holds each home's
    column, row and term count.  Returns each home's first column."""
    n_cols, n_rows, n_terms = sizes.T
    col0 = np.cumsum(n_cols, dtype=np.int32) - n_cols
    term0 = np.cumsum(n_terms, dtype=np.int32) - n_terms
    codes = np.arange(len(homes), dtype=np.intp)

    def joined(name: str, into: np.ndarray | None = None) -> np.ndarray:
        return np.concatenate([getattr(p, name) for p in patterns], out=into)

    for name in _STRUCTURE:
        joined(name, out[name])
    out["indices"] += col0.repeat(n_terms)
    out["term_order"] += term0.repeat(n_terms)
    out["var_home"][:] = codes.repeat(n_cols)
    out["row_home"][:] = codes.repeat(n_rows)
    # the numbers: each entry reads its own home's row of the value table
    values = _home_values(homes, config, selfish=False)
    flat, width = values.ravel(), values.shape[1]
    row_start = {kind: (codes * width).repeat(counts)
                 for kind, counts in (("cols", n_cols), ("rows", n_rows), ("terms", n_terms))}
    for name, kind in _NUMBERS.items():
        np.take(flat, row_start[kind] + joined(name), out=out[name])
    return col0


def _model(name: str, homes: Sequence[HomeConfig], arrays: dict[str, np.ndarray],
           objective: tuple[np.ndarray, np.ndarray]) -> MilpModel:
    """The model made of the filled ``arrays`` and the written objective
    terms ``(columns, coefficients)``, read-only and validated."""
    row_len = arrays.pop("row_len")
    indptr = np.zeros(len(row_len) + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    columns, coefs = objective
    c = np.zeros(len(arrays["lb"]))
    c[columns] = coefs
    layout = Layout(
        homes=tuple(h.id for h in homes),
        tags=tuple(lp_tag(h.id) for h in homes),
        objective_order=columns,
        **{key: arrays.pop(key) for key in _LAYOUT_ARRAYS},
    )
    model = MilpModel(name=name, c=c, indptr=indptr, layout=layout, **arrays)
    for value in (*vars(model).values(), *vars(layout).values()):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    model.validate()
    return model


def _role_columns(homes: Sequence[HomeConfig], col0: np.ndarray, role: str, T: int,
                  lp: bool) -> np.ndarray:
    """``(homes, T)`` global columns of ``role`` in each home."""
    first = np.array([_home_roles(h.ess is not None, h.pv is not None, lp).index(role) * T
                      for h in homes])
    return (col0 + first)[:, None] + np.arange(T)


# the community's columns, one per slot each: lower and upper bound, integrality
_COMMUNITY_COLUMNS = {"status": (0.0, 1.0, 1), "slot_cost": (-INF, INF, 0)}


def build_system_centric_model(config: CommunityConfig, *, lp: bool = False) -> MilpModel:
    """Whole-community model minimizing the pooled day-ahead cost.

    Per home and slot: HVAC power within rating, comfort via temperature
    bounds, temperature recursion, energy balance, PV split, storage books
    with mode-gated rates and restored end level, buy/sell accounting with
    one-direction-at-a-time exclusivity.  Community-wide: the net exchange
    band and the linearized slot cost driven by one import/export status
    binary per slot.  Both big-M constants are derived from the config:
    :func:`big_m_value` for the community rows, a tighter one per home for
    its exclusivity rows (:func:`_home_values`).

    With ``lp``, the binary-free LP of the same model, named
    ``system_centric_relaxed``: no mode or status column, no exclusivity,
    status or envelope row, plain storage rate caps; the band and the two
    hull rows, which price each slot at ``max(P * gap, alpha * P * gap)``,
    stay.
    """
    T = config.horizon_slots
    homes = config.homes
    n = len(homes)
    big_m = big_m_value(config)
    price = config.buy_price
    sell_price = config.alpha * price
    peak = config.community_peak
    ones = np.ones(T)
    # per slot, in this order: family, factor on the community gap
    # (purchases minus sales), status coefficient, whether the slot cost
    # leads the row, lower and upper bound
    kinds = (
        ("peak_hi", ones, None, False, -INF, peak),
        ("peak_lo", ones, None, False, -peak, INF),
        # status forced to 1 when net importing, 0 when net exporting
        ("status_on", ones, -big_m, False, -big_m, INF),
        ("status_off", ones, -big_m, False, -INF, 0.0),
        # slot cost pinned to P * gap when importing, alpha * P * gap when exporting
        ("cost_imp_lo", -price, -big_m, True, -big_m, INF),
        ("cost_imp_hi", -price, big_m, True, -INF, big_m),
        ("cost_exp_lo", -sell_price, big_m, True, 0.0, INF),
        ("cost_exp_hi", -sell_price, -big_m, True, -INF, 0.0),
        # redundant at integer points but they make the relaxation exact on
        # the cost side: the slot cost is convex in the gap, so both linear
        # pieces are global lower bounds
        ("cost_hull_imp", -price, None, True, 0.0, INF),
        ("cost_hull_exp", -sell_price, None, True, 0.0, INF),
    )
    com_roles = ("slot_cost",) if lp else ("status", "slot_cost")
    if lp:
        # the LP keeps the rows the status binary does not gate
        kinds = tuple(k for k in kinds if k[2] is None)
    lengths = [2 * n + (s is not None) + lead for _, _, s, lead, _, _ in kinds]
    per_slot = sum(lengths)
    patterns = [_home_pattern(h.ess is not None, h.pv is not None, T, False, lp) for h in homes]
    sizes = np.array([(len(p.var_role), len(p.row_family), len(p.indices)) for p in patterns],
                     dtype=np.int32).reshape(-1, 3)
    n0, m0, nnz0 = (int(x) for x in sizes.sum(axis=0))
    arrays = _allocate(n0 + len(com_roles) * T, m0 + len(kinds) * T, nnz0 + per_slot * T)
    col0 = _fill_homes(_part(arrays, slice(0, n0), slice(0, m0), slice(0, nnz0)), patterns, sizes,
                       homes, config)
    com = _part(arrays, slice(n0, None), slice(m0, None), slice(nnz0, None))

    # community columns: one status binary (not in the LP) and one free
    # slot cost per slot, the slot cost last
    slots = np.arange(1, T + 1)
    status = n0 + slots - 1
    cost = n0 + (len(com_roles) - 1) * T + slots - 1
    lb, ub, integral = zip(*(_COMMUNITY_COLUMNS[role] for role in com_roles))
    com["lb"][:] = np.repeat(lb, T)
    com["ub"][:] = np.repeat(ub, T)
    com["integrality"][:] = np.repeat(integral, T)
    com["var_home"][:] = COMMUNITY
    com["var_role"][:] = np.repeat([ROLE[role] for role in com_roles], T)
    com["var_slot"][:] = np.tile(slots, len(com_roles))

    # the gap's terms are written purchases first, then sales, home by home
    gap = np.concatenate([_role_columns(homes, col0, "com_buy", T, lp),
                          _role_columns(homes, col0, "com_sell", T, lp)])
    sign = np.repeat([1.0, -1.0], n)
    by_col = np.argsort(gap[:, 0], kind="stable")  # the same order in every slot
    gap, sign = gap[by_col].T, sign[by_col]
    gap_rank = np.empty(2 * n, dtype=np.int64)
    gap_rank[by_col] = np.arange(2 * n)

    # each row's terms sit in canonical order: the gap, then the status,
    # then the slot cost, which is the last column of all; one line of
    # these views per slot
    indices, data, order = (com[name].reshape(T, per_slot)
                            for name in ("indices", "data", "term_order"))
    offset = 0
    for (_, factor, s, lead, _, _), length in zip(kinds, lengths):
        at = offset + 2 * n
        indices[:, offset:at] = gap
        data[:, offset:at] = factor[:, None] * sign
        if s is not None:
            indices[:, at], data[:, at] = status, s
            at += 1
        if lead:
            indices[:, at], data[:, at] = cost, 1.0
        written = [[length - 1]] * lead + [gap_rank] + [[2 * n]] * (s is not None)
        order[:, offset:offset + length] = offset + np.concatenate(written)
        offset += length
    order += (nnz0 + per_slot * np.arange(T))[:, None]
    com["row_lower"][:] = np.tile([k[4] for k in kinds], T)
    com["row_upper"][:] = np.tile([k[5] for k in kinds], T)
    com["row_len"][:] = np.tile(lengths, T)
    com["row_home"][:] = COMMUNITY
    com["row_family"][:] = np.tile([FAMILY[k[0]] for k in kinds], T)
    com["row_slot"][:] = np.repeat(slots, len(kinds))
    return _model("system_centric_relaxed" if lp else "system_centric", homes, arrays,
                  (cost, np.ones(T)))


def build_home_model(config: CommunityConfig, home_id: str,
                     batch: HomeModelBatch | None = None, *, lp: bool = False) -> MilpModel:
    """Single-home model: minimize the home's own bill at external prices.

    Same physics as the system model restricted to one home, plus the
    per-home cap on the traded amount.  The per-home cap also serves as the
    big-M in the buy/sell exclusivity rows, which it dominates by
    construction.  Objective: ``sum(P * buy - alpha * P * sell)``.  With
    ``lp``, the binary-free LP of the same model, named
    ``home_<id>_relaxed``.  The home's numbers come from ``batch``, a
    :class:`HomeModelBatch` of ``config``'s homes made with the same
    ``lp``; without one, the home is a batch of one.
    """
    if batch is None:
        batch = HomeModelBatch(config, [config.home(home_id)], lp=lp)
    elif batch.lp != lp:
        raise ValueError(f"a batch made with lp={batch.lp} cannot build a model with lp={lp}")
    return batch.model(home_id)


class HomeModelBatch:
    """The numbers of the selfish models of ``homes`` (by default every
    home of ``config``), or with ``lp`` of their binary-free LPs, made as
    one batch: one value table for all homes, from whose rows each home's
    numbers are cut by its pattern's table columns, and per DER pattern one
    objective vector and one check of all its homes' numbers at once.  A
    bad number or tag raises the :class:`ModelBuildError` of the first home
    at fault, naming its column or row; each pattern's structure was
    checked when it was made, so :meth:`model` checks nothing again."""

    def __init__(self, config: CommunityConfig, homes: Sequence[HomeConfig] | None = None, *,
                 lp: bool = False):
        homes = config.homes if homes is None else homes
        T = config.horizon_slots
        self.lp = lp
        values = _home_values(homes, config, selfish=True)
        prices = np.column_stack([config.buy_price, -config.alpha * config.buy_price]).ravel()
        members: dict[_Pattern, list[int]] = {}
        for i, home in enumerate(homes):
            members.setdefault(_home_pattern(home.ess is not None, home.pv is not None, T, True, lp),
                               []).append(i)
        tags = [lp_tag(home.id) for home in homes]
        faulted = [i for i, tag in enumerate(tags) if tag == COMMUNITY_TAG]
        # per pattern, its objective and its homes' numbers as (homes, entries) arrays
        self._numbers: dict[_Pattern, tuple[np.ndarray, dict[str, np.ndarray]]] = {}
        self._at: dict[str, tuple[_Pattern, int, str]] = {}
        for pattern, rows in members.items():
            numbers = {name: values[np.array(rows)[:, None], getattr(pattern, name)]
                       for name in _NUMBERS}
            c = np.zeros(len(pattern.var_role))
            c[pattern.objective] = prices
            for value in (*numbers.values(), c):
                value.flags.writeable = False
            faults = _number_faults(c, numbers["lb"], numbers["ub"], pattern.integrality == 1,
                                    numbers["row_lower"], numbers["row_upper"], numbers["data"])
            bad = faults.pop("cost").any() | np.any([f.any(axis=-1) for f in faults.values()], axis=0)
            faulted += [rows[k] for k in np.flatnonzero(bad)]
            self._numbers[pattern] = c, numbers
            self._at.update((homes[i].id, (pattern, k, tags[i])) for k, i in enumerate(rows))
        if faulted:
            self.model(homes[min(faulted)].id).validate()  # raises, naming the home's column or row

    def model(self, home_id: str) -> MilpModel:
        """The selfish model of the batch's home ``home_id``.  Every array
        its pattern fixes is shared with the pattern's other models."""
        pattern, k, tag = self._at[home_id]
        c, numbers = self._numbers[pattern]
        return pattern.model(f"home_{home_id}_relaxed" if self.lp else f"home_{home_id}", home_id,
                             tag, c, {name: a[k] for name, a in numbers.items()})


# ---------------------------------------------------------------------------
# LP text export

_PER_LINE = 8  # terms per line of LP text
_TAG = "\x00"  # stands for the home tag in a skeleton; no name part or number holds it
_SLOT = "\x01"  # marks a slot of a skeleton while it is rendered
_RUN_TERMS = 1 << 15  # the most terms of community rows rendered as one string, bar a longer row


def _fmt_all(values: np.ndarray, before: str = "", after: str = "") -> np.ndarray:
    """Every entry in ``%.17g`` form between ``before`` and ``after``, as an
    object array; each distinct value is formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = np.array([f"{before}{v:.17g}{after}" for v in distinct.tolist()], dtype=object)[inverse]
    zero = np.flatnonzero(values == 0.0)  # np.unique does not tell -0.0 from 0.0
    signed = np.array([f"{before}0{after}", f"{before}-0{after}"], dtype=object)
    text[zero] = signed[np.signbit(values[zero]).astype(np.intp)]
    return text


def _coef_texts(coefs: np.ndarray) -> np.ndarray:
    """Each coefficient as a term writes it, ``+ 1.5`` or ``- 1.5``; each
    distinct magnitude is formatted once."""
    magnitudes, which = np.unique(np.abs(coefs), return_inverse=True)
    texts = np.array([f"{sign} {value:.17g}" for sign in "+-" for value in magnitudes.tolist()],
                     dtype=object)
    return texts[(coefs < 0) * len(magnitudes) + which.reshape(coefs.shape)]


def _tails(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Each row's ``sense rhs`` as its line ends, `` = 1.5\\n``."""
    senses, rhs = _senses(lower, upper)
    return (" " + senses.astype(object)) + _fmt_all(rhs.ravel(), " ", "\n").reshape(rhs.shape)


def _rows_text(heads: np.ndarray, tails: np.ndarray, indptr: np.ndarray,
               cols: np.ndarray, coefs: np.ndarray, names: np.ndarray,
               slots: np.ndarray | None = None) -> str:
    """LP text of rows of terms: each row's head, its terms ``± coef name``
    eight to a line, then its tail.  ``indptr`` (starting at 0) delimits
    the rows' terms in ``cols``/``coefs``, which are in written order.
    Where the mask ``slots`` is set, a term's ``± coef`` is written as
    :data:`_SLOT`."""
    n_rows, nnz = len(heads), len(cols)
    lengths = np.diff(indptr)
    row_of = np.repeat(np.arange(n_rows), lengths)
    rank = np.arange(nnz) - indptr[:-1][row_of]
    magnitudes, which = np.unique(np.abs(coefs), return_inverse=True)
    # a term's text up to its variable name, by separator, sign and
    # magnitude, then by separator for a slot
    prefixes = np.array([
        f"{sep}{sign} {value:.17g} "
        for sep in ("", " ", "\n      ") for sign in "+-" for value in magnitudes.tolist()
    ] + [f"{sep}{_SLOT} " for sep in ("", " ", "\n      ")], dtype=object)
    sep = np.where(rank == 0, 0, np.where(rank % _PER_LINE == 0, 2, 1))
    key = (sep * 2 + (coefs < 0)) * len(magnitudes) + which
    if slots is not None:
        key[slots] = 6 * len(magnitudes) + sep[slots]
    empty = lengths == 0
    if empty.any():
        heads = np.where(empty, heads + "0", heads)
    # row by row: the head, each term's prefix and name, the tail
    pieces = np.empty(2 * (nnz + n_rows), dtype=object)
    at = 2 * (np.arange(nnz) + row_of) + 1
    pieces[at] = prefixes[key]
    pieces[at + 1] = names[cols]
    row_at = 2 * np.arange(n_rows)
    pieces[2 * indptr[:-1] + row_at] = heads
    pieces[2 * indptr[1:] + row_at + 1] = tails
    return "".join(pieces.tolist())


def _bound_lines(lb: np.ndarray, ub: np.ndarray, names: np.ndarray) -> np.ndarray:
    """Each column's line of the Bounds section in five pieces, unused ones
    empty: `` name free``, `` name >= lb`` or `` lb <= name <= ub``."""
    free = (lb == -INF) & (ub == INF)
    lower = ~free & (ub == INF)
    both = ~free & ~lower
    lines = np.full((len(lb), 5), "", dtype=object)
    lines[:, 0] = " "
    lines[free, 1] = names[free]
    lines[free, 2] = " free\n"
    lines[lower, 1] = names[lower]
    lines[lower, 2] = " >= "
    lines[lower, 3] = _fmt_all(lb[lower], after="\n")
    lines[both, 1] = _fmt_all(lb[both])
    lines[both, 2] = " <= "
    lines[both, 3] = names[both]
    lines[both, 4] = _fmt_all(ub[both], " <= ", "\n")
    return lines


def _column_names(layout: Layout, cols: np.ndarray) -> np.ndarray:
    """The names of columns ``cols``, as an object array."""
    return _labels(ROLES, layout.var_role[cols], layout.tags, layout.var_home[cols],
                   layout.var_slot[cols])


def _varies(values: np.ndarray) -> np.ndarray:
    """Per column of a (homes, entries) array, whether some home's entry is
    not bitwise the first home's: ``-0.0`` differs from ``0.0``."""
    bits = values.view(np.uint64)
    return (bits != bits[:1]).any(axis=0)


def _block(values: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """``values[start:start + size]`` for each start, as a (starts, size) array."""
    return values[starts[:, None] + np.arange(size)]


def _structure_groups(model: MilpModel, col_at: np.ndarray, row_at: np.ndarray,
                      term_at: np.ndarray) -> list[np.ndarray]:
    """The homes of each structure group, in home order: homes whose blocks
    have the same local row pointers, column indices, term order, row
    family and slot, column role and slot, and integrality.  A home's key
    is the bytes of its rows' (start, family, slot), its terms' (written
    order, column) and its columns' (role, slot, integrality), all in local
    numbering, whose lengths give its row, term and column counts; homes
    are grouped in one pass by equal keys."""
    lay = model.layout
    n_terms = np.diff(term_at)
    rows = np.column_stack([
        model.indptr[:row_at[-1]] - np.repeat(term_at[:-1], np.diff(row_at)),
        lay.row_family[:row_at[-1]], lay.row_slot[:row_at[-1]]])
    terms = np.column_stack([lay.term_order[:term_at[-1]] - np.repeat(term_at[:-1], n_terms),
                             model.indices[:term_at[-1]] - np.repeat(col_at[:-1], n_terms)])
    cols = np.column_stack([lay.var_role[:col_at[-1]], lay.var_slot[:col_at[-1]],
                            model.integrality[:col_at[-1]]])
    groups: dict[tuple[bytes, bytes, bytes], list[int]] = {}
    for h, (r0, r1, p0, p1, c0, c1) in enumerate(zip(
            row_at[:-1].tolist(), row_at[1:].tolist(), term_at[:-1].tolist(), term_at[1:].tolist(),
            col_at[:-1].tolist(), col_at[1:].tolist())):
        key = rows[r0:r1].tobytes(), terms[p0:p1].tobytes(), cols[c0:c1].tobytes()
        groups.setdefault(key, []).append(h)
    return [np.array(homes) for homes in groups.values()]


def _cut(skeleton: str, texts: np.ndarray) -> np.ndarray:
    """A (homes, pieces) array: each home's text cut into the skeleton's
    segments, with that home's slot texts (a row of ``texts``) between
    them."""
    segments = skeleton.split(_SLOT)
    pieces = np.empty((len(texts), 2 * len(segments) - 1), dtype=object)
    pieces[:, 0::2] = np.array(segments, dtype=object)
    pieces[:, 1::2] = texts
    return pieces


def _group_pieces(model: MilpModel, homes: np.ndarray, col_at: np.ndarray, row_at: np.ndarray,
                  term_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the Bounds lines of a structure group's homes, each as
    the :func:`_cut` pieces of one skeleton and the homes' slot texts.  The
    skeleton is the first home's text with :data:`_TAG` for its tag and a
    slot for each coefficient, row tail or bound that is not bitwise equal
    across the group."""
    lay = model.layout
    c0, r0, p0 = col_at[homes], row_at[homes], term_at[homes]
    # the first home's columns, rows and terms
    cols, rows = slice(c0[0], col_at[homes[0] + 1]), slice(r0[0], row_at[homes[0] + 1])
    n_rows = rows.stop - rows.start
    indptr = model.indptr[rows.start:rows.stop + 1] - p0[0]
    written = lay.term_order[p0[0]:indptr[-1] + p0[0]] - p0[0]
    names = _labels(ROLES, lay.var_role[cols], (_TAG,), np.zeros(cols.stop - cols.start, np.intp),
                    lay.var_slot[cols])

    # rows: slots for coefficients, in written order, and for row tails
    coefs = model.data[p0[:, None] + written]
    lower, upper = _block(model.row_lower, r0, n_rows), _block(model.row_upper, r0, n_rows)
    coef_slot, tail_slot = _varies(coefs), _varies(lower) | _varies(upper)
    heads = _labels(FAMILIES, lay.row_family[rows], (_TAG,), np.zeros(n_rows, np.intp),
                    lay.row_slot[rows], " ", ": ")
    tails = _tails(lower[0], upper[0])
    tails[tail_slot] = _SLOT
    skeleton = _rows_text(heads, tails, indptr, model.indices[p0[0] + written] - c0[0], coefs[0],
                          names, coef_slot)
    # slots sit in text order: a row's terms, then its tail
    row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
    at = np.concatenate([np.flatnonzero(coef_slot) + row_of[coef_slot],
                         indptr[1:][tail_slot] + np.flatnonzero(tail_slot)])
    texts = np.concatenate([_coef_texts(coefs[:, coef_slot]),
                            _tails(lower[:, tail_slot], upper[:, tail_slot])], axis=1)
    row_pieces = _cut(skeleton, texts[:, np.argsort(at)])

    # Bounds lines of the continuous columns: a whole line per slot
    continuous = np.flatnonzero(model.integrality[cols] == 0)
    lb, ub = model.lb[c0[:, None] + continuous], model.ub[c0[:, None] + continuous]
    bound_slot = _varies(lb) | _varies(ub)
    lines = _bound_lines(lb[0], ub[0], names[continuous])
    lines[bound_slot, 0] = _SLOT
    lines[bound_slot, 1:] = ""
    slot_names = np.tile(names[continuous[bound_slot]], len(homes))
    slot_lines = _bound_lines(lb[:, bound_slot].ravel(), ub[:, bound_slot].ravel(), slot_names)
    bound_pieces = _cut("".join(lines.ravel().tolist()),
                        slot_lines.sum(axis=1).reshape(len(homes), -1))
    return row_pieces, bound_pieces


def _home_blocks(model: MilpModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each home's first column, row and term, in home order, then the
    community's.  Raises :class:`ModelBuildError`, naming the first
    misplaced column or row, unless each home's columns and rows form one
    block, in home order, before the community's, and each home's rows
    reference its own columns only."""
    lay = model.layout
    n_homes = len(lay.homes)
    starts = []
    for what, home, names in (("column", lay.var_home, lay.variable_names),
                              ("row", lay.row_home, lay.row_names)):
        key = np.where(home == COMMUNITY, n_homes, home)
        if (key[1:] < key[:-1]).any():
            # misplaced: the first entry that some later entry should precede
            later = np.minimum.accumulate(key[::-1])[::-1]
            raise ModelBuildError(f"{names()[_first(key[:-1] > later[1:])]}: out of place; each "
                                  f"home's {what}s must form one block, in home order, before "
                                  "the community's")
        starts.append(np.searchsorted(key, np.arange(n_homes + 1)))
    col_at, row_at = starts
    term_at = model.indptr[row_at]
    homes = np.flatnonzero(term_at[1:] > term_at[:-1])  # the homes with a term
    if homes.size:
        terms = model.indices[:term_at[-1]]
        low = np.minimum.reduceat(terms, term_at[homes])
        high = np.maximum.reduceat(terms, term_at[homes])
        foreign = (low < col_at[homes]) | (high >= col_at[homes + 1])
        if foreign.any():
            home = homes[_first(foreign)]
            span = slice(term_at[home], term_at[home + 1])
            outside = (terms[span] < col_at[home]) | (terms[span] >= col_at[home + 1])
            row = int(np.searchsorted(model.indptr, span.start + _first(outside), side="right")) - 1
            raise ModelBuildError(f"{lay.row_names()[row]}: references a column outside its home")
    return col_at, row_at, term_at


def write_lp(model: MilpModel, stream: IO[str]) -> None:
    """Write the model in CPLEX LP text format for out-of-process solving.

    The model must have the layout :meth:`MilpModel.validate` checks;
    :class:`ModelBuildError` names the first misplaced column or row of
    one that does not.  Homes whose blocks have the same structure form a
    group (:func:`_structure_groups`).  Each group's rows and Bounds lines
    are rendered once, as a skeleton with :data:`_TAG` where the home tag
    goes and a slot for each coefficient, row tail or bound that is not
    bitwise equal across the group (:func:`_group_pieces`); each distinct
    number of a group's slots is formatted once.  Homes are then written in
    model order, each as one join of the skeleton's segments with its slot
    texts and one replace of :data:`_TAG` by its tag, so memory holds one
    home's text at a time.  The objective, the community's rows, its
    Bounds lines and the Binary list are rendered from arrays over their
    own columns' names, the community's rows in runs of whole rows of at
    most :data:`_RUN_TERMS` terms (or one row) each; a row's text depends
    on that row alone, so the runs write the text one call would."""
    lay = model.layout
    col_at, row_at, term_at = _home_blocks(model)
    stream.write(f"\\ {model.name}\n")
    stream.write("Minimize\n")
    objective = lay.objective_order
    stream.write(_rows_text(np.array([" obj: "], dtype=object), np.array(["\n"], dtype=object),
                            np.array([0, len(objective)]), np.arange(len(objective)),
                            model.c[objective], _column_names(lay, objective)))

    groups = _structure_groups(model, col_at, row_at, term_at)
    pieces = [_group_pieces(model, homes, col_at, row_at, term_at) for homes in groups]
    place = [(0, 0)] * len(lay.homes)  # each home's group and rank in it
    for g, homes in enumerate(groups):
        for k, home in enumerate(homes.tolist()):
            place[home] = (g, k)

    def write_homes(part: int) -> None:
        for (g, k), tag in zip(place, lay.tags):
            stream.write("".join(pieces[g][part][k].tolist()).replace(_TAG, tag))

    stream.write("Subject To\n")
    write_homes(0)
    r0, p0 = row_at[-1], term_at[-1]
    written = lay.term_order[p0:]
    cols = model.indices[written]
    names = np.empty(model.n_variables, dtype=object)
    used = np.zeros(model.n_variables, dtype=bool)
    used[cols] = True
    names[used] = _column_names(lay, np.flatnonzero(used))
    heads = _labels(FAMILIES, lay.row_family[r0:], lay.tags, lay.row_home[r0:], lay.row_slot[r0:],
                    " ", ": ")
    tails = _tails(model.row_lower[r0:], model.row_upper[r0:])
    indptr = model.indptr[r0:] - p0
    start = 0
    while start < len(heads):
        stop = max(start + 1, int(np.searchsorted(indptr, indptr[start] + _RUN_TERMS, "right")) - 1)
        terms = slice(indptr[start], indptr[stop])
        stream.write(_rows_text(heads[start:stop], tails[start:stop],
                                indptr[start:stop + 1] - indptr[start], cols[terms],
                                model.data[written[terms]], names))
        start = stop
    stream.write("Bounds\n")
    write_homes(1)
    continuous = col_at[-1] + np.flatnonzero(model.integrality[col_at[-1]:] == 0)
    lines = _bound_lines(model.lb[continuous], model.ub[continuous], _column_names(lay, continuous))
    stream.write("".join(lines.ravel().tolist()))
    binaries = _column_names(lay, np.flatnonzero(model.integrality == 1)).tolist()
    if binaries:
        stream.write("Binary\n")
        for i in range(0, len(binaries), _PER_LINE):
            stream.write(" " + " ".join(binaries[i : i + _PER_LINE]) + "\n")
    stream.write("End\n")
