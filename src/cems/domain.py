"""Community configuration: parameter types, ingestion, validation, scaling.

A community is a set of homes sharing one grid connection, a day-ahead buy
price series and common weather series.  Every home has an HVAC system and a
fixed (non-shiftable) load; a storage unit and a PV array are optional.

Configs are immutable after construction.  Invariants are checked by
:func:`validate_config`, which reports problems as data instead of raising,
so a front end can show all of them at once.  :func:`load_community_config`
runs the same checks and raises on the first error.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, BinaryIO, Sequence, Union

import numpy as np

MID_PRICE_CASES = ("case1", "case2", "case3")

# the community's own tag in LP names, which no home's tag may take
COMMUNITY_TAG = "com"
_NOT_TAG = re.compile(r"[^A-Za-z0-9]")

_ARCHETYPES = ("pv+ess", "pv", "ess", "bare")


class ConfigError(Exception):
    """Base class for config ingestion failures; carries the failing path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class ParseError(ConfigError):
    """The source bytes are not valid JSON / CSV / zip."""


class SchemaError(ConfigError):
    """The document parsed but a field is missing or has the wrong shape."""


class InvalidConfigError(ConfigError):
    """The config parsed but violates a domain invariant."""

    def __init__(self, report: "ValidationReport"):
        path, message = report.errors[0]
        super().__init__(path, message)
        self.report = report


def lp_tag(home_id: str) -> str:
    """A home's tag in LP variable and row names: its id with every
    character other than an ASCII letter or digit made ``_``."""
    return _NOT_TAG.sub("_", home_id)


def _series(values: Any) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _fields_equal(a, b):
    """``__eq__`` for configs holding arrays, field by field: arrays compare
    by value, and an array never equals a non-array."""
    if not isinstance(b, type(a)):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) != isinstance(y, np.ndarray):
            return False
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


@dataclass(frozen=True)
class HvacParams:
    """Heating-mode HVAC parameters of one home.

    ``conductivity_a`` couples HVAC electrical power to the temperature
    update (kW per degF); ``epsilon`` is the one-slot thermal inertia.
    """

    p_max: float  # kW
    epsilon: float
    eta_hvac: float
    conductivity_a: float  # kW/degF
    t_min: float  # degF, comfort band
    t_max: float  # degF
    t_in_initial: float  # degF, temperature at the start of the day


@dataclass(frozen=True)
class EssParams:
    """Battery storage parameters.  Levels in kWh, rates in kW."""

    level_min: float
    level_max: float
    level_initial: float
    charge_rate_max: float
    discharge_rate_max: float
    efficiency: float  # one-way, applied on both charge and discharge


@dataclass(frozen=True)
class PvParams:
    panel_area: float  # m^2
    efficiency: float


@dataclass(frozen=True, eq=False)
class HomeConfig:
    """One home: HVAC, optional DERs, fixed load series and a trading cap."""

    id: str
    hvac: HvacParams
    ess: EssParams | None
    pv: PvParams | None
    fixed_load: np.ndarray  # kWh per slot
    peak_limit: float  # kWh per slot, |buy - sell| cap in the per-home problem

    def __post_init__(self):
        object.__setattr__(self, "fixed_load", _series(self.fixed_load))

    __eq__ = _fields_equal

    @property
    def archetype(self) -> str:
        if self.pv is not None and self.ess is not None:
            return "pv+ess"
        if self.pv is not None:
            return "pv"
        if self.ess is not None:
            return "ess"
        return "bare"


@dataclass(frozen=True, eq=False)
class CommunityConfig:
    """A whole community plus the day-ahead series it is scheduled against."""

    homes: tuple[HomeConfig, ...]
    horizon_slots: int
    slot_hours: float
    buy_price: np.ndarray  # cents/kWh, external price P_MG
    alpha: float  # sell price factor, sell price is alpha * buy_price
    community_peak: float  # kWh per slot, cap on |net community exchange|
    ghi: np.ndarray  # kW/m^2
    t_out: np.ndarray  # degF
    mid_price_policy: Union[str, np.ndarray] = "case2"

    def __post_init__(self):
        object.__setattr__(self, "homes", tuple(self.homes))
        for name in ("buy_price", "ghi", "t_out"):
            object.__setattr__(self, name, _series(getattr(self, name)))
        if not isinstance(self.mid_price_policy, str):
            object.__setattr__(self, "mid_price_policy", _series(self.mid_price_policy))

    __eq__ = _fields_equal

    def home(self, home_id: str) -> HomeConfig:
        for h in self.homes:
            if h.id == home_id:
                return h
        raise KeyError(home_id)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of config validation; errors and warnings are (path, message)."""

    errors: tuple[tuple[str, str], ...]
    warnings: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# defaults


def default_t_in_initial(t_min: float, t_max: float) -> float:
    """Comfort band midpoint, the start-of-day temperature when unspecified."""
    return 0.5 * (t_min + t_max)


def default_peak_limit(
    p_max: float, fixed_load: Sequence[float], ess: EssParams | None, slot_hours: float
) -> float:
    """Per-home trading cap wide enough to never bind on its own.

    Full HVAC power plus the largest fixed load plus (if present) the full
    storage charge rate, all converted to energy per slot.
    """
    cap = p_max * slot_hours + float(np.max(np.asarray(fixed_load, dtype=float)))
    if ess is not None:
        cap += ess.charge_rate_max * slot_hours
    return cap


# ---------------------------------------------------------------------------
# loading


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def is_number(value: Any) -> bool:
    """The rule for a number read from a file: a JSON number, that is an int
    or a float but not a bool.  A config's numbers must also be finite,
    which :func:`validate_config` checks with each field's path."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value: Any, path: str) -> float:
    if not is_number(value):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(path, "expected a number, got an integer too large for a float") from None


def _number_list(value: Any, path: str, length: int | None = None) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {type(value).__name__}")
    out = []
    try:
        for v in value:
            if not is_number(v):
                break
            out.append(float(v))
    except OverflowError:
        pass
    if len(out) < len(value):
        # the first entry float() does not take; its path is built only here
        _number(value[len(out)], f"{path}[{len(out)}]")
    if length is not None and len(out) != length:
        raise SchemaError(path, f"expected {length} entries, got {len(out)}")
    return out


def _parse_params(cls, obj: Any, path: str, optional: Sequence[str] = ()):
    """One parameter group: a number for every field of ``cls``, in
    declaration order.  A field in ``optional`` may be absent or null and is
    then ``None``, for the caller to fill in."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    values = {}
    for f in fields(cls):
        if f.name in optional and obj.get(f.name) is None:
            values[f.name] = None
        else:
            values[f.name] = _number(_require(obj, f.name, path), f"{path}.{f.name}")
    return cls(**values)


def _parse_home(obj: Any, idx: int, horizon: int, slot_hours: float) -> HomeConfig:
    path = f"homes[{idx}]"
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    home_id = _require(obj, "id", path)
    if not isinstance(home_id, str) or not home_id:
        raise SchemaError(f"{path}.id", "expected a non-empty string")
    hvac = _parse_params(HvacParams, _require(obj, "hvac", path), f"{path}.hvac", ("t_in_initial",))
    if hvac.t_in_initial is None:
        hvac = replace(hvac, t_in_initial=default_t_in_initial(hvac.t_min, hvac.t_max))
    ess = _parse_params(EssParams, obj["ess"], f"{path}.ess") if obj.get("ess") is not None else None
    pv = _parse_params(PvParams, obj["pv"], f"{path}.pv") if obj.get("pv") is not None else None
    fixed_load = _number_list(_require(obj, "fixed_load", path), f"{path}.fixed_load", horizon)
    peak = obj.get("peak_limit")
    return HomeConfig(
        id=home_id,
        hvac=hvac,
        ess=ess,
        pv=pv,
        fixed_load=np.array(fixed_load),
        peak_limit=default_peak_limit(hvac.p_max, fixed_load, ess, slot_hours)
        if peak is None
        else _number(peak, f"{path}.peak_limit"),
    )


def _config_from_document(doc: Any) -> CommunityConfig:
    if not isinstance(doc, dict):
        raise SchemaError("$", "top-level document must be an object")
    community = _require(doc, "community", "$")
    if not isinstance(community, dict):
        raise SchemaError("community", "expected an object")
    horizon = _require(community, "horizon_slots", "community")
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise SchemaError("community.horizon_slots", "expected an integer")
    slot_hours = _number(community.get("slot_hours", 1.0), "community.slot_hours")
    series = _require(doc, "series", "$")
    if not isinstance(series, dict):
        raise SchemaError("series", "expected an object")
    homes_doc = _require(doc, "homes", "$")
    if not isinstance(homes_doc, list) or not homes_doc:
        raise SchemaError("homes", "expected a non-empty list")
    mid = community.get("mid_price_policy", "case2")
    if not isinstance(mid, str):
        mid = np.array(_number_list(mid, "community.mid_price_policy", horizon))
    return CommunityConfig(
        homes=tuple(
            _parse_home(h, i, horizon, slot_hours) for i, h in enumerate(homes_doc)
        ),
        horizon_slots=horizon,
        slot_hours=slot_hours,
        buy_price=np.array(_number_list(_require(series, "buy_price", "series"), "series.buy_price", horizon)),
        alpha=_number(_require(community, "alpha", "community"), "community.alpha"),
        community_peak=_number(_require(community, "community_peak", "community"), "community.community_peak"),
        ghi=np.array(_number_list(_require(series, "ghi", "series"), "series.ghi", horizon)),
        t_out=np.array(_number_list(_require(series, "t_out", "series"), "series.t_out", horizon)),
        mid_price_policy=mid,
    )


def _read_series_csv(data: bytes, name: str, horizon: int) -> list[float]:
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except UnicodeDecodeError as exc:
        raise ParseError(name, f"not valid UTF-8: {exc}") from None
    if not rows or [c.strip() for c in rows[0]] != ["slot", "value"]:
        raise ParseError(name, "expected header 'slot,value'")
    values: dict[int, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(name, f"line {lineno}: expected 2 columns")
        try:
            slot, value = int(row[0]), float(row[1])
        except ValueError:
            raise ParseError(name, f"line {lineno}: malformed slot or value") from None
        if not 1 <= slot <= horizon:
            raise ParseError(name, f"line {lineno}: slot {slot} outside 1..{horizon}")
        if slot in values:
            raise ParseError(name, f"line {lineno}: duplicate slot {slot}")
        values[slot] = value
    if len(values) != horizon:
        raise ParseError(name, f"expected {horizon} slots, got {len(values)}")
    return [values[t] for t in range(1, horizon + 1)]


def _document_from_csv_bundle(raw: bytes) -> Any:
    try:
        bundle = zipfile.ZipFile(io.BytesIO(raw))
    except zipfile.BadZipFile as exc:
        raise ParseError("$", f"not a zip archive: {exc}") from None
    names = set(bundle.namelist())
    if "community.json" not in names:
        raise SchemaError("community.json", "missing from bundle")
    try:
        doc = json.loads(bundle.read("community.json"))
    except json.JSONDecodeError as exc:
        raise ParseError("community.json", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("community.json", "top-level document must be an object")
    community = doc.get("community")
    horizon = community.get("horizon_slots") if isinstance(community, dict) else None
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise SchemaError("community.horizon_slots", "expected an integer")
    series = doc.setdefault("series", {})
    if not isinstance(series, dict):
        raise SchemaError("series", "expected an object")
    for key in ("buy_price", "ghi", "t_out"):
        fname = f"{key}.csv"
        if fname in names:
            series[key] = _read_series_csv(bundle.read(fname), fname, horizon)
    homes = doc.get("homes")
    if isinstance(homes, list):
        for i, home in enumerate(homes):
            if not isinstance(home, dict):
                continue
            fname = f"fixed_load_{home.get('id')}.csv"
            if fname in names:
                home["fixed_load"] = _read_series_csv(bundle.read(fname), fname, horizon)
    return doc


def load_community_config(source: Union[str, bytes, BinaryIO], format: str = "json") -> CommunityConfig:
    """Load and validate a community config.

    ``source`` may be a filesystem path, raw bytes, or a binary stream.
    ``format`` is ``"json"`` (one document, keys ``community``, ``homes``,
    ``series``) or ``"csv-bundle"`` (a zip holding ``community.json`` plus
    one ``<name>.csv`` per series with header ``slot,value``, slots 1..T).

    Raises :class:`ParseError`, :class:`SchemaError` or
    :class:`InvalidConfigError`; each names the failing path.  The returned
    config is fully populated: optional fields carry their defaults.
    """
    if isinstance(source, (str, bytes)):
        raw = source.encode() if isinstance(source, str) and not _looks_like_path(source) else None
        if raw is None:
            if isinstance(source, bytes):
                raw = source
            else:
                try:
                    with open(source, "rb") as fh:
                        raw = fh.read()
                except OSError as exc:
                    raise ParseError("$", f"cannot read {source}: {exc}") from None
    else:
        raw = source.read()
    if format == "json":
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError("$", f"invalid JSON: {exc}") from None
    elif format == "csv-bundle":
        doc = _document_from_csv_bundle(raw)
    else:
        raise ValueError(f"unknown format {format!r}")
    config = _config_from_document(doc)
    report = validate_config(config)
    if report.errors:
        raise InvalidConfigError(report)
    return config


def _looks_like_path(source: str) -> bool:
    head = source.lstrip()
    return not head.startswith("{")


def config_to_dict(config: CommunityConfig) -> dict:
    """Inverse of loading: a JSON-ready document that round-trips the config."""
    mid = config.mid_price_policy
    return {
        "community": {
            "horizon_slots": config.horizon_slots,
            "slot_hours": config.slot_hours,
            "alpha": config.alpha,
            "community_peak": config.community_peak,
            "mid_price_policy": mid if isinstance(mid, str) else list(mid),
        },
        "series": {
            "buy_price": list(config.buy_price),
            "ghi": list(config.ghi),
            "t_out": list(config.t_out),
        },
        "homes": [
            {
                "id": h.id,
                "hvac": asdict(h.hvac),
                "ess": None if h.ess is None else asdict(h.ess),
                "pv": None if h.pv is None else asdict(h.pv),
                "fixed_load": list(h.fixed_load),
                "peak_limit": h.peak_limit,
            }
            for h in config.homes
        ],
    }


def config_to_json(config: CommunityConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# validation


def _id_errors(homes: Sequence[HomeConfig]) -> list[tuple[int, str, str]]:
    """An ``(index, path, message)`` error for each home whose id repeats
    an earlier one, or whose LP name tag (:func:`lp_tag`) is the
    community's or an earlier home's."""
    errors = []
    seen: dict[str, int] = {}
    tags = {COMMUNITY_TAG: -1}
    for i, home in enumerate(homes):
        path = f"homes[{i}].id"
        if home.id in seen:
            errors.append((i, path, f"duplicate home id {home.id!r} (first at homes[{seen[home.id]}])"))
            continue
        seen[home.id] = i
        tag = lp_tag(home.id)
        first = tags.setdefault(tag, i)
        if first == -1:
            errors.append((i, path, f"home id {home.id!r} takes the community's LP name tag {tag!r}"))
        elif first != i:
            errors.append((i, path, f"home id {home.id!r} and homes[{first}].id "
                                    f"{homes[first].id!r} are both {tag!r} in LP names"))
    return errors


def validate_config(config: CommunityConfig) -> ValidationReport:
    """Check every domain invariant; problems come back as report entries.

    Every number must be finite (``NaN`` and infinities are reported with
    their field path); a range check runs only on numbers that passed that
    test, and a check relating several fields only when all of them did.
    Home ids must also stay distinct, and apart from the community's tag,
    once made LP name tags (:func:`lp_tag`).  Errors and warnings are
    ordered by (home index, field path) with community-level entries
    first, so output is deterministic.
    """
    errors: list[tuple[int, str, str]] = []
    warnings: list[tuple[int, str, str]] = []

    def err(idx: int, path: str, message: str):
        errors.append((idx, path, message))

    def finite(idx: int, path: str, value: float) -> bool:
        if math.isfinite(value):
            return True
        err(idx, path, f"must be a finite number, got {value}")
        return False

    def finite_fields(idx: int, path: str, params) -> bool:
        # every field is checked, so each non-finite one gets its own entry
        return all([finite(idx, f"{path}.{f.name}", getattr(params, f.name)) for f in fields(params)])

    def finite_entries(idx: int, path: str, arr: np.ndarray) -> np.ndarray:
        ok = np.isfinite(arr)
        for t in np.flatnonzero(~ok):
            err(idx, f"{path}[{t}]", f"must be a finite number, got {arr[t]}")
        return ok

    T = config.horizon_slots
    if T < 1:
        err(-1, "community.horizon_slots", f"must be >= 1, got {T}")
    if finite(-1, "community.slot_hours", config.slot_hours) and not config.slot_hours > 0:
        err(-1, "community.slot_hours", f"must be > 0, got {config.slot_hours}")
    if finite(-1, "community.alpha", config.alpha) and not 0 < config.alpha < 1:
        err(-1, "community.alpha", f"must lie strictly between 0 and 1, got {config.alpha}")
    if finite(-1, "community.community_peak", config.community_peak) and not config.community_peak > 0:
        err(-1, "community.community_peak", f"must be > 0, got {config.community_peak}")

    for name in ("buy_price", "ghi", "t_out"):
        arr = getattr(config, name)
        if len(arr) != T:
            err(-1, f"series.{name}", f"expected {T} entries, got {len(arr)}")
    price_ok = finite_entries(-1, "series.buy_price", config.buy_price)
    ghi_ok = finite_entries(-1, "series.ghi", config.ghi)
    finite_entries(-1, "series.t_out", config.t_out)
    if len(config.buy_price) == T:
        for t in np.flatnonzero(price_ok & ~(config.buy_price > 0)):
            err(-1, f"series.buy_price[{t}]", f"price must be > 0, got {config.buy_price[t]}")
    if len(config.ghi) == T:
        for t in np.flatnonzero(ghi_ok & (config.ghi < 0)):
            err(-1, f"series.ghi[{t}]", f"irradiance must be >= 0, got {config.ghi[t]}")

    mid = config.mid_price_policy
    if isinstance(mid, str):
        if mid not in MID_PRICE_CASES:
            err(-1, "community.mid_price_policy", f"unknown policy {mid!r}")
    else:
        finite_entries(-1, "community.mid_price_policy", mid)
        if len(mid) != T:
            err(-1, "community.mid_price_policy", f"expected {T} entries, got {len(mid)}")
        elif len(config.buy_price) == T and not errors:
            lo, hi = config.alpha * config.buy_price, config.buy_price
            for t in np.flatnonzero(~((lo <= mid) & (mid <= hi))):
                err(-1, f"community.mid_price_policy[{t}]", f"{mid[t]} outside [alpha*P, P] = [{lo[t]}, {hi[t]}]")

    errors += _id_errors(config.homes)
    for i, home in enumerate(config.homes):
        base = f"homes[{i}]"
        hv = home.hvac
        if finite_fields(i, f"{base}.hvac", hv):
            if not hv.p_max > 0:
                err(i, f"{base}.hvac.p_max", f"must be > 0, got {hv.p_max}")
            if not 0 < hv.epsilon < 1:
                err(i, f"{base}.hvac.epsilon", f"must lie strictly between 0 and 1, got {hv.epsilon}")
            if not hv.eta_hvac > 0:
                err(i, f"{base}.hvac.eta_hvac", f"must be > 0, got {hv.eta_hvac}")
            if not hv.conductivity_a > 0:
                err(i, f"{base}.hvac.conductivity_a", f"must be > 0, got {hv.conductivity_a}")
            if not hv.t_min < hv.t_max:
                err(i, f"{base}.hvac.t_min", f"comfort band is empty: t_min {hv.t_min} >= t_max {hv.t_max}")
            elif not hv.t_min <= hv.t_in_initial <= hv.t_max:
                err(
                    i,
                    f"{base}.hvac.t_in_initial",
                    f"{hv.t_in_initial} outside comfort band [{hv.t_min}, {hv.t_max}]",
                )
        if home.ess is not None and finite_fields(i, f"{base}.ess", home.ess):
            es = home.ess
            p = f"{base}.ess"
            if not 0 <= es.level_min <= es.level_max:
                err(i, f"{p}.level_min", f"need 0 <= level_min <= level_max, got [{es.level_min}, {es.level_max}]")
            if not es.level_min <= es.level_initial <= es.level_max:
                err(
                    i,
                    f"{p}.level_initial",
                    f"{es.level_initial} outside [{es.level_min}, {es.level_max}]",
                )
            if not es.charge_rate_max > 0:
                err(i, f"{p}.charge_rate_max", f"must be > 0, got {es.charge_rate_max}")
            if not es.discharge_rate_max > 0:
                err(i, f"{p}.discharge_rate_max", f"must be > 0, got {es.discharge_rate_max}")
            if not 0 < es.efficiency <= 1:
                err(i, f"{p}.efficiency", f"must lie in (0, 1], got {es.efficiency}")
        if home.pv is not None and finite_fields(i, f"{base}.pv", home.pv):
            if not home.pv.panel_area > 0:
                err(i, f"{base}.pv.panel_area", f"must be > 0, got {home.pv.panel_area}")
            if not 0 < home.pv.efficiency <= 1:
                err(i, f"{base}.pv.efficiency", f"must lie in (0, 1], got {home.pv.efficiency}")
        load_ok = finite_entries(i, f"{base}.fixed_load", home.fixed_load)
        if len(home.fixed_load) != T:
            err(i, f"{base}.fixed_load", f"expected {T} entries, got {len(home.fixed_load)}")
        else:
            for t in np.flatnonzero(load_ok & (home.fixed_load < 0)):
                err(i, f"{base}.fixed_load[{t}]",
                    f"home {home.id!r} slot {t + 1}: load must be >= 0, got {home.fixed_load[t]}")
        if finite(i, f"{base}.peak_limit", home.peak_limit) and not home.peak_limit > 0:
            err(i, f"{base}.peak_limit", f"must be > 0, got {home.peak_limit}")

    if not errors and len(config.homes) > 0:
        total_fixed = np.sum([h.fixed_load for h in config.homes], axis=0)
        for t in range(T):
            if total_fixed[t] > config.community_peak:
                warnings.append(
                    (
                        -1,
                        f"community.community_peak",
                        f"slot {t + 1}: total fixed load {total_fixed[t]:.3f} kWh already exceeds the "
                        f"community peak {config.community_peak}; the day is likely infeasible",
                    )
                )
                break

    errors.sort(key=lambda e: (e[0], e[1]))
    warnings.sort(key=lambda e: (e[0], e[1]))
    return ValidationReport(
        errors=tuple((path, msg) for _, path, msg in errors),
        warnings=tuple((path, msg) for _, path, msg in warnings),
    )


# ---------------------------------------------------------------------------
# synthetic communities


def generate_synthetic_community(
    n_homes: int,
    seed: int,
    template: CommunityConfig,
    load_jitter: float = 0.2,
) -> CommunityConfig:
    """Scale a template community to ``n_homes`` homes, deterministically.

    Homes cycle through the template's homes in order, so the archetype mix
    of the template repeats.  Fixed loads are perturbed entrywise by a
    seeded factor drawn uniformly from ``[1 - load_jitter, 1 + load_jitter]``;
    with ``load_jitter=0`` and ``n_homes == len(template.homes)`` the result
    equals the template.  The community peak scales with the home count.
    The template itself is never modified.  Later cycles' ids are
    ``<id>_c<cycle>``; one that repeats an id or LP name tag (template ids
    ``a`` and ``a_c2``, say) raises :class:`InvalidConfigError`.
    """
    if n_homes < 1:
        raise ValueError(f"n_homes must be >= 1, got {n_homes}")
    if not 0 <= load_jitter < 1:
        raise ValueError(f"load_jitter must lie in [0, 1), got {load_jitter}")
    report = validate_config(template)
    if report.errors:
        raise InvalidConfigError(report)
    rng = np.random.default_rng(seed)
    n_base = len(template.homes)
    factors = rng.uniform(1.0 - load_jitter, 1.0 + load_jitter, size=(n_homes, template.horizon_slots))
    homes = []
    for k in range(n_homes):
        base = template.homes[k % n_base]
        cycle = k // n_base
        homes.append(
            replace(
                base,
                id=base.id if cycle == 0 else f"{base.id}_c{cycle + 1}",
                fixed_load=base.fixed_load * factors[k],
            )
        )
    clashes = _id_errors(homes)
    if clashes:
        raise InvalidConfigError(ValidationReport(tuple((path, msg) for _, path, msg in clashes), ()))
    return replace(
        template,
        homes=tuple(homes),
        community_peak=template.community_peak * (n_homes / n_base),
    )


def archetype_counts(config: CommunityConfig) -> dict[str, int]:
    """How many homes of each DER mix the community holds."""
    counts = {a: 0 for a in _ARCHETYPES}
    for home in config.homes:
        counts[home.archetype] += 1
    return counts


def replication_config() -> CommunityConfig:
    """The bundled ten-home community: a coarse approximation of a winter
    day in Detroit (prices, irradiance, temperatures read off published
    figures, not the original data), with the DER endowments used throughout
    the docs and tests."""
    from importlib import resources

    raw = resources.files("cems").joinpath("data/replication.json").read_bytes()
    return load_community_config(raw, "json")
