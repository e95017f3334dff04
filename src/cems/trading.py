"""Local trading settlement at the mid-market rate.

After the day is scheduled, each slot's internal trades are settled at
local prices anchored to a mid price between the external buy price ``P``
and sell price ``alpha * P``.  When the community as a whole imports, the
local sell price sticks at the mid price and the local buy price blends the
mid price with ``P`` so that buyers exactly fund both the sellers and the
external bill; symmetrically when the community exports.  Settlement is
therefore budget balanced by construction: the per-home costs of a slot sum
to exactly what the community pays the external provider for that slot.

Every bill is priced by :func:`price_nets`; the pooled exchange's bill, the
bills without a local market and the local settlement differ only in the
buy and sell prices they hand it.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

import numpy as np

from .domain import CommunityConfig

if TYPE_CHECKING:  # pragma: no cover
    from .solve import CommunitySchedule

@dataclass(frozen=True)
class SlotSettlement:
    slot: int
    p_local_buy: float
    p_local_sell: float
    per_home_cost: dict[str, float]
    net_community: float


@dataclass(frozen=True)
class SettlementReport:
    slots: tuple[SlotSettlement, ...]
    per_home_daily_cost: dict[str, float]
    community_daily_cost: float
    budget_residual: float


def price_nets(nets: np.ndarray, buy: np.ndarray, sell: np.ndarray) -> np.ndarray:
    """The cost of each net at its slot's prices: ``buy * net`` for a
    purchase (a positive net), ``sell * net`` for a sale (a negative net)
    and 0.0 for a zero net.  ``nets`` holds one net per slot, or is a
    (home, slot) matrix; ``buy`` and ``sell`` hold one price per slot."""
    return np.where(nets > 0, buy * nets, np.where(nets < 0, sell * nets, 0.0))


def _sum_in_order(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums along ``axis`` added left to right from 0.0, as a Python loop
    adds them; NumPy's ``sum`` adds pairwise, which rounds differently."""
    shape = list(values.shape)
    shape[axis] = 1
    padded = np.concatenate([np.zeros(shape), values], axis=axis)
    return np.add.accumulate(padded, axis=axis).take(-1, axis=axis)


def community_cost(schedule: CommunitySchedule, config: CommunityConfig) -> float:
    """Day cost of the pooled exchange: imports at ``P``, exports at
    ``alpha * P``, slots with zero net exchange contribute nothing."""
    prices = config.buy_price
    return float(_sum_in_order(price_nets(schedule.community_net, prices, config.alpha * prices)))


def mid_price(p_mg, alpha: float, policy):
    """Mid price between the external sell price ``alpha * p_mg`` and ``p_mg``.

    ``case1`` sits a quarter of the way up from the sell price, ``case2``
    halfway, ``case3`` three quarters up.  A number is taken as an explicit
    mid price and must lie inside the band.  Prices and explicit mids may
    be arrays, one entry per slot.
    """
    if isinstance(policy, str):
        if policy == "case1":
            return (1.0 + 3.0 * alpha) / 4.0 * p_mg
        if policy == "case2":
            return (1.0 + alpha) / 2.0 * p_mg
        if policy == "case3":
            return (3.0 + alpha) / 4.0 * p_mg
        raise ValueError(f"unknown mid price policy {policy!r}")
    value, high = np.asarray(policy, dtype=float), np.asarray(p_mg, dtype=float)
    low = alpha * high
    outside = ~((low <= value) & (value <= high))
    if outside.any():
        raise ValueError(
            f"explicit mid price {value[outside][0]} outside [{low[outside][0]}, {high[outside][0]}]"
        )
    return value if value.ndim else float(value)


def mid_price_series(config: CommunityConfig) -> np.ndarray:
    """Per-slot mid prices under the config's ``mid_price_policy``."""
    policy = config.mid_price_policy
    # a config built in code is not validated, so its series may be short
    if not isinstance(policy, str):
        policy = np.asarray(policy, dtype=float)
        if policy.shape != (config.horizon_slots,):
            raise ValueError(f"explicit mid price series must have {config.horizon_slots} entries")
    return mid_price(config.buy_price, config.alpha, policy)


def _local_prices(nets: np.ndarray, buy: np.ndarray, alpha: float, mid: np.ndarray):
    """Each slot's local buy price, local sell price and pooled net for a
    (home, slot) matrix of nets.

    With a net-importing slot the local sell price is ``mid`` and the local
    buy price is the volume blend ``(mid * sales + buy * net) / purchases``;
    a net-exporting slot is the mirror image built on the external sell
    price ``alpha * buy``; a balanced slot settles both sides at ``mid``."""
    sell = alpha * buy
    outside = np.flatnonzero(~((sell - 1e-12 <= mid) & (mid <= buy + 1e-12)))
    if outside.size:
        t = outside[0]
        raise ValueError(f"mid price {mid[t]} outside [{sell[t]}, {buy[t]}]")
    buys = _sum_in_order(np.maximum(nets, 0.0), axis=0)
    sells = _sum_in_order(np.maximum(-nets, 0.0), axis=0)
    net = buys - sells
    # the one place a slot is classed as balanced, importing or exporting: by
    # the sign of its net, as price_nets prices the external bill, so that
    # the bills of every slot sum to that bill.  A subnormal net counts as
    # balanced: the blends would underflow on it, and settling it at the mid
    # price misses the external bill by less than ``buy * tiny``.
    balanced = np.abs(net) < np.finfo(float).tiny
    # each blend is computed for every slot but kept only where it applies
    with np.errstate(all="ignore"):
        p_lb = np.where(balanced | (net < 0), mid, (mid * sells + buy * net) / buys)
        p_ls = np.where(balanced | (net > 0), mid, (mid * buys + sell * -net) / sells)
    return p_lb, p_ls, net


def _report(homes, nets, buy, sell, net, total: float | None = None) -> SettlementReport:
    """The settlement of a (home, slot) matrix of ``nets`` at per-slot
    ``buy`` and ``sell`` prices, given each slot's pooled ``net`` and what
    the community pays outside (``total``, by default the sum of the bills)."""
    costs = price_nets(nets, buy, sell)
    daily = _sum_in_order(costs, axis=1)
    billed = float(_sum_in_order(daily))
    total = billed if total is None else total
    slots = zip(buy.tolist(), sell.tolist(), costs.T.tolist(), net.tolist())
    return SettlementReport(
        slots=tuple(SlotSettlement(slot=t + 1, p_local_buy=b, p_local_sell=s,
                                   per_home_cost=dict(zip(homes, c)), net_community=n)
                    for t, (b, s, c, n) in enumerate(slots)),
        per_home_daily_cost=dict(zip(homes, daily.tolist())),
        community_daily_cost=total,
        budget_residual=total - billed,
    )


def settle_day(schedule: CommunitySchedule, config: CommunityConfig) -> SettlementReport:
    """Settle a whole scheduled day at the mid-market rate, with the mid
    prices of the config's ``mid_price_policy``."""
    nets = schedule.net
    prices = _local_prices(nets, config.buy_price, config.alpha, mid_price_series(config))
    return _report(schedule.homes, nets, *prices, total=community_cost(schedule, config))


def settle_day_at_external_prices(schedule: CommunitySchedule, config: CommunityConfig) -> SettlementReport:
    """Settlement without any local market: every home buys at ``P`` and
    sells at ``alpha * P`` on its own.  The community cost is then by
    definition the sum of the individual bills."""
    nets = schedule.net
    buy = config.buy_price
    return _report(schedule.homes, nets, buy, config.alpha * buy, _sum_in_order(nets, axis=0))


# ---------------------------------------------------------------------------
# serialization


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    if text and not any(c in text for c in ',"\r\n'):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


def settlement_to_csv(report: SettlementReport, stream: IO[str]) -> None:
    """Long-format CSV: ``slot,p_local_buy,p_local_sell,home,cost``, in the
    bytes ``csv.writer`` writes, one line per slot and home."""
    ids = dict.fromkeys(home for slot in report.slots for home in slot.per_home_cost)
    field = {home: _csv_field(home) for home in ids}
    lines = ["slot,p_local_buy,p_local_sell,home,cost"]
    for slot in report.slots:
        head = f"{slot.slot},{slot.p_local_buy!r},{slot.p_local_sell!r},"
        lines += [f"{head}{field[home]},{cost!r}" for home, cost in slot.per_home_cost.items()]
    stream.write("\n".join(lines) + "\n")


def settlement_to_dict(report: SettlementReport) -> dict:
    return {
        "slots": [
            {
                "slot": s.slot,
                "p_local_buy": s.p_local_buy,
                "p_local_sell": s.p_local_sell,
                "net_community": s.net_community,
                "per_home_cost": dict(s.per_home_cost),
            }
            for s in report.slots
        ],
        "per_home_daily_cost": dict(report.per_home_daily_cost),
        "community_daily_cost": report.community_daily_cost,
        "budget_residual": report.budget_residual,
    }
