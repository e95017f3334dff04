import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cems import (
    mid_price,
    mid_price_series,
    settle_day,
    settle_day_at_external_prices,
)
from cems.solve import SCHEDULE_ROLES, CommunitySchedule
from cems.trading import SettlementReport, SlotSettlement, settlement_to_csv, settlement_to_dict

from conftest import make_community, make_home


def _nets_schedule(config, nets):
    """A schedule that only trades the (home, slot) matrix ``nets``
    (positive buys): ``com_buy``/``com_sell`` set from the nets, and the
    community net their sum."""
    n, T = nets.shape
    arrays = {role: np.zeros((n, T + 1 if role == "indoor_temp" else T)) for role in SCHEDULE_ROLES}
    arrays.update(com_buy=np.maximum(nets, 0.0), com_sell=np.maximum(-nets, 0.0))
    return CommunitySchedule(homes=tuple(home.id for home in config.homes), **arrays)


def _settle_slot(nets, p_mg, alpha, p_mid):
    """The settlement of one slot, by :func:`settle_day` on a one-slot day
    whose homes trade ``nets`` (home id to net, positive buys) at external
    price ``p_mg`` and mid price ``p_mid``."""
    config = make_community([make_home(hid, 1) for hid in nets], [p_mg], alpha=alpha,
                            mid_price_policy=[p_mid])
    schedule = _nets_schedule(config, np.array(list(nets.values()), dtype=float).reshape(-1, 1))
    return settle_day(schedule, config).slots[0]


# -- mid price --------------------------------------------------------------

def test_mid_price_cases():
    assert mid_price(4.0, 0.5, "case1") == pytest.approx(2.5)
    assert mid_price(4.0, 0.5, "case2") == pytest.approx(3.0)
    assert mid_price(4.0, 0.5, "case3") == pytest.approx(3.5)
    assert mid_price(4.0, 0.5, 2.2) == pytest.approx(2.2)


def test_mid_price_rejects_out_of_band():
    with pytest.raises(ValueError):
        mid_price(4.0, 0.5, 1.9)
    with pytest.raises(ValueError):
        mid_price(4.0, 0.5, 4.1)
    with pytest.raises(ValueError):
        mid_price(4.0, 0.5, "case4")


def test_mid_price_series_follows_config_policy(replication):
    mids = mid_price_series(replication)
    expected = (1.0 + replication.alpha) / 2.0 * np.asarray(replication.buy_price)
    np.testing.assert_allclose(mids, expected)
    case3 = mid_price_series(dataclasses.replace(replication, mid_price_policy="case3"))
    assert np.all(case3 > mids)
    with pytest.raises(ValueError):
        # a config built in code is not validated
        mid_price_series(dataclasses.replace(replication, mid_price_policy=[2.0, 2.0]))


# -- one-slot worked examples (checked by hand) -----------------------------

def test_net_import_slot():
    # P=3, alpha=0.8, mid=2.7; sells 3, buys 6, net +3
    slot = _settle_slot({"a": -3.0, "b": 5.0, "c": 1.0}, 3.0, 0.8, 2.7)
    assert slot.net_community == pytest.approx(3.0)
    assert slot.p_local_sell == pytest.approx(2.7)
    assert slot.p_local_buy == pytest.approx((2.7 * 3 + 3.0 * 3) / 6)  # 2.85
    assert slot.per_home_cost["a"] == pytest.approx(-8.1)
    assert slot.per_home_cost["b"] == pytest.approx(14.25)
    assert slot.per_home_cost["c"] == pytest.approx(2.85)
    assert sum(slot.per_home_cost.values()) == pytest.approx(3.0 * 3.0, abs=1e-12)


def test_net_export_slot():
    # P=3, alpha=0.8, mid=2.7; sells 6, buys 2, net -4
    slot = _settle_slot({"s": -6.0, "b": 2.0}, 3.0, 0.8, 2.7)
    assert slot.p_local_buy == pytest.approx(2.7)
    assert slot.p_local_sell == pytest.approx((2.7 * 2 + 2.4 * 4) / 6)  # 2.5
    assert slot.per_home_cost["b"] == pytest.approx(5.4)
    assert slot.per_home_cost["s"] == pytest.approx(-15.0)
    assert sum(slot.per_home_cost.values()) == pytest.approx(2.4 * -4.0, abs=1e-12)


def test_balanced_slot_settles_both_sides_at_mid():
    slot = _settle_slot({"a": -2.0, "b": 2.0}, 3.0, 0.8, 2.7)
    assert slot.p_local_buy == pytest.approx(2.7)
    assert slot.p_local_sell == pytest.approx(2.7)
    assert sum(slot.per_home_cost.values()) == pytest.approx(0.0, abs=1e-12)


def test_idle_home_pays_nothing():
    slot = _settle_slot({"a": -1.0, "b": 3.0, "z": 0.0}, 3.0, 0.8, 2.7)
    assert slot.per_home_cost["z"] == 0.0


def test_no_sellers_degenerates_to_external_buy_price():
    slot = _settle_slot({"a": 2.0, "b": 1.0}, 3.0, 0.8, 2.7)
    assert slot.p_local_buy == pytest.approx(3.0, abs=1e-15)


def test_out_of_band_mid_rejected_at_settlement():
    with pytest.raises(ValueError):
        _settle_slot({"a": 1.0}, 3.0, 0.8, 1.0)


# -- properties -------------------------------------------------------------

nets_strategy = st.dictionaries(
    st.sampled_from(["h1", "h2", "h3", "h4", "h5"]),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
    min_size=1,
)


@given(nets=nets_strategy, p_mg=st.floats(0.5, 10.0), alpha=st.floats(0.3, 0.95),
       frac=st.floats(0.05, 0.95))
@example(nets={"h1": 1e-09}, p_mg=5.0, alpha=0.5, frac=0.5)  # a pooled net below 1e-9 buys at P
def test_budget_balance_property(nets, p_mg, alpha, frac):
    p_mid = alpha * p_mg + frac * (p_mg - alpha * p_mg)
    slot = _settle_slot(nets, p_mg, alpha, p_mid)
    net = slot.net_community
    ep_side = p_mg * net if net > 0 else alpha * p_mg * net
    total = sum(slot.per_home_cost.values())
    assert abs(total - ep_side) <= 1e-9 * (1.0 + abs(ep_side))


@given(nets=nets_strategy, p_mg=st.floats(0.5, 10.0), alpha=st.floats(0.3, 0.95),
       frac=st.floats(0.05, 0.95))
# subnormal pooled nets, on which the local price blends would underflow
@example(nets={"h1": -5e-324}, p_mg=1.0, alpha=0.5, frac=0.5)
@example(nets={"h1": 5e-324}, p_mg=1.0, alpha=0.5, frac=0.5)
@example(nets={"h1": 1e-320, "h2": -3e-320}, p_mg=1.0, alpha=0.5, frac=0.5)
def test_price_dominance_property(nets, p_mg, alpha, frac):
    p_mid = alpha * p_mg + frac * (p_mg - alpha * p_mg)
    slot = _settle_slot(nets, p_mg, alpha, p_mid)
    assert slot.p_local_buy <= p_mg + 1e-12
    assert slot.p_local_sell >= alpha * p_mg - 1e-12
    buys = sum(max(v, 0.0) for v in nets.values())
    sells = sum(max(-v, 0.0) for v in nets.values())
    if buys > 1e-9 and sells > 1e-9:
        assert slot.p_local_buy < p_mg
        assert slot.p_local_sell > alpha * p_mg


@given(nets=nets_strategy, p_mg=st.floats(0.5, 10.0), alpha=st.floats(0.3, 0.95),
       frac=st.floats(0.05, 0.9))
def test_higher_mid_price_favors_sellers(nets, p_mg, alpha, frac):
    band = p_mg - alpha * p_mg
    lo = _settle_slot(nets, p_mg, alpha, alpha * p_mg + frac * band)
    hi = _settle_slot(nets, p_mg, alpha, alpha * p_mg + (frac + 0.05) * band)
    for home, v in nets.items():
        if v > 0:
            assert hi.per_home_cost[home] >= lo.per_home_cost[home] - 1e-9
        elif v < 0:
            assert hi.per_home_cost[home] <= lo.per_home_cost[home] + 1e-9


# -- whole-day settlement ---------------------------------------------------

def test_settle_day_balances_and_dominates(replication, system_result):
    report = settle_day(system_result.schedule, replication)
    assert abs(report.budget_residual) <= 1e-9 * (1.0 + abs(report.community_daily_cost))
    assert report.community_daily_cost == pytest.approx(system_result.community_cost,
                                                        abs=1e-9)
    alpha = replication.alpha
    for slot in report.slots:
        p = replication.buy_price[slot.slot - 1]
        assert slot.p_local_buy <= p + 1e-12
        assert slot.p_local_sell >= alpha * p - 1e-12
    assert sum(sum(s.per_home_cost.values()) for s in report.slots) == pytest.approx(
        report.community_daily_cost, abs=1e-9)


def test_settle_day_at_external_prices(replication, system_result):
    report = settle_day_at_external_prices(system_result.schedule, replication)
    assert report.budget_residual == 0.0
    alpha = replication.alpha
    sched = system_result.schedule
    assert list(report.per_home_daily_cost) == list(sched.homes)
    for hid, com_buy, com_sell in zip(sched.homes, sched.com_buy, sched.com_sell):
        expected = float(np.dot(replication.buy_price, com_buy)
                         - alpha * np.dot(replication.buy_price, com_sell))
        assert report.per_home_daily_cost[hid] == pytest.approx(expected, abs=1e-9)


def test_settlement_serialization(replication, system_result):
    report = settle_day(system_result.schedule, replication)
    buf = io.StringIO()
    settlement_to_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "slot,p_local_buy,p_local_sell,home,cost"
    assert len(lines) == 1 + 24 * len(replication.homes)
    again = io.StringIO()
    settlement_to_csv(report, again)
    assert buf.getvalue() == again.getvalue()  # deterministic bytes
    d = settlement_to_dict(report)
    assert set(d["per_home_daily_cost"]) == set(report.per_home_daily_cost)
    assert d["community_daily_cost"] == report.community_daily_cost


def test_sums_add_in_order_from_zero():
    from cems.trading import _sum_in_order

    rng = np.random.default_rng(3)
    values = rng.normal(0.0, 1e3, (7, 24)) * (rng.random((7, 24)) < 0.7)
    values[:, 5] = -0.0
    for axis in (0, 1):
        expected = []
        for line in np.moveaxis(values, axis, -1):
            total = 0.0
            for v in line.tolist():
                total += v
            expected.append(total)
        got = _sum_in_order(values, axis=axis).tolist()
        assert [repr(v) for v in got] == [repr(v) for v in expected]


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.text(max_size=5), min_size=1, max_size=5, unique=True),
       costs=st.lists(st.floats(), min_size=2, max_size=2))
@example(ids=["", ",", '"', "a,b", 'say "hi"', "new\nline", "cr\rlf", " pad ", "h\u00f4me1"],
         costs=[-0.0, 1.5])
def test_settlement_csv_is_what_csv_writer_writes(ids, costs):
    """The settlement CSV gives the bytes of ``csv.writer``, the oracle, for
    any home ids, those it quotes among them."""
    import csv

    slots = tuple(SlotSettlement(slot=t + 1, p_local_buy=2.0 + t, p_local_sell=0.5 / (t + 1),
                                 per_home_cost={hid: costs[t] * i for i, hid in enumerate(ids)},
                                 net_community=0.0)
                  for t in range(2))
    report = SettlementReport(slots=slots, per_home_daily_cost={}, community_daily_cost=0.0,
                              budget_residual=0.0)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["slot", "p_local_buy", "p_local_sell", "home", "cost"])
    for slot in slots:
        for home, cost in slot.per_home_cost.items():
            writer.writerow([slot.slot, repr(slot.p_local_buy), repr(slot.p_local_sell), home, repr(cost)])
    got = io.StringIO()
    settlement_to_csv(report, got)
    assert got.getvalue() == expected.getvalue()


# -- settlement bytes, pinned -----------------------------------------------

def _seeded_nets_schedule(config, rng):
    """A schedule that only trades: random nets with idle homes, an all-zero
    slot, a balanced slot and a slot whose net is nonzero but below 1e-9."""
    T, n = config.horizon_slots, len(config.homes)
    nets = rng.normal(0.0, 2.0, (n, T)) * (rng.random((n, T)) < 0.7)
    nets[:, 0] = 0.0
    nets[:, 1] = 0.0
    nets[:2, 1] = [1.5, -1.5]
    nets[:, 2] = 0.0
    nets[:2, 2] = [1.0, -(1.0 - 5e-10)]
    return _nets_schedule(config, nets)


def _settlement_bytes(report):
    import json

    buf = io.StringIO()
    settlement_to_csv(report, buf)
    return json.dumps(settlement_to_dict(report), indent=2, sort_keys=True).encode() + buf.getvalue().encode()


def test_settlement_bytes_are_pinned(replication):
    """The JSON and CSV of every day settlement on seeded random schedules
    of the bundled day and a 25-home day, pinned by sha256."""
    import hashlib

    from cems import generate_synthetic_community

    digest = hashlib.sha256()
    for config in (replication, generate_synthetic_community(25, 3, replication)):
        band = config.buy_price * (1.0 - config.alpha)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            schedule = _seeded_nets_schedule(config, rng)
            explicit = config.alpha * config.buy_price + rng.uniform(0.0, 1.0, config.horizon_slots) * band
            for policy in ("case1", "case2", "case3", explicit):
                priced = dataclasses.replace(config, mid_price_policy=policy)
                digest.update(_settlement_bytes(settle_day(schedule, priced)))
            digest.update(_settlement_bytes(settle_day_at_external_prices(schedule, config)))
    assert digest.hexdigest() == "5db25df1079f5518f06c480221ec11b62eddcc3a71e65f2ae4cd98dcd9e0e10e"
