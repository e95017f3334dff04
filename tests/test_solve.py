import dataclasses

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

import cems.solve
from cems import (
    PvParams,
    build_home_model,
    build_home_models,
    build_system_centric_model,
    check_schedule_feasibility,
    community_cost,
    extract_schedule,
    solve_model,
)
from cems.solve import (
    SCHEDULE_ROLES,
    CommunitySchedule,
    SolverError,
    SolverOptions,
    schedule_from_dict,
    schedule_to_dict,
)

from conftest import make_community, make_ess, make_home, make_hvac, random_small_config


def _solve(cfg, **opt):
    model = build_system_centric_model(cfg)
    sol = solve_model(model, SolverOptions(**opt) if opt else None)
    return model, sol


def _schedule(cfg, **opt):
    model, sol = _solve(cfg, **opt)
    assert sol.status == "optimal"
    return extract_schedule(sol, model, cfg)


def _without(schedule, hid):
    """``schedule`` built without the row of home ``hid``, its community
    net kept."""
    row = schedule.homes.index(hid)
    return dataclasses.replace(schedule, homes=schedule.homes[:row] + schedule.homes[row + 1:],
                               **{role: np.delete(getattr(schedule, role), row, axis=0)
                                  for role in SCHEDULE_ROLES})


def warm_home(home_id, T, **kw):
    """No HVAC demand: mild outdoors, comfort floor holds for free."""
    kw.setdefault("hvac", make_hvac(p_max=8.0))
    return make_home(home_id, T, **kw)


# -- closed-form oracles ----------------------------------------------------

def test_fixed_load_only_cost_is_price_times_load():
    fix = [1.5, 0.25, 2.0]
    prices = [2.0, 4.0, 3.0]
    cfg = make_community([warm_home("a", 3, fixed_load=fix)], prices)
    _, sol = _solve(cfg)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(np.dot(fix, prices)), abs=1e-8)


def test_pv_surplus_sells_at_alpha_price():
    fix = [1.0, 1.0, 1.0]
    ghi = [0.0, 0.8, 0.2]
    prices = [3.0, 2.0, 4.0]
    pv = PvParams(panel_area=10.0, efficiency=0.25)  # 2.5 kWh per unit GHI
    cfg = make_community([warm_home("a", 3, pv=pv, fixed_load=fix)], prices,
                         ghi=ghi, alpha=0.6)
    _, sol = _solve(cfg)
    res = [0.0, 2.0, 0.5]
    expected = sum(
        p * max(f - r, 0.0) - 0.6 * p * max(r - f, 0.0)
        for p, f, r in zip(prices, fix, res)
    )
    assert sol.objective == pytest.approx(expected, abs=1e-8)


def test_infeasible_comfort_band():
    home = make_home("cold", 2, hvac=make_hvac(p_max=0.0),
                     fixed_load=[0.5, 0.5], peak_limit=5.0)
    cfg = make_community([home], [2.0, 2.0], t_out=[30.0, 30.0])
    model, sol = _solve(cfg)
    assert sol.status == "infeasible"
    assert sol.x is None
    with pytest.raises(ValueError):
        extract_schedule(sol, model, cfg)


def test_scenario_runner_raises_on_infeasible():
    from cems import run_scenario

    home = make_home("cold", 2, hvac=make_hvac(p_max=0.0),
                     fixed_load=[0.5, 0.5], peak_limit=5.0)
    cfg = make_community([home], [2.0, 2.0], t_out=[30.0, 30.0])
    with pytest.raises(SolverError):
        run_scenario("system", cfg)


# -- extraction -------------------------------------------------------------

def test_absent_der_flows_zero_filled(system_result):
    sched = system_result.schedule
    bare = sched.homes.index("home8")
    assert np.all(sched.ess_level[bare] == 0.0)
    assert np.all(sched.ess_load[bare] == 0.0)
    assert np.all(sched.res_sell[bare] == 0.0)
    assert np.all(sched.com_charge[bare] == 0.0)
    ess_only = sched.homes.index("home6")
    assert np.all(sched.res_sell[ess_only] == 0.0)
    assert np.any(sched.ess_level[ess_only] > 0.0)


def test_status_flags_track_net_sign(system_result):
    sched = system_result.schedule
    for t in range(len(sched.community_net)):
        net = sched.community_net[t]
        if net > 1e-6:
            assert sched.status_flags[t] == 1
        elif net < -1e-6:
            assert sched.status_flags[t] == 0


def test_community_cost_matches_slotwise_formula(replication, system_result):
    sched = system_result.schedule
    total = 0.0
    for t, net in enumerate(sched.community_net):
        p = replication.buy_price[t]
        total += p * net if net > 0 else replication.alpha * p * net
    assert community_cost(sched, replication) == pytest.approx(total, abs=1e-9)


def test_home_net_property(replication, system_result):
    sched = system_result.schedule
    assert sched.homes == tuple(home.id for home in replication.homes)
    assert sched.net.shape == (len(sched.homes), replication.horizon_slots)
    np.testing.assert_allclose(sched.net, sched.com_buy - sched.com_sell)


# -- independent checker ----------------------------------------------------

def _families(report):
    return {v.family for v in report.violations}


def test_clean_schedule_passes(replication, system_result):
    report = check_schedule_feasibility(system_result.schedule, replication,
                                        reference_objective=system_result.objective)
    assert report.ok
    assert not report.violations
    assert report.max_violation <= 1e-6
    assert report.cost_matches_solver


def test_checker_flags_wrong_reference_objective(replication, system_result):
    report = check_schedule_feasibility(system_result.schedule, replication,
                                        reference_objective=system_result.objective + 1.0)
    assert not report.cost_matches_solver


def test_checker_catches_tampering(replication, system_result):
    import copy

    base = system_result.schedule

    sched = copy.deepcopy(base)
    sched.hvac_power[sched.homes.index("home8"), 5] += 1.0
    fams = _families(check_schedule_feasibility(sched, replication))
    assert "temperature_recursion" in fams or "home_balance" in fams

    sched = copy.deepcopy(base)
    sched.mode_home[sched.homes.index("home8"), 2] = 0.5
    assert "mode_integrality" in _families(check_schedule_feasibility(sched, replication))

    sched = copy.deepcopy(base)
    sched.ess_level[sched.homes.index("home1"), 4] += 0.5
    assert "ess_level_recursion" in _families(check_schedule_feasibility(sched, replication))

    sched = copy.deepcopy(base)
    sched.com_buy[sched.homes.index("home1"), 3] += 2.0
    fams = _families(check_schedule_feasibility(sched, replication))
    assert "buy_sell_definition" in fams or "home_balance" in fams

    sched = copy.deepcopy(base)
    sched.hvac_power[sched.homes.index("home9"), 7] = -0.5
    assert "hvac_power_range" in _families(check_schedule_feasibility(sched, replication))


def test_checker_peak_violation_as_warning(replication, system_result):
    import copy
    from dataclasses import replace

    tight = replace(replication, community_peak=1.0)
    sched = copy.deepcopy(system_result.schedule)
    hard = check_schedule_feasibility(sched, tight)
    assert "community_peak" in _families(hard)
    soft = check_schedule_feasibility(sched, tight, community_peak_as_warning=True)
    assert "community_peak" not in _families(soft)
    assert soft.warnings


def test_checker_missing_home(replication, system_result):
    sched = _without(system_result.schedule, "home3")
    assert "missing_home" in _families(check_schedule_feasibility(sched, replication))


def test_checker_reports_homes_the_config_lacks(replication, system_result):
    """A schedule row of a home outside the community is one violation:
    after the config homes' breaches, in row order, before the community's."""
    part = dataclasses.replace(replication, homes=replication.homes[:8])
    report = check_schedule_feasibility(system_result.schedule, part)
    assert [(v.family, v.home, v.slot, v.magnitude) for v in report.violations] == [
        ("unknown_home", "home9", None, np.inf), ("unknown_home", "home10", None, np.inf)]
    assert not report.ok and report.max_violation == np.inf

    # rows out of config order, a breach at home1, home3 missing, a net drift
    sched = _without(system_result.schedule, "home3")
    homes = ("home10", *[h for h in sched.homes if h != "home10"])
    rows = [sched.homes.index(h) for h in homes]
    sched = dataclasses.replace(sched, homes=homes, community_net=sched.community_net * 0.5,
                                **{role: getattr(sched, role)[rows] for role in SCHEDULE_ROLES})
    sched.hvac_power[homes.index("home1"), 7] = -0.5
    report = check_schedule_feasibility(sched, part)
    order = [(v.family, v.home) for v in report.violations if v.home != "home1"]
    assert order[:3] == [("missing_home", "home3"), ("unknown_home", "home10"), ("unknown_home", "home9")]
    assert {family for family, home in order[3:]} == {"community_net"}
    assert {v.home for v in report.violations[:-len(order)]} == {"home1"}


@pytest.mark.parametrize("home, role, index, expected", [
    ("home1", "com_charge", 2, {"nonnegative_flow", "ess_charge_rate", "buy_sell_definition"}),
    ("home1", "ess_level", 4, {"ess_level_recursion"}),
    ("home1", "hvac_power", 2, {"hvac_power_range", "temperature_recursion", "home_balance"}),
])
def test_checker_reports_nan_as_a_breach(replication, system_result, home, role, index, expected):
    """A value that is not a number is never within the tolerance: the
    checker reports it at its home and slot, and does not raise."""
    import copy
    import math

    sched = copy.deepcopy(system_result.schedule)
    getattr(sched, role)[sched.homes.index(home), index] = np.nan
    report = check_schedule_feasibility(sched, replication, reference_objective=system_result.objective)
    assert not report.ok
    assert expected <= _families(report)
    at_slot = {v.family for v in report.violations if (v.home, v.slot) == (home, index + 1)}
    assert at_slot & expected
    assert math.isnan(report.max_violation)


# -- the checker's report, pinned byte for byte -----------------------------

_CHECK_FAMILIES = (
    "missing_home", "hvac_power_range", "temperature_recursion", "comfort_band",
    "nonnegative_flow", "mode_integrality", "pv_split", "absent_der_flow",
    "ess_level_recursion", "ess_level_range", "ess_charge_rate", "ess_discharge_rate",
    "ess_simultaneity", "ess_terminal_level", "home_balance", "buy_sell_definition",
    "buy_sell_exclusivity", "community_net", "community_peak",
)


def _seeded_schedule(config, rng):
    """A clean day for ``config`` made without a solver: each home's HVAC
    holds a random indoor target, PV feeds the home first and sells the
    rest, and each storage unit charges from the pool in one slot and
    discharges into the home in a later one, ending where it began."""
    from cems.thermal import simulate_indoor_trajectory

    T, dt = config.horizon_slots, config.slot_hours
    rows = {role: [] for role in SCHEDULE_ROLES}
    for home in config.homes:
        hv = home.hvac
        target = rng.uniform(68.5, 72.5) + rng.uniform(-0.5, 0.5, T)
        p = np.clip(hv.conductivity_a * (target - config.t_out) / hv.eta_hvac, 0.0, hv.p_max)
        temp = simulate_indoor_trajectory(hv.t_in_initial, config.t_out, p, hv)
        demand = home.fixed_load + p * dt
        zeros = np.zeros(T)
        produced = zeros if home.pv is None else config.ghi * home.pv.panel_area * home.pv.efficiency * dt
        res_load = np.minimum(produced, demand)
        res_sell = produced - res_load
        com_charge, ess_load, mode_ess = zeros.copy(), zeros.copy(), zeros.copy()
        level = zeros.copy()
        if home.ess is not None:
            ess = home.ess
            # charge in a slot with no PV surplus, so the home never buys and sells at once
            charge_at = int(rng.choice(np.flatnonzero(res_sell[:-1] == 0.0)))
            discharge_at = int(rng.integers(charge_at + 1, T))
            charge = rng.uniform(0.2, 0.9) * min(ess.charge_rate_max * dt,
                                                  (ess.level_max - ess.level_initial) / ess.efficiency,
                                                  demand[discharge_at] / ess.efficiency ** 2)
            com_charge[charge_at] = charge
            mode_ess[charge_at] = 1.0
            ess_load[discharge_at] = charge * ess.efficiency ** 2
            res_load[discharge_at] = min(res_load[discharge_at], demand[discharge_at] - ess_load[discharge_at])
            res_sell = produced - res_load
            level = ess.level_initial + np.cumsum(com_charge * ess.efficiency - ess_load / ess.efficiency)
        com_load = demand - res_load - ess_load
        com_buy = com_load + com_charge
        day = dict(hvac_power=p, indoor_temp=temp, com_load=com_load, com_buy=com_buy,
                   com_sell=res_sell, mode_home=(com_buy > 0).astype(float), ess_level=level,
                   ess_load=ess_load, ess_sell=zeros, com_charge=com_charge,
                   res_charge=zeros, res_load=res_load, res_sell=res_sell, mode_ess=mode_ess)
        for role, value in day.items():
            rows[role].append(value)
    return CommunitySchedule(homes=tuple(home.id for home in config.homes),
                             **{role: np.array(value) for role, value in rows.items()})


def _tampered(base, config, rng):
    """One seeded tampering of ``base`` and the checker's arguments for it."""
    import copy
    from dataclasses import replace

    sched = copy.deepcopy(base)
    hid = str(rng.choice(list(sched.homes)))
    row = sched.homes.index(hid)
    T = config.horizon_slots
    action = rng.choice(["shift", "shift", "shift", "hvac", "mode", "drop", "net", "peak"])
    if action == "shift":
        role = str(rng.choice(["hvac_power", "indoor_temp", "com_load", "com_buy", "com_sell",
                               "ess_level", "ess_load", "ess_sell", "com_charge", "res_charge",
                               "res_load", "res_sell"]))
        slots = rng.choice(np.arange(1, T) if role == "indoor_temp" else T,
                           size=int(rng.integers(1, 4)), replace=False)
        delta = rng.choice([-1e-7, 1e-7, -2e-6, 2e-6, -0.3, 0.3, -4.0, 4.0])
        # a seeded home sells only PV, so its sales and its PV sales move together
        sales = ("com_sell", "res_sell")
        for shifted in sales if role in sales else (role,):
            getattr(sched, shifted)[row, slots] += delta
    elif action == "hvac":
        p_max = config.home(hid).hvac.p_max
        sched.hvac_power[row, int(rng.integers(T))] = rng.choice([-0.5, 0.0, p_max, p_max + 1.0])
    elif action == "mode":
        role = str(rng.choice(["mode_home", "mode_ess"]))
        getattr(sched, role)[row, int(rng.integers(T))] = rng.choice([0.5, 1.0 - 5e-7, 1.2, -0.3])
    elif action == "drop":
        sched = _without(sched, hid)
    elif action == "net":
        sched.community_net[int(rng.integers(T))] += rng.choice([-1e-7, 1e-3, -2.0])
    else:
        peak = float(np.max(np.abs(sched.community_net))) * rng.uniform(0.5, 0.99)
        config = replace(config, community_peak=peak)
    cost = community_cost(base, config)
    reference = rng.choice([None, cost, cost + 1e-3])
    return sched, config, {
        "reference_objective": reference,
        "community_peak_as_warning": bool(rng.random() < 0.5),
    }


def test_storage_levels_round_as_the_slot_loop():
    from cems.solve import _storage_levels

    rng = np.random.default_rng(7)
    for _ in range(50):
        out, inflow = rng.uniform(0.0, 3.0, (2, 24)) * (rng.random((2, 24)) < 0.6)
        level, expected = float(rng.uniform(0.0, 10.0)), []
        start = level
        for d, c in zip(out, inflow):
            level = level - d + c
            expected.append(level)
        assert _storage_levels(start, out, inflow).tolist() == expected


def test_checker_reports_are_pinned(replication):
    """The whole report on 300 seeded tamperings of a solver-free day,
    pinned by sha256, so a rewrite of the checker keeps every family's
    verdict, magnitude, reporting order and the recomputed cost."""
    import hashlib

    base = _seeded_schedule(replication, np.random.default_rng(2024))
    clean = check_schedule_feasibility(base, replication)
    assert not clean.violations and not clean.warnings
    digest = hashlib.sha256()
    fired, silent, warned = set(), set(), set()
    for seed in range(300):
        sched, config, kwargs = _tampered(base, replication, np.random.default_rng(seed))
        report = check_schedule_feasibility(sched, config, **kwargs)
        digest.update(repr(dataclasses.asdict(report)).encode() + b"\n")
        families = _families(report)
        fired |= families
        silent |= set(_CHECK_FAMILIES) - families
        warned |= {w.family for w in report.warnings}
    assert fired == silent == set(_CHECK_FAMILIES)
    assert warned == {"community_peak"}
    assert digest.hexdigest() == "6c718bfae7224d28bdb8c51709dabac4f7634f007e78451c028f6c05dd5f5eb9"


def test_checker_reports_each_home_as_if_alone(replication):
    """With several homes tampered at once, and on some days one of them
    missing, each home's breaches are those of its tampering alone, homes
    in config order and the community's breaches last."""
    import copy

    base = _seeded_schedule(replication, np.random.default_rng(2024))
    ids = [home.id for home in replication.homes]
    roles = ["hvac_power", "com_load", "com_buy", "com_sell", "ess_level", "ess_load",
             "com_charge", "res_load", "res_sell", "mode_home", "mode_ess"]
    rng = np.random.default_rng(11)
    for day in range(30):
        together = copy.deepcopy(base)
        alone = {}
        chosen = [str(h) for h in rng.choice(ids, size=4, replace=False)]
        dropped = chosen.pop() if day % 2 else None
        for hid in chosen:
            role, slot = str(rng.choice(roles)), int(rng.integers(replication.horizon_slots))
            delta = float(rng.choice([-4.0, -0.3, 2e-6, 0.3, 4.0, np.nan]))
            single = copy.deepcopy(base)
            for sched in (together, single):
                getattr(sched, role)[sched.homes.index(hid), slot] += delta
            alone[hid] = [v for v in check_schedule_feasibility(single, replication).violations
                          if v.home == hid]
        if dropped is not None:
            together = _without(together, dropped)
            alone[dropped] = [cems.solve.Violation("missing_home", dropped, None, np.inf)]
        report = check_schedule_feasibility(together, replication)
        expected = [v for hid in ids if hid in alone for v in alone[hid]]
        got = report.violations
        assert repr(list(got[:len(expected)])) == repr(expected)
        assert all(v.home is None for v in got[len(expected):])
        if dropped is not None:  # its net is still in the schedule's community net
            assert any(v.family == "community_net" for v in got[len(expected):])


# -- persistence ------------------------------------------------------------

def test_schedule_dict_round_trip(replication, system_result):
    sched = system_result.schedule
    again = schedule_from_dict(schedule_to_dict(sched), replication)
    assert again.homes == sched.homes
    for field in ("hvac_power", "indoor_temp", "com_buy", "com_sell",
                  "ess_level", "mode_home"):
        np.testing.assert_allclose(getattr(again, field), getattr(sched, field))
    np.testing.assert_allclose(again.community_net, sched.community_net)


def test_schedule_json_is_pinned(replication):
    """The text of ``schedule.json`` for seeded solver-free days of the
    bundled day and a 25-home day, pinned by sha256; half of the days carry
    community status flags and slot costs.  Reading a text back and writing
    it again gives the same text."""
    import hashlib
    import json

    from cems import generate_synthetic_community
    from cems.cli import _json_text

    digest = hashlib.sha256()
    for config in (replication, generate_synthetic_community(25, 3, replication)):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            schedule = _seeded_schedule(config, rng)
            if seed % 2:
                schedule = dataclasses.replace(
                    schedule, status_flags=(schedule.community_net > 0).astype(float),
                    slot_costs=rng.normal(0.0, 3.0, config.horizon_slots))
            text = _json_text(schedule_to_dict(schedule))
            again = schedule_from_dict(json.loads(text), config)
            assert _json_text(schedule_to_dict(again)) == text
            digest.update(text.encode())
    assert digest.hexdigest() == "560632e076ebdde0691b552e4651a34e20fbf0628adae1c7086de331ccadeab8"


def test_schedule_from_dict_rejects_homes_the_config_lacks(replication, system_result):
    """A schedule read against part of its community would be settled for
    that part alone; the first home the config lacks is named instead."""
    doc = schedule_to_dict(system_result.schedule)
    part = dataclasses.replace(replication, homes=replication.homes[:8])
    with pytest.raises(ValueError, match=r"^schedule has home 'home9', which the config lacks$"):
        schedule_from_dict(doc, part)
    assert schedule_from_dict(doc, replication).homes == system_result.schedule.homes


def test_extract_rejects_model_homes_the_config_lacks(replication, system_result):
    """A schedule extracted for part of the model's homes would leave the
    rest out of its net but keep the whole model's community values; the
    first model home the config lacks is named instead."""
    model = build_system_centric_model(replication, lp=True)
    solution = system_result.solves[0]
    part = dataclasses.replace(replication, homes=replication.homes[:8])
    with pytest.raises(ValueError, match=r"^model has home 'home9', which the config lacks$"):
        extract_schedule(solution, model, part)
    assert extract_schedule(solution, model, replication).homes == system_result.schedule.homes


def test_extract_schedule_scatters_several_models_at_once(replication, no_cems_result):
    # the selfish step's LP solutions, one per home model
    models = build_home_models(replication, lp=True)
    solutions = list(no_cems_result.solves)
    assert [s.model for s in solutions] == [m.name for m in models]
    assert [m.name for m in models] == [f"home_{h.id}_relaxed" for h in replication.homes]
    alone = [extract_schedule(s, m, replication) for s, m in zip(solutions, models)]
    # rows come out in config order, whatever the order of the models
    for order in (slice(None), slice(None, None, -1)):
        together = extract_schedule(solutions[order], models[order], replication)
        assert together.homes == tuple(h.id for h in replication.homes)
        assert together.status_flags is None and together.slot_costs is None
        for row, one in enumerate(alone):
            for role in SCHEDULE_ROLES:
                assert getattr(together, role)[row].tobytes() == getattr(one, role)[0].tobytes(), role
        assert together.community_net.tobytes() == np.sum(together.net, axis=0).tobytes()

    with pytest.raises(ValueError, match="more than one model"):
        extract_schedule(solutions[:2] + solutions[:1], models[:2] + models[:1], replication)
    stopped = dataclasses.replace(solutions[3], status="time_limit", x=None)
    with pytest.raises(ValueError, match="'time_limit' and carries no values"):
        extract_schedule(solutions[:3] + [stopped], models[:4], replication)


@pytest.mark.parametrize("value", ["1.5", True, None, float("nan"), float("inf"), float("-inf"), 10**400])
def test_schedule_from_dict_takes_finite_numbers_only(replication, system_result, value):
    """The config's number rule: a JSON number, not a bool, and finite."""
    doc = schedule_to_dict(system_result.schedule)
    doc["homes"]["home2"]["com_load"][5] = value
    with pytest.raises(ValueError, match=r"home 'home2': com_load\[5\] must be a finite number"):
        schedule_from_dict(doc, replication)
    doc = schedule_to_dict(system_result.schedule)
    doc["slot_costs"] = [value] * replication.horizon_slots
    with pytest.raises(ValueError, match=r"slot_costs\[0\] must be a finite number"):
        schedule_from_dict(doc, replication)


# -- options ----------------------------------------------------------------

def test_solution_reports_mip_telemetry():
    cfg = random_small_config(np.random.default_rng(8), n_homes=2, T=4)
    model = build_system_centric_model(cfg)
    lp = solve_model(build_system_centric_model(cfg, lp=True))
    assert lp.status == "optimal"
    assert (lp.mip_node_count, lp.mip_dual_bound) == (None, None)
    exact = solve_model(model)
    assert exact.status == "optimal"
    assert isinstance(exact.mip_node_count, int) and exact.mip_node_count >= 0
    assert exact.mip_dual_bound <= exact.objective + 1e-6 * (1.0 + abs(exact.objective))
    assert exact.mip_dual_bound >= lp.objective - 1e-6 * (1.0 + abs(lp.objective))


def test_gap_and_time_limit_options(replication):
    model = build_system_centric_model(replication)
    sol = solve_model(model, SolverOptions(relative_mip_gap=1e-3, time_limit=120.0))
    assert sol.status == "optimal"
    assert sol.solve_time > 0.0


# -- the hand-off to HiGHS ----------------------------------------------------

def _milp_oracle(model, gap):
    """The same model through ``scipy.optimize.milp``, with the options
    :func:`solve_model` passes to HiGHS."""
    a = csr_array((model.data, model.indices, model.indptr), shape=(model.n_constraints, model.n_variables))
    return milp(c=model.c, constraints=LinearConstraint(a, model.row_lower, model.row_upper),
                integrality=model.integrality, bounds=Bounds(model.lb, model.ub),
                options={"presolve": True, "disp": False, "mip_rel_gap": gap})


@pytest.mark.parametrize("which", ["system", "home1"])
@pytest.mark.parametrize("as_lp", [True, False], ids=["lp", "milp"])
def test_solve_matches_scipy_milp_bit_for_bit(replication, which, as_lp):
    if which == "system":
        model = build_system_centric_model(replication, lp=as_lp)
    else:
        model = build_home_model(replication, which, lp=as_lp)
    sol = solve_model(model)  # the CLI's default gap
    ref = _milp_oracle(model, SolverOptions().relative_mip_gap)
    assert (sol.status, ref.status) == ("optimal", 0)
    assert np.array_equal(sol.x, ref.x)
    assert sol.objective == ref.fun
    if as_lp:
        assert (sol.mip_node_count, sol.mip_dual_bound, sol.mip_gap) == (None, None, None)
    else:
        assert (sol.mip_node_count, sol.mip_dual_bound, sol.mip_gap) == (
            ref.mip_node_count, ref.mip_dual_bound, ref.mip_gap)


def test_surplus_beyond_the_band_is_infeasible():
    # PV surplus the pool band cannot take, and a battery the MILP may not
    # charge and discharge at once
    home = make_home("h", 2, hvac=make_hvac(p_max=0.01), ess=make_ess(),
                     pv=PvParams(panel_area=13.0, efficiency=0.2), fixed_load=[0.5, 0.5])
    cfg = make_community([home], [1.0, 1.0], ghi=[1.0, 1.0], community_peak=2.0)
    sol = solve_model(build_system_centric_model(cfg))
    assert (sol.status, sol.x, sol.objective) == ("infeasible", None, None)


def test_tiny_time_limit_keeps_values_only_with_an_incumbent(replication):
    sol = solve_model(build_system_centric_model(replication), SolverOptions(time_limit=1e-3))
    assert sol.status in ("feasible", "time_limit")
    assert (sol.x is not None) == (sol.status == "feasible") == (sol.objective is not None)


class _ForcedStatus:
    """A HiGHS instance that runs the model but reports ``status`` after,
    and ``run_status`` from ``run()``."""

    def __init__(self, make, status, run_status):
        self._highs, self._status, self._run_status = make(), status, run_status

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self._highs.run()
        return self._run_status

    def getModelStatus(self):
        return self._status


_MS = cems.solve._highs.HighsModelStatus
_OK = cems.solve._highs.HighsStatus.kOk


@pytest.mark.parametrize("status, run_status, mip, expected", [
    (_MS.kTimeLimit, _OK, True, "feasible"),
    (_MS.kIterationLimit, _OK, True, "feasible"),
    (_MS.kTimeLimit, _OK, False, "time_limit"),
    (_MS.kIterationLimit, _OK, False, "time_limit"),
    (_MS.kInfeasible, _OK, True, "infeasible"),
    (_MS.kModelError, _OK, False, "infeasible"),
    (_MS.kUnbounded, _OK, False, "unbounded"),
    (_MS.kOptimal, cems.solve._highs.HighsStatus.kError, False, SolverError),
    *((status, _OK, True, SolverError) for status in (
        _MS.kNotset, _MS.kLoadError, _MS.kPresolveError, _MS.kSolveError, _MS.kPostsolveError,
        _MS.kModelEmpty, _MS.kObjectiveBound, _MS.kObjectiveTarget, _MS.kUnboundedOrInfeasible,
        _MS.kUnknown, _MS.kSolutionLimit, _MS.kInterrupt, _MS.kMemoryLimit)),
])
def test_highs_statuses_map_as_scipy_milp_maps_them(monkeypatch, replication, status, run_status,
                                                   mip, expected):
    model = build_home_model(replication, "home1", lp=not mip)
    make = cems.solve._highs._Highs
    monkeypatch.setattr(cems.solve._highs, "_Highs", lambda: _ForcedStatus(make, status, run_status))
    if expected is SolverError:
        with pytest.raises(SolverError, match="solver failed on home_home1"):
            solve_model(model)
        return
    sol = solve_model(model)
    assert sol.status == expected
    has_values = expected == "feasible"
    assert (sol.x is not None, sol.objective is not None) == (has_values, has_values)
    assert (sol.mip_node_count is not None) == has_values


def test_a_model_highs_refuses_to_load_raises(replication, capfd):
    # solve_model re-checks nothing: a term past the last column reaches
    # HiGHS, whose passModel rejects it
    model = build_home_model(replication, "home1")
    indices = model.indices.copy()
    indices[-1] = model.n_variables
    with pytest.raises(SolverError, match="HiGHS rejected the model"):
        solve_model(dataclasses.replace(model, indices=indices))
    assert capfd.readouterr().out == ""
