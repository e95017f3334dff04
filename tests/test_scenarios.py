import dataclasses
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cems.scenarios
from cems import (
    SCENARIO_KINDS,
    InfeasibleHomeError,
    PvParams,
    bench_scaling,
    build_home_model,
    build_system_centric_model,
    check_schedule_feasibility,
    compare,
    extract_schedule,
    replication_config,
    run_scenario,
    run_scenarios,
    solve_model,
)
from cems.scenarios import (
    LP_CERTIFIED,
    MILP_FALLBACK,
    bench_timings_to_csv,
    bench_to_csv,
    bench_to_dict,
    comparison_homes_to_csv,
    comparison_slots_to_csv,
    comparison_to_csv,
    comparison_to_dict,
)
from cems.milp import ROLE
from cems.solve import SCHEDULE_ROLES, Solution, SolverError, SolverOptions, Violation

from conftest import make_community, make_ess, make_home, make_hvac, random_small_config


def small_der_config():
    """3 homes, 6 slots, wide price spread so storage actually moves."""
    prices = [1.0, 1.2, 4.0, 5.0, 4.5, 2.0]
    ghi = [0.2, 0.8, 0.9, 0.3, 0.0, 0.0]
    homes = [
        make_home("a", 6, ess=make_ess(), pv=PvParams(panel_area=8.0, efficiency=0.2),
                  fixed_load=[0.5, 0.5, 1.0, 1.5, 1.5, 1.0]),
        make_home("b", 6, pv=PvParams(panel_area=6.0, efficiency=0.2),
                  fixed_load=[0.6, 0.6, 1.2, 1.6, 1.4, 0.9]),
        make_home("c", 6, fixed_load=[0.4, 0.5, 1.1, 1.4, 1.3, 0.8]),
    ]
    return make_community(homes, prices, ghi=ghi, alpha=0.6)


def test_run_scenario_dispatch(replication, system_result):
    with pytest.raises(ValueError):
        run_scenario("cooperative", replication)
    assert system_result.kind == "system"


def test_scenarios_coincide_without_ders():
    # no PV and no ESS: nothing to share, so coordination cannot help
    prices = [1.0, 3.0, 2.0, 4.0]
    homes = [make_home("a", 4, fixed_load=[1.0, 0.8, 1.2, 0.9]),
             make_home("b", 4, fixed_load=[0.7, 1.1, 0.6, 1.0])]
    cfg = make_community(homes, prices, t_out=[60.0, 58.0, 59.0, 61.0])
    results = {k: run_scenario(k, cfg) for k in ("system", "prosumer", "none")}
    costs = [r.community_cost for r in results.values()]
    assert costs[0] == pytest.approx(costs[1], abs=1e-5)
    assert costs[0] == pytest.approx(costs[2], abs=1e-5)


def test_cost_ordering_on_small_config():
    cfg = small_der_config()
    sys_r = run_scenario("system", cfg)
    pro_r = run_scenario("prosumer", cfg)
    non_r = run_scenario("none", cfg)
    assert sys_r.community_cost <= pro_r.community_cost + 1e-6
    assert pro_r.community_cost <= non_r.community_cost + 1e-6


def test_stage_one_results_are_shared(prosumer_result, no_cems_result):
    # same selfish solves underneath, only the settlement differs
    assert prosumer_result.per_home_objective == pytest.approx(
        no_cems_result.per_home_objective)
    assert prosumer_result.schedule.homes == no_cems_result.schedule.homes
    np.testing.assert_allclose(prosumer_result.schedule.net, no_cems_result.schedule.net, atol=1e-9)


def test_no_cems_bill_equals_selfish_objective(no_cems_result):
    # the selfish MILP minimizes exactly the external-price bill
    for hid, bill in no_cems_result.settlement.per_home_daily_cost.items():
        assert bill == pytest.approx(no_cems_result.per_home_objective[hid], abs=1e-6)


def test_pooled_settlement_never_hurts_a_home(prosumer_result, no_cems_result):
    # local prices dominate external ones slot by slot on identical schedules
    for hid, bill in prosumer_result.settlement.per_home_daily_cost.items():
        assert bill <= no_cems_result.settlement.per_home_daily_cost[hid] + 1e-9


def test_infeasible_home_surfaces_with_id():
    # heater disabled in a cold snap: home "b" has no feasible day
    homes = [make_home("a", 3),
             make_home("b", 3, hvac=make_hvac(p_max=0.0))]
    cfg = make_community(homes, [2.0, 2.0, 2.0], t_out=[30.0, 30.0, 30.0])
    with pytest.raises(InfeasibleHomeError) as err:
        run_scenario("prosumer", cfg)
    assert err.value.home_id == "b"
    assert err.value.status == "infeasible"
    with pytest.raises(InfeasibleHomeError):
        run_scenario("none", cfg)


def _assert_same_result(a, b):
    assert a.kind == b.kind
    assert a.community_cost == b.community_cost
    assert a.settlement.per_home_daily_cost == b.settlement.per_home_daily_cost
    assert a.settlement.community_daily_cost == b.settlement.community_daily_cost
    assert a.feasibility == b.feasibility
    assert (a.solver_status, a.objective) == (b.solver_status, b.objective)
    assert (a.solve_path, a.fallback_reason) == (b.solve_path, b.fallback_reason)
    assert a.per_home_objective == b.per_home_objective
    np.testing.assert_array_equal(a.schedule.community_net, b.schedule.community_net)
    for name in ("status_flags", "slot_costs"):
        x, y = getattr(a.schedule, name), getattr(b.schedule, name)
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)
    assert a.schedule.homes == b.schedule.homes
    for role in SCHEDULE_ROLES:
        np.testing.assert_array_equal(getattr(a.schedule, role), getattr(b.schedule, role), err_msg=role)


def test_run_scenarios_matches_single_runs(replication, system_result,
                                           prosumer_result, no_cems_result):
    together = run_scenarios(replication)
    assert [r.kind for r in together] == list(SCENARIO_KINDS)
    for joint, alone in zip(together, (system_result, prosumer_result, no_cems_result)):
        _assert_same_result(joint, alone)


def _count_solves(monkeypatch):
    calls = []
    real = cems.scenarios.solve_model

    def counting(model, *args, **kwargs):
        calls.append(model.name)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(cems.scenarios, "solve_model", counting)
    return calls


def test_compare_solves_the_selfish_stage_once(monkeypatch):
    cfg = small_der_config()
    n = len(cfg.homes)
    calls = _count_solves(monkeypatch)
    results = run_scenarios(cfg)
    # a certified day solves each model once, as its LP relaxation
    assert [r.solve_path for r in results] == [LP_CERTIFIED] * 3
    assert calls == ["system_centric_relaxed"] + [f"home_{h.id}_relaxed" for h in cfg.homes]
    # prosumer and none settle the very same selfish schedule
    assert results[1].schedule is results[2].schedule
    assert results[1].feasibility is results[2].feasibility

    calls.clear()
    run_scenarios(cfg, ("none", "prosumer"))
    assert len(calls) == n
    calls.clear()
    run_scenario("prosumer", cfg)
    assert len(calls) == n


# -- LP-first solve path ------------------------------------------------------

def burning_config():
    """PV surplus beyond the pool band: the LP stays feasible by charging
    and discharging the battery at once, which the MILP forbids."""
    home = make_home("h", 2, hvac=make_hvac(p_max=0.01), ess=make_ess(),
                     pv=PvParams(panel_area=13.0, efficiency=0.2),  # 2.6 kWh a slot
                     fixed_load=[0.5, 0.5])
    return make_community([home], [1.0, 1.0], ghi=[1.0, 1.0], community_peak=2.0)


def _record_checks(monkeypatch):
    reports = []
    real = cems.scenarios.check_schedule_feasibility

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cems.scenarios, "check_schedule_feasibility", recording)
    return reports


def test_lp_that_burns_energy_falls_back_to_the_infeasible_milp(monkeypatch):
    cfg = burning_config()
    calls = _count_solves(monkeypatch)
    reports = _record_checks(monkeypatch)
    with pytest.raises(SolverError, match="ended infeasible"):
        run_scenario("system", cfg)
    assert calls == ["system_centric_relaxed", "system_centric"]
    (report,) = reports
    assert ("ess_simultaneity", "h", 1) in {(v.family, v.home, v.slot) for v in report.violations}


# -- netting ------------------------------------------------------------------

def _moved(schedule, home, slot, amount, *changes):
    """``schedule`` with ``amount`` added to (``+1``) or taken from (``-1``)
    each ``(role, sign)`` of ``changes`` at one (home, slot)."""
    arrays = {role: getattr(schedule, role).copy() for role, _ in changes}
    for role, sign in changes:
        arrays[role][home, slot] += sign * amount
    return dataclasses.replace(schedule, **arrays)


def _overlapped(schedule, sale, purchase, inside, taken):
    """``schedule`` with energy that the flow ``inside`` carried within a
    home sold through ``sale`` and bought back through ``purchase`` in the
    same slot, at the first entry outside ``taken`` where ``inside`` is
    clearly positive.  Balances, splits and storage books still hold."""
    home, slot = next((h, t) for h, t in zip(*np.nonzero(getattr(schedule, inside) > 0.1))
                      if (h, t) not in taken)
    taken.add((home, slot))
    amount = getattr(schedule, inside)[home, slot] / 2
    return _moved(schedule, home, slot, amount, (sale, 1), (purchase, 1), (inside, -1),
                  ("com_buy", 1), ("com_sell", 1))


def test_netting_removes_each_overlap_and_keeps_the_books(replication, system_result):
    certified = system_result.schedule
    overlapped, taken = certified, set()
    for move in cems.scenarios._NETTING:
        overlapped = _overlapped(overlapped, *move, taken)
    before = check_schedule_feasibility(overlapped, replication)
    assert {(v.family, certified.homes.index(v.home), v.slot - 1) for v in before.violations} == {("buy_sell_exclusivity", h, t) for h, t in taken}

    every_home = np.ones(len(overlapped.homes), dtype=bool)
    netted = cems.scenarios._net_overlaps(overlapped, every_home)
    after = check_schedule_feasibility(netted, replication)
    assert after.violations == ()
    assert after.cost_recomputed == pytest.approx(before.cost_recomputed, rel=1e-12)
    for what in ("net", "community_net", "ess_level"):
        np.testing.assert_allclose(getattr(netted, what), getattr(overlapped, what), rtol=0, atol=1e-12)
    for flows in (("ess_load", "ess_sell"), ("res_charge", "com_charge"),
                  ("res_load", "res_sell", "res_charge")):
        np.testing.assert_allclose(sum(getattr(netted, f) for f in flows),
                                   sum(getattr(overlapped, f) for f in flows), rtol=0, atol=1e-12)

    # a home outside the mask keeps its overlap, bit for bit
    home = min(h for h, _ in taken)
    rows = every_home.copy()
    rows[home] = False
    kept = cems.scenarios._net_overlaps(overlapped, rows)
    for role in SCHEDULE_ROLES:
        assert getattr(kept, role)[home].tobytes() == getattr(overlapped, role)[home].tobytes(), role


def test_storage_sold_while_charged_is_not_netted(replication, system_result, monkeypatch):
    """Storage discharged to the pool while it is charged from the pool:
    netting would change the storage books, so it stays, the checker faults
    it, and the step falls back to the MILP."""
    certified = system_result.schedule
    has_ess = np.array([h.ess is not None for h in replication.homes])[:, None]
    home, slot = np.argwhere(has_ess & (certified.com_load == 0.0) & (certified.res_sell == 0.0))[0]
    overlap = (("ess_sell", 1), ("com_charge", 1), ("com_buy", 1), ("com_sell", 1))
    overlapped = _moved(certified, home, slot, 0.5, *overlap)
    netted = cems.scenarios._net_overlaps(overlapped, np.ones(len(certified.homes), dtype=bool))
    for role in SCHEDULE_ROLES:
        assert getattr(netted, role).tobytes() == getattr(overlapped, role).tobytes(), role

    # the same overlap in the pooled LP's solution
    real = cems.scenarios.solve_model

    def overlapping(model, *args, **kwargs):
        solution = real(model, *args, **kwargs)
        if model.integrality.any():
            return solution
        lay, x = model.layout, solution.x.copy()
        for role, _ in overlap:
            x[(lay.var_home == home) & (lay.var_role == ROLE[role]) & (lay.var_slot == slot + 1)] += 0.5
        return dataclasses.replace(solution, x=x)

    monkeypatch.setattr(cems.scenarios, "solve_model", overlapping)
    reports = _record_checks(monkeypatch)
    result = run_scenario("system", replication)
    first = {(v.family, v.home, v.slot) for v in reports[0].violations}
    assert ("buy_sell_exclusivity", replication.homes[home].id, slot + 1) in first
    assert result.solve_path == MILP_FALLBACK
    assert "buy_sell_exclusivity" in result.fallback_reason.split(",")
    assert result.feasibility.ok and result.feasibility.cost_matches_solver
    assert [s.model for s in result.solves] == ["system_centric_relaxed", "system_centric"]
    assert result.objective == solve_model(build_system_centric_model(replication)).objective


def _fault_first_check(monkeypatch, home=None, cost=False):
    """The first checker pass reports a violation at ``home`` (or a cost
    mismatch); later passes are the real checker's."""
    real = cems.scenarios.check_schedule_feasibility
    seen = []

    def faulting(*args, **kwargs):
        report = real(*args, **kwargs)
        seen.append(report)
        if len(seen) > 1:
            return report
        if cost:
            return dataclasses.replace(report, cost_matches_solver=False)
        fault = Violation("home_balance", home, 1, 1.0)
        return dataclasses.replace(report, violations=report.violations + (fault,))

    monkeypatch.setattr(cems.scenarios, "check_schedule_feasibility", faulting)
    return seen


@pytest.mark.parametrize("home, cost, reason", [
    ("home3", False, "home_balance"),
    (None, False, "home_balance"),
    (None, True, "cost_mismatch"),
])
def test_forced_fallback_returns_the_milp_result(replication, monkeypatch, home, cost, reason):
    model = build_system_centric_model(replication)
    milp = solve_model(model)
    expected = extract_schedule(milp, model, replication)
    calls = _count_solves(monkeypatch)
    checks = _fault_first_check(monkeypatch, home, cost)
    result = run_scenario("system", replication)
    assert calls == ["system_centric_relaxed", "system_centric"]
    assert [s.model for s in result.solves] == ["system_centric_relaxed", "system_centric"]
    assert len(checks) == 2
    assert (result.solve_path, result.fallback_reason) == (MILP_FALLBACK, reason)
    assert result.objective == milp.objective
    assert result.feasibility is checks[1] and result.feasibility.ok
    assert result.schedule.homes == expected.homes
    for role in SCHEDULE_ROLES:
        np.testing.assert_array_equal(getattr(result.schedule, role), getattr(expected, role), err_msg=role)
    np.testing.assert_array_equal(result.schedule.status_flags, expected.status_flags)


def test_selfish_fallback_resolves_only_the_named_home(monkeypatch):
    cfg = small_der_config()
    exact = solve_model(build_home_model(cfg, "b"))
    calls = _count_solves(monkeypatch)
    _fault_first_check(monkeypatch, home="b")
    result = run_scenario("none", cfg)
    assert calls == [f"home_{h.id}_relaxed" for h in cfg.homes] + ["home_b"]
    assert (result.solve_path, result.fallback_reason) == (MILP_FALLBACK, "home_balance")
    assert result.per_home_objective["b"] == exact.objective
    assert result.feasibility.ok
    np.testing.assert_array_equal(result.solves[-1].x, exact.x)
    _assert_rows_come_from(result, cfg, milp_home="b")


def test_lp_that_is_not_optimal_falls_back(monkeypatch):
    cfg = small_der_config()
    real = cems.scenarios.solve_model

    def lp_runs_out_of_time(model, *args, **kwargs):
        if model.name == "home_a_relaxed":
            return Solution(model=model.name, status="time_limit", objective=None, x=None,
                            solve_time=0.0)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(cems.scenarios, "solve_model", lp_runs_out_of_time)
    result = run_scenario("prosumer", cfg)
    assert (result.solve_path, result.fallback_reason) == (MILP_FALLBACK, "lp_time_limit")
    assert result.per_home_objective["a"] == solve_model(build_home_model(cfg, "a")).objective
    assert result.feasibility.ok
    _assert_rows_come_from(result, cfg, milp_home="a")


def _assert_rows_come_from(result, cfg, milp_home):
    """Each row of the step's schedule, byte for byte: ``milp_home``'s is
    its MILP solution as extracted, binaries included; every other home's
    is its certified LP solution, with binaries set from its flows."""
    solved = {s.model: s for s in result.solves}
    assert result.schedule.homes == tuple(h.id for h in cfg.homes)
    for row, home in enumerate(cfg.homes):
        solution = solved[f"home_{home.id}" if home.id == milp_home else f"home_{home.id}_relaxed"]
        expected = extract_schedule(solution, build_home_model(cfg, home.id, lp=home.id != milp_home), cfg)
        arrays = {role: getattr(expected, role) for role in SCHEDULE_ROLES}
        if home.id != milp_home:
            arrays["mode_home"] = (expected.com_buy > expected.com_sell).astype(float)
            arrays["mode_ess"] = (expected.res_charge + expected.com_charge
                                  > expected.ess_load + expected.ess_sell).astype(float)
        for role, values in arrays.items():
            assert getattr(result.schedule, role)[row].tobytes() == values[0].tobytes(), (home.id, role)
    assert result.schedule.community_net.tobytes() == np.sum(result.schedule.net, axis=0).tobytes()


def test_system_run_matches_the_milp_on_the_random_sweep():
    # the sweep of acceptance criterion 1, run through the scenario pipeline
    rng = np.random.default_rng(42)
    for _ in range(100):
        cfg = random_small_config(rng)
        milp = solve_model(build_system_centric_model(cfg))
        result = run_scenario("system", cfg)
        assert result.solve_path == LP_CERTIFIED
        assert abs(result.objective - milp.objective) <= 1e-6 * (1.0 + abs(milp.objective))
        assert result.feasibility.ok and result.feasibility.cost_matches_solver


def tight_band(seed, peak):
    """Full sun under a narrow pool band: PV surplus the pooled model may
    not be able to export, the case where the LP is not always exact."""
    cfg = random_small_config(np.random.default_rng(seed))
    return dataclasses.replace(cfg, community_peak=peak, ghi=[1.0] * cfg.horizon_slots)


@st.composite
def community_configs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return tight_band(seed, draw(st.floats(0.5, 3.0)))
    return random_small_config(np.random.default_rng(seed))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=community_configs())
@example(cfg=tight_band(117, 1.0))  # the LP burns energy, the MILP is feasible
@example(cfg=burning_config())  # the LP burns energy, the MILP is infeasible
def test_lp_first_cost_equals_the_milp_cost(cfg):
    milp = solve_model(build_system_centric_model(cfg))
    if milp.x is None:
        with pytest.raises(SolverError):
            run_scenario("system", cfg)
        return
    result = run_scenario("system", cfg)
    assert abs(result.objective - milp.objective) <= 1e-6 * (1.0 + abs(milp.objective))
    assert result.feasibility.ok and result.feasibility.cost_matches_solver
    selfish = run_scenario("none", cfg)
    for home in cfg.homes:
        exact = solve_model(build_home_model(cfg, home.id)).objective
        assert selfish.per_home_objective[home.id] == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_unknown_kind_rejected_before_any_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="cooperative"):
        run_scenarios(small_der_config(), ("system", "cooperative"))
    assert calls == []


def test_solver_is_deterministic():
    cfg = small_der_config()
    a = run_scenario("system", cfg)
    b = run_scenario("system", cfg)
    assert a.objective == b.objective
    assert a.schedule.homes == b.schedule.homes
    np.testing.assert_array_equal(a.schedule.com_buy, b.schedule.com_buy)
    np.testing.assert_array_equal(a.schedule.ess_level, b.schedule.ess_level)


# -- selfish chains: each home's LP warm-started from its predecessor's basis --

def _run_with_starts(monkeypatch, cfg, pick_start):
    """The selfish stage with each LP's start replaced by ``pick_start(start)``."""
    real = cems.scenarios.solve_model

    def solve(model, options=None, start=None):
        return real(model, options, start=pick_start(start))

    with monkeypatch.context() as patch:
        patch.setattr(cems.scenarios, "solve_model", solve)
        return run_scenarios(cfg, ("prosumer", "none"))


def _assert_matches(chained, cold, atol):
    for a, b in zip(chained, cold):
        assert a.community_cost == b.community_cost
        assert (a.solve_path, a.fallback_reason) == (b.solve_path, b.fallback_reason)
        assert a.feasibility.ok and b.feasibility.ok
        for ours, theirs in ((a.feasibility.violations, b.feasibility.violations),
                             (a.feasibility.warnings, b.feasibility.warnings)):
            assert [(v.family, v.home, v.slot) for v in ours] == [(v.family, v.home, v.slot) for v in theirs]
        for hid, objective in b.per_home_objective.items():
            assert a.per_home_objective[hid] == pytest.approx(objective, rel=1e-9, abs=0.0)
        assert a.schedule.homes == b.schedule.homes
        for role in SCHEDULE_ROLES:
            np.testing.assert_allclose(getattr(a.schedule, role), getattr(b.schedule, role),
                                       rtol=0.0, atol=atol, err_msg=role)


def test_selfish_chains_match_cold_solves(forty_homes, monkeypatch):
    cfg = forty_homes
    chained = run_scenarios(cfg, ("prosumer", "none"))
    # only the first home of each DER mix starts cold
    seen: set[str] = set()
    expected = []
    for home in cfg.homes:
        expected.append(home.archetype in seen)
        seen.add(home.archetype)
    assert [s.warm_start for s in chained[0].solves] == expected
    for home in cfg.homes:
        alone = solve_model(build_home_model(cfg, home.id, lp=True))
        assert chained[0].per_home_objective[home.id] == pytest.approx(alone.objective, rel=1e-9, abs=0.0)

    cold = _run_with_starts(monkeypatch, cfg, lambda start: None)
    assert not any(s.warm_start for s in cold[0].solves)
    _assert_matches(chained, cold, atol=1e-12)
    assert (sum(s.simplex_iterations for s in chained[0].solves)
            < sum(s.simplex_iterations for s in cold[0].solves))


def test_a_failed_lp_keeps_its_mix_on_the_last_optimal_basis(forty_homes, monkeypatch):
    cfg = forty_homes
    mix = [i for i, home in enumerate(cfg.homes) if home.archetype == cfg.homes[0].archetype]
    # a mid-mix home, with homes of other mixes between its mix neighbours
    before, failed, after = next((a, b, c) for a, b, c in zip(mix, mix[1:], mix[2:]) if c - a > 2)
    lp_name = {i: f"home_{cfg.homes[i].id}_relaxed" for i in range(len(cfg.homes))}
    real = cems.scenarios.solve_model
    starts, solutions = {}, {}

    def solve(model, options=None, start=None):
        if model.name == lp_name[failed]:
            solution = Solution(model=model.name, status="time_limit", objective=None, x=None,
                                solve_time=0.0)
        else:
            solution = real(model, options, start=start)
        starts[model.name], solutions[model.name] = start, solution
        return solution

    monkeypatch.setattr(cems.scenarios, "solve_model", solve)
    result = run_scenario("prosumer", cfg)
    assert (result.solve_path, result.fallback_reason) == (MILP_FALLBACK, "lp_time_limit")
    basis = solutions[lp_name[before]].basis
    assert basis is not None
    assert starts[lp_name[failed]] is basis
    assert starts[lp_name[after]] is basis
    between = [i for i in range(before + 1, after) if i != failed]
    assert between and all(cfg.homes[i].archetype != cfg.homes[before].archetype for i in between)
    assert all(solutions[lp_name[i]].basis is not None for i in between)


def test_rejected_start_runs_cold(forty_homes, monkeypatch):
    cfg = forty_homes
    # a two-slot home's basis fits none of the day's 24-slot models
    tiny = make_community([make_home("x", 2)], [1.0, 2.0])
    misfit = solve_model(build_home_model(tiny, "x", lp=True)).basis
    assert misfit is not None

    model = build_home_model(cfg, cfg.homes[0].id, lp=True)
    cold, started = solve_model(model), solve_model(model, start=misfit)
    assert (started.status, started.warm_start) == ("optimal", False)
    assert started.objective == cold.objective
    np.testing.assert_array_equal(started.x, cold.x)
    assert started.simplex_iterations == cold.simplex_iterations

    rejected = _run_with_starts(monkeypatch, cfg, lambda start: None if start is None else misfit)
    assert not any(s.warm_start for s in rejected[0].solves)
    _assert_matches(rejected, _run_with_starts(monkeypatch, cfg, lambda start: None), atol=0.0)


def test_milp_ignores_a_start(forty_homes):
    cfg = forty_homes
    model = build_home_model(cfg, cfg.homes[0].id)
    start = solve_model(build_home_model(cfg, cfg.homes[0].id, lp=True)).basis
    cold, started = solve_model(model), solve_model(model, start=start)
    assert (started.warm_start, started.basis, cold.basis) == (False, None, None)
    assert started.objective == cold.objective
    np.testing.assert_array_equal(started.x, cold.x)


# -- comparison -------------------------------------------------------------

def test_compare_contents(replication, system_result, prosumer_result,
                          no_cems_result):
    report = compare([system_result, prosumer_result, no_cems_result])
    assert report.scenarios == ("system", "prosumer", "none")
    assert set(report.community_cost) == {"system", "prosumer", "none"}
    for kind in report.scenarios:
        assert set(report.per_home_cost[kind]) == {h.id for h in replication.homes}
        assert report.ep_demand[kind].shape == (24,)
        assert np.all(report.ep_demand[kind] >= 0.0)
        assert np.all(report.ep_sales[kind] >= 0.0)
        # a slot is either import or export, never both
        assert np.all(np.minimum(report.ep_demand[kind], report.ep_sales[kind])
                      <= 1e-9)


def test_compare_rejects_mixed_configs(system_result):
    other_cfg = dataclasses.replace(replication_config(), alpha=0.7)
    other = run_scenario("none", other_cfg)
    with pytest.raises(ValueError):
        compare([system_result, other])
    with pytest.raises(ValueError):
        compare([])


def test_comparison_serialization(system_result, prosumer_result, no_cems_result):
    report = compare([system_result, prosumer_result, no_cems_result])
    d = comparison_to_dict(report)
    assert d["scenarios"] == ["system", "prosumer", "none"]
    assert len(d["ep_demand"]["system"]) == 24

    buf = io.StringIO()
    comparison_to_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "scenario,community_cost"
    assert len(lines) == 4

    buf = io.StringIO()
    comparison_homes_to_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "scenario,home,cost"
    assert len(lines) == 1 + 3 * 10

    buf = io.StringIO()
    comparison_slots_to_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "scenario,slot,ep_demand,ep_sales"
    assert len(lines) == 1 + 3 * 24


# -- scaling benchmark ------------------------------------------------------

@pytest.fixture(scope="module")
def bench_small(replication):
    return bench_scaling([10, 20, 30], seed=3, template=replication,
                         options=SolverOptions(relative_mip_gap=1e-2))


def test_bench_rows(bench_small):
    assert bench_small.sizes == (10, 20, 30)
    assert bench_small.seed == 3
    r10, r20, r30 = bench_small.rows
    assert (r10.n_homes, r20.n_homes, r30.n_homes) == (10, 20, 30)
    assert all(r.status == "optimal" for r in bench_small.rows)
    assert r30.objective > r20.objective > r10.objective > 0.0
    assert r10.n_binaries == 384


def test_bench_model_dimensions_scale_linearly(bench_small):
    # equal archetype mix at multiples of ten, so equal per-home increments
    r10, r20, r30 = bench_small.rows
    for field in ("n_variables", "n_constraints", "n_binaries"):
        v10, v20, v30 = (getattr(r, field) for r in bench_small.rows)
        assert v30 - v20 == v20 - v10


def test_bench_records_a_failing_size_and_goes_on():
    # a one-home day of the burning template has no feasible schedule
    report = bench_scaling([1, 2], 1, burning_config())
    failed, after = report.rows
    assert (failed.n_homes, failed.status, failed.objective) == (1, "infeasible", None)
    assert failed.solve_path == MILP_FALLBACK
    assert after.n_homes == 2
    buf = io.StringIO()
    bench_to_csv(report, buf)
    assert buf.getvalue().splitlines()[1].startswith("1,infeasible,,")


def test_bench_serialization(bench_small):
    buf = io.StringIO()
    bench_to_csv(bench_small, buf)
    text = buf.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "n_homes,status,objective,variables,constraints,binaries"
    assert "time" not in text  # wall times stay out of the deterministic report

    buf = io.StringIO()
    bench_timings_to_csv(bench_small, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n_homes,build_time_s,solve_time_s,solve_path"
    assert len(lines) == 4
    assert [line.split(",")[-1] for line in lines[1:]] == ["lp-certified"] * 3

    d = bench_to_dict(bench_small)
    assert d["sizes"] == [10, 20, 30]
    assert [r["n_homes"] for r in d["rows"]] == [10, 20, 30]
