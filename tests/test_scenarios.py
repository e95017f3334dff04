import dataclasses
import io

import numpy as np
import pytest

import cems.scenarios
from cems import (
    SCENARIO_KINDS,
    InfeasibleHomeError,
    bench_scaling,
    compare,
    replication_config,
    run_no_cems,
    run_prosumer_centric,
    run_scenario,
    run_scenarios,
    run_system_centric,
)
from cems.scenarios import (
    bench_timings_to_csv,
    bench_to_csv,
    bench_to_dict,
    comparison_homes_to_csv,
    comparison_slots_to_csv,
    comparison_to_csv,
    comparison_to_dict,
)
from cems.solve import SolverOptions

from conftest import make_community, make_ess, make_home, make_hvac


def small_der_config():
    """3 homes, 6 slots, wide price spread so storage actually moves."""
    from cems import PvParams

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
    sys_r = run_system_centric(cfg)
    pro_r = run_prosumer_centric(cfg)
    non_r = run_no_cems(cfg)
    assert sys_r.community_cost <= pro_r.community_cost + 1e-6
    assert pro_r.community_cost <= non_r.community_cost + 1e-6


def test_stage_one_results_are_shared(prosumer_result, no_cems_result):
    # same selfish solves underneath, only the settlement differs
    assert prosumer_result.per_home_objective == pytest.approx(
        no_cems_result.per_home_objective)
    for hid, hs in prosumer_result.schedule.homes.items():
        np.testing.assert_allclose(hs.net, no_cems_result.schedule.homes[hid].net,
                                   atol=1e-9)


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
        run_prosumer_centric(cfg)
    assert err.value.home_id == "b"
    assert err.value.status == "infeasible"
    with pytest.raises(InfeasibleHomeError):
        run_no_cems(cfg)


def test_parallel_stage_one_matches_serial():
    cfg = small_der_config()
    serial = run_prosumer_centric(cfg, jobs=1)
    parallel = run_prosumer_centric(cfg, jobs=2)
    assert parallel.community_cost == pytest.approx(serial.community_cost, abs=1e-9)
    for hid, hs in serial.schedule.homes.items():
        np.testing.assert_allclose(parallel.schedule.homes[hid].net, hs.net,
                                   atol=1e-9)


def _assert_same_result(a, b):
    assert a.kind == b.kind
    assert a.community_cost == b.community_cost
    assert a.settlement.per_home_daily_cost == b.settlement.per_home_daily_cost
    assert a.settlement.community_daily_cost == b.settlement.community_daily_cost
    assert a.feasibility == b.feasibility
    assert (a.solver_status, a.objective) == (b.solver_status, b.objective)
    assert a.per_home_objective == b.per_home_objective
    np.testing.assert_array_equal(a.schedule.community_net, b.schedule.community_net)
    for name in ("status_flags", "slot_costs"):
        x, y = getattr(a.schedule, name), getattr(b.schedule, name)
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)
    assert list(a.schedule.homes) == list(b.schedule.homes)
    for hid, hs in a.schedule.homes.items():
        for f in dataclasses.fields(hs):
            np.testing.assert_array_equal(getattr(hs, f.name),
                                          getattr(b.schedule.homes[hid], f.name),
                                          err_msg=f"{hid}.{f.name}")


def test_run_scenarios_matches_single_runs(replication, system_result,
                                           prosumer_result, no_cems_result):
    together = run_scenarios(replication)
    assert [r.kind for r in together] == list(SCENARIO_KINDS)
    for joint, alone in zip(together, (system_result, prosumer_result, no_cems_result)):
        _assert_same_result(joint, alone)


def _count_solves(monkeypatch):
    calls = []
    real = cems.scenarios.solve_model

    def counting(model, options=None):
        calls.append(model.name)
        return real(model, options)

    monkeypatch.setattr(cems.scenarios, "solve_model", counting)
    return calls


def test_compare_solves_the_selfish_stage_once(monkeypatch):
    cfg = small_der_config()
    n = len(cfg.homes)
    calls = _count_solves(monkeypatch)
    results = run_scenarios(cfg)
    assert len(calls) == 1 + n
    # prosumer and none settle the very same selfish schedule
    assert results[1].schedule is results[2].schedule
    assert results[1].feasibility is results[2].feasibility

    calls.clear()
    run_scenarios(cfg, ("none", "prosumer"), jobs=2)
    assert len(calls) == n
    calls.clear()
    run_scenario("prosumer", cfg)
    assert len(calls) == n


def test_unknown_kind_rejected_before_any_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="cooperative"):
        run_scenarios(small_der_config(), ("system", "cooperative"))
    assert calls == []


def test_solver_is_deterministic():
    cfg = small_der_config()
    a = run_system_centric(cfg)
    b = run_system_centric(cfg)
    assert a.objective == b.objective
    for hid, hs in a.schedule.homes.items():
        np.testing.assert_array_equal(hs.com_buy, b.schedule.homes[hid].com_buy)
        np.testing.assert_array_equal(hs.ess_level, b.schedule.homes[hid].ess_level)


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
    other = run_no_cems(other_cfg)
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
    assert lines[0] == "n_homes,build_time_s,solve_time_s"
    assert len(lines) == 4

    d = bench_to_dict(bench_small)
    assert d["sizes"] == [10, 20, 30]
    assert [r["n_homes"] for r in d["rows"]] == [10, 20, 30]
