"""End-to-end acceptance checks.

One test per release criterion, ordered, each printing a single summary
line on success (run with ``-s`` or ``-rP`` to see them).  Tolerances are
part of the contract and are asserted literally, not loosened.
"""
import dataclasses
import time

import numpy as np
import pytest

from cems import (
    build_system_centric_model,
    check_schedule_feasibility,
    community_cost,
    extract_schedule,
    settle_day,
    solve_model,
)
from cems.scenarios import bench_scaling
from cems.solve import SolverOptions

from conftest import make_community, make_ess, make_home, make_hvac, random_small_config


def _ok(line: str) -> None:
    print(f"[acceptance] PASS: {line}")


def _solve_schedule(cfg):
    model = build_system_centric_model(cfg)
    sol = solve_model(model)
    assert sol.status == "optimal", sol.message
    return sol, extract_schedule(sol, model, cfg)


# -- 1: solver objective equals independently recomputed cost ---------------

def test_01_objective_matches_recomputed_cost_on_random_sweep():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cfg = random_small_config(rng)
        sol, schedule = _solve_schedule(cfg)
        cost = community_cost(schedule, cfg)
        tol = 1e-6 * (1.0 + abs(sol.objective))
        assert abs(sol.objective - cost) <= tol
        worst = max(worst, abs(sol.objective - cost) / tol)
        report = check_schedule_feasibility(schedule, cfg,
                                            reference_objective=sol.objective)
        assert report.ok and report.cost_matches_solver
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(f"criterion 1: 100 random communities, objective == recomputed cost "
        f"within 1e-6 rel (worst {worst:.2e} of budget), {elapsed:.1f}s")


# -- 2: MILP optimum matches brute-force grid search ------------------------

def test_02_milp_matches_brute_force():
    start = time.perf_counter()

    # storage-only day: mild weather, heater idle, battery does the work
    ess = make_ess(level_min=0.0, level_max=4.0, level_initial=2.0,
                   charge_rate_max=3.0, discharge_rate_max=3.0, efficiency=0.9)
    home = make_home("h", 2, ess=ess, fixed_load=[1.0, 2.0])
    cfg = make_community([home], [2.0, 5.0], alpha=0.5)
    sol, _ = _solve_schedule(cfg)

    # family: charge c in slot 1, return to the initial level in slot 2
    eta = 0.9
    c_max = min(3.0, (4.0 - 2.0) / eta)
    c_grid = np.linspace(0.0, c_max, 10_001)
    assert c_grid.size <= 100_000
    d_grid = eta * eta * c_grid  # terminal level pins the discharge
    assert np.all(d_grid <= 2.0 + 1e-12)  # never exports, stays a buyer
    costs = 2.0 * (1.0 + c_grid) + 5.0 * (2.0 - d_grid)
    brute = float(costs.min())
    step = c_grid[1] - c_grid[0]
    resolution = abs(2.0 - 5.0 * eta * eta) * step
    assert sol.objective <= brute + 1e-4
    assert sol.objective >= brute - resolution
    assert sol.objective == pytest.approx(67.0 / 9.0, abs=1e-6)  # by hand

    # heating-only day: cheap preheat against an expensive second slot
    hvac = make_hvac(p_max=12.0)  # eps 0.7, eta 2.5, A 0.2, init 70.7
    home = make_home("h", 2, hvac=hvac, fixed_load=[1.0, 1.0])
    cfg = make_community([home], [2.0, 5.0], t_out=[40.0, 40.0])
    sol2, _ = _solve_schedule(cfg)

    p1, p2 = np.meshgrid(np.linspace(0.0, 12.0, 301), np.linspace(0.0, 12.0, 301),
                         indexing="ij")
    assert p1.size <= 100_000
    t1 = 0.7 * 70.7 + 0.3 * (40.0 + 12.5 * p1)
    t2 = 0.7 * t1 + 0.3 * (40.0 + 12.5 * p2)
    feasible = (t1 >= 66.2) & (t1 <= 75.2) & (t2 >= 66.2) & (t2 <= 75.2)
    grid_costs = 2.0 * (1.0 + p1) + 5.0 * (1.0 + p2)
    brute2 = float(grid_costs[feasible].min())
    # worst case the optimum sits between grid lines in both coordinates
    step2 = 12.0 / 300.0
    resolution2 = (2.0 + 5.0 * (0.7 + 1.0)) * step2
    assert sol2.objective <= brute2 + 1e-4
    assert sol2.objective >= brute2 - resolution2
    analytic = 7.0 + 2.0 * (75.2 - 61.49) / 3.75 + 5.0 * (66.2 - 0.7 * 75.2 - 12.0) / 3.75
    assert sol2.objective == pytest.approx(analytic, abs=1e-6)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(f"criterion 2: MILP within [-{resolution:.1e}, 1e-4] of a 1e4-point "
        f"storage grid and [-{resolution2:.1e}, 1e-4] of a 9e4-point heating "
        f"grid, {elapsed:.1f}s")


# -- 3: scenario cost ordering on the bundled community ---------------------

def test_03_cost_ordering_and_coordination_margin(system_result, prosumer_result,
                                                  no_cems_result):
    c_sys = system_result.community_cost
    c_pro = prosumer_result.community_cost
    c_non = no_cems_result.community_cost
    assert c_sys <= c_pro + 1e-6
    assert c_pro <= c_non + 1e-6
    assert c_sys <= 0.8 * c_pro
    _ok(f"criterion 3: {c_sys:.2f} (system) <= {c_pro:.2f} (prosumer) <= "
        f"{c_non:.2f} (no coordination); margin {c_sys / c_pro:.3f} <= 0.8")


# -- 4: settlement is budget balanced slot by slot --------------------------

def test_04_settlement_budget_balance(replication, system_result):
    alpha = replication.alpha
    for slot in system_result.settlement.slots:
        p = float(replication.buy_price[slot.slot - 1])
        net = slot.net_community
        ep_cost = p * net if net > 0 else alpha * p * net
        total = sum(slot.per_home_cost.values())
        assert abs(total - ep_cost) <= 1e-9 * (1.0 + abs(ep_cost))
    _ok("criterion 4: per-slot sum of home bills equals the external bill "
        "within 1e-9 rel")


# -- 5: local prices sit strictly inside the external band ------------------

def test_05_local_price_dominance(replication, system_result):
    alpha = replication.alpha
    two_sided = 0
    for slot in system_result.settlement.slots:
        p = float(replication.buy_price[slot.slot - 1])
        assert slot.p_local_buy <= p + 1e-12
        assert slot.p_local_sell >= alpha * p - 1e-12
        nets = system_result.schedule.net[:, slot.slot - 1].tolist()
        buys = sum(v for v in nets if v > 1e-9)
        sells = -sum(v for v in nets if v < -1e-9)
        if buys > 1e-9 and sells > 1e-9:
            two_sided += 1
            assert slot.p_local_buy < p
            assert slot.p_local_sell > alpha * p
    assert two_sided > 0  # the bundled day does have internal trade
    _ok(f"criterion 5: local prices within [alpha*P, P] in all 24 slots, "
        f"strictly inside in the {two_sided} slots with trade on both sides")


# -- 6: mid-price policy moves money from buyers to producers ---------------

def test_06_mid_price_policy_monotone_per_home(replication, system_result):
    bills = {}
    for case in ("case1", "case2", "case3"):
        cfg = dataclasses.replace(replication, mid_price_policy=case)
        bills[case] = settle_day(system_result.schedule, cfg).per_home_daily_cost
    pv_homes = [h.id for h in replication.homes if h.pv is not None]
    rest = [h.id for h in replication.homes if h.pv is None]
    assert pv_homes and rest
    for hid in pv_homes:
        assert bills["case2"][hid] <= bills["case1"][hid] + 1e-9
        assert bills["case3"][hid] <= bills["case2"][hid] + 1e-9
    for hid in rest:
        assert bills["case2"][hid] >= bills["case1"][hid] - 1e-9
        assert bills["case3"][hid] >= bills["case2"][hid] - 1e-9
    _ok(f"criterion 6: raising the local rate weakly cheapens all "
        f"{len(pv_homes)} solar homes and weakly charges the other {len(rest)}")


# -- 7: the independent checker accepts every produced schedule -------------

def test_07_checker_accepts_all_scenarios(system_result, prosumer_result,
                                          no_cems_result):
    for result in (system_result, prosumer_result, no_cems_result):
        report = result.feasibility
        assert report.max_violation <= 1e-6, result.kind
        assert not report.violations, result.kind
    _ok("criterion 7: feasibility checker reports max violation <= 1e-6 on "
        "system, prosumer and uncoordinated schedules")


# -- 8: model scales linearly and stays solvable ----------------------------

@pytest.fixture(scope="module")
def bench_result(replication):
    start = time.perf_counter()
    report = bench_scaling([10, 50, 100], seed=1, template=replication,
                           options=SolverOptions(relative_mip_gap=1e-3))
    return report, time.perf_counter() - start


def test_08_scaling_benchmark(bench_result):
    report, elapsed = bench_result
    assert elapsed <= 600.0
    assert [r.status for r in report.rows] == ["optimal"] * 3
    r10, r50, r100 = report.rows
    for field in ("n_variables", "n_constraints", "n_binaries"):
        v10, v50, v100 = (getattr(r, field) for r in report.rows)
        # equal per-home increments, checked in integers: no float slack
        assert (v50 - v10) * 50 == (v100 - v50) * 40, field
    _ok(f"criterion 8: 10/50/100 homes all solved to 1e-3 gap in "
        f"{elapsed:.0f}s; variables {r10.n_variables}/{r50.n_variables}/"
        f"{r100.n_variables} exactly linear")


# -- 9: storage arbitrage switches at the round-trip loss threshold ---------

def test_09_arbitrage_activation_threshold():
    eta = 0.9
    threshold = 1.0 / (eta * eta)
    p1, fix = 2.0, [1.0, 2.0]

    def run(ratio):
        ess = make_ess(level_min=0.0, level_max=8.0, level_initial=0.0,
                       charge_rate_max=3.0, discharge_rate_max=3.0,
                       efficiency=eta)
        home = make_home("h", 2, ess=ess, fixed_load=fix)
        cfg = make_community([home], [p1, p1 * ratio], alpha=0.4)
        sol, schedule = _solve_schedule(cfg)
        assert schedule.homes == ("h",)
        return sol.objective, float(schedule.com_charge[0, 0])

    # probes sit 1% out, far outside the +-1e-3 tolerance band on the flip
    for factor in (0.90, 0.99):
        obj, charged = run(threshold * factor)
        assert charged <= 1e-6, f"charged below threshold at {factor}"
        assert obj == pytest.approx(p1 * fix[0] + p1 * threshold * factor * fix[1],
                                    abs=1e-6)
    for factor in (1.01, 1.10):
        obj, charged = run(threshold * factor)
        assert charged > 1e-6, f"idle above threshold at {factor}"
        assert charged == pytest.approx(fix[1] / (eta * eta), abs=1e-6)
        assert obj == pytest.approx(p1 * fix[0] + p1 * fix[1] / (eta * eta),
                                    abs=1e-6)
    _ok(f"criterion 9: two-slot arbitrage idle at 0.99x and active at 1.01x "
        f"of the 1/eta^2 threshold ({threshold:.4f})")
