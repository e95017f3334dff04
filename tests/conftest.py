"""Shared builders and session fixtures.

The solved replication scenarios are session-scoped: several test modules
and most acceptance checks read them, and re-solving the MILP per test
would dominate the suite's runtime.
"""

import numpy as np
import pytest

from cems import (
    CommunityConfig,
    EssParams,
    HomeConfig,
    HvacParams,
    PvParams,
    replication_config,
    run_scenario,
)
from cems.domain import default_peak_limit, default_t_in_initial


def make_hvac(p_max=10.0, epsilon=0.7, eta_hvac=2.5, conductivity_a=0.2,
              t_min=66.2, t_max=75.2, t_in_initial=None):
    if t_in_initial is None:
        t_in_initial = default_t_in_initial(t_min, t_max)
    return HvacParams(p_max=p_max, epsilon=epsilon, eta_hvac=eta_hvac,
                      conductivity_a=conductivity_a, t_min=t_min, t_max=t_max,
                      t_in_initial=t_in_initial)


def make_ess(level_min=0.0, level_max=4.0, level_initial=2.0,
             charge_rate_max=3.0, discharge_rate_max=3.0, efficiency=0.9):
    return EssParams(level_min=level_min, level_max=level_max,
                     level_initial=level_initial, charge_rate_max=charge_rate_max,
                     discharge_rate_max=discharge_rate_max, efficiency=efficiency)


def make_home(home_id, T, hvac=None, ess=None, pv=None, fixed_load=None,
              peak_limit=None, slot_hours=1.0):
    hvac = hvac or make_hvac()
    if fixed_load is None:
        fixed_load = [1.0] * T
    if peak_limit is None:
        peak_limit = default_peak_limit(hvac.p_max, fixed_load, ess, slot_hours)
    return HomeConfig(id=home_id, hvac=hvac, ess=ess, pv=pv,
                      fixed_load=fixed_load, peak_limit=peak_limit)


def make_community(homes, buy_price, ghi=None, t_out=None, alpha=0.8,
                   community_peak=None, slot_hours=1.0, **kw):
    T = len(buy_price)
    if ghi is None:
        ghi = [0.0] * T
    if t_out is None:
        t_out = [70.0] * T
    if community_peak is None:
        community_peak = sum(h.peak_limit for h in homes)
    return CommunityConfig(homes=tuple(homes), horizon_slots=T,
                           slot_hours=slot_hours, buy_price=buy_price,
                           alpha=alpha, community_peak=community_peak,
                           ghi=ghi, t_out=t_out, **kw)


def random_small_config(rng, n_homes=None, T=None):
    """A feasible random community for equivalence sweeps.

    Outdoor temperatures stay below the comfort ceiling and the heater is
    sized to hold the floor, so the comfort band is always reachable.
    """
    if n_homes is None:
        n_homes = int(rng.integers(1, 5))
    if T is None:
        T = int(rng.integers(2, 7))
    homes = []
    for i in range(n_homes):
        hvac = make_hvac(
            p_max=float(rng.uniform(6.0, 12.0)),
            epsilon=float(rng.uniform(0.5, 0.9)),
            eta_hvac=float(rng.uniform(2.0, 3.0)),
            conductivity_a=float(rng.uniform(0.1, 0.4)),
        )
        ess = None
        if rng.random() < 0.5:
            cap = float(rng.uniform(2.0, 8.0))
            lo = float(rng.uniform(0.0, 0.3 * cap))
            ess = make_ess(level_min=lo, level_max=cap,
                           level_initial=float(rng.uniform(lo, cap)),
                           charge_rate_max=float(rng.uniform(1.0, 3.0)),
                           discharge_rate_max=float(rng.uniform(1.0, 3.0)),
                           efficiency=float(rng.uniform(0.8, 0.95)))
        pv = None
        if rng.random() < 0.5:
            pv = PvParams(panel_area=float(rng.uniform(2.0, 15.0)),
                          efficiency=float(rng.uniform(0.15, 0.25)))
        fixed = rng.uniform(0.0, 2.0, T).round(3).tolist()
        homes.append(make_home(f"h{i + 1}", T, hvac=hvac, ess=ess, pv=pv,
                               fixed_load=fixed))
    prices = rng.uniform(0.5, 8.0, T).round(3).tolist()
    ghi = np.clip(rng.uniform(-0.3, 1.0, T), 0.0, None).round(3).tolist()
    t_out = rng.uniform(56.0, 74.0, T).round(2).tolist()
    return make_community(homes, prices, ghi=ghi, t_out=t_out,
                          alpha=float(rng.uniform(0.5, 0.95)))


@pytest.fixture(scope="session")
def replication():
    return replication_config()


@pytest.fixture(scope="session")
def system_result(replication):
    return run_scenario("system", replication)


@pytest.fixture(scope="session")
def prosumer_result(replication):
    return run_scenario("prosumer", replication)


@pytest.fixture(scope="session")
def no_cems_result(replication):
    return run_scenario("none", replication)
