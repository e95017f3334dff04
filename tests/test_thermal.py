import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cems import pv_output_energy, simulate_indoor_trajectory
from cems.thermal import indoor_temperatures

from conftest import make_hvac


def _step(t_in, t_out, p, params):
    """One slot of the indoor update, as a one-slot trajectory."""
    return simulate_indoor_trajectory(t_in, [t_out], [p], params)[1]


def test_next_temperature_hand_value():
    # 0.7*70 + 0.3*(60 + 2.5*2/0.2) = 49 + 0.3*85 = 74.5
    params = make_hvac(p_max=10.0, epsilon=0.7, eta_hvac=2.5, conductivity_a=0.2)
    t = _step(70.0, 60.0, 2.0, params)
    assert t == pytest.approx(74.5, abs=1e-12)


def test_no_heat_and_equal_temperatures_is_fixed_point():
    params = make_hvac()
    assert _step(68.0, 68.0, 0.0, params) == pytest.approx(68.0)


def test_converges_to_steady_state():
    params = make_hvac(epsilon=0.8, eta_hvac=2.0, conductivity_a=0.25)
    steady = 60.0 + 2.0 * 1.5 / 0.25
    t = 50.0
    for _ in range(200):
        t = _step(t, 60.0, 1.5, params)
    assert t == pytest.approx(steady, abs=1e-9)


def test_power_out_of_range_rejected():
    params = make_hvac(p_max=5.0)
    with pytest.raises(ValueError, match=r"HVAC power -0.1 outside \[0, 5.0\]"):
        _step(70.0, 60.0, -0.1, params)
    with pytest.raises(ValueError, match=r"HVAC power 5.1 outside \[0, 5.0\]"):
        _step(70.0, 60.0, 5.1, params)
    # a series is checked as a whole, naming its first power out of range
    with pytest.raises(ValueError, match=r"HVAC power 6.0 outside \[0, 5.0\]"):
        simulate_indoor_trajectory(70.0, [60.0] * 3, [1.0, 6.0, -1.0], params)


def test_trajectory_shapes_and_energy():
    params = make_hvac(epsilon=0.7, eta_hvac=2.5, conductivity_a=0.2)
    p = np.array([1.0, 0.5, 0.0, 2.0])
    temps = simulate_indoor_trajectory(70.0, [60.0] * 4, p, params)
    assert temps.shape == (5,)
    assert temps[0] == 70.0
    # each slot's HVAC energy adds (1 - eps) * eta * p / a, decaying by eps a slot
    idle = simulate_indoor_trajectory(70.0, [60.0] * 4, np.zeros(4), params)
    gain = 0.3 * 2.5 * p / 0.2
    expected = [sum(gain[k] * 0.7 ** (t - 1 - k) for k in range(t)) for t in range(5)]
    np.testing.assert_allclose(temps - idle, expected, atol=1e-12)
    with pytest.raises(ValueError, match="same length"):
        simulate_indoor_trajectory(70.0, [60.0] * 4, [1.0, 0.5], params)


def test_trajectory_matches_stepwise_recursion():
    params = make_hvac(epsilon=0.64, conductivity_a=0.31)
    t_out = [58.0, 61.0, 64.0]
    p = [2.0, 0.0, 1.2]
    temps = simulate_indoor_trajectory(69.0, t_out, p, params)
    t = 69.0
    for k in range(3):
        t = _step(t, t_out[k], p[k], params)
        assert temps[k + 1] == t


def test_many_homes_round_as_the_slot_loop():
    """Each home's row equals the one-home update ``eps * t + d`` run slot
    by slot in Python floats, bit for bit."""
    rng = np.random.default_rng(5)
    n, T = 7, 24
    t_out = rng.uniform(30.0, 80.0, T)
    p = rng.uniform(0.0, 6.0, (n, T)) * (rng.random((n, T)) < 0.7)
    t0, eps = rng.uniform(60.0, 75.0, n), rng.uniform(0.5, 0.95, n)
    eta, a = rng.uniform(1.5, 3.0, n), rng.uniform(0.1, 0.4, n)
    temps = indoor_temperatures(t0, t_out, p, eps, eta, a)
    assert temps.shape == (n, T + 1)
    for i, (start, e, h, c, powers) in enumerate(zip(t0.tolist(), eps.tolist(), eta.tolist(),
                                                     a.tolist(), p.tolist())):
        expected = [start]
        for outdoor, power in zip(t_out.tolist(), powers):
            expected.append(e * expected[-1] + (1.0 - e) * (outdoor + h * power / c))
        assert temps[i].tolist() == expected


@given(
    p_lo=st.floats(0.0, 5.0),
    extra=st.floats(0.01, 5.0),
    t_in=st.floats(40.0, 90.0),
    t_out=st.floats(30.0, 80.0),
)
def test_more_power_is_never_colder(p_lo, extra, t_in, t_out):
    params = make_hvac(p_max=20.0)
    cold = _step(t_in, t_out, p_lo, params)
    warm = _step(t_in, t_out, p_lo + extra, params)
    assert warm > cold


def test_pv_output_energy():
    assert pv_output_energy(0.8, 10.0, 0.2, 1.0) == pytest.approx(1.6)
    assert pv_output_energy(0.8, 10.0, 0.2, 0.5) == pytest.approx(0.8)
    assert pv_output_energy(0.0, 10.0, 0.2, 1.0) == 0.0
    with pytest.raises(ValueError):
        pv_output_energy(-0.1, 10.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        pv_output_energy(0.5, -1.0, 0.2, 1.0)


def test_pv_output_energy_on_arrays_matches_each_slot():
    ghi = np.array([0.0, 0.02, 0.26, 0.95, 1.0])
    area = np.array([[20.0], [10.0], [7.3]])
    eff = np.array([[0.2], [0.19], [0.23]])
    table = pv_output_energy(ghi, area, eff, 0.5)
    for i in range(3):
        for t in range(5):
            assert table[i, t] == pv_output_energy(float(ghi[t]), float(area[i, 0]), float(eff[i, 0]), 0.5)
    with pytest.raises(ValueError):
        pv_output_energy(np.array([0.3, -0.1]), 10.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        pv_output_energy(ghi, area - 10.0, eff, 1.0)
