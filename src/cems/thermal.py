"""Building thermal response and PV production.

The indoor temperature of a home follows a first-order lag driven by the
outdoor temperature and the HVAC heat input.  All functions here are pure.
The feasibility checker simulates temperatures here, while the MILP
builders write the same update as one linear row per slot.  PV energy is
computed only by :func:`pv_output_energy`, for the builders and the checker.
"""
from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .domain import HvacParams


def simulate_indoor_trajectory(
    t_in_initial: float, t_out: Sequence[float], p: Sequence[float], params: "HvacParams"
) -> np.ndarray:
    """Indoor temperatures over a day of outdoor temperatures ``t_out`` and
    HVAC powers ``p`` (kW), per-slot series of equal length T.

    Each slot's temperature is a convex combination of the previous one and
    the outdoor temperature shifted by the heat the HVAC injects: ``eps *
    t_in + (1 - eps) * (t_out + eta * p / a)``.  Returns the T + 1 slot
    boundaries; entry 0 is ``t_in_initial``.  A power outside ``[0,
    p_max]`` raises; a NaN power makes every later temperature NaN.
    """
    t_out = np.asarray(t_out, dtype=float)
    p = np.asarray(p, dtype=float)
    if t_out.shape != p.shape or t_out.ndim != 1:
        raise ValueError("t_out and p must be 1-d series of the same length")
    outside = (p < 0.0) | (p > params.p_max + 1e-12)
    if outside.any():
        raise ValueError(f"HVAC power {p[outside][0]} outside [0, {params.p_max}]")
    return indoor_temperatures(
        [t_in_initial], t_out, p[None, :], [params.epsilon], [params.eta_hvac], [params.conductivity_a]
    )[0]


def indoor_temperatures(t_in_initial, t_out, p: np.ndarray, epsilon, eta_hvac, conductivity_a) -> np.ndarray:
    """:func:`simulate_indoor_trajectory` for many homes at once, without its
    range check: ``p`` is a (home, slot) matrix of powers, and
    ``t_in_initial`` and each parameter hold one entry per home.  Returns
    the (home, T + 1) slot boundaries, each rounded exactly as one home's
    slot-by-slot update rounds it."""
    def column(values):
        return np.asarray(values, dtype=float).reshape(-1, 1)

    eps = column(epsilon)
    drive = (1.0 - eps) * (np.asarray(t_out, dtype=float) + column(eta_hvac) * p / column(conductivity_a))
    # one row per slot boundary, so each step writes a contiguous row
    temps = np.empty((p.shape[1] + 1, p.shape[0]))
    temps[0] = np.ravel(t_in_initial)
    eps, drive = eps[:, 0], drive.T
    for t in range(p.shape[1]):
        temps[t + 1] = eps * temps[t] + drive[t]
    return temps.T


def pv_output_energy(ghi, panel_area, efficiency, slot_hours):
    """PV energy harvested per slot (kWh) from irradiance ``ghi`` (kW/m^2):
    ``ghi * panel_area * efficiency * slot_hours``, for numbers or for NumPy
    arrays that broadcast (e.g. a day of irradiance against a column of panels)."""
    if np.any(np.less(ghi, 0.0)):
        raise ValueError(f"irradiance must be nonnegative, got {np.min(ghi)}")
    if np.any(np.less(panel_area, 0.0)) or np.any(np.less(efficiency, 0.0)) or slot_hours < 0.0:
        raise ValueError("panel_area, efficiency and slot_hours must be nonnegative")
    return ghi * panel_area * efficiency * slot_hours
