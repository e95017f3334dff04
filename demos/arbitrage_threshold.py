"""Show when home storage starts doing price arbitrage.

A battery that loses energy on the way in and again on the way out only
pays off when the evening/morning price ratio beats 1/eta^2.  Sweep the
ratio for a single home and watch the charge decision flip.

Usage: python3 demos/arbitrage_threshold.py
"""
from cems import (
    CommunityConfig,
    EssParams,
    HomeConfig,
    HvacParams,
    build_system_centric_model,
    extract_schedule,
    solve_model,
)

ETA = 0.9


def two_slot_home(price_ratio: float) -> CommunityConfig:
    hvac = HvacParams(p_max=8.0, epsilon=0.7, eta_hvac=2.5, conductivity_a=0.2,
                      t_min=66.2, t_max=75.2, t_in_initial=70.7)
    ess = EssParams(level_min=0.0, level_max=8.0, level_initial=0.0,
                    charge_rate_max=3.0, discharge_rate_max=3.0, efficiency=ETA)
    home = HomeConfig(id="h", hvac=hvac, ess=ess, pv=None,
                      fixed_load=[1.0, 2.0], peak_limit=15.0)
    return CommunityConfig(
        homes=(home,), horizon_slots=2, slot_hours=1.0,
        buy_price=[2.0, 2.0 * price_ratio], alpha=0.4, community_peak=15.0,
        ghi=[0.0, 0.0], t_out=[70.0, 70.0],
    )


def main():
    threshold = 1.0 / (ETA * ETA)
    print(f"round-trip efficiency eta^2 = {ETA * ETA:.2f}, "
          f"so arbitrage should pay only above ratio {threshold:.4f}\n")
    print(f"{'price ratio':>12} {'charged kWh':>12} {'day cost':>10}  decision")
    for ratio in (1.05, 1.15, 1.20, 1.23, 1.24, 1.30, 1.50, 2.00):
        config = two_slot_home(ratio)
        model = build_system_centric_model(config)
        solution = solve_model(model)
        schedule = extract_schedule(solution, model, config)
        charged = max(float(schedule.com_charge[schedule.homes.index("h"), 0]), 0.0)
        label = "charge early, spend later" if charged > 1e-6 else "sit idle"
        marker = " <- threshold" if abs(ratio - threshold) < 0.01 else ""
        print(f"{ratio:>12.2f} {charged:>12.3f} {solution.objective:>10.3f}"
              f"  {label}{marker}")


if __name__ == "__main__":
    main()
