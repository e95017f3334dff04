"""Run the bundled 10-home community through all three operating modes and
print the side-by-side outcome: pooled optimization, selfish homes settled
at the local mid-market rate, and selfish homes billed by the provider only.

Usage: python3 demos/compare_scenarios.py
"""
import numpy as np

from cems import compare, replication_config, run_scenarios


def main():
    config = replication_config()
    print(f"community: {len(config.homes)} homes, {config.horizon_slots} slots, "
          f"sell factor alpha={config.alpha}")
    print("solving: pooled system model + per-home selfish models ...\n")

    # the selfish models are solved once and settled both ways
    results = run_scenarios(config, ("system", "prosumer", "none"))
    report = compare(results)

    labels = {
        "system": "pooled optimization",
        "prosumer": "selfish + local market",
        "none": "selfish, provider only",
    }
    print(f"{'scenario':24} {'daily cost':>12} {'bought kWh':>12} {'sold kWh':>10}")
    for kind in report.scenarios:
        bought = float(report.ep_demand[kind].sum())
        sold = float(report.ep_sales[kind].sum())
        print(f"{labels[kind]:24} {report.community_cost[kind]:>12.2f} "
              f"{bought:>12.1f} {sold:>10.1f}")

    base = report.community_cost["none"]
    pooled = report.community_cost["system"]
    print(f"\npooled scheduling saves {base - pooled:.2f} cents/day "
          f"({100 * (1 - pooled / base):.1f}%) versus no coordination")

    print("\nper-home daily bills (cents):")
    print(f"{'home':8} {'pooled':>10} {'local mkt':>10} {'provider':>10}")
    for home in config.homes:
        row = [report.per_home_cost[k][home.id] for k in ("system", "prosumer", "none")]
        der = "+".join(filter(None, ["pv" if home.pv else "", "ess" if home.ess else ""])) or "bare"
        print(f"{home.id:8} {row[0]:>10.2f} {row[1]:>10.2f} {row[2]:>10.2f}   ({der})")

    sched = results[0].schedule
    peak = float(np.max(np.abs(sched.community_net)))
    print(f"\npooled plan peak exchange: {peak:.1f} kW "
          f"(band {config.community_peak:.0f} kW); "
          f"checker max violation {results[0].feasibility.max_violation:.2e}")


if __name__ == "__main__":
    main()
