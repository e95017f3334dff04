"""Benchmark the pooled MILP as the community grows.

Communities of 10, 50 and 100 homes are generated at seed 1 from the
bundled 10-home template by cycling its archetypes with jittered loads, so
model dimensions grow linearly in the home count.  Each model is solved LP
first, at a relative MIP gap of 1e-3 for a fallback; the path column says
whether the LP was certified optimal or the exact MILP ran.  ``cems bench``
runs the same benchmark with the sizes, seed and gap as flags.

Usage: python3 demos/scaling_benchmark.py
"""
from cems import SolverOptions, bench_scaling, replication_config

SIZES = (10, 50, 100)
SEED = 1
GAP = 1e-3


def main():
    report = bench_scaling(SIZES, SEED, replication_config(), SolverOptions(relative_mip_gap=GAP))

    print(f"{'homes':>6} {'vars':>8} {'rows':>8} {'binaries':>9} "
          f"{'build s':>8} {'solve s':>8} {'status':>9} {'objective':>12} {'path':>13}")
    for r in report.rows:
        obj = "-" if r.objective is None else f"{r.objective:.2f}"
        print(f"{r.n_homes:>6} {r.n_variables:>8} {r.n_constraints:>8} "
              f"{r.n_binaries:>9} {r.build_time:>8.2f} {r.solve_time:>8.2f} "
              f"{r.status:>9} {obj:>12} {r.solve_path or '-':>13}")

    a, b = report.rows[0], report.rows[-1]
    dv = (b.n_variables - a.n_variables) / (b.n_homes - a.n_homes)
    print(f"\nmodel growth: {dv:.1f} variables per extra home (linear)")


if __name__ == "__main__":
    main()
