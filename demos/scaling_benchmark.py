"""Benchmark the pooled MILP as the community grows.

Communities are generated from the bundled 10-home template by cycling its
archetypes with jittered loads, so model dimensions grow linearly in the
home count.  Each model is solved LP first; the path column says whether
the LP was certified optimal or the exact MILP ran.

Usage: python3 demos/scaling_benchmark.py [--sizes 10,50,100] [--gap 1e-3]
"""
import argparse
import math

from cems import SolverOptions, bench_scaling, replication_config


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10,50,100",
                    help="comma-separated home counts")
    ap.add_argument("--gap", type=float, default=1e-3, help="relative MIP gap")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        ap.error(f"--sizes must be comma-separated home counts >= 1, got {args.sizes!r}")
    if args.seed < 0:
        ap.error(f"--seed must be an integer >= 0, got {args.seed}")
    if not (math.isfinite(args.gap) and args.gap >= 0):
        ap.error(f"--gap must be a finite number >= 0, got {args.gap}")

    template = replication_config()
    report = bench_scaling(sizes, args.seed, template,
                           SolverOptions(relative_mip_gap=args.gap))

    print(f"{'homes':>6} {'vars':>8} {'rows':>8} {'binaries':>9} "
          f"{'build s':>8} {'solve s':>8} {'status':>9} {'objective':>12} {'path':>13}")
    for r in report.rows:
        obj = "-" if r.objective is None else f"{r.objective:.2f}"
        print(f"{r.n_homes:>6} {r.n_variables:>8} {r.n_constraints:>8} "
              f"{r.n_binaries:>9} {r.build_time:>8.2f} {r.solve_time:>8.2f} "
              f"{r.status:>9} {obj:>12} {r.solve_path or '-':>13}")

    if len(report.rows) >= 2:
        a, b = report.rows[0], report.rows[-1]
        dv = (b.n_variables - a.n_variables) / (b.n_homes - a.n_homes)
        print(f"\nmodel growth: {dv:.1f} variables per extra home (linear)")


if __name__ == "__main__":
    main()
