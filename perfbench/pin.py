"""Regenerate ``references.json``: the pinned figures for the default seed.

    python3 perfbench/pin.py [WORKLOAD ...]

Run from the root of a cems checkout.  For every day in each workload's
cycle at the default seed, the workload's operation runs once, and its
reports must pass the same checks as in a benchmark run (exit code 0, no
checker violation, checker cost equal to the solver objective, complete LP
file).  The community cost (``settlement.json`` ``community_daily_cost``)
or the ``model.lp`` sha256 and size are then recorded.  Pin only from code
whose schedules are known to be right: every later run at the default seed
is judged against these figures.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import bench
    import workloads as wl_mod
    from cems import replication_config

    path = HERE / "references.json"
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    names = argv or list(wl_mod.WORKLOADS)
    template = replication_config()
    work = root / ".perfbench" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = wl_mod.Runner(work)
    for name in names:
        wl = wl_mod.WORKLOADS[name]
        days = {}
        for k in range(wl.cycle):
            seed_day = wl_mod.day_seed(wl_mod.DEFAULT_SEED, k, wl)
            wl_mod.write_day(work / "day.json", wl.homes, seed_day, template)
            result = runner.run(wl.argv(work / "day.json", work / "out"))
            seen, found = wl_mod.problems(wl, result, work / "out", None)
            if found:
                print(f"{name} day {seed_day}: {found}", file=sys.stderr)
                return 1
            keep = ("lp_sha256", "lp_bytes") if wl.reports == wl_mod.LP_REPORTS else ("community_cost",)
            days[str(seed_day)] = {key: seen[key] for key in keep}
            print(f"{name} day {seed_day}: {days[str(seed_day)]} ({result.wall:.2f} s)", flush=True)
        doc["workloads"][name] = {"homes": wl.homes, "days": days}
    doc.update(
        seed=wl_mod.DEFAULT_SEED,
        produced_by="python3 perfbench/pin.py, from the cems source this benchmark was added with",
        environment=bench.environment(),
    )
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
