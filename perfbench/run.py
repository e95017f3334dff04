"""Benchmark entry point.

    python3 perfbench/run.py --workload pooled-day --seed 1 --seconds 30 --trace 0

Run from the root of a cems checkout; the program is imported from its
``src/``.  A closed loop with one client: the next day starts only after the
previous operation and its checks have ended.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` every day is
run untraced and then traced, the two sets of reports must be
byte-identical, and the last line carries the per-layer metrics.  Working
files go to ``.perfbench/<workload>/`` in the checkout.
"""
from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "cems" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/cems; run from the root of a cems checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    bench = importlib.import_module("bench")
    return bench.run(args, root)


if __name__ == "__main__":
    sys.exit(main())
