"""Command line front end.

Subcommands: ``validate``, ``solve``, ``compare``, ``settle``, ``bench``,
``export-lp``.  Exit codes: 0 success, 1 invalid input (config, flags or
schedule), 2 solver failure, 3 I/O failure.

Report files are written atomically (temp file, then rename) and are
byte-identical across repeated runs on the same inputs; wall-clock timings
and the solve path go to a separate ``timings.json`` / ``bench_timings.csv``
so they never perturb the deterministic outputs.  Stdout carries only the
summary lines: whatever the solver's native code prints while ``solve``,
``compare`` or ``bench`` compute goes to stderr.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .domain import (
    MID_PRICE_CASES,
    CommunityConfig,
    ConfigError,
    InvalidConfigError,
    ValidationReport,
    load_community_config,
    validate_config,
)
from .milp import ModelBuildError, build_home_model, build_system_centric_model, write_lp
from .scenarios import (
    SCENARIO_KINDS,
    InfeasibleHomeError,
    ScenarioResult,
    bench_scaling,
    bench_timings_to_csv,
    bench_to_csv,
    bench_to_dict,
    compare,
    comparison_homes_to_csv,
    comparison_slots_to_csv,
    comparison_to_csv,
    comparison_to_dict,
    run_scenario,
    run_scenarios,
)
from .solve import (
    FeasibilityReport,
    SolverError,
    SolverOptions,
    schedule_from_dict,
    schedule_to_dict,
)
from .trading import settlement_to_csv, settlement_to_dict, settle_day


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # invalid flags are an input problem: report them under exit code 1
    def error(self, message):
        raise _UsageError(message)


def _checked(convert, ok, rule: str):
    """Argument type that converts a flag value and rejects it unless
    ``ok(value)``; argparse prefixes the message with the flag name."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_GAP = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_TIME_LIMIT = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_JOBS = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cems", description="Day-ahead community energy scheduling")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="community config file")
        p.add_argument("--format", choices=("json", "csv-bundle"), default="json",
                       help="config file format (default json)")
        return p

    def solver_flags(p: argparse.ArgumentParser):
        p.add_argument("--gap", type=_GAP, default=None, help="relative MIP gap, for a MILP fallback")
        p.add_argument("--time-limit", type=_TIME_LIMIT, default=None, help="solver time limit, seconds")
        p.add_argument("--jobs", type=_JOBS, default=1,
                       help="accepted for compatibility and ignored; the solves run in one pass")

    def override_flags(p: argparse.ArgumentParser):
        p.add_argument("--alpha", type=float, default=None, help="override sell price factor")
        p.add_argument("--pmid", choices=MID_PRICE_CASES, default=None, help="override mid price policy")

    p = add("validate", "check a config and report every problem")
    p.set_defaults(func=_cmd_validate)

    p = add("solve", "schedule one scenario and write schedule/settlement/feasibility reports")
    p.add_argument("--scenario", choices=SCENARIO_KINDS, default="system")
    override_flags(p)
    solver_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_solve)

    p = add("compare", "run all three scenarios and tabulate them")
    override_flags(p)
    solver_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_compare)

    p = add("settle", "re-settle an existing schedule at the mid-market rate")
    p.add_argument("--schedule", required=True, help="schedule.json written by solve")
    override_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_settle)

    p = add("bench", "scaling benchmark over synthetic communities")
    p.add_argument("--sizes", default="10,50,100", help="comma-separated home counts")
    p.add_argument("--seed", type=_SEED, default=1, help="synthetic community seed (default 1)")
    p.add_argument("--gap", type=_GAP, default=1e-3, help="relative MIP gap, for a MILP fallback")
    p.add_argument("--time-limit", type=_TIME_LIMIT, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_bench)

    p = add("export-lp", "write a model in LP text format for an external solver")
    p.add_argument("--scenario", choices=("system", "prosumer"), default="system")
    p.add_argument("--home", default=None, help="home id (required with --scenario prosumer)")
    override_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_export_lp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidConfigError as exc:
        _print_report(exc.report)
        return 1
    except ConfigError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except ModelBuildError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (SolverError, InfeasibleHomeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


# ---------------------------------------------------------------------------
# helpers


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _load_config(args) -> CommunityConfig:
    config = load_community_config(_read_bytes(args.config), args.format)
    return _apply_overrides(config, args)


def _apply_overrides(config: CommunityConfig, args) -> CommunityConfig:
    changes = {}
    if getattr(args, "alpha", None) is not None:
        changes["alpha"] = args.alpha
    if getattr(args, "pmid", None) is not None:
        changes["mid_price_policy"] = args.pmid
    if not changes:
        return config
    config = replace(config, **changes)
    report = validate_config(config)
    if report.errors:
        raise InvalidConfigError(report)
    return config


def _c_fflush():
    """Flush every C stdio stream, so native output buffered for fd 1 is
    written before fd 1 is moved.  A no-op where libc cannot be loaded."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    libc.fflush.argtypes = [ctypes.c_void_p]
    libc.fflush.restype = ctypes.c_int
    libc.fflush(None)


@contextmanager
def _native_stdout_to_stderr():
    """Point fd 1 at fd 2 for the duration.

    HiGHS can print to the process's stdout below Python even with its own
    display off, so fd 1 is redirected once around a subcommand's
    computation rather than per solve.
    """
    sys.stdout.flush()
    _c_fflush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        _c_fflush()
        os.dup2(saved, 1)
        os.close(saved)


def _options(args) -> SolverOptions:
    kwargs = {}
    if getattr(args, "gap", None) is not None:
        kwargs["relative_mip_gap"] = args.gap
    if getattr(args, "time_limit", None) is not None:
        kwargs["time_limit"] = args.time_limit
    return SolverOptions(**kwargs)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_atomic(path: Path, write) -> None:
    """Write a file through a temp file: ``write(stream)`` writes the text
    into the temp file, opened as UTF-8 whatever the locale, which then
    replaces ``path``.  A writer that raises leaves ``path`` as it was."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as stream:
            write(stream)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _json_text(doc) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)``.

    Strings, ints, finite floats, ``True``, ``False`` and ``None`` are
    written with the functions and tokens ``json.dumps`` uses for them, and
    a list, or a dict with string keys, whose values are all finite floats
    in one join of ``float.__repr__``.  Any other value, such as a NaN or an
    int subclass, goes through ``json.dumps`` itself.  The pieces are
    joined once, at the end, so no level of nesting copies the text of the
    levels below it."""
    out: list[str] = []
    _json_chunks(doc, "\n", out)
    return "".join(out)


_JSON_TOKENS = {None: "null", True: "true", False: "false"}


def _json_chunks(doc, newline: str, out: list[str]) -> None:
    """Append the text of ``doc`` to ``out``, its later lines indented as
    ``newline`` indents."""
    inner = newline + "  "
    sep = "," + inner
    if isinstance(doc, (list, tuple)) and doc:
        out.append("[" + inner)
        floats = _floats_text(doc, sep)
        if floats is not None:
            out.append(floats)
        else:
            for i, value in enumerate(doc):
                if i:
                    out.append(sep)
                _json_chunks(value, inner, out)
        out.append(newline + "]")
    elif isinstance(doc, dict) and doc and all(type(key) is str for key in doc):
        keys = sorted(doc)
        values = [doc[key] for key in keys]
        names = [json.encoder.encode_basestring_ascii(key) + ": " for key in keys]
        out.append("{" + inner)
        # a float's repr holds no newline, so the joined values split back apart
        floats = _floats_text(values, "\n")
        if floats is not None:
            out.append(sep.join(map(str.__add__, names, floats.split("\n"))))
        else:
            for i, (name, value) in enumerate(zip(names, values)):
                out.append(sep + name if i else name)
                _json_chunks(value, inner, out)
        out.append(newline + "}")
    elif doc is None or doc is True or doc is False:
        out.append(_JSON_TOKENS[doc])
    elif type(doc) is str:
        out.append(json.encoder.encode_basestring_ascii(doc))
    elif type(doc) is int:
        out.append(int.__repr__(doc))
    elif type(doc) is float and math.isfinite(doc):
        out.append(float.__repr__(doc))
    else:
        # json.dumps never writes a raw newline inside a string, so
        # re-indenting its text line by line keeps it exact
        out.append(json.dumps(doc, indent=2, sort_keys=True).replace("\n", newline))


def _floats_text(values, sep: str) -> str | None:
    """``values`` written by ``float.__repr__``, the form ``json.dumps``
    gives a finite float, and joined by ``sep``; None unless every value is
    a finite float."""
    try:
        text = sep.join(map(float.__repr__, values))
    except TypeError:  # a value that is not a float
        return None
    # a finite float's repr holds no "n"; "nan", "inf" and "-inf" do
    return None if "n" in text else text


def _write_json(path: Path, doc) -> None:
    _write_atomic(path, lambda stream: stream.write(_json_text(doc) + "\n"))


def _write_csv(path: Path, writer_fn, report) -> None:
    _write_atomic(path, functools.partial(writer_fn, report))


def _feasibility_to_dict(report: FeasibilityReport) -> dict:
    return asdict(report)


def _timings(result: ScenarioResult) -> dict:
    """Wall times, the solve path and what each backend call reported, for
    ``timings.json``.  A dual bound that is not finite is written as null."""
    return {
        "build_time_s": result.build_time,
        "solve_time_s": result.solve_time,
        "solve_path": result.solve_path,
        "fallback_reason": result.fallback_reason,
        "solves": [
            {
                "model": r.model,
                "status": r.status,
                "solve_time_s": r.solve_time,
                "mip_node_count": r.mip_node_count,
                "mip_dual_bound": r.mip_dual_bound
                if r.mip_dual_bound is not None and math.isfinite(r.mip_dual_bound) else None,
                "simplex_iterations": r.simplex_iterations,
                "warm_start": r.warm_start,
            }
            for r in result.solves
        ],
    }


def _print_report(report: ValidationReport) -> None:
    for path, message in report.errors:
        print(f"error: {path}: {message}", file=sys.stderr)
    for path, message in report.warnings:
        print(f"warning: {path}: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    config = load_community_config(_read_bytes(args.config), args.format)
    report = validate_config(config)
    _print_report(report)
    print(
        f"ok: {len(config.homes)} homes, {config.horizon_slots} slots, "
        f"{len(report.warnings)} warning(s)"
    )
    return 0


def _cmd_solve(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    with _native_stdout_to_stderr():
        result = run_scenario(args.scenario, config, _options(args))
    _write_json(out / "schedule.json", schedule_to_dict(result.schedule))
    _write_json(out / "settlement.json", settlement_to_dict(result.settlement))
    _write_csv(out / "settlement.csv", settlement_to_csv, result.settlement)
    _write_json(out / "feasibility.json", _feasibility_to_dict(result.feasibility))
    _write_json(out / "timings.json", _timings(result))
    print(
        f"{result.kind}: community cost {result.community_cost:.4f} cents, "
        f"status {result.solver_status}, {len(result.feasibility.violations)} violation(s)"
    )
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    with _native_stdout_to_stderr():
        results = run_scenarios(config, SCENARIO_KINDS, _options(args))
    report = compare(results)
    _write_json(out / "comparison.json", comparison_to_dict(report))
    _write_csv(out / "comparison.csv", comparison_to_csv, report)
    _write_csv(out / "comparison_homes.csv", comparison_homes_to_csv, report)
    _write_csv(out / "comparison_slots.csv", comparison_slots_to_csv, report)
    _write_json(out / "timings.json", {r.kind: _timings(r) for r in results})
    for kind in report.scenarios:
        print(f"{kind}: community cost {report.community_cost[kind]:.4f} cents")
    return 0


def _cmd_settle(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    try:
        doc = json.loads(_read_bytes(args.schedule))
        schedule = schedule_from_dict(doc, config)
    except (json.JSONDecodeError, ValueError) as exc:
        raise _UsageError(f"schedule {args.schedule}: {exc}") from None
    report = settle_day(schedule, config)
    _write_json(out / "settlement.json", settlement_to_dict(report))
    _write_csv(out / "settlement.csv", settlement_to_csv, report)
    print(f"settled: community cost {report.community_daily_cost:.4f} cents")
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not sizes:
        raise _UsageError("--sizes is empty")
    if min(sizes) < 1:
        raise _UsageError(f"--sizes must be home counts >= 1, got {args.sizes!r}")
    config = _load_config(args)
    out = _out_dir(args)
    options = SolverOptions(relative_mip_gap=args.gap, time_limit=args.time_limit)
    with _native_stdout_to_stderr():
        report = bench_scaling(sizes, args.seed, config, options)
    _write_csv(out / "bench.csv", bench_to_csv, report)
    _write_json(out / "bench.json", bench_to_dict(report))
    _write_csv(out / "bench_timings.csv", bench_timings_to_csv, report)
    for row in report.rows:
        print(
            f"n={row.n_homes}: status {row.status}, "
            f"{row.n_variables} vars, {row.n_binaries} binaries, "
            f"solve {row.solve_time:.2f}s"
        )
    return 0


def _cmd_export_lp(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    if args.scenario == "system":
        model = build_system_centric_model(config)
        name = "model.lp"
    else:
        if args.home is None:
            raise _UsageError("--scenario prosumer needs --home <id>")
        try:
            config.home(args.home)
        except KeyError:
            raise _UsageError(f"no home with id {args.home!r}") from None
        model = build_home_model(config, args.home)
        # the LP text's own tag for the home: ids need not be file names
        name = f"home_{model.layout.tags[0]}.lp"
    _write_atomic(out / name, functools.partial(write_lp, model))
    print(f"wrote {out / name}: {model.n_variables} variables, {model.n_constraints} constraints")
    return 0
