import csv
import ctypes
import dataclasses
import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cems.cli
import cems.scenarios
from cems import (
    PvParams,
    build_home_model,
    build_system_centric_model,
    config_to_dict,
    config_to_json,
    generate_synthetic_community,
    replication_config,
    write_lp,
)
from cems.cli import _json_text, _native_stdout_to_stderr, main
from cems.solve import SolverOptions

from conftest import make_community, make_ess, make_home, make_hvac


@pytest.fixture(scope="module")
def small_cfg():
    prices = [1.0, 1.2, 4.0, 5.0, 4.5, 2.0]
    ghi = [0.2, 0.8, 0.9, 0.3, 0.0, 0.0]
    homes = [
        make_home("a", 6, ess=make_ess(), pv=PvParams(panel_area=8.0, efficiency=0.2),
                  fixed_load=[0.5, 0.5, 1.0, 1.5, 1.5, 1.0]),
        make_home("b", 6, pv=PvParams(panel_area=6.0, efficiency=0.2),
                  fixed_load=[0.6, 0.6, 1.2, 1.6, 1.4, 0.9]),
        make_home("c", 6, fixed_load=[0.4, 0.5, 1.1, 1.4, 1.3, 0.8]),
    ]
    return make_community(homes, prices, ghi=ghi, alpha=0.6)


@pytest.fixture(scope="module")
def cfg_file(small_cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "community.json"
    path.write_text(config_to_json(small_cfg))
    return str(path)


@pytest.fixture(scope="module")
def infeasible_cfg_file(tmp_path_factory):
    # valid config, hopeless physics: the heater cannot hold the comfort floor
    homes = [make_home("a", 3), make_home("b", 3, hvac=make_hvac(p_max=0.5))]
    cfg = make_community(homes, [2.0, 2.0, 2.0], t_out=[10.0, 10.0, 10.0])
    path = tmp_path_factory.mktemp("cli-bad") / "cold.json"
    path.write_text(config_to_json(cfg))
    return str(path)


# -- argument handling ------------------------------------------------------

def _python_m_cems(*args, **environ):
    env = dict(os.environ, **environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, "-m", "cems", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_m_cems_runs_the_cli():
    shown = _python_m_cems("--help")
    assert shown.returncode == 0
    assert "export-lp" in shown.stdout
    missing = _python_m_cems("solve")
    assert missing.returncode == 1
    assert "--config" in missing.stderr
    assert "Traceback" not in missing.stderr


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(cfg_file, tmp_path, capsys):
    for extra in (["--frobnicate"], ["--bigm", "fixed:1e9"]):
        code = main(["solve", "--config", cfg_file, "--out", str(tmp_path), *extra])
        assert code == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["optimize"]) == 1


HELP_FLAGS = {
    "validate": ["--config", "--format"],
    "solve": ["--config", "--format", "--scenario", "--alpha", "--pmid",
              "--gap", "--time-limit", "--jobs", "--out"],
    "compare": ["--config", "--format", "--alpha", "--pmid",
                "--gap", "--time-limit", "--jobs", "--out"],
    "settle": ["--config", "--format", "--schedule", "--alpha", "--pmid",
               "--out"],
    "bench": ["--config", "--format", "--sizes", "--seed", "--gap",
              "--time-limit", "--out"],
    "export-lp": ["--config", "--format", "--scenario", "--home", "--alpha",
                  "--pmid", "--out"],
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_documents_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in HELP_FLAGS[command]:
        assert flag in text, f"{command} --help is missing {flag}"


# -- validate ---------------------------------------------------------------

def test_validate_ok(cfg_file, capsys):
    assert main(["validate", "--config", cfg_file]) == 0
    assert "ok: 3 homes, 6 slots" in capsys.readouterr().out


def test_validate_rejects_bad_alpha(small_cfg, tmp_path, capsys):
    doc = config_to_dict(small_cfg)
    doc["community"]["alpha"] = 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 1
    assert "community.alpha" in capsys.readouterr().err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", "--config", str(path)]) == 1
    assert "invalid input" in capsys.readouterr().err


def test_missing_config_is_io_failure(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_validate_csv_bundle(small_cfg, tmp_path, capsys):
    doc = config_to_dict(small_cfg)
    series = doc.pop("series")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("community.json", json.dumps(doc))
        for name, values in series.items():
            rows = "\n".join(f"{t + 1},{v}" for t, v in enumerate(values))
            z.writestr(f"{name}.csv", "slot,value\n" + rows + "\n")
    path = tmp_path / "bundle.zip"
    path.write_bytes(buf.getvalue())
    assert main(["validate", "--config", str(path), "--format", "csv-bundle"]) == 0
    assert "ok: 3 homes" in capsys.readouterr().out


# -- solve ------------------------------------------------------------------

SOLVE_REPORTS = ("schedule.json", "settlement.json", "settlement.csv",
                 "feasibility.json", "timings.json")


def test_solve_writes_reports(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg_file, "--out", str(out)]) == 0
    for name in SOLVE_REPORTS:
        assert (out / name).exists(), name
    feas = json.loads((out / "feasibility.json").read_text())
    assert feas["max_violation"] <= 1e-6
    assert feas["cost_matches_solver"] is True
    assert "system: community cost" in capsys.readouterr().out


def test_solve_reports_are_byte_identical(cfg_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", cfg_file, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg_file, "--out", str(out2)]) == 0
    for name in SOLVE_REPORTS:
        if name == "timings.json":  # wall clock, excluded by design
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def _count_solves(monkeypatch):
    calls = []
    real = cems.scenarios.solve_model

    def counting(model, *args, **kwargs):
        calls.append(model.name)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(cems.scenarios, "solve_model", counting)
    return calls


def test_certified_day_solves_each_model_once(cfg_file, small_cfg, tmp_path, monkeypatch):
    calls = _count_solves(monkeypatch)
    assert main(["solve", "--config", cfg_file, "--out", str(tmp_path / "s")]) == 0
    assert calls == ["system_centric_relaxed"]
    timings = json.loads((tmp_path / "s" / "timings.json").read_text())
    assert (timings["solve_path"], timings["fallback_reason"]) == ("lp-certified", None)

    calls.clear()
    assert main(["compare", "--config", cfg_file, "--out", str(tmp_path / "c")]) == 0
    assert calls == ["system_centric_relaxed"] + [f"home_{h.id}_relaxed" for h in small_cfg.homes]
    timings = json.loads((tmp_path / "c" / "timings.json").read_text())
    assert {kind: t["solve_path"] for kind, t in timings.items()} == {
        "system": "lp-certified", "prosumer": "lp-certified", "none": "lp-certified"}


def test_milp_fallback_failure_is_solver_failure(tmp_path, capsys):
    # PV surplus beyond the pool band: the LP burns it in the battery, the
    # MILP cannot, so the fallback ends infeasible
    home = make_home("h", 2, hvac=make_hvac(p_max=0.01), ess=make_ess(),
                     pv=PvParams(panel_area=13.0, efficiency=0.2), fixed_load=[0.5, 0.5])
    cfg = make_community([home], [1.0, 1.0], ghi=[1.0, 1.0], community_peak=2.0)
    path = tmp_path / "surplus.json"
    path.write_text(config_to_json(cfg))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "solver failure: system-centric model ended infeasible" in captured.err
    assert captured.out == ""


_BUNDLED = Path(__file__).resolve().parents[1] / "src" / "cems" / "data" / "replication.json"


def test_timings_name_each_selfish_start(tmp_path):
    # a selfish home's LP starts from the basis of the home before it with
    # the same DER mix; the first home of each mix starts cold
    out = tmp_path / "none"
    assert main(["solve", "--config", str(_BUNDLED), "--scenario", "none", "--out", str(out)]) == 0
    solves = json.loads((out / "timings.json").read_text())["solves"]
    seen: set[str] = set()
    expected = []
    for home in replication_config().homes:
        expected.append((f"home_{home.id}_relaxed", home.archetype in seen))
        seen.add(home.archetype)
    assert [(r["model"], r["warm_start"]) for r in solves] == expected
    assert all(isinstance(r["simplex_iterations"], int) and r["simplex_iterations"] >= 0 for r in solves)
    for name in SOLVE_REPORTS[:-1]:
        text = (out / name).read_text()
        assert "warm_start" not in text and "simplex_iterations" not in text, name


def test_selfish_reports_do_not_depend_on_reruns(tmp_path):
    config = tmp_path / "forty.json"
    config.write_text(config_to_json(generate_synthetic_community(40, 5, replication_config())))
    runs = {}
    for label in ("first", "again"):
        out = tmp_path / label
        assert main(["solve", "--config", str(config), "--scenario", "none", "--out", str(out)]) == 0
        runs[label] = out
    for name in SOLVE_REPORTS[:-1]:
        assert (runs["again"] / name).read_bytes() == (runs["first"] / name).read_bytes(), name
    # the same solves, each from the same start
    solves = {label: [(r["model"], r["status"], r["warm_start"], r["simplex_iterations"])
                      for r in json.loads((out / "timings.json").read_text())["solves"]]
              for label, out in runs.items()}
    assert solves["again"] == solves["first"]


def test_solve_prosumer_with_jobs(cfg_file, tmp_path, capsys):
    # --jobs 1 and --gap 0 are the smallest values the flags accept
    for flags in (["--jobs", "1", "--gap", "0"], ["--jobs", "2"]):
        code = main(["solve", "--config", cfg_file, "--scenario", "prosumer",
                     *flags, "--out", str(tmp_path / "pro")])
        assert code == 0
        assert "prosumer: community cost" in capsys.readouterr().out


def test_jobs_is_accepted_and_ignored(cfg_file, tmp_path):
    """``--jobs`` still parses, and changes no report byte (wall times aside)."""
    runs = {}
    for flags in ([], ["--jobs", "1"], ["--jobs", "2"]):
        out = tmp_path / "_".join(["compare", *flags])
        assert main(["compare", "--config", cfg_file, *flags, "--out", str(out)]) == 0
        runs[tuple(flags)] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
    first = runs[()]
    assert first
    for flags, files in runs.items():
        assert files == first, flags


def test_main_calls_parse_independently(cfg_file, small_cfg, tmp_path, monkeypatch):
    """The parser is built once per process; a later call sees none of an
    earlier call's subcommand or flags."""
    runs = []
    real = cems.cli.run_scenario

    def recording(kind, config, options=None):
        runs.append((kind, config.alpha, config.mid_price_policy, options))
        return real(kind, config, options)

    monkeypatch.setattr(cems.cli, "run_scenario", recording)
    assert main(["solve", "--config", cfg_file, "--scenario", "none", "--alpha", "0.5",
                 "--pmid", "case3", "--gap", "0.01", "--time-limit", "30",
                 "--out", str(tmp_path / "flags")]) == 0
    assert main(["export-lp", "--config", cfg_file, "--scenario", "prosumer", "--home", "a",
                 "--out", str(tmp_path / "lp")]) == 0
    assert main(["solve", "--config", cfg_file, "--out", str(tmp_path / "defaults")]) == 0
    assert runs == [
        ("none", 0.5, "case3", SolverOptions(relative_mip_gap=0.01, time_limit=30.0)),
        ("system", small_cfg.alpha, small_cfg.mid_price_policy, SolverOptions()),
    ]
    assert cems.cli._build_parser() is cems.cli._build_parser()
    assert [p.name for p in (tmp_path / "lp").iterdir()] == ["home_a.lp"]


def test_solver_failure_exit_codes(infeasible_cfg_file, tmp_path, capsys):
    code = main(["solve", "--config", infeasible_cfg_file,
                 "--out", str(tmp_path / "s")])
    assert code == 2
    code = main(["solve", "--config", infeasible_cfg_file, "--scenario",
                 "prosumer", "--out", str(tmp_path / "p")])
    assert code == 2
    assert "solver failure" in capsys.readouterr().err


def test_out_dir_collision_is_io_failure(cfg_file, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    code = main(["solve", "--config", cfg_file, "--out", str(blocker)])
    assert code == 3
    assert "i/o failure" in capsys.readouterr().err


def test_alpha_override_validates(cfg_file, tmp_path, capsys):
    code = main(["solve", "--config", cfg_file, "--alpha", "1.5",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "community.alpha" in capsys.readouterr().err


def test_non_finite_config_is_input_error(small_cfg, tmp_path, capsys):
    doc = config_to_dict(small_cfg)
    doc["series"]["t_out"][3] = float("nan")
    doc["series"]["ghi"][1] = float("inf")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text() and "Infinity" in path.read_text()
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    captured = capsys.readouterr()
    assert "series.t_out[3]" in captured.err
    assert "series.ghi[1]" in captured.err
    assert "solver failure" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("where, path", [
    (("community", "alpha"), "community.alpha"),
    (("series", "buy_price", 5), "series.buy_price[5]"),
])
def test_integer_too_large_for_a_float_is_input_error(tmp_path, capsys, where, path):
    bundled = Path(__file__).resolve().parents[1] / "src" / "cems" / "data" / "replication.json"
    doc = json.loads(bundled.read_text())
    *parents, key = where
    target = doc
    for part in parents:
        target = target[part]
    target[key] = 10 ** 400
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert path in captured.err and "too large for a float" in captured.err
    assert captured.out == ""


# every subcommand that takes the flag rejects the value before any solve
_COMMANDS_WITH = {
    "--alpha": ("solve",),
    "--gap": ("solve", "compare", "bench"),
    "--time-limit": ("solve", "compare", "bench"),
    "--jobs": ("solve", "compare"),
    "--seed": ("bench",),
}


@pytest.mark.parametrize("flag, value, field", [
    ("--alpha", "nan", "community.alpha"),
    ("--gap", "nan", "--gap"),
    ("--gap", "-1", "--gap"),
    ("--time-limit", "nan", "--time-limit"),
    ("--time-limit", "-1", "--time-limit"),
    ("--jobs", "0", "--jobs"),
    ("--jobs", "-2", "--jobs"),
    ("--seed", "-1", "--seed"),
])
def test_non_finite_override_is_input_error(cfg_file, tmp_path, capsys, monkeypatch,
                                            flag, value, field):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a bad flag")

    monkeypatch.setattr(cems.scenarios, "solve_model", no_solve)
    for command in _COMMANDS_WITH[flag]:
        code = main([command, "--config", cfg_file, flag, value, "--out", str(tmp_path / "o")])
        assert code == 1, command
        captured = capsys.readouterr()
        assert f"{field}: must be " in captured.err and f"got {value}" in captured.err, command
        assert captured.out == ""
        assert not (tmp_path / "o").exists(), command


_LIBC = ctypes.CDLL(None)
_LIBC.printf.argtypes = [ctypes.c_char_p]
_LIBC.printf.restype = ctypes.c_int


def test_native_stdout_is_sent_to_stderr(capfd):
    print("before", flush=True)
    with _native_stdout_to_stderr():
        _LIBC.printf(b"native chatter\n")
    print("after", flush=True)
    out, err = capfd.readouterr()
    assert out == "before\nafter\n"
    assert "native chatter" in err


@pytest.mark.parametrize("command, lines", [
    (["solve"], 1),
    (["solve", "--scenario", "prosumer", "--jobs", "2"], 1),
    (["compare"], 3),
    (["bench", "--sizes", "2", "--gap", "0.05"], 1),
])
def test_stdout_holds_only_the_summary(cfg_file, tmp_path, capfd, monkeypatch, command, lines):
    # stands in for HiGHS writing to fd 1 from inside a solve
    real = cems.scenarios.solve_model

    def chatty(*args, **kwargs):
        _LIBC.printf(b"tmpSolver.run();\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(cems.scenarios, "solve_model", chatty)
    assert main([*command, "--config", cfg_file, "--out", str(tmp_path / "o")]) == 0
    out, err = capfd.readouterr()
    assert len(out.splitlines()) == lines
    assert "tmpSolver" not in out
    assert "tmpSolver.run();" in err


# -- compare ----------------------------------------------------------------

def test_compare_outputs(cfg_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_file, "--out", str(out)]) == 0
    for name in ("comparison.json", "comparison.csv", "comparison_homes.csv",
                 "comparison_slots.csv", "timings.json"):
        assert (out / name).exists(), name
    doc = json.loads((out / "comparison.json").read_text())
    cost = doc["community_cost"]
    assert cost["system"] <= cost["prosumer"] + 1e-6
    assert cost["prosumer"] <= cost["none"] + 1e-6
    assert capsys.readouterr().out.count("community cost") == 3


def test_comparison_csv_costs_are_plain_numbers(cfg_file, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_file, "--out", str(out)]) == 0
    costs = json.loads((out / "comparison.json").read_text())["community_cost"]
    header, *rows = csv.reader((out / "comparison.csv").read_text().splitlines())
    assert header == ["scenario", "community_cost"]
    assert {kind: float(cell) for kind, cell in rows} == costs


def test_timings_carry_solver_telemetry(cfg_file, small_cfg, tmp_path):
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg_file, "--out", str(out)]) == 0
    (record,) = json.loads((out / "timings.json").read_text())["solves"]
    assert (record["model"], record["status"]) == ("system_centric_relaxed", "optimal")
    # an LP has no branch-and-bound tree
    assert (record["mip_node_count"], record["mip_dual_bound"]) == (None, None)
    assert record["solve_time_s"] > 0.0
    for name in SOLVE_REPORTS:
        if name != "timings.json":
            assert "mip_" not in (out / name).read_text(), name

    out = tmp_path / "c"
    assert main(["compare", "--config", cfg_file, "--out", str(out)]) == 0
    timings = json.loads((out / "timings.json").read_text())
    assert [r["model"] for r in timings["none"]["solves"]] == [
        f"home_{h.id}_relaxed" for h in small_cfg.homes]
    for name in ("comparison.json", "comparison.csv", "comparison_homes.csv", "comparison_slots.csv"):
        assert "mip_" not in (out / name).read_text(), name


# -- settle -----------------------------------------------------------------

def test_settle_reuses_solved_schedule(cfg_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["solve", "--config", cfg_file, "--out", str(run)]) == 0
    baseline = json.loads((run / "settlement.json").read_text())

    out = tmp_path / "resettle"
    code = main(["settle", "--config", cfg_file, "--schedule",
                 str(run / "schedule.json"), "--out", str(out)])
    assert code == 0
    resettled = json.loads((out / "settlement.json").read_text())
    assert resettled["community_daily_cost"] == pytest.approx(
        baseline["community_daily_cost"], abs=1e-9)

    out3 = tmp_path / "case3"
    code = main(["settle", "--config", cfg_file, "--schedule",
                 str(run / "schedule.json"), "--pmid", "case3", "--out", str(out3)])
    assert code == 0
    shifted = json.loads((out3 / "settlement.json").read_text())
    # higher local price moves money between homes but not in or out
    assert shifted["community_daily_cost"] == pytest.approx(
        baseline["community_daily_cost"], abs=1e-9)
    assert shifted["per_home_daily_cost"] != pytest.approx(
        baseline["per_home_daily_cost"])


def test_settle_rejects_garbage_schedule(cfg_file, tmp_path, capsys):
    bad = tmp_path / "sched.json"
    bad.write_text("{not json")
    code = main(["settle", "--config", cfg_file, "--schedule", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def solved_schedule(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("solved")
    assert main(["solve", "--config", cfg_file, "--out", str(out)]) == 0
    return json.loads((out / "schedule.json").read_text())


def _nan_flow(doc):
    doc["homes"]["a"]["com_buy"][3] = float("nan")
    return doc


def _string_flow(doc):
    doc["homes"]["a"]["com_buy"][2] = "1.5"
    return doc


def _bool_flow(doc):
    doc["homes"]["b"]["com_load"][0] = True
    return doc


def _missing_temp(doc):
    del doc["homes"]["a"]["indoor_temp"]
    return doc


def _missing_flow(doc):
    del doc["homes"]["c"]["com_buy"]
    return doc


def _home_not_object(doc):
    doc["homes"]["a"] = [1.0, 2.0]
    return doc


def _flow_not_list(doc):
    doc["homes"]["b"]["com_sell"] = {"slot": 1}
    return doc


def _top_level_list(doc):
    return [doc]


@pytest.mark.parametrize("breaker, message", [
    (_nan_flow, "home 'a': com_buy[3] must be a finite number"),
    (_string_flow, "home 'a': com_buy[2] must be a finite number"),
    (_bool_flow, "home 'b': com_load[0] must be a finite number"),
    (_missing_temp, "home 'a': indoor_temp is missing"),
    (_missing_flow, "home 'c': com_buy is missing"),
    (_home_not_object, "home 'a': expected an object"),
    (_flow_not_list, "home 'b': com_sell must be a list of 6 numbers"),
    (_top_level_list, "schedule document must be an object"),
])
def test_settle_rejects_malformed_schedule(cfg_file, solved_schedule, tmp_path, capsys,
                                           breaker, message):
    doc = breaker(json.loads(json.dumps(solved_schedule)))
    bad = tmp_path / "sched.json"
    bad.write_text(json.dumps(doc))
    code = main(["settle", "--config", cfg_file, "--schedule", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    captured = capsys.readouterr()
    assert f"schedule {bad}: {message}" in captured.err
    assert captured.out == ""


def test_settle_rejects_a_schedule_of_more_homes(small_cfg, solved_schedule, tmp_path, capsys):
    """A config that lacks some of the schedule's homes would bill only part
    of the community; settle names the first such home instead."""
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(solved_schedule))
    part = tmp_path / "part.json"
    part.write_text(config_to_json(dataclasses.replace(small_cfg, homes=small_cfg.homes[:2])))
    out = tmp_path / "o"
    code = main(["settle", "--config", str(part), "--schedule", str(sched), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"schedule {sched}: schedule has home 'c', which the config lacks" in captured.err
    assert captured.out == ""
    assert not (out / "settlement.json").exists()


# -- report bytes -----------------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_KEYS = st.text(max_size=6) | st.sampled_from(
    ["", "h\u00f4me1", 'quo"te', "back\\slash", "new\nline", "\x00\x1f", "\U0001f600"])
_SCALARS = (st.none() | st.booleans() | st.integers() | _FLOATS | _FINITE.map(np.float64)
            | st.text(max_size=6))
_DOCS = st.recursive(
    _SCALARS | st.lists(_FINITE, max_size=5) | st.dictionaries(_KEYS, _FINITE, max_size=4)
    | st.lists(_FLOATS | st.integers(), max_size=5),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_KEYS, children, max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=3)),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(doc=_DOCS)
@example(doc=[])
@example(doc={})
@example(doc={"a": [], "b": {}, "c": [[]], "d": [{}]})
@example(doc=[1, 2.5, True, None, -0.0])
@example(doc=[-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.5e-7])
@example(doc={"x": [float("nan"), 1.0], "y": [float("inf"), -float("inf")], "z": float("nan")})
@example(doc={"h\u00f4me1": 1.0, 'quo"te': -0.0, "new\nline": 2.0, "\x00": 3.0})
def test_json_text_is_json_dumps(doc):
    """The report emitter gives exactly ``json.dumps(doc, indent=2,
    sort_keys=True)``, the oracle, on any nested document."""
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _json_reports(tmp_path):
    """Every JSON report ``solve`` (three scenarios), ``compare`` and
    ``settle`` write on the bundled day."""
    cfg = str(_BUNDLED)
    for kind in ("system", "prosumer", "none"):
        assert main(["solve", "--config", cfg, "--scenario", kind, "--out", str(tmp_path / kind)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "compare")]) == 0
    assert main(["settle", "--config", cfg, "--schedule", str(tmp_path / "system" / "schedule.json"),
                 "--out", str(tmp_path / "settle")]) == 0
    return sorted(tmp_path.rglob("*.json"))


def test_every_json_report_is_what_json_dumps_writes(tmp_path):
    """Each report, read back and written by ``json.dumps``, gives its own
    bytes: a check that holds whatever the solver and SciPy versions."""
    reports = _json_reports(tmp_path)
    assert len(reports) == 15
    for path in reports:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


def test_reports_are_utf8_whatever_the_locale(tmp_path):
    """A home id outside ASCII is written as UTF-8 under the C locale too,
    the same bytes as a run in UTF-8 mode."""
    doc = json.loads(_BUNDLED.read_text())
    text = json.dumps(doc).replace('"home1"', '"h\\u00f4me1"')
    assert text != json.dumps(doc)
    cfg = tmp_path / "accent.json"
    cfg.write_text(text)
    runs = {}
    for label, mode in (("c", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}),
                        ("utf8", {"PYTHONUTF8": "1"})):
        done = _python_m_cems("solve", "--scenario", "system", "--config", str(cfg),
                              "--out", str(tmp_path / label), **mode)
        assert done.returncode == 0, done.stderr
        runs[label] = tmp_path / label
    for name in SOLVE_REPORTS[:-1]:
        assert (runs["c"] / name).read_bytes() == (runs["utf8"] / name).read_bytes(), name
    assert ",h\u00f4me1,".encode() in (runs["c"] / "settlement.csv").read_bytes()


# -- bench ------------------------------------------------------------------

def test_bench_outputs_and_determinism(cfg_file, tmp_path, capsys):
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    argv = ["bench", "--config", cfg_file, "--sizes", "2,3", "--seed", "5",
            "--gap", "0.05"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for name in ("bench.csv", "bench.json", "bench_timings.csv"):
        assert (out1 / name).exists(), name
    for name in ("bench.csv", "bench.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    timing_rows = (out1 / "bench_timings.csv").read_text().splitlines()
    assert timing_rows[0] == "n_homes,build_time_s,solve_time_s,solve_path"
    assert [row.split(",")[-1] for row in timing_rows[1:]] == ["lp-certified"] * 2
    assert "n=2:" in capsys.readouterr().out


def test_bench_rejects_bad_sizes(cfg_file, tmp_path, capsys):
    code = main(["bench", "--config", cfg_file, "--sizes", "ten,20",
                 "--out", str(tmp_path / "b")])
    assert code == 1
    assert "--sizes" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["0", "-5", "2,0"])
def test_bench_rejects_sizes_without_homes(cfg_file, tmp_path, capsys, sizes):
    out = tmp_path / "b"
    assert main(["bench", "--config", cfg_file, "--sizes", sizes, "--out", str(out)]) == 1
    assert f"--sizes must be home counts >= 1, got {sizes!r}" in capsys.readouterr().err
    assert not out.exists()


# -- export-lp --------------------------------------------------------------

def test_export_lp_system(cfg_file, tmp_path, capsys):
    out = tmp_path / "lp"
    assert main(["export-lp", "--config", cfg_file, "--out", str(out)]) == 0
    text = (out / "model.lp").read_text()
    assert "Minimize" in text and "Binary" in text and text.rstrip().endswith("End")
    assert "model.lp" in capsys.readouterr().out


def test_export_lp_single_home(cfg_file, tmp_path, capsys):
    out = tmp_path / "lp"
    code = main(["export-lp", "--config", cfg_file, "--scenario", "prosumer",
                 "--home", "a", "--out", str(out)])
    assert code == 0
    assert (out / "home_a.lp").exists()

    code = main(["export-lp", "--config", cfg_file, "--scenario", "prosumer",
                 "--out", str(out)])
    assert code == 1  # --home is required for a single-home model
    code = main(["export-lp", "--config", cfg_file, "--scenario", "prosumer",
                 "--home", "zzz", "--out", str(out)])
    assert code == 1
    assert "zzz" in capsys.readouterr().err


def test_export_lp_writes_the_text_of_write_lp(tmp_path, capsys):
    """The files ``export-lp`` writes for the bundled day's system model and
    home1 are, byte for byte, what ``write_lp`` writes into a string."""
    config = replication_config()
    for argv, name, model in (
        ([], "model.lp", build_system_centric_model(config)),
        (["--scenario", "prosumer", "--home", "home1"], "home_home1.lp", build_home_model(config, "home1")),
    ):
        out = tmp_path / name
        assert main(["export-lp", "--config", str(_BUNDLED), *argv, "--out", str(out)]) == 0
        buf = io.StringIO()
        write_lp(model, buf)
        assert (out / name).read_bytes() == buf.getvalue().encode("utf-8")
        assert [p.name for p in out.iterdir()] == [name]
    capsys.readouterr()


def test_a_report_writer_failing_partway_leaves_the_previous_file(cfg_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg_file, "--scenario", "system", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing(report, stream):
        stream.write("slot,p_local_buy,p_local_sell,home,cost\n" * 100)
        raise OSError("No space left on device")

    monkeypatch.setattr(cems.cli, "settlement_to_csv", failing)
    assert main(["solve", "--config", cfg_file, "--scenario", "system", "--out", str(out)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after.keys() == before.keys()
    assert after["settlement.csv"] == before["settlement.csv"]

    # a first write that fails leaves no file at all
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    with pytest.raises(OSError):
        cems.cli._write_csv(fresh / "settlement.csv", failing, None)
    assert list(fresh.iterdir()) == []


def test_export_lp_names_the_file_after_the_home_tag(small_cfg, tmp_path, capsys):
    # "a/b" is a valid home id but not a file name
    homes = (dataclasses.replace(small_cfg.homes[0], id="a/b"), *small_cfg.homes[1:])
    cfg = dataclasses.replace(small_cfg, homes=homes)
    path = tmp_path / "slash.json"
    path.write_text(config_to_json(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    out = tmp_path / "lp"
    code = main(["export-lp", "--config", str(path), "--scenario", "prosumer",
                 "--home", "a/b", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["home_a_b.lp"]
    buf = io.StringIO()
    write_lp(build_home_model(cfg, "a/b"), buf)
    assert (out / "home_a_b.lp").read_text() == buf.getvalue()


def test_ids_colliding_as_lp_tags_exit_1_before_any_command(small_cfg, tmp_path, capsys):
    # "a/b" and "a_b" would both be written "a_b" in LP names and file names
    homes = (dataclasses.replace(small_cfg.homes[0], id="a/b"),
             dataclasses.replace(small_cfg.homes[1], id="a_b"), *small_cfg.homes[2:])
    path = tmp_path / "collide.json"
    path.write_text(config_to_json(dataclasses.replace(small_cfg, homes=homes)))
    out = tmp_path / "out"
    for argv in (["validate"], ["export-lp", "--out", str(out)],
                 ["export-lp", "--scenario", "prosumer", "--home", "a_b", "--out", str(out)],
                 ["solve", "--scenario", "none", "--out", str(out)]):
        assert main([*argv, "--config", str(path)]) == 1, argv
        err = capsys.readouterr().err
        assert "homes[1].id" in err and "'a_b' and homes[0].id 'a/b' are both 'a_b'" in err
    assert not out.exists()
