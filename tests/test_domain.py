import io
import json
import zipfile
from dataclasses import fields, replace

import numpy as np
import pytest

from cems import (
    EssParams,
    HvacParams,
    PvParams,
    config_to_dict,
    config_to_json,
    generate_synthetic_community,
    load_community_config,
    replication_config,
    validate_config,
)
from cems.domain import (
    ConfigError,
    InvalidConfigError,
    ParseError,
    SchemaError,
    archetype_counts,
    default_peak_limit,
    default_t_in_initial,
)

from conftest import make_community, make_ess, make_home, make_hvac, random_small_config


# -- loading and round trips ------------------------------------------------

def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    cfg = random_small_config(rng)
    text = config_to_json(cfg)
    again = load_community_config(text)
    assert again == cfg
    path = tmp_path / "community.json"
    path.write_text(text)
    assert load_community_config(str(path)) == cfg
    assert load_community_config(text.encode()) == cfg
    assert load_community_config(io.BytesIO(text.encode())) == cfg


def test_replication_dataset_loads_and_validates():
    cfg = replication_config()
    assert cfg.horizon_slots == 24
    assert len(cfg.homes) == 10
    report = validate_config(cfg)
    assert report.ok
    assert not report.errors
    counts = archetype_counts(cfg)
    assert counts == {"pv+ess": 3, "pv": 2, "ess": 2, "bare": 3}


def test_csv_bundle_round_trip(tmp_path):
    cfg = replication_config()
    doc = config_to_dict(cfg)
    series = doc.pop("series")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("community.json", json.dumps(doc))
        for name, values in series.items():
            rows = "\n".join(f"{i + 1},{v}" for i, v in enumerate(values))
            z.writestr(f"{name}.csv", f"slot,value\n{rows}\n")
    assert load_community_config(buf.getvalue(), format="csv-bundle") == cfg


def test_csv_bundle_requires_community_json():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("other.json", "{}")
    with pytest.raises(SchemaError):
        load_community_config(buf.getvalue(), format="csv-bundle")


def test_malformed_json_raises_parse_error():
    with pytest.raises(ParseError):
        load_community_config("{not json")


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_community_config(str(tmp_path / "nope.json"))


# -- validation -------------------------------------------------------------

def _doc(mutate=None):
    doc = config_to_dict(replication_config())
    if mutate:
        mutate(doc)
    return json.dumps(doc)


def test_validate_reports_paths_in_order():
    def mutate(doc):
        doc["homes"][2]["ess"] = {
            "level_min": 2.0, "level_max": 1.0, "level_initial": 5.0,
            "charge_rate_max": -1.0, "discharge_rate_max": 2.0, "efficiency": 0.9,
        }
        doc["series"]["buy_price"][3] = -4.0

    with pytest.raises(InvalidConfigError) as exc:
        load_community_config(_doc(mutate))
    errors = exc.value.report.errors
    assert errors
    paths = [path for path, _ in errors]
    # community-level issues come before per-home ones
    assert any("buy_price" in p for p in paths)
    assert any(p.startswith("homes[2].ess") for p in paths)
    first_home = next(i for i, p in enumerate(paths) if p.startswith("homes"))
    assert all(p.startswith("homes") for p in paths[first_home:])


def test_validate_rejects_duplicate_ids():
    def mutate(doc):
        doc["homes"][1]["id"] = doc["homes"][0]["id"]

    with pytest.raises(InvalidConfigError) as exc:
        load_community_config(_doc(mutate))
    assert any("duplicate" in msg for _, msg in exc.value.report.errors)


def test_validate_rejects_ids_that_collide_as_lp_tags(replication):
    homes = list(replication.homes)
    homes[2] = replace(homes[2], id="a/b")
    homes[5] = replace(homes[5], id="a_b")
    homes[7] = replace(homes[7], id="com")
    report = validate_config(replace(replication, homes=tuple(homes)))
    assert [path for path, _ in report.errors] == ["homes[5].id", "homes[7].id"]
    assert "'a_b' and homes[2].id 'a/b' are both 'a_b'" in report.errors[0][1]
    assert "community's LP name tag 'com'" in report.errors[1][1]


@pytest.mark.parametrize("n_homes,seed", [(10, 1), (200, 1), (1000, 1)])
def test_bundled_and_synthetic_ids_pass_the_tag_check(replication, n_homes, seed):
    assert validate_config(generate_synthetic_community(n_homes, seed, replication)).ok


def test_wrong_series_length_rejected_at_parse():
    def mutate(doc):
        doc["series"]["ghi"] = doc["series"]["ghi"][:-1]

    with pytest.raises(SchemaError):
        load_community_config(_doc(mutate))


def test_validate_rejects_alpha_out_of_band():
    def mutate(doc):
        doc["community"]["alpha"] = 1.4

    with pytest.raises(InvalidConfigError):
        load_community_config(_doc(mutate))


@pytest.mark.parametrize("keys, value, field", [
    (("series", "t_out", 3), float("nan"), "series.t_out[3]"),
    (("series", "ghi", 11), float("inf"), "series.ghi[11]"),
    (("series", "buy_price", 0), float("-inf"), "series.buy_price[0]"),
    (("homes", 4, "fixed_load", 7), float("nan"), "homes[4].fixed_load[7]"),
    (("homes", 1, "hvac", "p_max"), float("nan"), "homes[1].hvac.p_max"),
    (("homes", 0, "ess", "level_max"), float("inf"), "homes[0].ess.level_max"),
    (("homes", 0, "pv", "efficiency"), float("nan"), "homes[0].pv.efficiency"),
    (("homes", 2, "peak_limit"), float("inf"), "homes[2].peak_limit"),
    (("community", "alpha"), float("nan"), "community.alpha"),
    (("community", "community_peak"), float("inf"), "community.community_peak"),
])
def test_validate_rejects_non_finite_numbers(keys, value, field):
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    text = _doc(mutate)
    assert "NaN" in text or "Infinity" in text  # tokens json.loads accepts
    with pytest.raises(InvalidConfigError) as exc:
        load_community_config(text)
    assert exc.value.report.errors == ((field, f"must be a finite number, got {value}"),)


def test_validate_reports_each_non_finite_field_once(replication):
    hvac = replace(replication.homes[0].hvac, t_max=float("nan"), epsilon=float("inf"))
    home = replace(replication.homes[0], hvac=hvac)
    t_out = replication.t_out.copy()
    t_out[[2, 5]] = np.nan
    cfg = replace(replication, homes=(home,) + replication.homes[1:], t_out=t_out)
    paths = [path for path, _ in validate_config(cfg).errors]
    assert paths == ["series.t_out[2]", "series.t_out[5]",
                     "homes[0].hvac.epsilon", "homes[0].hvac.t_max"]


def test_csv_bundle_rejects_nan_series():
    doc = config_to_dict(replication_config())
    series = doc.pop("series")
    series["t_out"][3] = "nan"
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("community.json", json.dumps(doc))
        for name, values in series.items():
            rows = "\n".join(f"{i + 1},{v}" for i, v in enumerate(values))
            z.writestr(f"{name}.csv", f"slot,value\n{rows}\n")
    with pytest.raises(InvalidConfigError) as exc:
        load_community_config(buf.getvalue(), format="csv-bundle")
    assert [path for path, _ in exc.value.report.errors] == ["series.t_out[3]"]


def test_validate_warns_on_load_above_community_peak():
    home = make_home("big", 2, fixed_load=[300.0, 300.0], peak_limit=400.0)
    cfg = make_community([home], [2.0, 2.0], community_peak=10.0)
    report = validate_config(cfg)
    assert report.ok
    assert report.warnings


def test_defaults():
    assert default_t_in_initial(66.2, 75.2) == pytest.approx(70.7)
    ess = make_ess(charge_rate_max=2.0)
    assert default_peak_limit(10.0, [1.0, 3.0], ess, 1.0) == pytest.approx(10.0 + 3.0 + 2.0)


# -- synthetic generation ---------------------------------------------------

def test_generation_zero_jitter_reproduces_template(replication):
    out = generate_synthetic_community(10, seed=3, template=replication,
                                       load_jitter=0.0)
    assert out == replication


def test_generation_cycles_template_in_order(replication):
    out = generate_synthetic_community(23, seed=3, template=replication)
    assert len(out.homes) == 23
    for i, home in enumerate(out.homes):
        assert home.archetype == replication.homes[i % 10].archetype
    # recycled ids get a numbered suffix
    assert out.homes[10].id != out.homes[0].id
    assert len({h.id for h in out.homes}) == 23


@pytest.mark.parametrize("ids, path, message", [
    (("a", "a_c2"), "homes[2].id", "duplicate home id 'a_c2' (first at homes[1])"),
    (("a", "a-c2"), "homes[2].id", "home id 'a_c2' and homes[1].id 'a-c2' are both 'a_c2' in LP names"),
])
def test_generation_rejects_ids_that_collide(replication, ids, path, message):
    """A recycled id ``<id>_c<cycle>`` may repeat a template id, or its LP
    name tag; either names the generated home instead of returning a
    community whose homes share an id."""
    template = replace(replication, homes=tuple(replace(home, id=hid)
                                                for home, hid in zip(replication.homes, ids)))
    assert validate_config(template).ok
    assert [h.id for h in generate_synthetic_community(2, 1, template).homes] == list(ids)
    with pytest.raises(InvalidConfigError) as exc:
        generate_synthetic_community(4, 1, template)
    assert exc.value.report.errors == ((path, message),)


def test_generation_counts_at_500(replication):
    out = generate_synthetic_community(500, seed=0, template=replication,
                                       load_jitter=0.0)
    assert archetype_counts(out) == {"pv+ess": 150, "pv": 100, "ess": 100,
                                     "bare": 150}


def test_generation_jitter_bounds_and_determinism(replication):
    a = generate_synthetic_community(30, seed=11, template=replication,
                                     load_jitter=0.2)
    b = generate_synthetic_community(30, seed=11, template=replication,
                                     load_jitter=0.2)
    c = generate_synthetic_community(30, seed=12, template=replication,
                                     load_jitter=0.2)
    assert a == b
    assert a != c
    for i, home in enumerate(a.homes):
        base = replication.homes[i % 10].fixed_load
        ratio = home.fixed_load / base
        assert np.all(ratio >= 0.8 - 1e-12)
        assert np.all(ratio <= 1.2 + 1e-12)
    assert a.community_peak == pytest.approx(replication.community_peak * 3.0)
    # the template itself is untouched
    assert replication == replication_config()


def test_generation_scales_peak_with_size(replication):
    half = generate_synthetic_community(5, seed=1, template=replication)
    assert half.community_peak == pytest.approx(replication.community_peak * 0.5)
    report = validate_config(half)
    assert report.ok


def test_pv_params_round_trip_through_dict():
    home = make_home("p", 3, pv=PvParams(panel_area=7.5, efficiency=0.19),
                     fixed_load=[0.5, 0.5, 0.5])
    cfg = make_community([home], [2.0, 3.0, 4.0], ghi=[0.1, 0.5, 0.2])
    assert load_community_config(config_to_json(cfg)) == cfg


# -- config schema ----------------------------------------------------------

_GROUPS = {"hvac": HvacParams, "ess": EssParams, "pv": PvParams}


@pytest.mark.parametrize("group, name", [
    (group, f.name) for group, cls in _GROUPS.items() for f in fields(cls)
    if (group, f.name) != ("hvac", "t_in_initial")
])
def test_each_parameter_is_required(group, name):
    def mutate(doc):
        del doc["homes"][0][group][name]

    with pytest.raises(SchemaError) as exc:
        load_community_config(_doc(mutate))
    assert str(exc.value) == f"homes[0].{group}.{name}: missing required field"


@pytest.mark.parametrize("absent", [True, False])
def test_t_in_initial_defaults_to_band_midpoint(absent):
    def mutate(doc):
        hvac = doc["homes"][0]["hvac"]
        hvac["t_min"], hvac["t_max"] = 64.0, 72.0
        if absent:
            del hvac["t_in_initial"]
        else:
            hvac["t_in_initial"] = None

    hvac = load_community_config(_doc(mutate)).homes[0].hvac
    assert hvac.t_in_initial == default_t_in_initial(64.0, 72.0) == 68.0


@pytest.mark.parametrize("idx", [0, 7])  # with and without storage
@pytest.mark.parametrize("absent", [True, False])
def test_peak_limit_defaults(idx, absent):
    def mutate(doc):
        if absent:
            del doc["homes"][idx]["peak_limit"]
        else:
            doc["homes"][idx]["peak_limit"] = None

    cfg = load_community_config(_doc(mutate))
    home = cfg.homes[idx]
    expected = default_peak_limit(home.hvac.p_max, home.fixed_load, home.ess, cfg.slot_hours)
    assert home.peak_limit == expected


@pytest.mark.parametrize("group", list(_GROUPS))
def test_parameter_groups_reject_wrong_types(group):
    name = fields(_GROUPS[group])[0].name

    def as_string(doc):
        doc["homes"][0][group][name] = "3.0"

    with pytest.raises(SchemaError) as exc:
        load_community_config(_doc(as_string))
    assert str(exc.value) == f"homes[0].{group}.{name}: expected a number, got str"

    def as_list(doc):
        doc["homes"][0][group] = [1.0, 2.0]

    with pytest.raises(SchemaError) as exc:
        load_community_config(_doc(as_list))
    assert str(exc.value) == f"homes[0].{group}: expected an object"


def test_mid_price_policy_equality(replication):
    prices = replication.buy_price * 0.9
    as_array = replace(replication, mid_price_policy=prices)
    as_string = replace(replication, mid_price_policy="case2")
    assert as_array != as_string
    assert as_string != as_array
    assert as_array == replace(replication, mid_price_policy=prices.copy())
    changed = prices.copy()
    changed[5] += 0.01
    assert as_array != replace(replication, mid_price_policy=changed)
    assert as_string == replace(replication, mid_price_policy="case2")
    assert as_string != replace(replication, mid_price_policy="case3")


def test_homes_differing_only_in_fixed_load_are_unequal(replication):
    home = replication.homes[0]
    load = home.fixed_load.copy()
    assert replace(home, fixed_load=load) == home
    load[3] += 0.5
    assert replace(home, fixed_load=load) != home
    assert replace(replication, homes=(replace(home, fixed_load=load),) + replication.homes[1:]) != replication
