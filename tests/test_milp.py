import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from cems import (
    build_home_model,
    build_system_centric_model,
    config_to_dict,
    load_community_config,
    relaxed,
    solve_model,
    write_lp,
)
from cems.milp import ModelBuildError, big_m_value
from cems.solve import SolverOptions

from conftest import make_community, make_ess, make_home, make_hvac, random_small_config


def _terms(model, name):
    for c in model.constraints:
        if c.name == name:
            return dict(c.terms), c.sense, c.rhs
    raise AssertionError(f"no constraint named {name}")


# -- model structure --------------------------------------------------------

def test_replication_model_dimensions(replication):
    model = build_system_centric_model(replication)
    model.validate()
    # 24 slots * (10 home-mode + 5 ess-mode) + 24 status flags
    assert model.n_binaries == 384
    assert model.n_variables == len(model.layout.variable_names())
    assert model.n_constraints == len(model.constraints)


def test_build_is_reproducible(replication):
    a = build_system_centric_model(replication)
    b = build_system_centric_model(replication)
    assert a.layout.variable_names() == b.layout.variable_names()
    assert [c.name for c in a.constraints] == [c.name for c in b.constraints]
    for ca, cb in zip(a.constraints, b.constraints):
        assert ca.terms == cb.terms
        assert ca.rhs == cb.rhs
    np.testing.assert_array_equal(a.c, b.c)
    np.testing.assert_array_equal(a.layout.objective_order, b.layout.objective_order)


def test_temperature_recursion_coefficients(replication):
    model = build_system_centric_model(replication)
    home = replication.home("home1")
    h = home.hvac
    terms, sense, rhs = _terms(model, "temp_rec_home1_2")
    assert sense == "="
    assert terms["temp_in_home1_2"] == pytest.approx(1.0)
    assert terms["temp_in_home1_1"] == pytest.approx(-h.epsilon)
    gain = (1.0 - h.epsilon) * h.eta_hvac / h.conductivity_a
    assert terms["hvac_power_home1_2"] == pytest.approx(-gain)
    assert rhs == pytest.approx((1.0 - h.epsilon) * replication.t_out[1])


def test_ess_level_recursion_coefficients(replication):
    model = build_system_centric_model(replication)
    eta = replication.home("home1").ess.efficiency
    terms, sense, rhs = _terms(model, "ess_level_home1_3")
    assert sense == "="
    assert rhs == 0.0
    assert terms["ess_level_home1_3"] == pytest.approx(1.0)
    assert terms["ess_level_home1_2"] == pytest.approx(-1.0)
    # discharged energy drains the store at 1/eta, charged energy lands at eta
    assert terms["ess_load_home1_3"] == pytest.approx(1.0 / eta)
    assert terms["ess_sell_home1_3"] == pytest.approx(1.0 / eta)
    assert terms["res_charge_home1_3"] == pytest.approx(-eta)
    assert terms["com_charge_home1_3"] == pytest.approx(-eta)


def test_slot_cost_envelope_and_hull_rows(replication):
    model = build_system_centric_model(replication)
    big_m = big_m_value(replication)
    price = replication.buy_price[0]
    terms, sense, rhs = _terms(model, "cost_imp_lo_com_1")
    assert sense == ">="
    assert rhs == pytest.approx(-big_m)
    assert terms["status_com_1"] == pytest.approx(-big_m)
    assert terms["com_buy_home1_1"] == pytest.approx(-price)
    assert terms["com_sell_home1_1"] == pytest.approx(price)
    hull, sense, rhs = _terms(model, "cost_hull_imp_com_1")
    assert sense == ">=" and rhs == 0.0
    assert "status_com_1" not in hull
    assert hull["com_buy_home1_1"] == pytest.approx(-price)
    hull_exp, _, _ = _terms(model, "cost_hull_exp_com_1")
    assert hull_exp["com_buy_home1_1"] == pytest.approx(-replication.alpha * price)


def test_absent_der_variables_not_created(replication):
    model = build_system_centric_model(replication)
    names = set(model.layout.variable_names())
    assert "ess_level_home8_1" not in names  # bare home
    assert "res_sell_home6_1" not in names   # ESS-only home
    assert "ess_level_home6_1" in names
    assert "res_sell_home4_1" in names


# -- big-M constants --------------------------------------------------------

def test_derived_big_m_value():
    homes = [make_home("a", 2, peak_limit=60.0), make_home("b", 2, peak_limit=90.0)]
    cfg = make_community(homes, [1.5, 2.0], community_peak=50.0)
    assert big_m_value(cfg) == pytest.approx(2.0 * 2.0 * (60.0 + 90.0 + 50.0))  # 800


def test_exclusivity_big_m_bounds(replication):
    """Each home's M, read from the pooled model's exclusivity rows, is one
    number in every slot and lies between the home's caps and the
    community's M."""
    cfg = replication
    m_community = big_m_value(cfg)
    rows = {c.name: c for c in build_system_centric_model(cfg).constraints}
    for home in cfg.homes:
        ms = set()
        for t in range(1, cfg.horizon_slots + 1):
            buy, sell = rows[f"buy_mode_{home.id}_{t}"], rows[f"sell_mode_{home.id}_{t}"]
            mode = f"mode_home_{home.id}_{t}"
            ms |= {-dict(buy.terms)[mode], dict(sell.terms)[mode], sell.rhs}
        assert len(ms) == 1
        (m,) = ms
        buy_cap = home.hvac.p_max + float(np.max(home.fixed_load))
        if home.ess is not None:
            buy_cap += home.ess.charge_rate_max
        assert m >= buy_cap
        assert m >= home.peak_limit
        assert m < m_community  # the point of the tighter bound


def test_legacy_big_m_policy_key_is_ignored():
    rng = np.random.default_rng(5)
    doc = config_to_dict(random_small_config(rng, n_homes=2, T=4))
    assert "big_m_policy" not in doc["community"]
    legacy = json.loads(json.dumps(doc))
    legacy["community"]["big_m_policy"] = "fixed:1e6"
    cfg, cfg_legacy = load_community_config(json.dumps(doc)), load_community_config(json.dumps(legacy))

    def lp_text(config):
        buf = io.StringIO()
        write_lp(build_system_centric_model(config), buf)
        return buf.getvalue()

    assert cfg_legacy == cfg
    assert lp_text(cfg_legacy) == lp_text(cfg)
    sol = solve_model(build_system_centric_model(cfg))
    sol_legacy = solve_model(build_system_centric_model(cfg_legacy))
    assert sol.status == sol_legacy.status == "optimal"
    assert sol_legacy.objective == sol.objective


# -- relaxation -------------------------------------------------------------

def test_lp_relaxation_lower_bounds_milp():
    rng = np.random.default_rng(21)
    for _ in range(5):
        cfg = random_small_config(rng)
        model = build_system_centric_model(cfg)
        lp = relaxed(model)
        assert not lp.integrality.any()
        milp_sol = solve_model(model)
        lp_sol = solve_model(lp)
        assert milp_sol.status == "optimal"
        assert lp_sol.status == "optimal"
        assert lp_sol.objective <= milp_sol.objective + 1e-7 * (1 + abs(milp_sol.objective))


# -- home model -------------------------------------------------------------

def test_home_model_scope(replication):
    model = build_home_model(replication, "home1")
    model.validate()
    names = model.layout.variable_names()
    assert not any(n.startswith("status_com") for n in names)
    assert not any(n.startswith("slot_cost") for n in names)
    assert all("home1" in n for n in names)
    # objective prices purchases at P and sales at alpha * P
    obj = dict(zip(names, model.c))
    assert obj["com_buy_home1_1"] == pytest.approx(replication.buy_price[0])
    assert obj["com_sell_home1_1"] == pytest.approx(-replication.alpha * replication.buy_price[0])


def test_home_model_unknown_id(replication):
    with pytest.raises(KeyError):
        build_home_model(replication, "nobody")


# -- naming -----------------------------------------------------------------

def test_id_sanitization_collision():
    homes = [make_home("home 1", 2), make_home("home_1", 2)]
    cfg = make_community(homes, [2.0, 2.0])
    with pytest.raises(ModelBuildError):
        build_system_centric_model(cfg)


def test_reserved_community_tag():
    cfg = make_community([make_home("com", 2)], [2.0, 2.0])
    with pytest.raises(ModelBuildError):
        build_system_centric_model(cfg)


def _broken(model, **arrays):
    """``model`` with some arrays replaced; the layout's by a ``layout_`` prefix."""
    layout = {k[len("layout_"):]: v for k, v in arrays.items() if k.startswith("layout_")}
    arrays = {k: v for k, v in arrays.items() if not k.startswith("layout_")}
    return dataclasses.replace(model, layout=dataclasses.replace(model.layout, **layout), **arrays)


def test_validate_rejects_broken_arrays(replication):
    model = build_home_model(replication, "home1")
    model.validate()

    # a term referencing a column past the last one
    indices = model.indices.copy()
    indices[-1] = model.n_variables
    with pytest.raises(ModelBuildError, match="references column"):
        _broken(model, indices=indices).validate()

    # a column whose lower bound exceeds its upper bound
    lb = model.lb.copy()
    j = model.layout.variable_names().index("temp_in_home1_3")
    lb[j] = model.ub[j] + 1.0
    with pytest.raises(ModelBuildError, match="temp_in_home1_3: lb"):
        _broken(model, lb=lb).validate()

    # a binary allowed outside [0, 1]
    ub = model.ub.copy()
    j = int(np.flatnonzero(model.integrality == 1)[0])
    ub[j] = 2.0
    with pytest.raises(ModelBuildError, match="binary variables must have bounds"):
        _broken(model, ub=ub).validate()
    integrality = model.integrality.copy()
    integrality[0] = 2
    with pytest.raises(ModelBuildError, match="integrality must be 0 or 1"):
        _broken(model, integrality=integrality).validate()

    # terms out of column order, and a name given twice
    indices = model.indices.copy()
    indices[:2] = indices[1::-1]
    with pytest.raises(ModelBuildError, match="increasing column order"):
        _broken(model, indices=indices).validate()
    order = model.layout.term_order.copy()
    order[[0, -1]] = order[[-1, 0]]  # the first row's term written in the last row
    with pytest.raises(ModelBuildError, match="term_order"):
        _broken(model, layout_term_order=order).validate()
    slots = model.layout.var_slot.copy()
    slots[1] = slots[0]
    with pytest.raises(ModelBuildError, match="duplicate variable names"):
        _broken(model, layout_var_slot=slots).validate()


def test_home_models_of_one_pattern_check_their_structure_once(replication, monkeypatch):
    # home1 and home2 share a DER mix, so a model of home2 reuses the
    # structure a model of home1 passed; its own numbers are still checked
    reference = build_home_model(replication, "home1")
    checked = []
    monkeypatch.setattr(type(reference), "_validate_structure", lambda self: checked.append(self.name))
    model = build_home_model(replication, "home2")
    assert checked == []
    assert model.indices is reference.indices and model.layout.term_order is reference.layout.term_order

    home2 = replication.home("home2")
    hvac = dataclasses.replace(home2.hvac, t_min=home2.hvac.t_max + 1.0)
    cold = dataclasses.replace(replication, homes=(dataclasses.replace(home2, hvac=hvac),))
    with pytest.raises(ModelBuildError, match="temp_in_home2_1: lb"):
        build_home_model(cold, "home2")

    indptr = model.indptr.copy()
    indptr[1] += 1
    with pytest.raises(ModelBuildError, match="row pointers"):
        _broken(model, indptr=indptr)._validate_like(reference)
    homes = np.full_like(model.layout.var_home, -1)
    with pytest.raises(ModelBuildError, match="home codes"):
        _broken(model, layout_var_home=homes)._validate_like(reference)


def test_views_agree_with_the_arrays(replication):
    model = build_system_centric_model(replication)
    names, constraints = model.layout.variable_names(), model.constraints
    assert len(names) == len(set(names)) == model.n_variables == len(model.c)
    assert len(model.lb) == len(model.ub) == len(model.integrality) == model.n_variables
    assert len(constraints) == model.n_constraints == len(model.indptr) - 1
    assert sum(len(c.terms) for c in constraints) == model.nnz == 10214
    assert int(np.count_nonzero(model.integrality == 1)) == model.n_binaries == 384
    binaries = model.integrality == 1
    assert np.all(model.lb[binaries] == 0.0) and np.all(model.ub[binaries] == 1.0)
    column = {name: j for j, name in enumerate(names)}

    i = next(i for i, c in enumerate(constraints) if c.name == "temp_rec_home1_2")
    row = constraints[i]
    span = slice(model.indptr[i], model.indptr[i + 1])
    from_arrays = dict(zip(model.indices[span].tolist(), model.data[span].tolist()))
    assert {column[name]: coef for name, coef in row.terms} == from_arrays
    assert [name for name, _ in row.terms] == ["temp_in_home1_2", "hvac_power_home1_2", "temp_in_home1_1"]
    assert (row.sense, row.rhs) == ("=", model.row_lower[i]) and model.row_upper[i] == row.rhs


def test_relaxed_shares_the_arrays(replication):
    model = build_system_centric_model(replication)
    lp = relaxed(model)
    assert lp.n_binaries == 0 and model.n_binaries == 384
    for name in ("c", "lb", "ub", "indptr", "indices", "data", "row_lower", "row_upper", "layout"):
        assert getattr(lp, name) is getattr(model, name)
    assert not model.data.flags.writeable


# -- LP export --------------------------------------------------------------

def test_write_lp_sections(replication):
    model = build_system_centric_model(replication)
    buf = io.StringIO()
    write_lp(model, buf)
    text = buf.getvalue()
    assert text.startswith("\\") or text.startswith("Minimize") or "Minimize" in text
    for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
        assert section in text
    assert "status_com_1" in text
    assert "temp_rec_home1_1" in text


def test_write_lp_home_model_has_no_binary_gap(replication):
    model = build_home_model(replication, "home8")  # bare home still has mode vars
    buf = io.StringIO()
    write_lp(model, buf)
    text = buf.getvalue()
    assert "Minimize" in text and "End" in text
    assert "mode_home_home8_1" in text


# -- LP text pins -------------------------------------------------------------

# sha256 of the exported LP text; any change to a name, a term's order, a
# coefficient's digits or a bound moves these
SYSTEM_LP_SHA256 = "cd6595425ebf8d5d70b11d00fa0174880fd0f649467aa75fe56a7e542607b5d7"
HOME1_LP_SHA256 = "f935eca5d9b743cd71a6d1275054e005bf0ea19be3aeeeae32f07e2eabd85084"


def _lp_sha256(model):
    buf = io.StringIO()
    write_lp(model, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_system_lp_text_is_pinned(replication):
    assert _lp_sha256(build_system_centric_model(replication)) == SYSTEM_LP_SHA256


def test_home_lp_text_is_pinned(replication):
    assert _lp_sha256(build_home_model(replication, "home1")) == HOME1_LP_SHA256
