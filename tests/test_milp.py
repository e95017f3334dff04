import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from cems import (
    HomeModelBatch,
    build_home_model,
    build_system_centric_model,
    config_to_dict,
    generate_synthetic_community,
    load_community_config,
    solve_model,
    write_lp,
)
from cems.domain import lp_tag
from cems.milp import MilpModel, ModelBuildError, _home_pattern, big_m_value
from cems.solve import SolverOptions, _highs

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


# -- the binary-free LP -------------------------------------------------------

def _milp_and_lps(cfg):
    """Each model of ``cfg`` as the MILP and as its binary-free LP: the
    pooled model, then every home's."""
    yield build_system_centric_model(cfg), build_system_centric_model(cfg, lp=True)
    milps, lps = HomeModelBatch(cfg), HomeModelBatch(cfg, lp=True)
    for home in cfg.homes:
        yield milps.model(home.id), lps.model(home.id)


def test_binary_free_lp_lower_bounds_milp():
    rng = np.random.default_rng(21)
    for _ in range(5):
        cfg = random_small_config(rng)
        for model, lp in _milp_and_lps(cfg):
            assert lp.n_binaries == 0 and not lp.integrality.any()
            milp_sol = solve_model(model)
            lp_sol = solve_model(lp)
            assert milp_sol.status == "optimal"
            assert lp_sol.status == "optimal"
            assert lp_sol.objective <= milp_sol.objective + 1e-7 * (1 + abs(milp_sol.objective))


@pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["bundled", "seed1", "seed2", "seed3"])
def test_binary_free_lp_reaches_the_milp_optimum(replication, seed):
    """On the bundled day and the ten-home days of seeds 1-3 the LP's
    value is the MILP optimum; its columns are the MILP's continuous ones,
    with their bounds and costs, and its rows the MILP's but for those
    that gate a binary."""
    cfg = replication if seed is None else generate_synthetic_community(10, seed, replication)
    model, lp = build_system_centric_model(cfg), build_system_centric_model(cfg, lp=True)
    assert lp.n_binaries == 0 and lp.name == "system_centric_relaxed"
    assert not lp.data.flags.writeable
    continuous = model.integrality == 0
    names = np.array(model.layout.variable_names())
    assert lp.layout.variable_names() == names[continuous].tolist()
    for name in ("c", "lb", "ub"):
        np.testing.assert_array_equal(getattr(lp, name), getattr(model, name)[continuous], err_msg=name)
    gating = ("buy_mode", "sell_mode", "status_on", "status_off", "cost_imp_lo", "cost_imp_hi",
              "cost_exp_lo", "cost_exp_hi")
    kept = [row for row in model.layout.row_names() if not row.startswith(gating)]
    assert lp.layout.row_names() == kept
    exact, relaxation = solve_model(model), solve_model(lp)
    assert exact.status == relaxation.status == "optimal"
    assert abs(relaxation.objective - exact.objective) <= 1e-6 * abs(exact.objective)


# the pooled LP's numbers, as built while its value table still held the
# pooled big-M that no LP row reads
POOLED_LP_SHA256 = {
    "bundled": {
        "c": "cd2e21e70d2ace2682c165b13d66513178a797f2d3a000293816407519c23a99",
        "lb": "697eeeb23a723b76c6ed44c25f5420c88b0f8be19a1e6a7b900345f32afbd79c",
        "ub": "0004fa2f3bac937a67069c92041660b1acb57a9715409489f769755646790912",
        "row_lower": "0ff4daccdfb6d250c0c0e5590c032c355bb4b0566fc4c298258d83c7cd939066",
        "row_upper": "f6ed93441b4e00cc8bb91be6e6023fa64b2a711d0392aa9782c4f94c066134c6",
        "data": "f58a476d7d5e4752b6c13b7e76163d774cca3add44e9cd1bc22f6462539e7779",
    },
    "seed1_50": {
        "c": "4183cd4e2720b063e454a1dc184e90f98726475cc7ca340d480d124d58009de2",
        "lb": "f27705152f892508121c8dcf904f46c546cdd708a6b2695866e388c8078e1746",
        "ub": "723b0423066b4b0b994b2a778a98a082d6791de4ca822cc24bb085c91d4c4e98",
        "row_lower": "e75f4cfde343792a4d59802ceb65fb4137028fc3050d47056ae673c6bf3ead1f",
        "row_upper": "54e679dc5d8f41bdb4001a968322ca4092e1f16eafa263cedfc813f51b4b6423",
        "data": "b26e5da85ddc89239becb070812e12851705b58a0c763bcc38a6f941b6a1b45d",
    },
}


@pytest.mark.parametrize("day", sorted(POOLED_LP_SHA256))
def test_pooled_lp_numbers_are_pinned(replication, day):
    """The bundled day's and the 50-home seed-1 day's pooled LP: each
    number array, byte for byte."""
    cfg = replication if day == "bundled" else generate_synthetic_community(50, 1, replication)
    lp = build_system_centric_model(cfg, lp=True)
    assert {name: hashlib.sha256(getattr(lp, name).tobytes()).hexdigest()
            for name in POOLED_LP_SHA256[day]} == POOLED_LP_SHA256[day]


def test_a_batch_builds_models_of_its_own_kind(replication):
    lp_batch = HomeModelBatch(replication, lp=True)
    lp = build_home_model(replication, "home1", lp_batch, lp=True)
    assert (lp.name, lp.n_binaries) == ("home_home1_relaxed", 0)
    for batch, kind in ((lp_batch, False), (HomeModelBatch(replication), True)):
        with pytest.raises(ValueError, match=f"cannot build a model with lp={kind}"):
            build_home_model(replication, "home1", batch, lp=kind)


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
    mixed = make_community([make_home("a", 2), make_home("com", 2)], [2.0, 2.0])
    with pytest.raises(ModelBuildError, match="not the community's"):
        HomeModelBatch(mixed)


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
    # homes of one DER mix share their pattern's structure arrays, checked
    # once, when the pattern is made; each home's numbers are still checked
    checked = []
    check = MilpModel._validate_structure

    def counted(model):
        checked.append(model.name)
        check(model)

    monkeypatch.setattr(MilpModel, "_validate_structure", counted)
    _home_pattern.cache_clear()
    home1 = replication.home("home1")
    mix = [h for h in replication.homes
           if (h.ess is None, h.pv is None) == (home1.ess is None, home1.pv is None)]
    assert len(mix) >= 2
    batch = HomeModelBatch(replication, mix)
    models = [batch.model(home.id) for home in mix]
    assert checked == ["pattern"]
    pattern = _home_pattern(home1.ess is not None, home1.pv is not None, replication.horizon_slots,
                            True, False)
    for model in models:
        assert model.indptr is pattern.indptr and model.indices is pattern.indices
        assert model.layout.var_home is pattern.var_home and model.layout.row_home is pattern.row_home
        model.validate()
    assert len(checked) == 1 + len(models)

    home2 = replication.home("home2")
    hvac = dataclasses.replace(home2.hvac, t_min=home2.hvac.t_max + 1.0)
    cold = dataclasses.replace(replication, homes=(dataclasses.replace(home2, hvac=hvac),))
    with pytest.raises(ModelBuildError, match="temp_in_home2_1: lb"):
        build_home_model(cold, "home2")


_MODEL_ARRAYS = ("c", "lb", "ub", "integrality", "indptr", "indices", "data", "row_lower", "row_upper")
_LAYOUT_ARRAYS = ("var_home", "var_role", "var_slot", "row_home", "row_family", "row_slot",
                  "term_order", "objective_order")


def test_home_models_are_built_as_one_batch(forty_homes, monkeypatch):
    cfg = forty_homes
    shared = HomeModelBatch(cfg)
    batch = [shared.model(home.id) for home in cfg.homes]
    first_of = {}  # per pattern, the batch's first model on it
    for home, model in zip(cfg.homes, batch):
        alone = build_home_model(cfg, home.id)
        for other in (alone, build_home_model(cfg, home.id, shared)):
            assert (model.name, model.layout.homes, model.layout.tags) == (
                other.name, other.layout.homes, other.layout.tags)
            for ours, theirs, name in [(model, other, n) for n in _MODEL_ARRAYS] + [
                    (model.layout, other.layout, n) for n in _LAYOUT_ARRAYS]:
                a, b = getattr(ours, name), getattr(theirs, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        pattern = _home_pattern(home.ess is not None, home.pv is not None, cfg.horizon_slots, True, False)
        assert model.indices is pattern.indices and model.integrality is pattern.integrality
        for name in ("var_role", "var_slot", "row_family", "row_slot", "term_order"):
            assert getattr(model.layout, name) is getattr(pattern, name), name
        assert model.layout.objective_order is pattern.objective
        assert model.indptr is pattern.indptr
        assert model.layout.var_home is pattern.var_home and model.layout.row_home is pattern.row_home
        # the objective is made once per pattern and batch
        first = first_of.setdefault(pattern, model)
        assert model.c is first.c
    assert len(first_of) == 4

    # every pattern passed its structure check when it was made
    checked = []
    monkeypatch.setattr(MilpModel, "_validate_structure", lambda self: checked.append(self.name))
    again = HomeModelBatch(cfg)
    for home in cfg.homes:
        again.model(home.id)
    assert checked == []


def test_a_batch_names_its_first_home_with_a_bad_number(forty_homes):
    cfg = forty_homes
    homes = list(cfg.homes)
    # a bad home of a later pattern comes first in config order, before a
    # bad home of the first home's pattern
    first = next(i for i, h in enumerate(homes) if h.archetype != homes[0].archetype)
    later = next(i for i in range(first + 1, len(homes)) if homes[i].archetype == homes[0].archetype)
    for i in (first, later):
        hvac = dataclasses.replace(homes[i].hvac, t_min=homes[i].hvac.t_max + 1.0)
        homes[i] = dataclasses.replace(homes[i], hvac=hvac)
    cold = dataclasses.replace(cfg, homes=tuple(homes))
    with pytest.raises(ModelBuildError, match=f"^temp_in_{lp_tag(homes[first].id)}_1: lb "):
        HomeModelBatch(cold)
    with pytest.raises(ModelBuildError, match=f"^temp_in_{lp_tag(homes[later].id)}_1: lb "):
        build_home_model(cold, homes[later].id)


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


# -- LP export --------------------------------------------------------------

def test_write_lp_sections(replication):
    model = build_system_centric_model(replication)
    buf = io.StringIO()
    write_lp(model, buf)
    lines = buf.getvalue().splitlines()
    sections = ["Minimize", "Subject To", "Bounds", "Binary", "End"]
    assert [line for line in lines if line in sections] == sections
    text = buf.getvalue()
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


# -- LP text against a plain renderer -------------------------------------------

def _reference_lp(model):
    """The LP text of ``model`` from a plain loop over its rows and
    columns, with ``%.17g`` numbers: what ``write_lp`` must write."""
    lay = model.layout
    names = lay.variable_names()

    def terms(cols, coefs):
        text = ""
        for k, (j, v) in enumerate(zip(cols, coefs)):
            sep = "" if k == 0 else "\n      " if k % 8 == 0 else " "
            text += f"{sep}{'-' if v < 0 else '+'} {abs(v):.17g} {names[j]}"
        return text or "0"

    objective = lay.objective_order.tolist()
    out = [f"\\ {model.name}\nMinimize\n obj: {terms(objective, model.c[objective].tolist())}\n",
           "Subject To\n"]
    for i, row in enumerate(lay.row_names()):
        written = lay.term_order[model.indptr[i]:model.indptr[i + 1]]
        lo, hi = float(model.row_lower[i]), float(model.row_upper[i])
        sense, rhs = ("=", lo) if lo == hi else ("<=", hi) if lo == -math.inf else (">=", lo)
        out.append(f" {row}: {terms(model.indices[written].tolist(), model.data[written].tolist())}"
                   f" {sense} {rhs:.17g}\n")
    out.append("Bounds\n")
    binaries = []
    for j, name in enumerate(names):
        lb, ub = float(model.lb[j]), float(model.ub[j])
        if model.integrality[j]:
            binaries.append(name)
        elif lb == -math.inf and ub == math.inf:
            out.append(f" {name} free\n")
        elif ub == math.inf:
            out.append(f" {name} >= {lb:.17g}\n")
        else:
            out.append(f" {lb:.17g} <= {name} <= {ub:.17g}\n")
    if binaries:
        out.append("Binary\n")
        out += [" " + " ".join(binaries[i:i + 8]) + "\n" for i in range(0, len(binaries), 8)]
    return "".join(out) + "End\n"


def _lp_text(model):
    buf = io.StringIO()
    write_lp(model, buf)
    return buf.getvalue()


def _home_span(model, h):
    """Home ``h``'s columns, rows and terms."""
    lay = model.layout
    rows = np.flatnonzero(lay.row_home == h)
    return (np.flatnonzero(lay.var_home == h), rows,
            np.arange(model.indptr[rows[0]], model.indptr[rows[-1] + 1]))


def _lp_variants(model, cfg):
    """``model``, then variants of it in which home ``a`` differs from the
    other homes of its DER mix only in: the written order of one row (a
    structure group of one home); all its numbers, made home ``b``'s; a
    coefficient, a column bound and a row bound of 0.0 made -0.0; a ``<=``
    row made ``=``."""
    homes = cfg.homes
    a = next(i for i, h in enumerate(homes) if h.ess is not None and h.pv is not None)
    b = next(i for i in range(a + 1, len(homes)) if homes[i].archetype == homes[a].archetype)
    mix = [i for i, h in enumerate(homes) if h.archetype == homes[a].archetype]
    (cols, rows, terms), (cols_b, rows_b, terms_b) = _home_span(model, a), _home_span(model, b)
    yield model

    order = model.layout.term_order.copy()
    i = next(i for i in rows if model.indptr[i + 1] - model.indptr[i] > 1)
    order[model.indptr[i]:model.indptr[i] + 2] = order[model.indptr[i]:model.indptr[i] + 2][::-1]
    yield _broken(model, layout_term_order=order)

    numbers = {name: getattr(model, name).copy() for name in ("lb", "ub", "row_lower", "row_upper", "data")}
    for name, (ours, theirs) in (("lb", (cols, cols_b)), ("ub", (cols, cols_b)),
                                 ("row_lower", (rows, rows_b)), ("row_upper", (rows, rows_b)),
                                 ("data", (terms, terms_b))):
        numbers[name][ours] = numbers[name][theirs]
    yield _broken(model, **numbers)

    data, lb = model.data.copy(), model.lb.copy()
    row_lower, row_upper = model.row_lower.copy(), model.row_upper.copy()
    for h in mix:  # the last term, whose text follows slots of other rows
        data[_home_span(model, h)[2][-1]] = 0.0
    data[terms[-1]] = -0.0
    lb[cols[np.flatnonzero(lb[cols] == 0.0)[0]]] = -0.0
    zero = rows[np.flatnonzero((row_lower[rows] == 0.0) & (row_upper[rows] == 0.0))[0]]
    row_lower[zero] = row_upper[zero] = -0.0
    yield _broken(model, data=data, lb=lb, row_lower=row_lower, row_upper=row_upper)

    row_lower = model.row_lower.copy()
    i = rows[np.flatnonzero(row_lower[rows] == -math.inf)[0]]
    row_lower[i] = model.row_upper[i]
    yield _broken(model, row_lower=row_lower)


@pytest.mark.parametrize("lp", [False, True])
@pytest.mark.parametrize("n_homes, seed", [(20, 4), (40, 9)])
def test_write_lp_matches_a_plain_renderer(replication, n_homes, seed, lp):
    cfg = generate_synthetic_community(n_homes, seed, replication)
    model = build_system_centric_model(cfg, lp=lp)
    variants = list(_lp_variants(model, cfg)) if n_homes == 20 else [model]
    variants.append(build_home_model(cfg, cfg.homes[-1].id, lp=lp))
    for variant in variants:
        variant.validate()
        assert _lp_text(variant) == _reference_lp(variant)


@pytest.mark.parametrize("run_terms", [1, 50, 1000])
def test_write_lp_renders_the_community_rows_in_runs(replication, monkeypatch, run_terms):
    # the bundled day's community rows hold 20-22 terms each: one row per
    # run, two rows per run, and runs that end mid-slot
    model = build_system_centric_model(replication)
    whole = _lp_text(model)
    monkeypatch.setattr("cems.milp._RUN_TERMS", run_terms)
    assert _lp_text(model) == whole == _reference_lp(model)


@pytest.mark.parametrize("which", ["system", "home1"])
def test_highs_reads_the_lp_text_back(replication, tmp_path, which):
    model = (build_system_centric_model(replication) if which == "system"
             else build_home_model(replication, which))
    path = tmp_path / "model.lp"
    with open(path, "w", encoding="utf-8") as stream:
        write_lp(model, stream)
    highs = _highs._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("mip_rel_gap", SolverOptions().relative_mip_gap)
    assert highs.readModel(str(path)) == _highs.HighsStatus.kOk
    binaries = sum(v == _highs.HighsVarType.kInteger for v in highs.getLp().integrality_)
    assert (highs.getNumCol(), highs.getNumRow(), binaries) == (
        model.n_variables, model.n_constraints, model.n_binaries)
    highs.run()
    assert highs.getModelStatus() == _highs.HighsModelStatus.kOptimal
    solution = solve_model(model)
    assert solution.status == "optimal"
    assert highs.getObjectiveValue() == pytest.approx(solution.objective, rel=1e-9, abs=0.0)


def test_validate_rejects_homes_out_of_their_blocks(replication):
    model = build_system_centric_model(replication)
    model.validate()
    lay = model.layout
    first_com = int(np.flatnonzero(lay.var_home == -1)[0])
    home2 = int(np.flatnonzero(lay.var_home == 1)[0])

    def swapped(prefix, names, i, j):
        """The model with the codes of columns or rows ``i`` and ``j`` swapped."""
        arrays = {}
        for name in names:
            codes = getattr(lay, name).copy()
            codes[[i, j]] = codes[[j, i]]
            arrays[f"layout_{name}"] = codes
        return _broken(model, **arrays)

    columns = ("var_home", "var_role", "var_slot")
    # a community column among the homes' columns
    with pytest.raises(ModelBuildError, match="^status_com_1: out of place; each home's columns"):
        swapped("var", columns, home2, first_com).validate()
    # home2's block before home1's
    var_home = lay.var_home.copy()
    var_home[(lay.var_home == 0) | (lay.var_home == 1)] ^= 1
    with pytest.raises(ModelBuildError, match="^hvac_power_home2_1: out of place"):
        _broken(model, layout_var_home=var_home).validate()
    # a community row among the homes' rows
    first_com_row = int(np.flatnonzero(lay.row_home == -1)[0])
    with pytest.raises(ModelBuildError, match="^peak_hi_com_1: out of place; each home's rows"):
        swapped("row", ("row_home", "row_family", "row_slot"), 0, first_com_row).validate()
    # a home's row on another home's column: home2's terminal storage row
    # reads home1's first column
    row = lay.row_names().index("ess_terminal_home2")
    indices = model.indices.copy()
    indices[model.indptr[row]] = 0
    with pytest.raises(ModelBuildError, match="^ess_terminal_home2: references a column outside its home"):
        _broken(model, indices=indices).validate()
    with pytest.raises(ModelBuildError, match="^ess_terminal_home2: references"):
        write_lp(_broken(model, indices=indices), io.StringIO())
