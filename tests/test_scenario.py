"""Scenario loading, validation, and serialization tests.

Covers, in order:

1. the built-in scenarios: discovery, typed fields, and the initial
   wiring invariants the simulator relies on;
2. serialization round-trips: dump/load at the mapping, string, and
   file level must reproduce an identical normalized scenario;
3. normalization defaults for optional keys, numbers written in YAML
   1.2 exponent form, plain numbers in expression keys, and non-finite
   numbers, which every numeric key rejects;
4. the degree unit: references written in degrees must evaluate in
   radians after loading;
5. validation errors: every malformed field is rejected with a
   ScenarioError naming the offending key path;
6. the README's scenario example, which must load as the shipped ship
   scenario;
7. the two YAML parsers: libyaml's, which loading uses where PyYAML has
   it, and the pure-Python one give equal scenarios, or equal errors,
   for every built-in and every file the CLI fuzz test generates.

Error cases are generated by editing a valid built-in mapping, so each
test exercises exactly one defect.
"""

import math
import os
import re
import sys

import pytest
import yaml
from hypothesis import given, settings

from proxysafe.expr import evaluate
from proxysafe.scenario import (
    ScenarioError, builtin_names, dumps_scenario, load_builtin,
    load_scenario, loads_scenario, save_scenario,
)
from proxysafe.sim import simulate
from test_fuzz import cases


def broken(name, mutate):
    """A built-in mapping with one defect applied, as YAML text."""
    mapping = load_builtin(name).to_mapping()
    mutate(mapping)
    return yaml.safe_dump(mapping)


# ═══════════════════════════════════════════════════════════════════
# 1. built-ins
# ═══════════════════════════════════════════════════════════════════

def test_builtin_discovery():
    assert builtin_names() == ["electromech", "ship"]
    with pytest.raises(ScenarioError, match="no built-in"):
        load_builtin("submarine")


def test_ship_fields():
    spec = load_builtin("ship")
    assert (spec.name, spec.plant.n, spec.m) == ("ship", 1, 1)
    assert spec.angle_unit == "degree"
    assert spec.controller == "nussbaum"
    assert len(spec.proxies) == 1
    assert spec.proxies[0].xi == pytest.approx(math.pi ** 2 / 81, abs=1e-15)
    assert spec.rho.value(0.0) == 0.02 and spec.rho.value(100.0) == 0.02
    assert spec.plant.known == (False,)
    assert spec.check_box == (-0.35, 0.35)
    kind, block = spec.controller_block()
    assert kind == "nussbaum"
    assert block["zeta0"] == 8.8
    assert block["theta0"] == (0.0, 0.0)


def test_electromech_fields():
    spec = load_builtin("electromech")
    assert (spec.name, spec.plant.n, spec.m) == ("electromech", 2, 2)
    assert spec.controller == "dob_backstepping"
    assert len(spec.proxies) == 2
    assert [p.xi for p in spec.proxies] == [0.4, 0.4]
    assert spec.rho.value(0.0) == pytest.approx(0.85)
    assert spec.rho.rho_inf == 0.05
    assert spec.initial_x == -0.08
    assert spec.initial_z == (0.0, 0.0)
    # both tracking controllers are configured on this scenario
    assert set(spec.controllers) >= {"dob_backstepping", "ppc"}
    kind, block = spec.controller_block("ppc")
    assert kind == "ppc"
    assert block["signs"] == (1.0, 1.0)


def test_controller_block_rejects_unconfigured():
    spec = load_builtin("ship")
    with pytest.raises(ScenarioError, match="not configured"):
        spec.controller_block("dob_backstepping")


# ═══════════════════════════════════════════════════════════════════
# 2. round-trips
# ═══════════════════════════════════════════════════════════════════

@pytest.mark.parametrize("name", ["ship", "electromech"])
def test_mapping_round_trip_identity(name):
    spec = load_builtin(name)
    again = loads_scenario(dumps_scenario(spec))
    assert again.to_mapping() == spec.to_mapping()
    # and a second generation stays fixed (normalization is idempotent)
    third = loads_scenario(dumps_scenario(again))
    assert third.to_mapping() == again.to_mapping()


def test_file_round_trip(tmp_path):
    spec = load_builtin("ship")
    path = tmp_path / "ship.yaml"
    save_scenario(spec, path)
    back = load_scenario(path)
    assert back.to_mapping() == spec.to_mapping()


def test_to_mapping_returns_a_copy():
    spec = load_builtin("ship")
    mapping = spec.to_mapping()
    mapping["horizon"] = 1.0
    assert spec.to_mapping()["horizon"] == 600


# ═══════════════════════════════════════════════════════════════════
# 3. normalization defaults
# ═══════════════════════════════════════════════════════════════════

MINIMAL = """
name: minimal
plant:
  n: 1
  levels:
    - {f: "0", g: "1"}
proxy:
  - {m: 1, h: "1 - x^2", xi: 1, lambdas: [1, 1], betas: [1]}
rho: {initial: 0.5}
controller: nussbaum
controllers:
  nussbaum:
    gains: {gamma1: 1, gamma2: 1, k: 1}
    phi: ["z1"]
nominal: {ks: [1, 1], cs: [1, 1], x_d: "0"}
initial: {x: [0], z: [0]}
horizon: 1
dt: 0.01
check_box: [[-1, 1]]
"""


def test_minimal_defaults():
    spec = loads_scenario(MINIMAL)
    mapping = spec.to_mapping()
    assert mapping["angle_unit"] == "radian"
    assert mapping["plant"]["known"] == [True]
    assert mapping["plant"]["disturbances"] == []
    assert mapping["rho"]["final"] == 0.5 and mapping["rho"]["decay"] == 0.0
    assert mapping["proxy"][0]["mode"] == "switched"
    assert mapping["controllers"]["nussbaum"]["initial"] == \
        {"zeta": 0.0, "theta": [0.0]}
    assert mapping["hold_dt"] is None
    assert mapping["seed"] == 0
    assert spec.hold_dt is None


def test_plain_mode_needs_no_check_box():
    plain = MINIMAL.replace("betas: [1]}", "betas: [1], mode: plain}")
    spec = loads_scenario(plain.replace("check_box: [[-1, 1]]\n", ""))
    assert spec.to_mapping()["check_box"] is None
    assert spec.check_box is None


def test_defaults_keep_the_written_types():
    # rho.final defaults to initial as written: an int stays an int
    spec = loads_scenario(broken("ship", lambda m: m.update(
        rho={"initial": 1})))
    rho = spec.to_mapping()["rho"]
    assert rho == {"initial": 1, "final": 1, "decay": 0.0}
    assert type(rho["final"]) is int
    # a controller kind without gains gains no gains key
    spec = loads_scenario(broken("ship", lambda m: m.update(
        controller="nominal", controllers={"nominal": {}})))
    assert spec.to_mapping()["controllers"] == {"nominal": {}}


def test_unquoted_exponent_numbers_are_floats(tmp_path):
    """PyYAML reads YAML 1.1, where 1e-2, 1E3 and .5e1 are strings; every
    numeric key reads them as the floats YAML 1.2 makes them, and a run
    with dt: 1e-2 writes the trace of dt: 0.01.  A quoted decimal such as
    "0.01" is still rejected."""
    ship = dumps_scenario(load_builtin("ship"))
    traces = []
    for dt in ("0.01", "1e-2"):
        spec = loads_scenario(ship.replace("dt: 0.01\n", f"dt: {dt}\n"))
        assert spec.dt == 0.01
        out = tmp_path / f"dt={dt}.csv"
        simulate(spec, horizon=0.5, out=out).to_csv(out)
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]
    spec = loads_scenario(MINIMAL.replace("horizon: 1\n", "horizon: .5e1\n")
                          .replace("lambdas: [1, 1]", "lambdas: [1E3, 2e+0]"))
    assert spec.horizon == 5.0
    assert spec.proxies[0].lambdas == (1000.0, 2.0)
    with pytest.raises(ScenarioError,
                       match=r"^dt: expected a number, got '0\.01'$"):
        loads_scenario(ship.replace("dt: 0.01\n", 'dt: "0.01"\n'))


# one key of each family `_expr` reads, and where the loaded expression
# lands in the spec
EXPRESSION_KEYS = {
    "plant.f0": ("ship", ("plant", "f0"), lambda s: s.plant.f0),
    "plant.g0": ("ship", ("plant", "g0"), lambda s: s.plant.g0),
    "level f": ("ship", ("plant", "levels", 0, "f"), lambda s: s.plant.fs[0]),
    "level g": ("ship", ("plant", "levels", 0, "g"), lambda s: s.plant.gs[0]),
    "disturbance": ("electromech", ("plant", "disturbances", 0),
                    lambda s: s.plant.disturbances[0]),
    "h": ("ship", ("proxy", 0, "h"), lambda s: s.proxies[0].h),
    "phi": ("ship", ("controllers", "nussbaum", "phi", 0),
            lambda s: s.controllers["nussbaum"]["phi"][0]),
    "x_d": ("electromech", ("nominal", "x_d"), lambda s: s.nominal.x_d),
}


def _set(mapping, path, value):
    for key in path[:-1]:
        mapping = mapping[key]
    mapping[path[-1]] = value


@pytest.mark.parametrize("key", sorted(EXPRESSION_KEYS))
def test_unquoted_numbers_are_constant_expressions(key):
    """A plain YAML number in an expression key loads as the expression
    its repr parses to, as the quoted and the exponent spellings do;
    a bool or a non-finite number is still rejected."""
    name, path, get = EXPRESSION_KEYS[key]
    for number, spellings in [(1, ["1", "1.0"]), (0.5, ["0.5", "5e-1"]),
                              (-2, ["-2"])]:
        got = get(loads_scenario(broken(name, lambda m: _set(m, path,
                                                              number))))
        for text in spellings:
            want = get(loads_scenario(broken(name, lambda m: _set(m, path,
                                                                   text))))
            assert repr(got) == repr(want), (number, text)
    for bad in (True, math.nan, math.inf):
        with pytest.raises(ScenarioError,
                           match="expected an expression string"):
            loads_scenario(broken(name, lambda m: _set(m, path, bad)))


@pytest.mark.parametrize("mutate, message", [
    (lambda m: m.update(check_box=[[-math.inf, math.inf]]),
     r"^check_box\[0\]\[0\]: expected a finite number, got -inf$"),
    (lambda m: m.update(check_box=[[-0.3, math.nan]]),
     r"^check_box\[0\]\[1\]: expected a finite number, got nan$"),
    (lambda m: m.update(dt=math.nan), r"^dt: expected a finite number, got nan$"),
    (lambda m: m.update(horizon=math.nan),
     r"^horizon: expected a finite number, got nan$"),
    (lambda m: m.update(dt="1e999"), r"^dt: expected a finite number, got inf$"),
], ids=["box-inf", "box-nan", "dt-nan", "horizon-nan", "dt-overflow"])
def test_non_finite_numbers_are_rejected(mutate, message):
    """NaN passes `lo < hi` and `dt > 0` style tests by failing them
    quietly, and infinity makes a box no bisection can cover: every
    numeric key is finite."""
    with pytest.raises(ScenarioError, match=message):
        loads_scenario(broken("ship", mutate))


def test_observer_defaults():
    def mutate(m):
        obs = m["controllers"]["dob_backstepping"]["observer"]
        del obs["nus"], obs["time_constants"]
    spec = loads_scenario(broken("electromech", mutate))
    obs = spec.to_mapping()["controllers"]["dob_backstepping"]["observer"]
    assert obs["nus"] == [1.0, 1.0] and obs["time_constants"] == [[1.0]]
    dob = spec.controllers["dob_backstepping"]["observer"]
    assert dob.nus == (1.0, 1.0) and dob.time_constants == ((1.0,),)


def test_ppc_gain_defaults():
    spec = loads_scenario(broken(
        "electromech",
        lambda m: m["controllers"]["ppc"]["gains"].pop("margin")))
    assert spec.controllers["ppc"]["gains"].margin == 1.5


# ═══════════════════════════════════════════════════════════════════
# 4. degree handling
# ═══════════════════════════════════════════════════════════════════

def test_degree_reference_evaluates_in_radians():
    spec = load_builtin("ship")
    t = 40.0
    want = math.radians(30.0 * math.sin(0.02 * t))
    got = evaluate(spec.nominal.x_d, {"t": t})
    assert got == pytest.approx(want, abs=1e-15)
    # the raw mapping keeps the degree-valued source text
    assert spec.raw["nominal"]["x_d"] == "30 * sin(0.02 * t)"


def test_radian_reference_untouched():
    spec = loads_scenario(MINIMAL.replace('x_d: "0"', 'x_d: "sin(t)"'))
    assert evaluate(spec.nominal.x_d, {"t": 2.0}) == math.sin(2.0)


# ═══════════════════════════════════════════════════════════════════
# 5. validation errors
# ═══════════════════════════════════════════════════════════════════

def test_rejects_non_yaml_and_non_mappings():
    with pytest.raises(ScenarioError, match="not valid YAML"):
        loads_scenario("bad: [")
    with pytest.raises(ScenarioError, match="top-level mapping"):
        loads_scenario("- a\n- list\n")
    with pytest.raises(ScenarioError, match="top-level mapping"):
        loads_scenario("")


@pytest.mark.parametrize("name", ["../victim/ship", "/abs/ship", "a/b",
                                  "a\\b", "a\0b", ".", ".."])
def test_a_name_that_is_not_one_file_name_is_rejected(name):
    # a run writes its trace as {name}_{controller}.csv in its output
    # directory, so the name can neither leave that directory nor be one
    with pytest.raises(ScenarioError, match="^name: expected a file name"):
        loads_scenario(broken("ship", lambda m: m.update(name=name)))


@pytest.mark.parametrize("key", ["name", "plant", "proxy", "rho",
                                 "controller", "controllers", "nominal",
                                 "initial", "horizon", "dt"])
def test_missing_top_level_key(key):
    with pytest.raises(ScenarioError, match=key):
        loads_scenario(broken("ship", lambda m: m.pop(key)))


@pytest.mark.parametrize("mutate, fragment", [
    (lambda m: m.update(angle_unit="turns"), "angle_unit"),
    (lambda m: m["plant"].update(n=0), "plant.n"),
    (lambda m: m["plant"]["levels"].append({"f": "0", "g": "1"}),
     "plant.levels"),
    (lambda m: m["plant"]["levels"][0].update(f="z5"), "undeclared"),
    (lambda m: m["plant"].update(known="yes"), "plant.known"),
    (lambda m: m["rho"].update(initial=-1), "rho"),
    (lambda m: m["rho"].update(final=100), "rho"),
    (lambda m: m["proxy"][0].update(m=0), "proxy"),
    (lambda m: m["proxy"][0].update(lambdas=[6]), "lambdas"),
    (lambda m: m["proxy"][0].update(xi="x + 1"), "constant"),
    (lambda m: m["proxy"][0].update(mode="smooth"), "mode"),
    (lambda m: m.update(controller="autopilot"), "controller"),
    (lambda m: m.update(controller="ppc"), "no configured block"),
    (lambda m: m["controllers"].update(autopilot={}), "unknown controller"),
    (lambda m: m["controllers"]["nussbaum"]["gains"].pop("k"), "gains"),
    (lambda m: m["controllers"]["nussbaum"]["gains"].update(gamma1=-1),
     "gamma1"),
    (lambda m: m["controllers"]["nussbaum"].update(phi=[]), "phi"),
    (lambda m: m["controllers"]["nussbaum"].update(
        initial={"zeta": 1.0, "theta": [0.0]}), "theta"),
    (lambda m: m["nominal"].update(ks=[1, 1, 1]), "nominal.ks"),
    (lambda m: m["nominal"].update(cs=[1, -1]), "nominal"),
    (lambda m: m["nominal"].update(x_d="sin(q)"), "undeclared"),
    (lambda m: m["initial"].update(z=[0, 0]), "initial.z"),
    (lambda m: m.update(horizon=-5), "horizon"),
    (lambda m: m.update(dt=0), "horizon"),
    (lambda m: m.update(hold_dt=0.001), "hold_dt"),
    (lambda m: m.update(check_box=[[1, -1]]), "check_box"),
    (lambda m: m.update(check_box=[[0]]), "check_box"),
    (lambda m: m.update(check_box=[[-0.35, 0.35], [-1, 1]]),
     "check_box: expected one"),
    (lambda m: m.update(check_box=None), "check_box: required"),
    (lambda m: m.update(seed=1.5), "seed"),
    # a block of the wrong shape is named, not met with a raw traceback
    (lambda m: m.update(plant=[1, 2]), "plant: expected a mapping"),
    (lambda m: m.update(rho=5), "rho: expected a mapping"),
    (lambda m: m.update(proxy={"h": "x"}), "proxy: expected a"),
    (lambda m: m.update(controllers=["nussbaum"]),
     "controllers: expected a mapping"),
    (lambda m: m["plant"].update(n="abc"), "plant.n: expected"),
    (lambda m: m["plant"].update(bounds=[0.1, 0.2]),
     "plant.bounds: need one per level or none"),
    (lambda m: m["plant"].update(bounds=["a"]), "plant.bounds"),
    (lambda m: m["controllers"]["nussbaum"].update(initial=[8.8]),
     "controllers.nussbaum.initial: expected a mapping"),
])
def test_ship_defects_rejected(mutate, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        loads_scenario(broken("ship", mutate))


@pytest.mark.parametrize("key", ["h", "xi"])
def test_too_deeply_nested_expression_is_named(key):
    # a left-associated sum parses one tree level deeper per term, and
    # these terms outnumber the interpreter's recursion limit
    term = {"h": " + 0.0001*sin(x)", "xi": " + 0.0"}[key]

    def mutate(m):
        m["proxy"][0][key] = str(m["proxy"][0][key]) + \
            term * sys.getrecursionlimit()
    with pytest.raises(ScenarioError, match=rf"^proxy\[0\]\.{key}: "
                                            "expression nests too deeply$"):
        loads_scenario(broken("ship", mutate))


@pytest.mark.parametrize("key, value, message", [
    ("h", "1e400 * x",
     "proxy[0].h: parse error: number out of range at offset 0"),
    ("xi", "1e400", "proxy[0].xi: not a constant expression: "
                    "number out of range at offset 0"),
], ids=["h", "xi"])
def test_a_number_out_of_range_is_named(key, value, message):
    with pytest.raises(ScenarioError) as info:
        loads_scenario(broken("ship",
                              lambda m: m["proxy"][0].update({key: value})))
    assert str(info.value) == message


@pytest.mark.parametrize("value, shown", [("1e308*10", "inf"),
                                          ("0*(1e308*10)", "nan")],
                         ids=["inf", "nan"])
def test_a_constant_expression_that_overflows_is_named(value, shown):
    # 0*1e308*10 reads as (0*1e308)*10, which is 0: the nan needs the
    # parentheses
    with pytest.raises(ScenarioError) as info:
        loads_scenario(broken("ship",
                              lambda m: m["proxy"][0].update(xi=value)))
    assert str(info.value) == \
        f"proxy[0].xi: expected a finite number, got {shown}"


@pytest.mark.parametrize("mutate, fragment", [
    (lambda m: m["controllers"]["dob_backstepping"].update(observer=[1, 2]),
     "controllers.dob_backstepping.observer: expected a mapping"),
    (lambda m: m["controllers"].update(ppc=3),
     "controllers.ppc: expected a mapping"),
])
def test_electromech_defects_rejected(mutate, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        loads_scenario(broken("electromech", mutate))


@pytest.mark.parametrize("level, g", [(0, "0"), (0, "x - x"), (1, "0 * z2")])
def test_identically_zero_level_gain_is_rejected(level, g):
    """The strict-feedback premise needs g_i != 0: a level gain that
    simplifies to the constant 0 is named at load time."""
    def mutate(m):
        m["plant"]["levels"][level]["g"] = g
    with pytest.raises(ScenarioError, match=rf"^plant\.levels\[{level}\]\.g: "
                                            "is identically zero"):
        loads_scenario(broken("electromech", mutate))


def test_nussbaum_needs_single_level():
    def mutate(m):
        m["controllers"]["nussbaum"] = {
            "gains": {"gamma1": 10, "gamma2": 2, "k": 2}, "phi": ["z1"]}
    with pytest.raises(ScenarioError, match="single plant level"):
        loads_scenario(broken("electromech", mutate))


def test_disturbances_need_rejecting_controller():
    def mutate(m):
        m["plant"]["disturbances"] = ["sin(t)"]
    with pytest.raises(ScenarioError, match="disturbance"):
        loads_scenario(broken("ship", mutate))


def test_observer_needs_known_model():
    def mutate(m):
        m["plant"]["known"] = [True, False]
    with pytest.raises(ScenarioError, match="known"):
        loads_scenario(broken("electromech", mutate))


def test_observer_needs_full_depth_chain():
    def mutate(m):
        for entry in m["proxy"]:
            entry["m"] = 1
            entry["lambdas"] = [10, 10]
            entry["betas"] = [0.05]
    with pytest.raises(ScenarioError, match="m equal to"):
        loads_scenario(broken("electromech", mutate))


def test_barriers_must_share_chain_length():
    def mutate(m):
        m["proxy"][1]["m"] = 1
        m["proxy"][1]["lambdas"] = [10, 10]
        m["proxy"][1]["betas"] = [0.05]
    with pytest.raises(ScenarioError, match="share one chain length"):
        loads_scenario(broken("electromech", mutate))


def test_ppc_signs_validation():
    with pytest.raises(ScenarioError, match="signs"):
        loads_scenario(broken(
            "electromech",
            lambda m: m["controllers"]["ppc"].update(signs=[1, 0])))
    with pytest.raises(ScenarioError, match="signs"):
        loads_scenario(broken(
            "electromech",
            lambda m: m["controllers"]["ppc"].update(signs=[1])))


# ═══════════════════════════════════════════════════════════════════
# 6. documentation
# ═══════════════════════════════════════════════════════════════════

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_example_is_the_ship_scenario():
    with open(README, encoding="utf-8") as fh:
        text = re.search(r"```yaml\n(.*?)```", fh.read(), re.S).group(1)
    spec = loads_scenario(text)
    assert spec.to_mapping() == load_builtin("ship").to_mapping()


# ═══════════════════════════════════════════════════════════════════
# 7. libyaml and the pure-Python parser
# ═══════════════════════════════════════════════════════════════════

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML was built without libyaml")
SCENARIO_DIR = os.path.join(os.path.dirname(README), "src", "proxysafe",
                            "scenarios")


def loaded(text):
    """loads_scenario(text): the ScenarioSpec, or the ScenarioError text."""
    try:
        return loads_scenario(text)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


def assert_parsers_agree(text):
    fast = loaded(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(yaml, "CSafeLoader")
        pure = loaded(text)
    assert fast == pure
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)


@needs_libyaml
@pytest.mark.parametrize("name", builtin_names())
def test_libyaml_loads_each_builtin_as_the_pure_parser(name):
    with open(os.path.join(SCENARIO_DIR, f"{name}.yaml"),
              encoding="utf-8") as fh:
        text = fh.read()
    assert loaded(text) == load_builtin(name)
    assert_parsers_agree(text)


@needs_libyaml
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases())
def test_libyaml_loads_each_fuzz_case_as_the_pure_parser(case):
    _, text, _ = case
    assert_parsers_agree(text)
