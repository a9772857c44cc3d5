"""The value classes of the package keep the contract they had as
dataclasses.

Coverage:
  1. the nine frozen specs (namedtuple subclasses): equal fields give
     equal values with equal hashes, one changed field an unequal one;
     the repr is `Name(field=...)` over every field in order; an
     attribute cannot be assigned or added; positional and keyword
     construction give the same value, defaults included; sequences
     are normalized to tuples of floats where they were before
  2. the four mutable classes (plain classes): positional and keyword
     construction give the same attributes and defaults, and a default
     dict is never shared between two instances
"""

from array import array

import pytest

from proxysafe.barrier import (
    ConditionCheck, ConditionReport, ProxySpec, RhoSpec,
)
from proxysafe.controllers import (
    DobBackstepGains, NominalGains, NussbaumGains, PpcGains,
)
from proxysafe.dob import DobSpec
from proxysafe.expr import parse
from proxysafe.plots import PlotError, Series
from proxysafe.scenario import PlantSpec, load_builtin
from proxysafe.sim import SimTrace


# ═══════════════════════════════════════════════════════════════════
# 1. frozen specs
# ═══════════════════════════════════════════════════════════════════

def _ship():
    return load_builtin("ship")


# class -> (field names in order, the required arguments, a field to
# change with its new value); every field not required has its default
FROZEN = {
    RhoSpec: (("rho0", "rho_inf", "decay"),
              (0.85, 0.05), ("decay", 3.0)),
    ProxySpec: (("m", "f0", "g0", "h", "xi", "lambdas", "betas", "mode"),
                (1, parse("0"), parse("1"), parse("1 - x^2"), 0.1,
                 (1.0, 2.0), (1.0,)), ("mode", "plain")),
    NominalGains: (("ks", "cs", "x_d"),
                   ((1.0, 2.0), (1.0, 1.0), parse("sin(t)")),
                   ("cs", (1.0, 3.0))),
    PpcGains: (("ks", "margin", "floor"), ((1.0, 2.0),), ("floor", 0.2)),
    NussbaumGains: (("gamma1", "gamma2", "k"), (1.0, 0.0, 2.0),
                    ("gamma2", 0.5)),
    DobBackstepGains: (("ks", "gamma_fs", "sigmas"),
                       ((10.0, 10.0), (50.0,), (1.0, 1.0)),
                       ("sigmas", (1.0, 2.0))),
    DobSpec: (("alphas", "nus", "time_constants"), ((30.0, 30.0),),
              ("nus", (2.0, 2.0))),
    PlantSpec: (("n", "f0", "g0", "fs", "gs", "disturbances", "known"),
                (1, parse("0"), parse("1"), (parse("z1"),), (parse("1"),),
                 (), (True,)), ("known", (False,))),
}
DEFAULTS = {
    RhoSpec: {"decay": 0.0},
    ProxySpec: {"mode": "switched"},
    PpcGains: {"margin": 1.5, "floor": 0.1},
    DobSpec: {"nus": (1.0, 1.0), "time_constants": ((1.0,),)},
}


def _keywords(cls):
    fields, required, _ = FROZEN[cls]
    return dict(zip(fields, required))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values(cls):
    _, _, (name, value) = FROZEN[cls]
    one, two = cls(**_keywords(cls)), cls(**_keywords(cls))
    assert one == two and not one != two
    assert hash(one) == hash(two)
    other = cls(**{**_keywords(cls), name: value})
    assert one != other and getattr(other, name) == value


def test_scenario_specs_compare_by_value():
    # a scenario holds its dicts, so it is unhashable, as it was
    one, two = _ship(), _ship()
    assert one == two
    assert one != one._replace(name="other")
    with pytest.raises(TypeError):
        hash(one)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    fields = FROZEN[cls][0]
    value = cls(**_keywords(cls))
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in fields) + ")"
    spec = _ship()
    assert repr(spec).startswith(f"ScenarioSpec(name={spec.name!r}, "
                                 f"angle_unit={spec.angle_unit!r}, ")


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_specs_refuse_assignment(cls):
    value = cls(**_keywords(cls))
    with pytest.raises(AttributeError):
        setattr(value, FROZEN[cls][0][0], None)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    spec = _ship()
    with pytest.raises(AttributeError):
        spec.dt = 1.0


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    fields, required, _ = FROZEN[cls]
    by_position, by_keyword = cls(*required), cls(**_keywords(cls))
    assert by_position == by_keyword
    for name, default in DEFAULTS.get(cls, {}).items():
        assert getattr(by_position, name) == default
    assert [getattr(by_position, name) for name in fields[:len(required)]] \
        == list(required)


def test_sequences_are_normalized_as_before():
    proxy = ProxySpec(1, parse("0"), parse("1"), parse("1 - x^2"), 0.1,
                      [1, 2], [1])
    assert proxy.lambdas == (1.0, 2.0) and type(proxy.lambdas[0]) is float
    assert proxy.betas == (1.0,) and type(proxy.betas) is tuple
    gains = NominalGains([1, 2], [1, 1], parse("t"))
    assert (gains.ks, gains.cs) == ((1.0, 2.0), (1.0, 1.0))
    assert PpcGains([1]).ks == (1.0,)
    dob = DobSpec([30, 30], [1, 1], [[100]])
    assert (dob.alphas, dob.nus, dob.time_constants) == \
        ((30.0, 30.0), (1.0, 1.0), ((100.0,),))
    plant = PlantSpec(1, parse("0"), parse("1"), [parse("z1")],
                      [parse("1")], [], [True])
    assert all(type(getattr(plant, name)) is tuple
               for name in ("fs", "gs", "disturbances", "known"))
    # values that were not normalized stay as given
    assert type(RhoSpec(1, 1).rho0) is int


# ═══════════════════════════════════════════════════════════════════
# 2. mutable classes
# ═══════════════════════════════════════════════════════════════════

def test_condition_check_and_report_construction():
    by_position = ConditionCheck("pass", "fine")
    by_keyword = ConditionCheck(verdict="pass", detail="fine")
    assert vars(by_position) == vars(by_keyword) == \
        {"verdict": "pass", "detail": "fine", "data": {}}
    assert by_position.data is not by_keyword.data
    assert ConditionCheck("fail", "bad", {"x": 1.0}).data == {"x": 1.0}
    checks = [ConditionCheck(v, "") for v in ("pass", "skipped", "fail")]
    report = ConditionReport(*checks)
    assert vars(report) == vars(ConditionReport(
        grad_check=checks[0], budget_check=checks[1], init_check=checks[2]))
    assert not report.ok
    report.init_check = ConditionCheck("inconclusive-pass", "")
    assert report.ok


def test_sim_trace_construction():
    args = ("ship", "nussbaum", ["t", "x"], array("d", [0.0, 1.0]), "SAFE")
    by_position = SimTrace(*args)
    by_keyword = SimTrace(scenario="ship", controller="nussbaum",
                          columns=["t", "x"], data=array("d", [0.0, 1.0]),
                          verdict="SAFE")
    assert vars(by_position) == vars(by_keyword)
    assert (by_position.reason, by_position.monitors,
            by_position._parsed, by_position._file) == (None, {}, None, None)
    assert by_position.monitors is not by_keyword.monitors
    assert by_position.n_rows == 1
    full = SimTrace(*args, "why", {"steps": 0.0})
    assert (full.reason, full.monitors) == ("why", {"steps": 0.0})


def test_series_construction():
    by_position = Series("x", [0, 1], [2, 3])
    assert vars(by_position) == vars(Series(label="x", xs=[0, 1],
                                            ys=[2, 3]))
    assert (by_position.dashed, by_position.color) == (False, None)
    styled = Series("x", [0], [1], True, "#000000")
    assert (styled.dashed, styled.color) == (True, "#000000")
    with pytest.raises(PlotError, match="series 'x': 2 x values vs 1 y"):
        Series("x", [0, 1], [2])
