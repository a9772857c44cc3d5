"""Scenario files: declarative descriptions of a closed-loop setup.

A scenario is a single YAML mapping that names the plant (a scalar
strict-feedback chain with optional additive time disturbances), the
safe sets with their barrier parameters, the error funnel, the tracking
controller with its gains, the reference, and the run settings.  All
dynamics are expression strings over the declared state names, parsed by
the expression engine at load time, so new systems need no code changes.

Loading validates shapes, positivity, and controller premises, and keeps
the normalized mapping alongside the typed objects so a loaded scenario
serializes back to an identical file.  The text is parsed with libyaml
(`yaml.CSafeLoader`) where PyYAML has it; a text it rejects is parsed
again by the pure-Python loader, whose message the error carries.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

import yaml

from proxysafe.barrier import ProxySpec, RhoSpec
from proxysafe.controllers import (
    DobBackstepGains, NominalGains, NussbaumGains, PpcGains,
)
from proxysafe.dob import DobSpec
from proxysafe.expr import Const, Expr, ExprError, evaluate, parse, simplify

__all__ = [
    "ScenarioError", "PlantSpec", "ScenarioSpec",
    "load_scenario", "loads_scenario", "save_scenario", "dumps_scenario",
    "builtin_names", "load_builtin",
]

CONTROLLER_TYPES = ("nominal", "ppc", "nussbaum", "dob_backstepping")
DEG = math.pi / 180.0
# the YAML 1.2 floats that PyYAML, which reads YAML 1.1, leaves strings:
# an exponent without a dot before it or without a sign (1e-2, 1E3, .5e1)
_EXPONENT_FORM = re.compile(
    r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+")


class ScenarioError(Exception):
    """A scenario file is malformed; the message carries the key path."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _get(mapping, key, path, default=None, required=False):
    """mapping[key] and its key path: `path.key`, or the bare key at the
    top level, where `path` is empty.  The converters and checks take
    both, so a key is named once.  A missing optional key takes
    `default`, which is also stored in `mapping`, so the loaded mapping
    serializes normalized."""
    if not isinstance(mapping, dict):
        _fail(path, "expected a mapping")
    if key not in mapping:
        if required:
            _fail(path, f"missing required key '{key}'")
        mapping[key] = default
    return mapping[key], f"{path}.{key}" if path else key


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:       # an int past the float range
        return False


def _num(value, path) -> float:
    if isinstance(value, str) and _EXPONENT_FORM.fullmatch(value):
        value = float(value)
    if not _is_number(value):
        _fail(path, f"expected a number, got {value!r}")
    if not _finite(value):
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _const(value, path) -> float:
    """A numeric scalar, given either as a literal or as a constant
    expression string (handy for values like pi^2/81)."""
    if isinstance(value, str):
        try:
            value = evaluate(parse(value), {})
        except ExprError as exc:
            _fail(path, f"not a constant expression: {exc}")
        except RecursionError:
            _fail(path, "expression nests too deeply")
    return _num(value, path)


def _expr(value, path, allowed: set) -> Expr:
    """An expression string; a finite number, which YAML reads unquoted,
    is the expression its repr parses to."""
    if _is_number(value) and _finite(value):
        value = repr(value)
    if not isinstance(value, str):
        _fail(path, f"expected an expression string, got {value!r}")
    try:
        e = parse(value)
        extra = e.variables() - allowed
    except ExprError as exc:
        _fail(path, f"parse error: {exc}")
    except RecursionError:
        _fail(path, "expression nests too deeply")
    if extra:
        _fail(path, f"uses undeclared variables {sorted(extra)} "
                    f"(allowed: {sorted(allowed)})")
    return e


def _num_list(value, path, count=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of numbers")
    out = [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if count is not None and len(out) != count:
        _fail(path, f"expected {count} entries, got {len(out)}")
    return out


class PlantSpec(namedtuple("PlantSpec",
                           "n f0 g0 fs gs disturbances known")):
    """The true scalar strict-feedback plant.

    The head state x follows f0 + g0*z1; each level i follows
    f_i + g_i*(next level or input) plus an optional additive
    time-only disturbance.  `known` marks levels whose model functions
    the controller may consume.
    """

    __slots__ = ()

    def __new__(cls, n: int, f0: Expr, g0: Expr, fs: tuple, gs: tuple,
                disturbances: tuple, known: tuple):
        if n < 1:
            raise ScenarioError("plant.n: must be at least 1")
        fs, gs, disturbances, known = \
            tuple(fs), tuple(gs), tuple(disturbances), tuple(known)
        if len(fs) != n or len(gs) != n:
            raise ScenarioError("plant.levels: need one f,g pair per level")
        if disturbances and len(disturbances) != n:
            raise ScenarioError("plant.disturbances: need one per level or none")
        if len(known) != n:
            raise ScenarioError("plant.known: need one flag per level")
        return super().__new__(cls, n, f0, g0, fs, gs, disturbances, known)


def _parse_plant(data, path) -> PlantSpec:
    n, n_path = _get(data, "n", path, required=True)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        _fail(n_path, f"expected a positive integer, got {n!r}")
    head = {"x"}
    f0 = _expr(*_get(data, "f0", path, default="0"), head)
    g0 = _expr(*_get(data, "g0", path, default="1"), head)
    levels, levels_path = _get(data, "levels", path, required=True)
    if not isinstance(levels, list) or len(levels) != n:
        _fail(levels_path, f"expected a list of {n} mappings")
    fs, gs = [], []
    for i, lvl in enumerate(levels, start=1):
        lp = f"{levels_path}[{i - 1}]"
        allowed = head | {f"z{j}" for j in range(1, i + 1)}
        fs.append(_expr(*_get(lvl, "f", lp, required=True), allowed))
        g, g_path = _get(lvl, "g", lp, required=True)
        gs.append(_expr(g, g_path, allowed))
        g = simplify(gs[-1])
        if isinstance(g, Const) and g.value == 0.0:
            # the strict-feedback premise: each level drives the next
            _fail(g_path, "is identically zero; the chain needs g_i != 0")
    raw_d, d_path = _get(data, "disturbances", path, default=[])
    if not isinstance(raw_d, list):
        _fail(d_path, "expected a list")
    ds = [_expr(v, f"{d_path}[{i}]", {"t"}) for i, v in enumerate(raw_d)]
    # declared disturbance-slope bounds: validated and kept in the file,
    # read by nothing
    bounds, bounds_path = _get(data, "bounds", path, default=[])
    bounds = _num_list(bounds, bounds_path)
    known, known_path = _get(data, "known", path, default=[True] * n)
    if not isinstance(known, list) or not all(isinstance(v, bool) for v in known):
        _fail(known_path, "expected a list of booleans")
    if bounds and len(bounds) != n:
        _fail(bounds_path, "need one per level or none")
    return PlantSpec(n=n, f0=f0, g0=g0, fs=fs, gs=gs, disturbances=ds,
                     known=known)


def _parse_rho(data, path) -> RhoSpec:
    initial = _num(*_get(data, "initial", path, required=True))
    # the default is the initial value as written, so an int stays an int
    final = _num(*_get(data, "final", path, default=data["initial"]))
    decay = _num(*_get(data, "decay", path, default=0.0))
    try:
        return RhoSpec(initial, final, decay)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_proxies(data, path, plant: PlantSpec):
    if not isinstance(data, list) or not data:
        _fail(path, "expected a nonempty list of barrier mappings")
    proxies = []
    m_seen = None
    for k, entry in enumerate(data):
        ep = f"{path}[{k}]"
        m, m_path = _get(entry, "m", ep, required=True)
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            _fail(m_path, f"expected a positive integer, got {m!r}")
        if m_seen is None:
            m_seen = m
        elif m != m_seen:
            _fail(m_path, "all barriers must share one chain length")
        h = _expr(*_get(entry, "h", ep, required=True), {"x"})
        xi = _const(*_get(entry, "xi", ep, required=True))
        lambdas = _num_list(*_get(entry, "lambdas", ep, required=True), m + 1)
        betas = _num_list(*_get(entry, "betas", ep, required=True), m)
        mode, _ = _get(entry, "mode", ep, default="switched")
        try:
            proxies.append(ProxySpec(m=m, f0=plant.f0, g0=plant.g0, h=h,
                                     xi=xi, lambdas=lambdas, betas=betas,
                                     mode=mode))
        except ValueError as exc:
            _fail(ep, str(exc))
    return tuple(proxies)


def _parse_controllers(data, path, plant: PlantSpec):
    if not isinstance(data, dict) or not data:
        _fail(path, "expected a mapping of configured controllers")
    out = {}
    for name, block in data.items():
        bp = f"{path}.{name}"
        if name not in CONTROLLER_TYPES:
            _fail(bp, f"unknown controller type (expected one of "
                      f"{', '.join(CONTROLLER_TYPES)})")
        if not isinstance(block, dict):
            _fail(bp, "expected a mapping")
        if name == "nominal":
            out[name] = {}
            continue
        gains, gp = _get(block, "gains", bp, default={})
        try:
            if name == "ppc":
                ks = _num_list(*_get(gains, "ks", gp, required=True), plant.n)
                margin = _num(*_get(gains, "margin", gp, default=1.5))
                floor = _num(*_get(gains, "floor", gp, default=0.1))
                signs, signs_path = _get(block, "signs", bp, required=True)
                signs = _num_list(signs, signs_path, plant.n)
                if any(v not in (-1.0, 1.0) for v in signs):
                    _fail(signs_path, "entries must be +1 or -1")
                out[name] = {"gains": PpcGains(ks=ks, margin=margin,
                                               floor=floor),
                             "signs": tuple(signs)}
            elif name == "nussbaum":
                if plant.n != 1:
                    _fail(bp, "the adaptive law drives a single plant level")
                g = NussbaumGains(
                    gamma1=_num(*_get(gains, "gamma1", gp, required=True)),
                    gamma2=_num(*_get(gains, "gamma2", gp, required=True)),
                    k=_num(*_get(gains, "k", gp, required=True)))
                raw_phi, phi_path = _get(block, "phi", bp, required=True)
                if not isinstance(raw_phi, list) or not raw_phi:
                    _fail(phi_path, "expected a nonempty list of expressions")
                phi = tuple(_expr(v, f"{phi_path}[{i}]", {"z1"})
                            for i, v in enumerate(raw_phi))
                init, ip = _get(block, "initial", bp, default={})
                zeta0 = _num(*_get(init, "zeta", ip, default=0.0))
                theta0 = _num_list(*_get(init, "theta", ip,
                                         default=[0.0] * len(phi)), len(phi))
                out[name] = {"gains": g, "phi": phi, "zeta0": zeta0,
                             "theta0": tuple(theta0)}
            elif name == "dob_backstepping":
                if not all(plant.known):
                    _fail(bp, "observer backstepping consumes every level "
                              "model; mark all levels known")
                g = DobBackstepGains(
                    ks=_num_list(*_get(gains, "ks", gp, required=True),
                                 plant.n),
                    gamma_fs=_num_list(
                        *_get(gains, "gamma_fs", gp, required=True),
                        plant.n - 1),
                    sigmas=_num_list(*_get(gains, "sigmas", gp, required=True),
                                     plant.n))
                obs, op = _get(block, "observer", bp, required=True)
                alphas = _num_list(*_get(obs, "alphas", op, required=True),
                                   plant.n)
                nus = _num_list(*_get(obs, "nus", op,
                                      default=[1.0] * len(alphas)))
                raw_t, t_path = _get(obs, "time_constants", op,
                                     default=[[1.0] * (len(alphas) - i)
                                              for i in range(1, len(alphas))])
                if not isinstance(raw_t, list):
                    _fail(t_path, "expected a list of lists")
                tcs = [_num_list(row, f"{t_path}[{i}]")
                       for i, row in enumerate(raw_t)]
                out[name] = {"gains": g,
                             "observer": DobSpec(alphas=alphas, nus=nus,
                                                 time_constants=tcs)}
        except ValueError as exc:
            _fail(bp, str(exc))
    return out


class ScenarioSpec(namedtuple(
        "ScenarioSpec", "name angle_unit plant proxies rho controller "
        "controllers nominal initial_x initial_z horizon dt hold_dt "
        "check_box raw")):
    """One validated closed-loop setup plus its normalized source mapping:
    the plant, the proxies, the funnel rho, the selected controller and
    the blocks of all configured ones, the nominal gains, the initial
    state, the run grid (hold_dt None for none), the check box (None or
    one (lo, hi) interval) and the raw mapping."""

    __slots__ = ()

    @property
    def m(self) -> int:
        return self.proxies[0].m

    def controller_block(self, name=None):
        name = name or self.controller
        if name not in self.controllers:
            raise ScenarioError(
                f"controller '{name}' is not configured for scenario "
                f"'{self.name}' (configured: {', '.join(self.controllers)})")
        return name, self.controllers[name]

    def to_mapping(self) -> dict:
        return _deep_copy(self.raw)


def _deep_copy(value):
    if isinstance(value, dict):
        return {k: _deep_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_deep_copy(v) for v in value]
    return value


def loads_scenario(text: str) -> ScenarioSpec:
    try:
        # libyaml's parser, where PyYAML was built with it, is the faster
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                              yaml.SafeLoader))
    except yaml.YAMLError:
        # the pure-Python parser words the error, as the message always was
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a top-level mapping")
    for key in ("name", "plant", "proxy", "rho", "controller", "controllers",
                "nominal", "initial", "horizon", "dt"):
        if key not in data:
            raise ScenarioError(f"scenario: missing required key '{key}'")
    raw = _deep_copy(data)

    name, name_path = _get(raw, "name", "")
    if not isinstance(name, str) or not name:
        _fail(name_path, "expected a nonempty string")
    # a run's trace file is named after it: one file-name component
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        _fail(name_path, f"expected a file name, got {name!r}")
    angle_unit, unit_path = _get(raw, "angle_unit", "", default="radian")
    if angle_unit not in ("radian", "degree"):
        _fail(unit_path, "expected 'radian' or 'degree'")

    plant = _parse_plant(*_get(raw, "plant", ""))
    rho = _parse_rho(*_get(raw, "rho", ""))
    proxies = _parse_proxies(*_get(raw, "proxy", ""), plant)
    controllers = _parse_controllers(*_get(raw, "controllers", ""), plant)

    controller, ctrl_path = _get(raw, "controller", "")
    if controller not in CONTROLLER_TYPES:
        _fail(ctrl_path, f"unknown type {controller!r}")
    if controller not in controllers:
        _fail(ctrl_path, f"'{controller}' has no configured block")
    if plant.disturbances and controller in ("nominal", "nussbaum"):
        _fail("plant.disturbances",
              "additive disturbances need a disturbance-aware controller "
              "(ppc or dob_backstepping)")
    if "dob_backstepping" in controllers and proxies[0].m != plant.n:
        _fail("proxy", f"observer backstepping needs chain length m equal to "
                       f"plant depth n={plant.n}, got m={proxies[0].m}")

    nom, nom_path = _get(raw, "nominal", "")
    m = proxies[0].m
    x_d = _expr(*_get(nom, "x_d", nom_path, required=True), {"t"})
    if angle_unit == "degree":
        x_d = Const(DEG) * x_d
    try:
        nominal = NominalGains(
            ks=_num_list(*_get(nom, "ks", nom_path, required=True), m + 1),
            cs=_num_list(*_get(nom, "cs", nom_path, required=True), m + 1),
            x_d=x_d)
    except ValueError as exc:
        _fail(nom_path, str(exc))

    init, init_path = _get(raw, "initial", "")
    (initial_x,) = _num_list(*_get(init, "x", init_path, required=True), 1)
    initial_z = tuple(_num_list(*_get(init, "z", init_path, required=True),
                                plant.n))

    horizon, horizon_path = _get(raw, "horizon", "")
    horizon = _num(horizon, horizon_path)
    dt = _num(*_get(raw, "dt", ""))
    if horizon <= 0.0 or dt <= 0.0:
        _fail(horizon_path, "horizon and dt must be positive")
    hold_dt, hold_path = _get(raw, "hold_dt", "")
    if hold_dt is not None:
        hold_dt = _num(hold_dt, hold_path)
        if hold_dt < dt:
            _fail(hold_path, "must be at least dt")
    box, box_path = _get(raw, "check_box", "")
    if box is not None:
        # the proxy is scalar, so the condition box is one interval
        if not isinstance(box, list) or len(box) != 1:
            _fail(box_path, "expected one [low, high] pair")
        lo, hi = _num_list(box[0], f"{box_path}[0]", 2)
        if lo >= hi:
            _fail(f"{box_path}[0]", "low bound must be below high bound")
        box = (lo, hi)
    elif any(p.mode == "switched" for p in proxies):
        # the vanishing-gradient condition is proved over the box
        _fail(box_path, "required when a barrier is in switched mode")
    # the seed of the sampled condition search the proof replaced:
    # validated and kept in the file, read by nothing
    seed, seed_path = _get(raw, "seed", "", default=0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail(seed_path, "expected an integer")

    return ScenarioSpec(name=name, angle_unit=angle_unit, plant=plant,
                        proxies=proxies, rho=rho, controller=controller,
                        controllers=controllers, nominal=nominal,
                        initial_x=initial_x, initial_z=initial_z,
                        horizon=horizon, dt=dt, hold_dt=hold_dt,
                        check_box=box, raw=raw)


def load_scenario(path) -> ScenarioSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    return loads_scenario(text)


def dumps_scenario(spec: ScenarioSpec) -> str:
    return yaml.safe_dump(spec.to_mapping(), sort_keys=False,
                          default_flow_style=False)


def save_scenario(spec: ScenarioSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(spec))


def _builtin_root():
    from importlib import resources     # a scenario file needs none
    return resources.files("proxysafe") / "scenarios"


def builtin_names() -> list:
    return sorted(p.name[:-5] for p in _builtin_root().iterdir()
                  if p.name.endswith(".yaml"))


def load_builtin(name: str) -> ScenarioSpec:
    entry = _builtin_root() / f"{name}.yaml"
    if not entry.is_file():
        raise ScenarioError(
            f"no built-in scenario '{name}' (available: "
            f"{', '.join(builtin_names())})")
    return loads_scenario(entry.read_text(encoding="utf-8"))
