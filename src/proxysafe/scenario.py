"""Scenario files: declarative descriptions of a closed-loop setup.

A scenario is a single YAML mapping that names the plant (a scalar
strict-feedback chain with optional additive time disturbances), the
safe sets with their barrier parameters, the error funnel, the tracking
controller with its gains, the reference, and the run settings.  All
dynamics are expression strings over the declared state names, parsed by
the expression engine at load time, so new systems need no code changes.

Loading validates shapes, positivity, and controller premises, and keeps
the normalized mapping alongside the typed objects so a loaded scenario
serializes back to an identical file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import yaml

from proxysafe.barrier import ProxySpec, RhoSpec
from proxysafe.controllers import (
    DobBackstepGains, NominalGains, NussbaumGains, PpcGains,
)
from proxysafe.dob import DobSpec
from proxysafe.expr import Const, Expr, ExprError, evaluate, parse

__all__ = [
    "ScenarioError", "PlantSpec", "ScenarioSpec",
    "load_scenario", "loads_scenario", "save_scenario", "dumps_scenario",
    "builtin_names", "load_builtin",
]

CONTROLLER_TYPES = ("nominal", "ppc", "nussbaum", "dob_backstepping")
DEG = math.pi / 180.0


class ScenarioError(Exception):
    """A scenario file is malformed; the message carries the key path."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _get(mapping, key, path, default=None, required=False):
    if not isinstance(mapping, dict):
        _fail(path, "expected a mapping")
    if key in mapping:
        return mapping[key]
    if required:
        _fail(path, f"missing required key '{key}'")
    return default


def _num(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _const(value, path) -> float:
    """A numeric scalar, given either as a literal or as a constant
    expression string (handy for values like pi^2/81)."""
    if isinstance(value, str):
        try:
            return float(evaluate(parse(value), {}))
        except ExprError as exc:
            _fail(path, f"not a constant expression: {exc}")
    return _num(value, path)


def _expr(value, path, allowed: set) -> Expr:
    if not isinstance(value, str):
        _fail(path, f"expected an expression string, got {value!r}")
    try:
        e = parse(value)
    except ExprError as exc:
        _fail(path, f"parse error: {exc}")
    extra = e.variables() - allowed
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


@dataclass(frozen=True)
class PlantSpec:
    """The true scalar strict-feedback plant.

    The head state x follows f0 + g0*z1; each level i follows
    f_i + g_i*(next level or input) plus an optional additive
    time-only disturbance.  `known` marks levels whose model functions
    the controller may consume; `bounds` are declared disturbance-slope
    bounds, kept for diagnostics only.
    """

    n: int
    f0: Expr
    g0: Expr
    fs: tuple
    gs: tuple
    disturbances: tuple
    bounds: tuple
    known: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ScenarioError("plant.n: must be at least 1")
        for name in ("fs", "gs", "disturbances", "bounds", "known"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.fs) != self.n or len(self.gs) != self.n:
            raise ScenarioError("plant.levels: need one f,g pair per level")
        if self.disturbances and len(self.disturbances) != self.n:
            raise ScenarioError("plant.disturbances: need one per level or none")
        if self.bounds and len(self.bounds) != self.n:
            raise ScenarioError("plant.bounds: need one per level or none")
        if len(self.known) != self.n:
            raise ScenarioError("plant.known: need one flag per level")


def _parse_plant(data, path) -> PlantSpec:
    n = _get(data, "n", path, required=True)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        _fail(f"{path}.n", f"expected a positive integer, got {n!r}")
    head = {"x"}
    f0 = _expr(_get(data, "f0", path, default="0"), f"{path}.f0", head)
    g0 = _expr(_get(data, "g0", path, default="1"), f"{path}.g0", head)
    levels = _get(data, "levels", path, required=True)
    if not isinstance(levels, list) or len(levels) != n:
        _fail(f"{path}.levels", f"expected a list of {n} mappings")
    fs, gs = [], []
    for i, lvl in enumerate(levels, start=1):
        lp = f"{path}.levels[{i - 1}]"
        allowed = head | {f"z{j}" for j in range(1, i + 1)}
        fs.append(_expr(_get(lvl, "f", lp, required=True), f"{lp}.f", allowed))
        gs.append(_expr(_get(lvl, "g", lp, required=True), f"{lp}.g", allowed))
    raw_d = _get(data, "disturbances", path, default=[])
    if not isinstance(raw_d, list):
        _fail(f"{path}.disturbances", "expected a list")
    ds = [_expr(v, f"{path}.disturbances[{i}]", {"t"})
          for i, v in enumerate(raw_d)]
    bounds = _num_list(_get(data, "bounds", path, default=[]),
                       f"{path}.bounds")
    known = _get(data, "known", path, default=[True] * n)
    if not isinstance(known, list) or not all(isinstance(v, bool) for v in known):
        _fail(f"{path}.known", "expected a list of booleans")
    try:
        return PlantSpec(n=n, f0=f0, g0=g0, fs=fs, gs=gs, disturbances=ds,
                         bounds=bounds, known=known)
    except ScenarioError as exc:
        raise ScenarioError(str(exc)) from None


def _parse_rho(data, path) -> RhoSpec:
    initial = _num(_get(data, "initial", path, required=True), f"{path}.initial")
    final = _num(_get(data, "final", path, default=initial), f"{path}.final")
    decay = _num(_get(data, "decay", path, default=0.0), f"{path}.decay")
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
        m = _get(entry, "m", ep, required=True)
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            _fail(f"{ep}.m", f"expected a positive integer, got {m!r}")
        if m_seen is None:
            m_seen = m
        elif m != m_seen:
            _fail(f"{ep}.m", "all barriers must share one chain length")
        h = _expr(_get(entry, "h", ep, required=True), f"{ep}.h", {"x"})
        xi = _const(_get(entry, "xi", ep, required=True), f"{ep}.xi")
        lambdas = _num_list(_get(entry, "lambdas", ep, required=True),
                            f"{ep}.lambdas", m + 1)
        betas = _num_list(_get(entry, "betas", ep, required=True),
                          f"{ep}.betas", m)
        mode = _get(entry, "mode", ep, default="switched")
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
        gains = _get(block, "gains", bp, default={})
        gp = f"{bp}.gains"
        try:
            if name == "nominal":
                out[name] = {}
            elif name == "ppc":
                ks = _num_list(_get(gains, "ks", gp, required=True),
                               f"{gp}.ks", plant.n)
                margin = _num(_get(gains, "margin", gp, default=1.5),
                              f"{gp}.margin")
                floor = _num(_get(gains, "floor", gp, default=0.1),
                             f"{gp}.floor")
                signs = _num_list(_get(block, "signs", bp, required=True),
                                  f"{bp}.signs", plant.n)
                if any(v not in (-1.0, 1.0) for v in signs):
                    _fail(f"{bp}.signs", "entries must be +1 or -1")
                out[name] = {"gains": PpcGains(ks=ks, margin=margin,
                                               floor=floor),
                             "signs": tuple(signs)}
            elif name == "nussbaum":
                if plant.n != 1:
                    _fail(bp, "the adaptive law drives a single plant level")
                g = NussbaumGains(
                    gamma1=_num(_get(gains, "gamma1", gp, required=True),
                                f"{gp}.gamma1"),
                    gamma2=_num(_get(gains, "gamma2", gp, required=True),
                                f"{gp}.gamma2"),
                    k=_num(_get(gains, "k", gp, required=True), f"{gp}.k"))
                raw_phi = _get(block, "phi", bp, required=True)
                if not isinstance(raw_phi, list) or not raw_phi:
                    _fail(f"{bp}.phi", "expected a nonempty list of expressions")
                phi = tuple(_expr(v, f"{bp}.phi[{i}]", {"z1"})
                            for i, v in enumerate(raw_phi))
                init = _get(block, "initial", bp, default={})
                ip = f"{bp}.initial"
                zeta0 = _num(_get(init, "zeta", ip, default=0.0), f"{ip}.zeta")
                theta0 = _num_list(
                    _get(init, "theta", ip, default=[0.0] * len(phi)),
                    f"{ip}.theta", len(phi))
                out[name] = {"gains": g, "phi": phi, "zeta0": zeta0,
                             "theta0": tuple(theta0)}
            elif name == "dob_backstepping":
                if not all(plant.known):
                    _fail(bp, "observer backstepping consumes every level "
                              "model; mark all levels known")
                g = DobBackstepGains(
                    ks=_num_list(_get(gains, "ks", gp, required=True),
                                 f"{gp}.ks", plant.n),
                    gamma_fs=_num_list(_get(gains, "gamma_fs", gp,
                                            required=True),
                                       f"{gp}.gamma_fs", plant.n - 1),
                    sigmas=_num_list(_get(gains, "sigmas", gp, required=True),
                                     f"{gp}.sigmas", plant.n))
                obs = _get(block, "observer", bp, required=True)
                op = f"{bp}.observer"
                alphas = _num_list(_get(obs, "alphas", op, required=True),
                                   f"{op}.alphas", plant.n)
                nus = _num_list(_get(obs, "nus", op, default=[]), f"{op}.nus")
                raw_t = _get(obs, "time_constants", op, default=[])
                if not isinstance(raw_t, list):
                    _fail(f"{op}.time_constants", "expected a list of lists")
                tcs = [_num_list(row, f"{op}.time_constants[{i}]")
                       for i, row in enumerate(raw_t)]
                out[name] = {"gains": g,
                             "observer": DobSpec(alphas=alphas, nus=nus,
                                                 time_constants=tcs)}
        except ValueError as exc:
            _fail(bp, str(exc))
    return out


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated closed-loop setup plus its normalized source mapping."""

    name: str
    angle_unit: str
    plant: PlantSpec
    proxies: tuple
    rho: RhoSpec
    controller: str
    controllers: dict
    nominal: NominalGains
    x_d_source: str
    initial_x: tuple
    initial_z: tuple
    horizon: float
    dt: float
    hold_dt: float | None
    check_box: tuple
    seed: int
    raw: dict

    @property
    def m(self) -> int:
        return self.proxies[0].m

    @property
    def n(self) -> int:
        return self.plant.n

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


def _normalize(data) -> dict:
    """Materialize defaults and coerce numbers so a loaded scenario
    serializes to a stable, reload-identical mapping."""
    out = _deep_copy(data)
    out.setdefault("angle_unit", "radian")
    plant = out["plant"]
    plant.setdefault("f0", "0")
    plant.setdefault("g0", "1")
    plant.setdefault("disturbances", [])
    plant.setdefault("bounds", [])
    plant.setdefault("known", [True] * int(plant.get("n", 0)))
    rho = out["rho"]
    rho.setdefault("final", rho.get("initial"))
    rho.setdefault("decay", 0.0)
    for entry in out["proxy"]:
        entry.setdefault("mode", "switched")
    for name, block in out["controllers"].items():
        if name == "ppc":
            block.setdefault("gains", {})
            block["gains"].setdefault("margin", 1.5)
            block["gains"].setdefault("floor", 0.1)
        if name == "nussbaum":
            init = block.setdefault("initial", {})
            init.setdefault("zeta", 0.0)
            init.setdefault("theta", [0.0] * len(block.get("phi", [])))
        if name == "dob_backstepping":
            obs = block.setdefault("observer", {})
            alphas = obs.get("alphas", [])
            obs.setdefault("nus", [1.0] * len(alphas))
            obs.setdefault("time_constants",
                           [[1.0] * (len(alphas) - i)
                            for i in range(1, len(alphas))])
    out.setdefault("hold_dt", None)
    out.setdefault("check_box", None)
    out.setdefault("seed", 0)

    def coerce(node):
        if isinstance(node, dict):
            return {k: coerce(v) for k, v in node.items()}
        if isinstance(node, list):
            return [coerce(v) for v in node]
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            return node
        return node if isinstance(node, int) else float(node)

    return coerce(out)


def loads_scenario(text: str) -> ScenarioSpec:
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
    raw = _normalize(data)

    name = raw["name"]
    if not isinstance(name, str) or not name:
        _fail("name", "expected a nonempty string")
    angle_unit = raw["angle_unit"]
    if angle_unit not in ("radian", "degree"):
        _fail("angle_unit", "expected 'radian' or 'degree'")

    plant = _parse_plant(raw["plant"], "plant")
    rho = _parse_rho(raw["rho"], "rho")
    proxies = _parse_proxies(raw["proxy"], "proxy", plant)
    controllers = _parse_controllers(raw["controllers"], "controllers", plant)

    controller = raw["controller"]
    if controller not in CONTROLLER_TYPES:
        _fail("controller", f"unknown type {controller!r}")
    if controller not in controllers:
        _fail("controller", f"'{controller}' has no configured block")
    if plant.disturbances and controller in ("nominal", "nussbaum"):
        _fail("plant.disturbances",
              "additive disturbances need a disturbance-aware controller "
              "(ppc or dob_backstepping)")
    if "dob_backstepping" in controllers and proxies[0].m != plant.n:
        _fail("proxy", f"observer backstepping needs chain length m equal to "
                       f"plant depth n={plant.n}, got m={proxies[0].m}")

    nom = raw["nominal"]
    m = proxies[0].m
    x_d_source = _get(nom, "x_d", "nominal", required=True)
    x_d = _expr(x_d_source, "nominal.x_d", {"t"})
    if angle_unit == "degree":
        x_d = Const(DEG) * x_d
    try:
        nominal = NominalGains(
            ks=_num_list(_get(nom, "ks", "nominal", required=True),
                         "nominal.ks", m + 1),
            cs=_num_list(_get(nom, "cs", "nominal", required=True),
                         "nominal.cs", m + 1),
            x_d=x_d)
    except ValueError as exc:
        _fail("nominal", str(exc))

    init = raw["initial"]
    initial_x = tuple(_num_list(_get(init, "x", "initial", required=True),
                                "initial.x", 1))
    initial_z = tuple(_num_list(_get(init, "z", "initial", required=True),
                                "initial.z", plant.n))

    horizon = _num(raw["horizon"], "horizon")
    dt = _num(raw["dt"], "dt")
    if horizon <= 0.0 or dt <= 0.0:
        _fail("horizon", "horizon and dt must be positive")
    hold_dt = raw["hold_dt"]
    if hold_dt is not None:
        hold_dt = _num(hold_dt, "hold_dt")
        if hold_dt < dt:
            _fail("hold_dt", "must be at least dt")
    box = raw["check_box"]
    if box is not None:
        if not isinstance(box, list):
            _fail("check_box", "expected a list of [low, high] pairs")
        box = tuple(tuple(_num_list(pair, f"check_box[{i}]", 2))
                    for i, pair in enumerate(box))
        for i, (lo, hi) in enumerate(box):
            if lo >= hi:
                _fail(f"check_box[{i}]", "low bound must be below high bound")
    else:
        box = ()
    seed = raw["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail("seed", "expected an integer")

    return ScenarioSpec(name=name, angle_unit=angle_unit, plant=plant,
                        proxies=proxies, rho=rho, controller=controller,
                        controllers=controllers, nominal=nominal,
                        x_d_source=x_d_source, initial_x=initial_x,
                        initial_z=initial_z, horizon=horizon, dt=dt,
                        hold_dt=hold_dt, check_box=box, seed=seed, raw=raw)


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


def builtin_names() -> list:
    root = resources.files("proxysafe") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def load_builtin(name: str) -> ScenarioSpec:
    root = resources.files("proxysafe") / "scenarios"
    entry = root / f"{name}.yaml"
    if not entry.is_file():
        raise ScenarioError(
            f"no built-in scenario '{name}' (available: "
            f"{', '.join(builtin_names())})")
    return loads_scenario(entry.read_text(encoding="utf-8"))
