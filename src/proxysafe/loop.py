"""The closed loop of one run, generated as Python source.

`sim.RuntimeModel` evaluates a closed-loop stage as a composition of the
public per-module laws: the nominal law, each barrier constraint with
its chi binding, the half-space projection, the tracking law, then the
plant and observer derivatives; `trace_row` then evaluates the barriers
again for the log.  `ClosedLoop` writes the same arithmetic for one
scenario and controller as straight-line code.  The symbolic pieces (h,
the chi derivatives of h/xi behind one saturation branch, psi0/psi1,
b_0..b_m, the nominal and observer-backstepping laws, plant f/g/d, phi,
x_d) go through `expr.Emitter`, so a subexpression they share is
computed once.  The projection, the funnel, Nussbaum and observer laws
and their breach checks are inline statements, in the order the
composition runs them; only the two-barrier fallback stays a call.
Every float comes from the same operations in the same order, so the
two paths agree bit for bit.

Three functions are generated:

    stage(s, t)             -> derivative, controls evaluated at (s, t)
    stage_held(s, t, held)  -> derivative under given control outputs
    point(s, t, held)       -> (derivative, trace row, control outputs)

Control outputs are the tuple (nu_d, nu, u, dzeta, dtheta).  With `held`
given, `point` still evaluates the controls, for their checks and the
logged controller internals, but logs and integrates the held outputs.
A raw arithmetic error becomes `model.domain_error(exc, s, t)` at the
evaluation that raised it.  When only the derivative fails at a grid
point, `point` returns None in its place together with the row: the
composition logs that row and fails in the next step.
"""

from __future__ import annotations

from proxysafe import filter as filter_mod
from proxysafe.barrier import CHI_SATURATE, chi_expr
from proxysafe.controllers import (
    GAIN_EPS, BarrierBreach, FunnelBreach, SingularGain,
)
from proxysafe.expr import Emitter
from proxysafe.filter import EPS_PSI, FEAS_TOL, Infeasible

__all__ = ["ClosedLoop"]

_BODY = "        "        # inside the function's try block


def _lit(value: float) -> str:
    return f"({value!r})"


def _rho(rho) -> str:
    """RhoSpec.value(t) as source."""
    return (f"{_lit(rho.rho0 - rho.rho_inf)} * _exp({_lit(-rho.decay)} * t)"
            f" + {_lit(rho.rho_inf)}")


class ClosedLoop:
    """The generated stage and grid-point functions of one RuntimeModel."""

    def __init__(self, model):
        namespace = {
            "_abs": abs, "_sum": sum, "_RAW": (ValueError, ArithmeticError),
            "_fault": model.domain_error, "_model": model,
            "_pair": filter_mod.solve_cbf_qp_pair,
            "_Infeasible": Infeasible, "_SingularGain": SingularGain,
            "_BarrierBreach": BarrierBreach, "_FunnelBreach": FunnelBreach,
        }
        self.stage = _Writer(model).stage().function(
            "_stage", "s, t", namespace)
        self.stage_held = _Writer(model).stage_held().function(
            "_stage_held", "s, t, held", namespace)
        self.point = _Writer(model).point().function(
            "_point", "s, t, held", namespace)


class _Writer:
    """Source of one generated function over a model's state layout."""

    def __init__(self, model):
        self.model = m = model
        self.z = [f"z{i}" for i in range(1, m.n + 1)] if m.has_plant else []
        self.mu = [f"mu{i}" for i in range(1, m.m + 1)]
        self.extra = []
        if m.kind == "nussbaum":
            self.extra = ["_zeta"] + [f"_th{j}"
                                      for j in range(1, len(m.phis) + 1)]
        elif m.kind == "dob_backstepping":
            self.extra = [f"_s{i}" for i in range(1, m.n + 1)]
            self.extra += [f"_df{i}_{j}" for i in range(1, m.n)
                           for j in range(1, m.n - i + 1)]
        names = {v: v for v in ["x", "t", *self.z, *self.mu]}
        names["nu"] = "_nu"
        if m.kind == "dob_backstepping":
            names.update({f"dhat{i}": f"_dhat{i}" for i in range(1, m.n + 1)})
            names.update({v[1:]: v for v in self.extra if v.startswith("_df")})
        self.em = Emitter(names, indent="    ")
        self.em.line(", ".join(["x", *self.z, *self.mu, *self.extra])
                     + " = s")
        self.psi = []           # (psi0, psi1) atoms per barrier stack
        self.eps = []           # eps_1..eps_n atoms of the observer law

    # -- whole functions ----------------------------------------------------

    def stage(self) -> Emitter:
        self._open()
        self._controls()
        self.em.line("return " + self._derivative())
        self._close("raise _fault(_exc, s, t) from None")
        return self.em

    def stage_held(self) -> Emitter:
        self.em.line(f"_nu_d, _nu, _u, _dz, {self._dtheta() or '_'} = held")
        self._open()
        self._dob_outputs()
        self.em.line("return " + self._derivative())
        self._close("raise _fault(_exc, s, t) from None")
        return self.em

    def point(self) -> Emitter:
        em = self.em
        self._open()
        self._controls()
        dtheta = self._dtheta()
        em.line(f"_c = (_nu_d, _nu, _u, _dz, {dtheta or '()'})")
        em.line("if held is not None:")
        em.line(f"    _nu_d, _nu, _u, _dz, {dtheta or '_'} = _c = held")
        em.line("_row = " + self._row())
        self._close("raise _fault(_exc, s, t) from None")
        self._open()
        em.line("_k = " + self._derivative())
        self._close("return None, _row, _c")
        em.line("return _k, _row, _c")
        return em

    def _open(self):
        self.em.line("try:")
        self.em.indent = _BODY

    def _close(self, handler: str):
        self.em.indent = "    "
        self.em.line("except _RAW as _exc:")
        self.em.line("    " + handler)

    def _dtheta(self) -> str | None:
        """The Nussbaum law's dtheta names as a tuple display."""
        if self.model.kind != "nussbaum":
            return None
        return "(" + ", ".join(f"_dth{j}" for j in
                               range(1, len(self.model.phis) + 1)) + ",)"

    # -- pieces, in the order the composition evaluates them ---------------

    def _dob_outputs(self):
        """DobChainState.refresh_outputs: d_hat_i = s_i + alpha_i z_i."""
        if self.model.kind == "dob_backstepping":
            for i, a in enumerate(self.model.dob.alphas, start=1):
                self.em.line(f"_dhat{i} = _s{i} + {_lit(a)} * z{i}")

    def _controls(self):
        """RuntimeModel.controls: the filtered nominal input, then the
        tracking law."""
        m, em = self.model, self.em
        self._dob_outputs()
        nominal = m.nominal
        g0 = em.emit(nominal.proxy.g0)
        em.line(f"if _abs({g0}) < {_lit(GAIN_EPS)}:")
        em.line(f'    raise _SingularGain(f"g0={{{g0}:.3g}} at x={{x:.6g}}")')
        em.line(f"_nu_d = {em.emit(nominal.nu_d)}")
        em.line("_nu = _nu_d")
        for k, stack in enumerate(m.stacks, start=1):
            self._chi(k, stack)
            p0, p1 = em.emit(stack.psi0), em.emit(stack.psi1)
            self.psi.append((p0, p1))
            # filter.project_halfspace
            em.line(f"_m = {p0} + {p1} * _nu")
            em.line("if not _m >= 0.0:")
            em.line(f"    _n2 = {p1} * {p1}")
            em.line(f"    if _n2 <= {_lit(EPS_PSI * EPS_PSI)}:")
            em.line(f"        raise _Infeasible({p0}, [{p1}])")
            em.line(f"    _nu = _nu + (-_m / _n2) * {p1}")
        if len(self.psi) == 2:
            (a0, a1), (b0, b1) = self.psi
            em.line(f"if {a0} + {a1} * _nu < {_lit(-FEAS_TOL)}:")
            em.line(f"    _nu = _pair(_nu_d, {a0}, {a1}, {b0}, {b1})")
            em.line("    _model.qp_fallbacks += 1")
        getattr(self, f"_law_{m.kind}")()

    def _chi(self, k, stack):
        """BarrierStack._args: h(x), then y_j = chi^(j)(h/xi)."""
        em, proxy = self.em, stack.proxy
        h = em.emit(proxy.h)
        if proxy.mode != "switched":
            return
        tau = f"_tau{k}"
        ys = [f"_y{k}_{j}" for j in range(stack.y_count)]
        em.line(f"{tau} = {h} / {_lit(proxy.xi)}")
        em.line(f"if {tau} >= {_lit(CHI_SATURATE)}:")
        em.line(f"    {', '.join(ys)} = 1.0{', 0.0' * (len(ys) - 1)}")
        em.line("else:")
        branch = em.branch()
        branch.bind("tau", tau)
        for j, y in enumerate(ys):
            branch.line(f"{y} = {branch.emit(chi_expr(j))}")
        self._bind_ys(k, stack)

    def _bind_ys(self, k, stack):
        for j in range(stack.y_count):
            self.em.bind(f"y{j}", f"_y{k}_{j}")

    def _law_nominal(self):
        self.em.line("_u, _dz = None, 0.0")

    def _law_ppc(self):
        """controllers.ppc_control."""
        m, em = self.model, self.em
        em.line(f"_rho = {_rho(m.rho)}")
        target = "mu1"
        for i in range(1, m.n + 1):
            width = "_rho" if i == 1 else \
                f"({_rho(m.ppc_gains.funnels[i - 2])})"
            em.line(f"_xi{i} = (z{i} - {target}) / {width}")
            em.line(f"if _abs(_xi{i}) >= 1.0:")
            em.line(f"    raise _FunnelBreach({i}, _xi{i}, t)")
            gain = -m.ppc_gains.ks[i - 1] * float(m.ppc_signs[i - 1])
            em.line(f"_eta{i} = {_lit(gain)} * "
                    f"_log((1.0 + _xi{i}) / (1.0 - _xi{i}))")
            target = f"_eta{i}"
        em.line(f"_u, _dz = {target}, 0.0")

    def _law_nussbaum(self):
        """controllers.nussbaum_control, after controls() read phi."""
        m, em = self.model, self.em
        g = m.nuss_gains
        em.line("_e = z1 - mu1")
        phis = [em.emit(p) for p in m.phis]
        em.line(f"_rho = {_rho(m.rho)}")
        em.line("if _abs(_e) >= _rho:")
        em.line("    raise _BarrierBreach(_e, _rho, t)")
        terms = ", ".join(f"_th{j} * {p}" for j, p in enumerate(phis, 1))
        em.line(f"_alpha = {_lit(g.k)} * _e - _nu + _sum(({terms},))")
        em.line("_w = _e / (_rho * _rho - _e * _e)")
        em.line("_u = _zeta * _zeta * _cos(_zeta) * _alpha")
        em.line("_dz = _w * _alpha")
        for j, p in enumerate(phis, 1):
            em.line(f"_dth{j} = _w * {p} / {_lit(g.gamma1)} - "
                    f"{_lit(g.gamma2)} * _th{j}")

    def _law_dob_backstepping(self):
        """controllers.eval_dob_backstepping."""
        m, em = self.model, self.em
        em.line("_e = z1 - mu1")
        em.line(f"_rho = {_rho(m.rho)}")
        em.line("if _abs(_e) >= _rho:")
        em.line("    raise _BarrierBreach(_e, _rho, t)")
        ctrl = m.dob_ctrl
        em.line(f"_u = {em.emit(ctrl.u_expr)}")
        self.eps = [em.emit(e) for e in ctrl.eps_exprs]
        em.line("_dz = 0.0")

    def _row(self) -> str:
        """RuntimeModel.trace_row."""
        m, em = self.model, self.em
        items = ["t", "x", *self.z, *self.mu]
        items.append("z1 - mu1" if m.has_plant else "0.0")
        if m.kind == "nominal":
            em.line(f"_rho = {_rho(m.rho)}")
        items += ["_rho", em.emit(m.spec.nominal.x_d)]
        for k, (stack, (p0, p1)) in enumerate(zip(m.stacks, self.psi), 1):
            self._bind_ys(k, stack)
            items += [em.emit(stack.proxy.h), *map(em.emit, stack.b),
                      p0, p1, f"{p0} + {p1} * _nu"]
        items += ["_nu_d", "_nu"]
        if m.has_plant:
            items.append("_u")
            items += [em.emit(d) for d in m.spec.plant.disturbances]
        if m.kind == "dob_backstepping":
            items += [f"_dhat{i}" for i in range(1, m.n + 1)]
            items += [v for v in self.extra if v.startswith("_df")]
            items += self.eps
        elif m.kind == "nussbaum":
            items += self.extra
        elif m.kind == "ppc":
            items += [f"_xi{i}" for i in range(1, m.n + 1)]
        return "[" + ", ".join(items) + "]"

    def _derivative(self) -> str:
        """RuntimeModel.deriv, with dob_derivative and filter_derivative."""
        m, em = self.model, self.em
        plant = m.spec.plant
        f0, g0 = em.emit(plant.f0), em.emit(plant.g0)
        if not m.has_plant:
            items = [f"{f0} + {g0} * mu1"]
        else:
            items = [f"{f0} + {g0} * z1"]
            fs = [em.emit(f) for f in plant.fs]
            gs = [em.emit(g) for g in plant.gs]
            ds = [em.emit(d) for d in plant.disturbances] or ["0.0"] * m.n
            nxt = [*self.z[1:], "_u"]
            items += [f"{f} + {g} * {v} + {d}"
                      for f, g, v, d in zip(fs, gs, nxt, ds)]
        items += [*self.mu[1:], "_nu"]
        if m.kind == "nussbaum":
            items += ["_dz"] + [f"_dth{j}" for j in range(1, len(m.phis) + 1)]
        elif m.kind == "dob_backstepping":
            for i, a in enumerate(m.dob.alphas):
                items.append(f"{_lit(-a)} * ({fs[i]} + _dhat{i + 1} + "
                             f"{gs[i]} * {nxt[i]})")
            for i, consts in enumerate(m.dob.time_constants, start=1):
                upstream = f"_dhat{i}"
                for j, tc in enumerate(consts, start=1):
                    items.append(f"{_lit(-tc)} * (_df{i}_{j} - {upstream})")
                    upstream = f"_df{i}_{j}"
        return "[" + ", ".join(items) + "]"
