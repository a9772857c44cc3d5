"""Safety-filtered control for strict-feedback systems via proxy barrier dynamics.

The names below are the package's exports.  Each loads on first use
(PEP 562): `import proxysafe` runs no submodule, and reading
`proxysafe.simulate` imports `proxysafe.sim` then.  `from proxysafe
import *` binds every one of them.
"""

from importlib import import_module

_EXPORTS = {name: module for module, names in [
    ("expr", "Expr Const Var Call parse differentiate simplify evaluate "
             "compile_expr compile_exprs ExprError ParseError EvalError "
             "UnboundVariableError DomainError"),
    ("barrier", "ProxySpec RhoSpec BarrierStack ConditionCheck "
                "ConditionReport build_barrier_stack chi check_conditions "
                "rho_budget"),
    ("filter", "Infeasible project_halfspace solve_cbf_qp_pair"),
    ("dob", "DobSpec dob_derivative dob_outputs filter_derivative"),
    ("controllers", "BarrierBreach FunnelBreach SingularGain NominalGains "
                    "PpcGains NussbaumGains DobBackstepGains build_nominal "
                    "ppc_control nussbaum_control nussbaum_gain "
                    "build_dob_backstepping eval_dob_backstepping"),
    ("scenario", "ScenarioError PlantSpec ScenarioSpec load_scenario "
                 "loads_scenario save_scenario dumps_scenario builtin_names "
                 "load_builtin"),
    ("sim", "CheckFailed RuntimeModel SimTrace rk4_step simulate"),
    ("plots", "PlotError Series plot_trace render_panel"),
] for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value     # a later read finds it without this call
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
