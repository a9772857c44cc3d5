"""Safety-filtered control for strict-feedback systems via proxy barrier dynamics."""

from proxysafe.expr import (
    Expr, Const, Var, Call, parse, differentiate, simplify, evaluate,
    compile_expr, compile_exprs,
    ExprError, ParseError, EvalError, UnboundVariableError, DomainError,
)
from proxysafe.barrier import (
    ProxySpec, RhoSpec, BarrierStack, ConditionCheck, ConditionReport,
    build_barrier_stack, chi, check_conditions, rho_budget,
)
from proxysafe.filter import Infeasible, project_halfspace, solve_cbf_qp_pair
from proxysafe.dob import DobSpec, dob_derivative, dob_outputs, filter_derivative
from proxysafe.controllers import (
    BarrierBreach, FunnelBreach, SingularGain,
    NominalGains, PpcGains, NussbaumGains, DobBackstepGains,
    build_nominal, ppc_control, nussbaum_control,
    nussbaum_gain, build_dob_backstepping, eval_dob_backstepping,
)
from proxysafe.scenario import (
    ScenarioError, PlantSpec, ScenarioSpec,
    load_scenario, loads_scenario, save_scenario, dumps_scenario,
    builtin_names, load_builtin,
)
from proxysafe.sim import CheckFailed, RuntimeModel, SimTrace, rk4_step, simulate
from proxysafe.plots import PlotError, Series, plot_trace, render_panel

__version__ = "0.1.0"
