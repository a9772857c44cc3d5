"""Declared runtime dependencies against the imports of the package, and
the package's exports against its definitions.

Every `[project].dependencies` entry of pyproject.toml must be imported
somewhere under src/proxysafe, and every third-party module imported
there must come from a declared distribution.  Import names map to
distributions through `importlib.metadata.packages_distributions()`.
Every name in a module's `__all__` must resolve, and the package
exports, which load on first use, must be the pinned set, each the
object its module defines, so a stale export fails here rather than at
a user's `import *`.
"""

import ast
import importlib
import importlib.metadata
import os
import pathlib
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proxysafe"


def _normalize(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def declared() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {_normalize(re.match(r"[A-Za-z0-9._-]+", spec).group())
            for spec in project.get("dependencies", [])}


def third_party_imports() -> set:
    """Top-level modules imported by the package that are neither the
    standard library nor the package itself."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"proxysafe", "__future__"}


def test_declared_dependencies_match_imports():
    owners = importlib.metadata.packages_distributions()
    imported = {}
    for module in sorted(third_party_imports()):
        dists = owners.get(module)
        assert dists, f"src imports {module!r}, which no installed " \
                      "distribution provides"
        imported[module] = {_normalize(d) for d in dists}
    deps = declared()
    undeclared = {m: d for m, d in imported.items() if not d & deps}
    assert not undeclared, f"imported but not declared: {undeclared}"
    unused = deps - set().union(*imported.values())
    assert not unused, f"declared but never imported under src: {unused}"


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"proxysafe.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"proxysafe.{name}.__all__ names {missing}"
    exec(f"from proxysafe.{name} import *", {})


# the package's exports by defining module
EXPORTS = {
    "expr": "Expr Const Var Call parse differentiate simplify evaluate "
            "compile_expr compile_exprs ExprError ParseError EvalError "
            "UnboundVariableError DomainError",
    "barrier": "ProxySpec RhoSpec BarrierStack ConditionCheck "
               "ConditionReport build_barrier_stack chi check_conditions "
               "rho_budget",
    "filter": "Infeasible project_halfspace solve_cbf_qp_pair",
    "dob": "DobSpec dob_derivative dob_outputs filter_derivative",
    "controllers": "BarrierBreach FunnelBreach SingularGain NominalGains "
                   "PpcGains NussbaumGains DobBackstepGains build_nominal "
                   "ppc_control nussbaum_control nussbaum_gain "
                   "build_dob_backstepping eval_dob_backstepping",
    "scenario": "ScenarioError PlantSpec ScenarioSpec load_scenario "
                "loads_scenario save_scenario dumps_scenario builtin_names "
                "load_builtin",
    "sim": "CheckFailed RuntimeModel SimTrace rk4_step simulate",
    "plots": "PlotError Series plot_trace render_panel",
}


def test_every_package_export_resolves():
    """Each export is the object its module defines; `import *` binds
    exactly the pinned exports, and `dir` lists them."""
    package = importlib.import_module("proxysafe")
    pinned = {name: module for module, names in EXPORTS.items()
              for name in names.split()}
    assert set(package.__all__) == set(pinned)
    for name, module in pinned.items():
        obj = getattr(package, name)
        assert obj is getattr(importlib.import_module(f"proxysafe.{module}"),
                              name), name
        assert obj.__module__ == f"proxysafe.{module}", name
    namespace = {}
    exec("from proxysafe import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pinned)
    assert set(pinned) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_export


def test_import_loads_no_submodule():
    code = ("import sys, proxysafe; print(sorted(m for m in sys.modules "
            "if m.startswith('proxysafe.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_plots_loads_no_barrier_code():
    # the safe bounds are proven by `expr.prove`, not by barrier code
    code = ("import sys, proxysafe.plots; "
            "print('proxysafe.barrier' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
