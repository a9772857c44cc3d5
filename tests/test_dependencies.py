"""Declared runtime dependencies against the imports of the package, and
the package's exports against its definitions.

Every `[project].dependencies` entry of pyproject.toml must be imported
somewhere under src/proxysafe, and every third-party module imported
there must come from a declared distribution.  Import names map to
distributions through `importlib.metadata.packages_distributions()`.
Every name in a module's `__all__` and every name the package
`__init__` imports must resolve, so a stale export fails here rather
than at a user's `import *`.
"""

import ast
import importlib
import importlib.metadata
import pathlib
import re
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


def test_every_package_export_resolves():
    """Each `from proxysafe.X import a, b` of the package __init__ names
    what proxysafe.X defines, and the package binds it."""
    package = importlib.import_module("proxysafe")
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert getattr(package, alias.asname or alias.name) is \
                getattr(module, alias.name)
