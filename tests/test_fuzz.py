"""The command-line contract under malformed and unusual scenario files.

Each example starts from a built-in scenario and makes one edit: an
expression replaced by a random tree over that expression's own
variables, a number set to an edge value (0, -0.0, 1e-300, 1e300, -1, a
string, null) or written in another YAML spelling of the same value
(1e-2 for 0.01), or a key dropped.  The file then goes through
`cli.main` in process as `check`, `run --horizon 0.05 --out` and the
same run with `--force`.  For every command:

- `main` raises nothing and returns an exit code from 0 to 4;
- exit 1 (an input error) prints exactly one `error:` line;
- exit 1 or 2 (a failed check) leaves no trace file;
- a number spelled another way changes nothing: the exit codes and the
  trace files are those of the unedited built-in.
"""

import contextlib
import functools
import io
import os
import re
import tempfile
from decimal import Decimal

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxysafe.cli import main
from proxysafe.scenario import dumps_scenario, load_builtin
from test_expr import ORACLE_NAMES, oracle_trees

BUILTINS = ("electromech", "ship")
EDGES = (0, -0.0, 1e-300, 1e300, -1, "abc", None)
HORIZON = "0.05"
DROP = object()         # the edit that deletes a key


def expression_slots(mapping):
    """(key path, variables) of every expression in a scenario mapping."""
    plant = mapping["plant"]
    slots = [(("plant", "f0"), ("x",)), (("plant", "g0"), ("x",)),
             (("nominal", "x_d"), ("t",))]
    for i in range(len(plant["levels"])):
        names = ("x", *(f"z{j}" for j in range(1, i + 2)))
        slots += [(("plant", "levels", i, key), names) for key in "fg"]
    slots += [(("plant", "disturbances", i), ("t",))
              for i in range(len(plant["disturbances"]))]
    slots += [(("proxy", k, "h"), ("x",))
              for k in range(len(mapping["proxy"]))]
    phis = mapping["controllers"].get("nussbaum", {}).get("phi", [])
    slots += [(("controllers", "nussbaum", "phi", j), ("z1",))
              for j in range(len(phis))]
    return slots


def leaves(node, path=()):
    """(key path, value) of every leaf under a mapping or list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,), value


def keys(node, path=()):
    """Key path of every mapping key under node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from keys(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from keys(value, path + (i,))


def spelled(value: float) -> str:
    """value as an integer mantissa and an exponent (0.01 as 1e-2): a
    YAML 1.2 float that YAML 1.1 reads as a string, so it is written
    unquoted."""
    sign, digits, exponent = Decimal(repr(value)).as_tuple()
    return f"{'-' if sign else ''}{''.join(map(str, digits))}e{exponent}"


def edited(name, path, value, respelled=False):
    """A case: the built-in with the value at path replaced, as YAML."""
    mapping = load_builtin(name).to_mapping()
    node = mapping
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = spelled(node[path[-1]]) if respelled else value
    return name, yaml.safe_dump(mapping, sort_keys=False), respelled


@st.composite
def cases(draw):
    name = draw(st.sampled_from(BUILTINS))
    mapping = load_builtin(name).to_mapping()
    edit = draw(st.sampled_from(("expression", "number", "respell", "drop")))
    if edit == "expression":
        path, variables = draw(st.sampled_from(expression_slots(mapping)))
        names = {v: draw(st.sampled_from(variables)) for v in ORACLE_NAMES}
        tree = str(draw(oracle_trees()))
        return edited(name, path, re.sub(r"\b[xyt]\b",
                                         lambda m: names[m.group()], tree))
    numbers = [(path, v) for path, v in leaves(mapping)
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if edit == "number":
        path, _ = draw(st.sampled_from(numbers))
        return edited(name, path, draw(st.sampled_from(EDGES)))
    if edit == "respell":
        path, _ = draw(st.sampled_from(
            [(path, v) for path, v in numbers if isinstance(v, float)]))
        return edited(name, path, None, respelled=True)
    return edited(name, draw(st.sampled_from(list(keys(mapping)))), DROP)


def run_cli(argv):
    """Exit code and stderr of `cli.main(argv)` in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def outcomes(text):
    """Exit code and trace file bytes (None without one) of `check`,
    `run` and `run --force` on a scenario file holding text, each held
    to the contract."""
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        run = ["run", path, "--horizon", HORIZON, "--out"]
        for argv, out in [
                (["check", path], None),
                (run + [os.path.join(tmp, "a.csv")], "a.csv"),
                (run + [os.path.join(tmp, "b.csv"), "--force"], "b.csv")]:
            code, err = run_cli(argv)
            assert code in range(5), (argv, code, err)
            if code == 1:
                errors = [ln for ln in err.splitlines()
                          if ln.startswith("error:")]
                assert len(errors) == 1, (argv, err)
            trace = None
            if out is not None and os.path.exists(os.path.join(tmp, out)):
                assert code not in (1, 2), (argv, code, err)
                with open(os.path.join(tmp, out), "rb") as fh:
                    trace = fh.read()
            got.append((code, trace))
    return got


@functools.cache
def builtin_outcomes(name):
    return outcomes(dumps_scenario(load_builtin(name)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
# a feasibility check that raises: division by zero at x0 = 0, and a
# sqrt that leaves its domain in the check box
@example(edited("ship", ("proxy", 0, "h"), "pi^2/81 - x^2 + 0.001/(x - 0)"))
@example(edited("ship", ("proxy", 0, "h"), "sqrt(x) - 1"))
# a step longer than the run's horizon, and a grid over the step cap
@example(edited("ship", ("dt",), 1.0))
@example(edited("ship", ("dt",), 1e-300))
# a plant level gain that simplifies to 0
@example(edited("electromech", ("plant", "levels", 0, "g"), "x - x"))
# dt: 1e-2, which YAML 1.1 reads as a string
@example(edited("ship", ("dt",), None, respelled=True))
def test_cli_keeps_its_contract(case):
    name, text, respelled = case
    got = outcomes(text)
    if respelled:
        assert got == builtin_outcomes(name)
