"""The benchmark workloads and the seeded scenario files they run.

Every workload derives from a scenario shipped in src/proxysafe/scenarios.
Seed 0 is the shipped input; another seed varies one property of it and
keeps the structure fixed, so that every seed exercises the same code
paths.  The program only ever sees the generated YAML file.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import yaml

SCENARIO_DIR = os.path.join("src", "proxysafe", "scenarios")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str            # shipped scenario file the input derives from
    command: str             # "run" or "check"
    # one `run` per controller and repetition; None keeps the scenario's
    # own selection
    controllers: tuple
    plot: bool               # follow the run with `proxysafe plot`
    why: str


WORKLOADS = {w.name: w for w in [
    Workload("ship_nussbaum", "ship", "run", (None,), True,
             "cheapest dynamics per stage, so sim/filter glue and the "
             "22.8 MB trace write dominate; the filter projects on most rows"),
    Workload("electromech", "electromech", "run", ("dob_backstepping", "ppc"),
             False,
             "two barrier stacks under observer backstepping (the only dob "
             "user) and then the closed-form funnel law, on one input"),
    Workload("deep_chain_check", "electromech", "check", (None,), False,
             "check of a chain of length 4, where expr.simplify and the "
             "symbolic barrier build carry the load"),
]}

# the multi-tone disturbance of the shipped electromech scenario, one
# (amplitude, function, frequency) triple per tone
_TONES = ((1.0, "sin", 1), (0.2, "sin", 2), (-0.5, "cos", 5), (1.0, "cos", 3))
DEEP_M = 4


def _rng(key: str, seed: int) -> random.Random:
    # a string seed is hashed with sha512, so it is stable across processes
    return random.Random(f"{key}/{seed}")


def disturbance(phase: float) -> str:
    """The shipped disturbance with every tone shifted by `phase` rad."""
    terms = []
    for amp, fn, freq in _TONES:
        arg = "t" if freq == 1 else f"{freq} * t"
        term = f"{fn}({arg} + {phase!r})"
        terms.append(term if amp == 1.0 else f"{abs(amp)!r} * {term}")
    text = terms[0]
    for (amp, _, _), term in zip(_TONES[1:], terms[1:]):
        text += (" - " if amp < 0 else " + ") + term
    return text


def deep_chain(data: dict, lambdas, betas, lower: float, upper: float) -> dict:
    """The electromech scenario with a proxy chain of length DEEP_M under
    the funnel controller, safe band [-lower, upper]."""
    data["proxy"][0]["h"] = f"x + {lower!r}"
    data["proxy"][1]["h"] = f"{upper!r} - x"
    for proxy in data["proxy"]:
        proxy["m"] = DEEP_M
        proxy["lambdas"] = list(lambdas)
        proxy["betas"] = list(betas)
    data["controller"] = "ppc"
    # observer backstepping needs m equal to the plant depth
    del data["controllers"]["dob_backstepping"]
    data["nominal"]["ks"] = [3.0] * DEEP_M + [1.0]
    data["nominal"]["cs"] = [1.0] + [50.0] * (DEEP_M - 1) + [1.0]
    data["check_box"] = [[-lower, upper]]
    return data


def scenario_text(workload: Workload, seed: int, root: str = ".") -> str:
    """YAML text of the workload's input for one seed."""
    path = os.path.join(root, SCENARIO_DIR, f"{workload.scenario}.yaml")
    with open(path, encoding="utf-8") as fh:
        shipped = fh.read()
    if workload.name == "deep_chain_check":
        if seed == 0:
            lambdas, betas = [10.0] * DEEP_M + [15.0], [0.05] * DEEP_M
            lower, upper = 0.5, 0.3
        else:
            rng = _rng(workload.name, seed)
            lambdas = [rng.uniform(8.0, 12.0) for _ in range(DEEP_M)]
            lambdas.append(rng.uniform(12.0, 18.0))
            betas = [rng.uniform(0.03, 0.07) for _ in range(DEEP_M)]
            lower, upper = rng.uniform(0.46, 0.55), rng.uniform(0.30, 0.36)
        data = deep_chain(yaml.safe_load(shipped), lambdas, betas,
                          lower, upper)
        return yaml.safe_dump(data, sort_keys=False)
    if seed == 0:
        return shipped
    data = yaml.safe_load(shipped)
    rng = _rng(workload.scenario, seed)
    if workload.scenario == "ship":
        data["initial"]["x"] = [rng.uniform(-0.1, 0.1)]
    else:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        data["plant"]["disturbances"] = [disturbance(phase)] * 2
    return yaml.safe_dump(data, sort_keys=False)
