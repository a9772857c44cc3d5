"""Scenario variants for tests: a built-in with some keys overridden."""

import yaml

from proxysafe.scenario import load_builtin, loads_scenario


def variant(name, **edits):
    """Reload a built-in scenario with dotted-path overrides applied."""
    mapping = load_builtin(name).to_mapping()
    for path, value in edits.items():
        node = mapping
        keys = path.split("__")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return loads_scenario(yaml.safe_dump(mapping))


def three_barriers():
    """electromech under the funnel law with a third barrier, a copy of
    the lower one at x >= -0.45."""
    mapping = load_builtin("electromech").to_mapping()
    mapping["proxy"].append(dict(mapping["proxy"][0], h="x + 0.45"))
    mapping["controller"] = "ppc"
    return loads_scenario(yaml.safe_dump(mapping))
