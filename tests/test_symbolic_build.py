"""The symbolic build, pinned.

 1. Digests of the printed barrier stacks (every b_i, M_i, psi0 and
    psi1 of each stack), the nominal law nu_d and the observer-
    backstepping law (every tau_i and u) of the shipped scenarios and of
    an m = 4 chain, switched and plain, with equal and with unequal
    lambdas and betas.  Simplification and differentiation are free to
    get faster, never to change a printed expression; the digests were
    taken from the build before simplification was made linear on shared
    subtrees, and those of the plain and the unequal chain from the
    build before differentiation cached variable-free derivatives.
 2. An operation-count guard on the m = 4 chain: simplification work
    that grows with the paths through a shared expression, rather than
    with its distinct nodes, shows up as a rewrite count many times
    this one; rebuilding the derivative of every variable-free subtree
    once per variable shows up above half of the 56 552 rewrites that
    cost.  The count went 890 105 -> 56 552 -> 15 356 over those two
    changes.  A second guard counts every Python call the same build
    makes, so that the per-node overhead of the simplifier's kernel
    cannot creep back unnoticed.
 3. One simplify call reaches normal form on every stack expression,
    rebuilt without its marks.
 4. Guards on the feasibility checks, as counts rather than timings:
    the bisection proof of condition (i) takes one cell per stack where
    the g0-gradient of h is constant (electromech, the m = 4 chain) and
    a stated number of cells on ship, whose gradient vanishes at x = 0;
    and the checks compile nothing.
"""

import hashlib
import sys
from importlib import resources

import pytest
import yaml

from proxysafe import barrier as barrier_mod
from proxysafe import expr as E
from proxysafe import sim as sim_mod
from proxysafe.barrier import build_barrier_stack
from proxysafe.controllers import build_dob_backstepping, build_nominal
from proxysafe.scenario import load_builtin, loads_scenario

CHAIN_M = 4
# a chain whose levels all differ: perfbench's deep_chain_check seed-3
# draw, rounded
UNEQUAL_LAMBDAS = (11.068, 9.328, 8.065, 11.564, 15.687)
UNEQUAL_BETAS = (0.0636, 0.0553, 0.0405, 0.036)


def chain_scenario(mode="switched", lambdas=(10.0,) * CHAIN_M + (15.0,),
                   betas=(0.05,) * CHAIN_M):
    """The shipped electromech scenario with both proxies lengthened to a
    chain of CHAIN_M under the funnel controller, safe band [-0.5, 0.3]."""
    text = resources.files("proxysafe").joinpath(
        "scenarios", "electromech.yaml").read_text(encoding="utf-8")
    data = yaml.safe_load(text)
    data["proxy"][0]["h"] = "x + 0.5"
    data["proxy"][1]["h"] = "0.3 - x"
    for proxy in data["proxy"]:
        proxy["m"] = CHAIN_M
        proxy["mode"] = mode
        proxy["lambdas"] = list(lambdas)
        proxy["betas"] = list(betas)
    data["controller"] = "ppc"
    # observer backstepping needs m equal to the plant depth
    del data["controllers"]["dob_backstepping"]
    data["nominal"]["ks"] = [3.0] * CHAIN_M + [1.0]
    data["nominal"]["cs"] = [1.0] + [50.0] * (CHAIN_M - 1) + [1.0]
    data["check_box"] = [[-0.5, 0.3]]
    return loads_scenario(yaml.safe_dump(data, sort_keys=False))


def stack_texts(spec):
    out = []
    for proxy in spec.proxies:
        stack = build_barrier_stack(proxy, spec.rho)
        out += [str(b) for b in stack.b] + [str(M) for M in stack.M]
        out += [str(stack.psi0), str(stack.psi1)]
    return out


def nominal_texts(spec):
    return [str(build_nominal(spec.proxies[0], spec.nominal).nu_d)]


def dob_texts(spec):
    _, block = spec.controller_block("dob_backstepping")
    ctrl = build_dob_backstepping(list(spec.plant.fs), list(spec.plant.gs),
                                  spec.proxies[0], block["observer"],
                                  block["gains"], spec.rho)
    return [str(tau) for tau in ctrl.taus] + [str(ctrl.u_expr)]


def digest(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# (scenario, part) -> (number of expressions, sha256 of their str() lines)
PINNED = {
    ("ship", "stacks"): (6,
        "2f5b79ccdcface22c0b5332e0f779ed1242c499559cbd1d3e402f70dbaafaf62"),
    ("ship", "nominal"): (1,
        "b67d7526536ddc8dd7cfb5e3e4d3731d5c5c0144e775c2f6d39b00965bedc7a1"),
    ("electromech", "stacks"): (16,
        "276c6f1069affea0513ee5ab61005241df7ebcbf65ffdeed55f8bdb73c2bd2a7"),
    ("electromech", "nominal"): (1,
        "137df2101965b635b91fdf2198d16589cf42fd2aac2d63b7138435ad0d3cbd67"),
    ("electromech", "dob_backstepping"): (2,
        "216d896843c1288faf742dcd7b8750c4fb1bb134f29ae9889548238e864019b3"),
    ("chain", "stacks"): (24,
        "437399dab6b518650be8cf20f96e323150d165fb20fbd0ce7105f75ccdd8d152"),
    ("chain", "nominal"): (1,
        "1541926c461f72aa4e625c7ae501211848270ee2473fafe793b8ec8f7eb86b1e"),
    ("chain_plain", "stacks"): (24,
        "ec6d593af12d7df4a853e3d8853360690a7b94f9dda2ece288b8be66d52c2983"),
    ("chain_unequal", "stacks"): (24,
        "22577ba10e6a9da599c765130a7c79e36cd8dcd759567750f45a2342e6f2b903"),
}

PARTS = {"stacks": stack_texts, "nominal": nominal_texts,
         "dob_backstepping": dob_texts}


@pytest.fixture(scope="module")
def specs():
    return {"ship": load_builtin("ship"),
            "electromech": load_builtin("electromech"),
            "chain": chain_scenario(),
            "chain_plain": chain_scenario(mode="plain"),
            "chain_unequal": chain_scenario(lambdas=UNEQUAL_LAMBDAS,
                                            betas=UNEQUAL_BETAS)}


@pytest.mark.parametrize("scenario,part", sorted(PINNED))
def test_symbolic_build_is_pinned(specs, scenario, part):
    texts = PARTS[part](specs[scenario])
    assert (len(texts), digest(texts)) == PINNED[scenario, part]


# _rewrite calls for both stacks of the chain: 890 105 when each pass
# walked a shared subtree once per path into it, 56 552 when it walks it
# once and skips subtrees already simplified, 15 356 when differentiation
# also builds the derivative of a node without the variable once per node
# rather than once per variable
PER_PATH_CHAIN_REWRITES = 890_105


def test_chain_build_rewrite_count(monkeypatch):
    spec = chain_scenario()
    calls = [0]
    inner = E._rewrite

    def counting(node):
        calls[0] += 1
        return inner(node)

    monkeypatch.setattr(E, "_rewrite", counting)
    for proxy in spec.proxies:
        build_barrier_stack(proxy, spec.rho)
    assert calls[0] <= PER_PATH_CHAIN_REWRITES // 4
    assert calls[0] <= 28_000        # about half of 56 552


# Python call events (sys.setprofile) while both stacks of the chain
# build, the constraint row one past the chain included: 277 209 when the simplifier built children through a generator,
# tested them with any()/all(), walked into children already simplified
# and dispatched its rewrite rules through an isinstance chain, and every
# node constructor coerced Expr children; 137 724 with a list, plain
# loops, no call for a simplified child, rules found by node type and no
# coercion of an Expr.  The ceiling leaves about 12 % for unrelated change.
CHAIN_BUILD_CALLS = 155_000


def test_chain_build_call_count():
    spec = chain_scenario()
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        for proxy in spec.proxies:
            build_barrier_stack(proxy, spec.rho).psi0    # builds the row
    finally:
        sys.setprofile(None)
    assert 0 < calls[0] <= CHAIN_BUILD_CALLS


def unmarked_copy(e):
    """The same DAG, sharing kept, with every interior node rebuilt, so
    that none carries the normal-form mark."""
    memo = {}

    def copy(node):
        out = memo.get(id(node))
        if out is None:
            out = memo[id(node)] = node._with_children(
                tuple(copy(k) for k in node.children()))
        return out

    return copy(e)


@pytest.mark.parametrize("scenario", ["ship", "electromech", "chain",
                                      "chain_plain", "chain_unequal"])
def test_one_simplify_call_reaches_normal_form_on_stacks(specs, scenario):
    """Every expression of every stack, rebuilt unmarked, reaches normal
    form in one simplify call: the root is marked, a second call returns
    it unchanged, and it is the expression the build made."""
    spec = specs[scenario]
    for proxy in spec.proxies:
        stack = build_barrier_stack(proxy, spec.rho)
        for e in [*stack.b, *stack.M, stack.psi0, stack.psi1]:
            copy = unmarked_copy(e)
            assert not copy.children() or not copy._simple
            once = E.simplify(copy)
            assert once._simple and E.simplify(once) is once
            assert once == e


# cells the condition (i) proof visits per stack: the vanishing gradient
# of ship's h at x = 0 takes 59 (15 levels deep), with room for 20 more
PROOF_CELLS = {"ship": (1, 80), "electromech": (1, 1), "chain": (1, 1)}


@pytest.mark.parametrize("name", sorted(PROOF_CELLS))
def test_condition_i_proof_cell_count(specs, name):
    least, most = PROOF_CELLS[name]
    for report in sim_mod.RuntimeModel(specs[name]).run_checks():
        data = report.grad_check.data
        assert report.grad_check.verdict == "pass"
        assert data["undecided_width"] == 0.0
        assert least <= data["cells"] <= most, data


def test_chain_checks_compile_nothing(specs, monkeypatch):
    model = sim_mod.RuntimeModel(specs["chain"])
    calls = []
    for module in (E, barrier_mod, sim_mod):
        for name in ("compile_expr", "compile_exprs"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *a, name=name: calls.append(name))
    reports = model.run_checks()
    assert all(report.ok for report in reports)
    assert calls == []
