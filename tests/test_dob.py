"""Observer and filter-chain tests.

Covers, in order:

1. specification validation and derived constants;
2. the closed-loop initial state and the output map;
3. analytic estimation transients: constant disturbance (exponential
   approach), sinusoidal disturbance (frequency-response error band);
4. filter-chain analytics: first-order step response, two-stage cascade
   convergence, equilibrium, and the flat stage layout against a
   per-level cascade for random shapes.

Transient oracles integrate the module's right-hand sides with a local
RK4 loop written here, then compare against closed-form solutions of the
same linear ODEs derived by hand.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxysafe.dob import DobSpec, dob_derivative, dob_outputs, filter_derivative
from proxysafe.loop import ClosedLoop
from proxysafe.scenario import load_builtin
from proxysafe.sim import RuntimeModel


def rk4(deriv, y0, t0, t1, dt):
    """Classical fixed-step RK4 over [t0, t1]; local to the tests."""
    y = list(y0)
    t = t0
    for _ in range(round((t1 - t0) / dt)):
        k1 = deriv(t, y)
        k2 = deriv(t + dt / 2, [a + dt / 2 * b for a, b in zip(y, k1)])
        k3 = deriv(t + dt / 2, [a + dt / 2 * b for a, b in zip(y, k2)])
        k4 = deriv(t + dt, [a + dt * b for a, b in zip(y, k3)])
        y = [a + dt / 6 * (b + 2 * c + 2 * d + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        t += dt
    return y


def observe_scalar(alpha, dist, t_end, dt, record=None):
    """Integrate one observer level against plant dz/dt = dist(t).

    The plant level has zero drift and no control, so the true state
    moves only under the disturbance; returns the final (z, s) and
    optionally records (t, d_hat) pairs.
    """
    spec = DobSpec(alphas=(alpha,))

    def deriv(t, y):
        z, s = y
        d_hat = dob_outputs(spec, [s], [z])
        dz = dist(t)
        ds = dob_derivative(spec, d_hat, [0.0], [1.0], [z], 0.0)[0]
        return [dz, ds]

    y = [0.0, 0.0]
    t = 0.0
    while t < t_end - 1e-12:
        y = rk4(deriv, y, t, t + dt, dt)
        t += dt
        if record is not None:
            record.append((t, y[1] + alpha * y[0]))
    return y


# ═══════════════════════════════════════════════════════════════════
# 1. specification
# ═══════════════════════════════════════════════════════════════════

def test_spec_validation():
    spec = DobSpec(alphas=(30.0, 30.0), nus=(1.0, 1.0),
                   time_constants=((100.0,),))
    assert spec.n == 2
    assert spec.kappa(1) == 29.5
    assert spec.kappa(2) == 29.5
    with pytest.raises(ValueError):
        DobSpec(alphas=())
    with pytest.raises(ValueError):
        DobSpec(alphas=(30.0, -1.0))
    with pytest.raises(ValueError):
        DobSpec(alphas=(30.0,), nus=(60.0,))        # nu must stay below 2 alpha
    with pytest.raises(ValueError):
        DobSpec(alphas=(30.0, 30.0), time_constants=((100.0, 1.0),))
    with pytest.raises(ValueError):
        DobSpec(alphas=(30.0, 30.0), time_constants=((0.0,),))


def test_spec_defaults():
    spec = DobSpec(alphas=(30.0, 30.0, 30.0))
    assert spec.nus == (1.0, 1.0, 1.0)
    assert spec.time_constants == ((1.0, 1.0), (1.0,))


# ═══════════════════════════════════════════════════════════════════
# 2. initial state and output map
# ═══════════════════════════════════════════════════════════════════

def test_initial_state_zero_estimates():
    """electromech starts its observer at s = -alpha z0, so every
    estimate reads 0 at t = 0, with its filter stage at rest; also from
    a nonzero z0."""
    builtin = load_builtin("electromech")
    assert builtin.initial_z == (0.0, 0.0)
    assert builtin.controllers["dob_backstepping"]["observer"].alphas == \
        (30.0, 30.0)
    for spec, want_s in [
            (builtin, [0.0, 0.0]),
            (builtin._replace(initial_z=(0.7, -1.3)),
             [-21.0, 39.0])]:
        model = RuntimeModel(spec)
        state = model.initial_state()
        z = state[model.i_z:model.i_z + 2]
        s = state[model.i_extra:model.i_extra + 2]
        assert z == list(spec.initial_z)
        assert s == want_s
        assert state[model.i_extra + 2:] == [0.0]
        assert dob_outputs(model.dob, s, z) == [0.0, 0.0]
        row = model.trace_row(state, 0.0, *model.controls(state, 0.0))
        cols = ClosedLoop(model).columns
        assert [row[cols.index(c)] for c in ("dhat1", "dhat2", "df1_1")] \
            == [0.0, 0.0, 0.0]


def test_output_map():
    spec = DobSpec(alphas=(2.0,))
    assert dob_outputs(spec, [0.5], [3.0]) == [0.5 + 2.0 * 3.0]


def test_zero_plant_zero_estimate_is_stationary():
    spec = DobSpec(alphas=(30.0, 30.0), time_constants=((100.0,),))
    d_hat = dob_outputs(spec, [0.0, 0.0], [0.0, 0.0])
    ds = dob_derivative(spec, d_hat, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], 0.0)
    assert ds == [0.0, 0.0]
    assert filter_derivative(spec, d_hat, [0.0]) == [0.0]


# ═══════════════════════════════════════════════════════════════════
# 3. estimation transients
# ═══════════════════════════════════════════════════════════════════

def test_constant_disturbance_exponential_approach():
    # d = 1 from a zero estimate: the error obeys de/dt = -alpha e, so
    # d_hat(t) = 1 - exp(-alpha t); RK4 at this step size tracks it to
    # well below 1e-8
    alpha, dt = 30.0, 1e-3
    rec = []
    observe_scalar(alpha, lambda t: 1.0, 0.2, dt, record=rec)
    worst = max(abs(dh - (1.0 - math.exp(-alpha * t))) for t, dh in rec)
    print(f"\n  constant-disturbance tracking worst error: {worst:.3e}")
    assert worst <= 1e-8
    t, dh = rec[-1]
    assert abs(t - 0.2) <= 1e-12
    assert abs(dh - 0.99752) <= 5e-6


def test_sine_disturbance_error_band():
    # d = sin t: the error ODE is de/dt = -alpha e - cos t, whose steady
    # amplitude is 1/sqrt(alpha^2 + 1)
    alpha, dt = 30.0, 1e-3
    rec = []
    observe_scalar(alpha, math.sin, 10.0, dt, record=rec)
    band = 1.0 / math.sqrt(alpha * alpha + 1.0)
    steady = [abs(dh - math.sin(t)) for t, dh in rec if t >= 5.0]
    assert max(steady) <= band + 1e-3
    assert max(steady) >= band - 5e-3      # the band is tight, not slack


# ═══════════════════════════════════════════════════════════════════
# 4. filter chain
# ═══════════════════════════════════════════════════════════════════

def frozen_filter_run(spec, level_input, t_end, dt):
    """Integrate one level's filter stages with the estimate frozen."""
    width = len(spec.time_constants[0])
    rest = [0.0] * (spec.n * (spec.n - 1) // 2 - width)

    def deriv(t, y):
        # level 1's stages come first in the flat layout
        return filter_derivative(spec, [level_input] * spec.n,
                                 list(y) + rest)[:width]

    y = [0.0] * width
    t = 0.0
    trace = [(0.0, list(y))]
    while t < t_end - 1e-12:
        y = rk4(deriv, y, t, t + dt, dt)
        t += dt
        trace.append((t, list(y)))
    return trace


def test_filter_step_response():
    spec = DobSpec(alphas=(30.0, 30.0), time_constants=((100.0,),))
    trace = frozen_filter_run(spec, 1.0, 0.05, 1e-5)
    worst = max(abs(y[0] - (1.0 - math.exp(-100.0 * t))) for t, y in trace)
    print(f"\n  filter step-response worst error: {worst:.3e}")
    assert worst <= 1e-8
    # one stage settles within 1% after five time constants
    assert abs(trace[-1][1][0] - 1.0) <= 1e-2


def test_filter_cascade_two_stages():
    T = 100.0
    spec = DobSpec(alphas=(1.0, 1.0, 1.0), time_constants=((T, T), (T,)))
    trace = frozen_filter_run(spec, 1.0, 7.0 / T, 1e-5)
    second = [y[1] for _, y in trace]
    assert all(b >= a - 1e-12 for a, b in zip(second, second[1:]))
    # equal time constants give the closed form (1 + T t) e^{-T t} for
    # the second stage's remaining error
    worst = max(abs(y[1] - (1.0 - (1.0 + T * t) * math.exp(-T * t)))
                for t, y in trace)
    assert worst <= 1e-8
    # two stages need seven time constants to settle within 1%
    assert abs(second[-1] - 1.0) <= 1e-2
    mid = next(y[1] for t, y in trace if abs(t - 5.0 / T) <= 1e-9)
    assert abs(mid - 1.0) > 1e-2


def test_filter_equilibrium():
    spec = DobSpec(alphas=(1.0, 1.0), time_constants=((3.0,),))
    assert filter_derivative(spec, [0.4, 0.0], [0.4]) == [0.0]


def test_filter_derivative_shapes():
    spec = DobSpec(alphas=(1.0, 1.0, 1.0), time_constants=((2.0, 3.0), (4.0,)))
    dd = filter_derivative(spec, [1.0, 2.0, 0.0], [0.5, 0.25, 1.5])
    assert dd == [-2.0 * (0.5 - 1.0), -3.0 * (0.25 - 0.5), -4.0 * (1.5 - 2.0)]


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _filter_cases(draw):
    """A DobSpec of depth 1..5 with random constants, and estimates and
    stages for it; level i < n carries n - i stages."""
    n = draw(st.integers(1, 5))
    # the default nu_i = 1 needs alpha_i > 1/2
    alphas = draw(st.lists(st.floats(1.0, 1e3), min_size=n, max_size=n))
    tcs = [draw(st.lists(st.floats(1e-3, 1e4), min_size=n - i,
                         max_size=n - i)) for i in range(1, n)]
    spec = DobSpec(alphas=tuple(alphas), time_constants=tuple(map(tuple, tcs)))
    d_hat = draw(st.lists(_finite, min_size=n, max_size=n))
    rows = [draw(st.lists(_finite, min_size=len(r), max_size=len(r)))
            for r in tcs]
    return spec, d_hat, rows


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_filter_cases())
def test_flat_filter_layout_matches_a_per_level_cascade(case):
    """filter_derivative on the flat stage list equals, bit for bit, the
    cascade written out level by level: stage j of level i follows
    stage j - 1 (the estimate d_hat_i for j = 1) at rate T_{i,j}."""
    spec, d_hat, rows = case
    want = []
    for i, row in enumerate(rows):
        for j, stage in enumerate(row):
            upstream = d_hat[i] if j == 0 else row[j - 1]
            want.append(-spec.time_constants[i][j] * (stage - upstream))
    got = filter_derivative(spec, d_hat, [v for row in rows for v in row])
    assert [v.hex() for v in got] == [v.hex() for v in want]
