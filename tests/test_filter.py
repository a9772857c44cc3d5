"""Safety filter verification.

 1. The worked examples, each confirmed by a full-grid brute force.
 2. Contract properties: minimal invasiveness (bit-for-bit nominal when
    feasible), feasible output, idempotence.
 3. 1000 random instances in dims 1..4 against a projected-grid brute
    force, with a convexity certificate on a subsample.
 4. Infeasibility signaling when psi1 is numerically zero.
 5. Two-constraint clamp of a scalar input against a line grid search.
 6. Generated inputs: the two-constraint clamp against an exact interval
    oracle, and the 1-D half-space projection.
"""

import math
import random

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxysafe.filter import (
    EPS_PSI, FEAS_TOL, Infeasible, QpInstance, project_halfspace,
    solve_cbf_qp, solve_cbf_qp_pair,
)

SEED = 20260822
N_ORACLE = 1000


# ═══════════════════════════════════════════════════════════════════════════
# brute-force oracles (shared with the acceptance suite)
# ═══════════════════════════════════════════════════════════════════════════

def projected_grid(nu_d, psi0, psi1, passes=5, n=2001):
    """Grid search along the one direction that changes the constraint.

    Moving orthogonally to psi1 leaves psi0 + psi1 . nu untouched and can
    only grow the objective, so the line nu_d + s * psi1/||psi1|| contains
    the optimum; the search itself is still a plain feasibility-masked
    argmin over sampled points, refined around the incumbent.
    """
    nu_d = np.asarray(nu_d, dtype=float)
    psi1 = np.asarray(psi1, dtype=float)
    norm = float(np.linalg.norm(psi1))
    assert norm > 1e-6, "oracle expects a usable constraint row"
    u = psi1 / norm
    margin0 = psi0 + float(psi1 @ nu_d)
    span = 2.0 * (abs(margin0) / norm + 1.0)
    center = 0.0
    best = None
    for _ in range(passes):
        s = np.linspace(center - span, center + span, n)
        pts = nu_d[None, :] + s[:, None] * u[None, :]
        feas = psi0 + pts @ psi1 >= 0.0
        if not feas.any():
            return None
        obj = ((pts - nu_d) ** 2).sum(axis=1)
        obj[~feas] = np.inf
        k = int(np.argmin(obj))
        best = pts[k]
        center = float(s[k])
        span = 4.0 * span / (n - 1)
    return best


def full_grid_1d(nu_d, psi0, psi1, lo=-10.0, hi=10.0, n=200001):
    """The exhaustive 1-D search from the worked examples."""
    s = np.linspace(lo, hi, n)
    feas = psi0 + psi1[0] * s >= 0.0
    obj = (s - nu_d[0]) ** 2
    obj[~feas] = np.inf
    assert feas.any()
    return [float(s[np.argmin(obj)])]


def plane_grid(nu_d, rows, span, passes=2, n=401):
    """Feasibility-masked grid search over the span of the constraint rows
    (orthogonal moves cannot help), for the two-constraint solver."""
    nu_d = np.asarray(nu_d, dtype=float)
    B = np.stack([np.asarray(b, dtype=float) for _, b in rows])
    q, r = np.linalg.qr(B.T)
    cols = [q[:, i] for i in range(q.shape[1]) if abs(r[i, i]) > 1e-12]
    if not cols:
        return nu_d
    best = nu_d
    center = np.zeros(len(cols))
    for _ in range(passes):
        axes = [np.linspace(c - span, c + span, n) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        pts = nu_d[None, :] + coords @ np.stack(cols)
        feas = np.ones(len(pts), dtype=bool)
        for a, b in rows:
            feas &= a + pts @ np.asarray(b, dtype=float) >= -FEAS_TOL
        if not feas.any():
            return None
        obj = ((pts - nu_d) ** 2).sum(axis=1)
        obj[~feas] = np.inf
        k = int(np.argmin(obj))
        best = pts[k]
        center = coords[k]
        span = 4.0 * span / (n - 1)
    return best


def random_instances(rng, count):
    """Mixed feasible/violated instances in dims 1..4 with usable rows."""
    out = []
    while len(out) < count:
        dim = int(rng.integers(1, 5))
        nu_d = rng.normal(0.0, 2.0, dim)
        psi1 = rng.normal(0.0, 1.0, dim)
        if np.linalg.norm(psi1) < 1e-3:
            continue
        psi0 = float(rng.uniform(-5.0, 5.0))
        out.append(QpInstance(tuple(nu_d), psi0, tuple(psi1)))
    return out


# ═══════════════════════════════════════════════════════════════════════════
# 1. worked examples
# ═══════════════════════════════════════════════════════════════════════════

def test_inactive_constraint_returns_nominal():
    """psi0=1, psi1=[1], nominal 0: already feasible."""
    assert solve_cbf_qp(QpInstance((0.0,), 1.0, (1.0,))) == [0.0]


def test_scalar_projection_example():
    """psi0=-2, psi1=[1], nominal 0: shifted to exactly 2."""
    got = solve_cbf_qp(QpInstance((0.0,), -2.0, (1.0,)))
    assert got == [2.0]
    brute = full_grid_1d((0.0,), -2.0, (1.0,))
    assert abs(got[0] - brute[0]) <= 1e-4


def test_two_dim_projection_example():
    """psi0=-1, psi1=[1,1], nominal origin: split evenly."""
    got = solve_cbf_qp(QpInstance((0.0, 0.0), -1.0, (1.0, 1.0)))
    assert got == [0.5, 0.5]
    brute = plane_grid((0.0, 0.0), [(-1.0, (1.0, 1.0))], span=2.0)
    assert max(abs(g - b) for g, b in zip(got, brute)) <= 1e-3


# ═══════════════════════════════════════════════════════════════════════════
# 2. contract properties
# ═══════════════════════════════════════════════════════════════════════════

def test_feasible_nominal_is_bit_for_bit():
    rng = np.random.default_rng(SEED + 1)
    kept = 0
    while kept < 200:
        dim = int(rng.integers(1, 5))
        nu_d = tuple(rng.normal(0.0, 2.0, dim))
        psi1 = tuple(rng.normal(0.0, 1.0, dim))
        psi0 = float(rng.uniform(0.0, 5.0) - sum(a * b for a, b in zip(nu_d, psi1)))
        q = QpInstance(nu_d, psi0, psi1)
        if q.psi0 + sum(a * b for a, b in zip(q.psi1, q.nu_d)) < 0.0:
            continue
        assert solve_cbf_qp(q) == list(q.nu_d)
        kept += 1


def test_output_always_feasible():
    rng = np.random.default_rng(SEED + 2)
    for q in random_instances(rng, 300):
        nu = solve_cbf_qp(q)
        residual = q.psi0 + sum(a * b for a, b in zip(q.psi1, nu))
        assert residual >= -FEAS_TOL


def test_idempotence():
    rng = np.random.default_rng(SEED + 3)
    for q in random_instances(rng, 300):
        once = solve_cbf_qp(q)
        twice = solve_cbf_qp(QpInstance(tuple(once), q.psi0, q.psi1))
        assert max(abs(a - b) for a, b in zip(once, twice)) <= 1e-12


# ═══════════════════════════════════════════════════════════════════════════
# 3. randomized oracle
# ═══════════════════════════════════════════════════════════════════════════

def test_closed_form_matches_projected_grid():
    """1000 instances: coordinates within 1e-4, objective within 1e-6."""
    rng = np.random.default_rng(SEED)
    instances = random_instances(rng, N_ORACLE)
    worst_coord = 0.0
    worst_obj = 0.0
    for q in instances:
        nu = np.asarray(solve_cbf_qp(q))
        brute = projected_grid(q.nu_d, q.psi0, q.psi1)
        assert brute is not None
        coord_err = float(np.max(np.abs(nu - brute)))
        obj = float(((nu - np.asarray(q.nu_d)) ** 2).sum())
        obj_brute = float(((brute - np.asarray(q.nu_d)) ** 2).sum())
        assert coord_err <= 1e-4, f"coordinate gap {coord_err:.2e} on {q}"
        assert abs(obj - obj_brute) <= 1e-6, f"objective gap on {q}"
        worst_coord = max(worst_coord, coord_err)
        worst_obj = max(worst_obj, abs(obj - obj_brute))
    print(f"\n  QP oracle: {len(instances)} instances, "
          f"worst coord {worst_coord:.2e}, worst objective {worst_obj:.2e}")


def test_no_feasible_point_beats_the_solution():
    """Convexity certificate: random feasible perturbations never win."""
    rng = np.random.default_rng(SEED + 4)
    for q in random_instances(rng, 100):
        nu = np.asarray(solve_cbf_qp(q))
        obj = float(((nu - np.asarray(q.nu_d)) ** 2).sum())
        deltas = rng.normal(0.0, 1.0, (300, len(nu)))
        deltas *= (rng.uniform(1e-4, 1e-1, 300) /
                   np.linalg.norm(deltas, axis=1))[:, None]
        pts = nu[None, :] + deltas
        feas = q.psi0 + pts @ np.asarray(q.psi1) >= 0.0
        objs = ((pts - np.asarray(q.nu_d)) ** 2).sum(axis=1)
        assert not np.any(feas & (objs < obj - 1e-9))


# ═══════════════════════════════════════════════════════════════════════════
# 4. infeasibility
# ═══════════════════════════════════════════════════════════════════════════

def test_zero_row_with_violation_raises():
    with pytest.raises(Infeasible) as info:
        solve_cbf_qp(QpInstance((1.0,), -1.0, (0.0,)))
    assert info.value.psi0 == -1.0
    assert info.value.psi1 == [0.0]


def test_tiny_row_below_threshold_raises():
    with pytest.raises(Infeasible):
        solve_cbf_qp(QpInstance((0.0,), -1.0, (EPS_PSI / 2,)))


def test_zero_row_with_slack_is_fine():
    assert solve_cbf_qp(QpInstance((3.0,), 0.5, (0.0,))) == [3.0]


# ═══════════════════════════════════════════════════════════════════════════
# 5. two-constraint projection
# ═══════════════════════════════════════════════════════════════════════════

def test_pair_slab():
    """nu >= 1 and nu <= 3 clamp the scalar nominal into the slab."""
    lo = (-1.0, 1.0)
    hi = (3.0, -1.0)
    assert solve_cbf_qp_pair(0.0, *lo, *hi) == 1.0
    assert solve_cbf_qp_pair(5.0, *lo, *hi) == 3.0
    assert solve_cbf_qp_pair(2.0, *lo, *hi) == 2.0


def test_pair_empty_slab_raises():
    with pytest.raises(Infeasible):
        solve_cbf_qp_pair(0.0, -2.0, 1.0, 1.0, -1.0)


def test_pair_degenerate_rows():
    with pytest.raises(Infeasible):
        solve_cbf_qp_pair(0.0, -1.0, 0.0, 1.0, 1.0)
    got = solve_cbf_qp_pair(0.0, 1.0, 0.0, -2.0, 1.0)
    assert got == 2.0


def test_pair_random_against_plane_grid():
    """Feasible-by-construction random pairs match the line search."""
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(150):
        witness = rng.normal(0.0, 1.0)
        nu_d = rng.normal(0.0, 2.0)
        rows = []
        for _ in range(2):
            b = rng.normal(0.0, 1.0)
            if abs(b) < 1e-3:
                b = b + 1.0
            a = float(-b * witness + rng.uniform(0.0, 1.0))
            rows.append((a, b))
        got = solve_cbf_qp_pair(nu_d, *rows[0], *rows[1])
        for a, b in rows:
            assert a + got * b >= -FEAS_TOL
        dist = sum(abs(a + b * nu_d) / abs(b) for a, b in rows)
        brute = plane_grid((nu_d,), [(a, (b,)) for a, b in rows],
                           span=2.0 * dist + 1.0)
        assert brute is not None
        obj = (got - nu_d) ** 2
        obj_brute = float((brute[0] - nu_d) ** 2)
        gap = obj - obj_brute
        assert gap <= 1e-4, f"solver beaten by grid: {gap:.2e}"
        worst = max(worst, abs(gap))
    print(f"\n  pair solver vs line grid: worst objective gap {worst:.2e}")


# ═══════════════════════════════════════════════════════════════════════════
# 6. properties over generated inputs
# ═══════════════════════════════════════════════════════════════════════════

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None)
# magnitudes at which float rounding stays far below FEAS_TOL
_value = st.floats(-1e3, 1e3, allow_nan=False)
_slope = st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                   st.floats(-1e3, -1e-3))


@st.composite
def _pair_rows(draw):
    """Two scalar rows; half the time the second one is placed so that
    the half-lines touch, overlap or miss each other by about FEAS_TOL."""
    a1, b1 = draw(_value), draw(_slope)
    a2, b2 = draw(_value), draw(_slope)
    if b1 != 0.0 and draw(st.booleans()):
        b2 = -b1 * draw(st.floats(0.5, 2.0))
        edge = -a1 / b1 + draw(st.floats(-3e-9, 3e-9))
        a2 = -b2 * edge
    return a1, b1, a2, b2


def _interval(rows, slack):
    """Exact set {nu : a + b nu >= -slack for every row} as (lo, hi),
    None when it is empty; lo and hi may be infinite."""
    lo, hi = -math.inf, math.inf
    for a, b in rows:
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            if a < -slack:
                return None
        elif b > 0:
            lo = max(lo, (-slack - a) / b)
        else:
            hi = min(hi, (-slack - a) / b)
    return (lo, hi) if lo <= hi else None


@PROPERTY
@given(_value, _pair_rows())
def test_pair_matches_interval_oracle(nu_d, rows):
    """The scalar pair solver is the clamp into the intersection of two
    half-lines: it succeeds whenever the intersection, narrowed by the
    tolerance, is nonempty, fails whenever it is empty even widened by
    the tolerance, and a returned value meets both rows, is the nominal
    itself when that meets both rows, and is no farther from the nominal
    than the exact clamp."""
    a1, b1, a2, b2 = rows
    pairs = [(a1, b1), (a2, b2)]
    tol = Fraction(FEAS_TOL)
    exact = _interval(pairs, Fraction(0))
    try:
        got = solve_cbf_qp_pair(nu_d, a1, b1, a2, b2)
    except Infeasible:
        assert _interval(pairs, -tol) is None
        return
    assert _interval(pairs, tol) is not None
    for a, b in pairs:
        assert a + b * got >= -FEAS_TOL
    if all(a + b * nu_d >= -FEAS_TOL for a, b in pairs):
        assert got == nu_d
    if exact is not None:
        lo, hi = exact
        clamp = min(max(Fraction(nu_d), lo), hi)
        slack = 1e-12 * (1.0 + abs(nu_d) + abs(float(clamp)))
        assert abs(got - nu_d) <= abs(float(clamp) - nu_d) + slack


@PROPERTY
@given(_value, _value, st.one_of(_slope, st.floats(-1e-3, 1e-3)))
def test_project_halfspace_1d_properties(nu_d, psi0, psi1):
    """Unchanged when the margin is nonnegative, else on the boundary."""
    margin = psi0 + psi1 * nu_d
    if margin < 0.0 and psi1 * psi1 <= EPS_PSI * EPS_PSI:
        with pytest.raises(Infeasible):
            project_halfspace([nu_d], psi0, [psi1])
        return
    (got,) = project_halfspace([nu_d], psi0, [psi1])
    if margin >= 0.0:
        assert got == nu_d
    else:
        scale = abs(psi0) + abs(psi1 * nu_d) + 1.0
        assert abs(psi0 + psi1 * got) <= 1e-12 * scale
