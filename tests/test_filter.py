"""Safety filter verification.

 1. The worked examples, each confirmed by a full-grid brute force.
 2. Contract properties: minimal invasiveness (bit-for-bit nominal when
    feasible), feasible output, idempotence.
 3. 1000 random scalar instances against a projected-grid brute force,
    with a convexity certificate on a subsample.
 4. Infeasibility signaling when psi1 is numerically zero.
 5. The clamp of a scalar input into several constraints: against a
    line grid search, in the tolerance window, with three rows, and at
    a psi0 whose margin rounds coarser than the tolerance.
 6. Generated inputs: the clamp into two to four rows against an exact
    interval oracle, and the 1-D half-space projection.
"""

import math
import random

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxysafe.filter import (
    EPS_PSI, FEAS_TOL, Infeasible, project_halfspace, solve_cbf_qp_pair,
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
    """Mixed feasible/violated scalar instances (nu_d, psi0, psi1) with
    usable rows."""
    out = []
    while len(out) < count:
        nu_d = float(rng.normal(0.0, 2.0))
        psi1 = float(rng.normal(0.0, 1.0))
        if abs(psi1) < 1e-3:
            continue
        psi0 = float(rng.uniform(-5.0, 5.0))
        out.append((nu_d, psi0, psi1))
    return out


# ═══════════════════════════════════════════════════════════════════════════
# 1. worked examples
# ═══════════════════════════════════════════════════════════════════════════

def test_inactive_constraint_returns_nominal():
    """psi0=1, psi1=1, nominal 0: already feasible."""
    assert project_halfspace(0.0, 1.0, 1.0) == 0.0


def test_scalar_projection_example():
    """psi0=-2, psi1=1, nominal 0: shifted to exactly 2."""
    got = project_halfspace(0.0, -2.0, 1.0)
    assert got == 2.0
    brute = full_grid_1d((0.0,), -2.0, (1.0,))
    assert abs(got - brute[0]) <= 1e-4


# ═══════════════════════════════════════════════════════════════════════════
# 2. contract properties
# ═══════════════════════════════════════════════════════════════════════════

def test_feasible_nominal_is_bit_for_bit():
    rng = np.random.default_rng(SEED + 1)
    kept = 0
    while kept < 200:
        nu_d = float(rng.normal(0.0, 2.0))
        psi1 = float(rng.normal(0.0, 1.0))
        psi0 = float(rng.uniform(0.0, 5.0) - nu_d * psi1)
        if psi0 + psi1 * nu_d < 0.0:
            continue
        assert project_halfspace(nu_d, psi0, psi1) == nu_d
        kept += 1


def test_output_always_feasible():
    rng = np.random.default_rng(SEED + 2)
    for nu_d, psi0, psi1 in random_instances(rng, 300):
        nu = project_halfspace(nu_d, psi0, psi1)
        residual = psi0 + psi1 * nu
        assert residual >= -FEAS_TOL


def test_idempotence():
    rng = np.random.default_rng(SEED + 3)
    for nu_d, psi0, psi1 in random_instances(rng, 300):
        once = project_halfspace(nu_d, psi0, psi1)
        twice = project_halfspace(once, psi0, psi1)
        assert abs(once - twice) <= 1e-12


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
        nu_d, psi0, psi1 = q
        nu = np.asarray([project_halfspace(nu_d, psi0, psi1)])
        brute = projected_grid((nu_d,), psi0, (psi1,))
        assert brute is not None
        coord_err = float(np.max(np.abs(nu - brute)))
        obj = float(((nu - nu_d) ** 2).sum())
        obj_brute = float(((brute - nu_d) ** 2).sum())
        assert coord_err <= 1e-4, f"coordinate gap {coord_err:.2e} on {q}"
        assert abs(obj - obj_brute) <= 1e-6, f"objective gap on {q}"
        worst_coord = max(worst_coord, coord_err)
        worst_obj = max(worst_obj, abs(obj - obj_brute))
    print(f"\n  QP oracle: {len(instances)} instances, "
          f"worst coord {worst_coord:.2e}, worst objective {worst_obj:.2e}")


def test_no_feasible_point_beats_the_solution():
    """Convexity certificate: random feasible perturbations never win."""
    rng = np.random.default_rng(SEED + 4)
    for nu_d, psi0, psi1 in random_instances(rng, 100):
        nu = project_halfspace(nu_d, psi0, psi1)
        obj = (nu - nu_d) ** 2
        deltas = rng.normal(0.0, 1.0, 300)
        deltas *= rng.uniform(1e-4, 1e-1, 300) / np.abs(deltas)
        pts = nu + deltas
        feas = psi0 + pts * psi1 >= 0.0
        objs = (pts - nu_d) ** 2
        assert not np.any(feas & (objs < obj - 1e-9))


# ═══════════════════════════════════════════════════════════════════════════
# 4. infeasibility
# ═══════════════════════════════════════════════════════════════════════════

def test_zero_row_with_violation_raises():
    with pytest.raises(Infeasible) as info:
        project_halfspace(1.0, -1.0, 0.0)
    assert info.value.psi0 == -1.0
    assert info.value.psi1 == 0.0


def test_tiny_row_below_threshold_raises():
    with pytest.raises(Infeasible):
        project_halfspace(0.0, -1.0, EPS_PSI / 2)


def test_zero_row_with_slack_is_fine():
    assert project_halfspace(3.0, 0.5, 0.0) == 3.0


# ═══════════════════════════════════════════════════════════════════════════
# 5. clamp into several constraints
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


def test_pair_tolerance_window_takes_the_crossing():
    """nu >= 0 and nu <= -1.5e-9 miss each other by less than the
    tolerance allows on both rows together, but by more than it allows
    on either row alone: neither the nominal nor either boundary point
    meets both rows, the crossing point does."""
    got = solve_cbf_qp_pair(0.0, 0.0, 1.0, -1.5e-9, -1.0)
    assert got == -0.75e-9
    assert solve_cbf_qp_pair(0.0, -1.5e-9, -1.0, 0.0, 1.0) == got
    with pytest.raises(Infeasible):
        solve_cbf_qp_pair(0.0, 0.0, 1.0, -2.5e-9, -1.0)


def test_pair_degenerate_rows():
    with pytest.raises(Infeasible):
        solve_cbf_qp_pair(0.0, -1.0, 0.0, 1.0, 1.0)
    got = solve_cbf_qp_pair(0.0, 1.0, 0.0, -2.0, 1.0)
    assert got == 2.0


def test_three_rows_take_the_crossing_that_meets_them_all():
    """nu >= 1, nu >= 1 - 1e-10 with a slope of 1000 and nu <= 1 - 5e-10
    miss each other by less than the tolerance: the crossing of the rows
    with the largest and the smallest root misses the steep row by
    1.5e-7, the crossing of the steep row with the falling one meets all
    three."""
    rows = [(-1.0, 1.0), (-1000.0 * (1.0 - 1e-10), 1000.0),
            (1.0 - 5e-10, -1.0)]
    got = solve_cbf_qp_pair(0.0, *(v for row in rows for v in row))
    for a, b in rows:
        assert a + b * got >= -FEAS_TOL
    assert abs(got - (1.0 - 1e-10)) < 1e-12


def test_three_rows_that_miss_raise_the_most_violated():
    with pytest.raises(Infeasible) as info:
        solve_cbf_qp_pair(0.0, -1.0, 1.0, 0.5, -1.0, -2.0, 1.0)
    assert (info.value.psi0, info.value.psi1) == (-2.0, 1.0)
    assert solve_cbf_qp_pair(0.0, -1.0, 1.0, 3.0, -1.0, -2.0, 1.0) == 2.0


def test_a_root_that_rounds_outside_moves_in():
    """At psi0 = -1.7e9 a margin resolves to 2.4e-7, coarser than the
    tolerance, and -psi0/psi1 rounds to a point that misses the row by
    that much: the clamp takes the next double inside."""
    a, b = -1689276757.4213386, 2.429059626098005
    assert a + b * (-a / b) < -FEAS_TOL
    got = solve_cbf_qp_pair(0.0, a, b, 1.0, 0.0)
    assert got == math.nextafter(-a / b, math.inf)
    assert a + b * got >= 0.0


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
def _rows(draw):
    """Two to four scalar rows; half the time each row after the first
    is placed so that its half-line touches, overlaps or misses the
    first one's by about FEAS_TOL, either in nu or in units of the first
    row's margin, rising or falling."""
    a1, b1 = draw(_value), draw(_slope)
    rows = [(a1, b1)]
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(_value), draw(_slope)
        if b1 != 0.0 and draw(st.booleans()):
            b = draw(st.sampled_from((-b1, b1))) * draw(st.floats(0.5, 2.0))
            scale = draw(st.sampled_from((1.0, 1.0 / abs(b1))))
            edge = -a1 / b1 + draw(st.floats(-3e-9, 3e-9)) * scale
            a = -b * edge
        rows.append((a, b))
    return rows


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
@given(_value, _rows())
def test_pair_matches_interval_oracle(nu_d, rows):
    """The scalar solver is the clamp into the intersection of the
    half-lines: it succeeds whenever the intersection, widened by the
    tolerance less a few ulps of the rows' terms, is nonempty, fails
    whenever it is empty even widened by the tolerance, and a returned
    value meets every row, is the nominal itself when that meets every
    row, and is no farther from the nominal than the exact clamp."""
    tol = Fraction(FEAS_TOL)
    exact = _interval(rows, Fraction(0))
    try:
        got = solve_cbf_qp_pair(nu_d, *(v for row in rows for v in row))
    except Infeasible:
        edge = Fraction(16 * math.ulp(max(*(abs(a) for a, _ in rows), 1.0)))
        assert _interval(rows, tol - edge) is None
        return
    assert _interval(rows, tol) is not None
    for a, b in rows:
        assert a + b * got >= -FEAS_TOL
    if all(a + b * nu_d >= -FEAS_TOL for a, b in rows):
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
            project_halfspace(nu_d, psi0, psi1)
        return
    got = project_halfspace(nu_d, psi0, psi1)
    if margin >= 0.0:
        assert got == nu_d
    else:
        scale = abs(psi0) + abs(psi1 * nu_d) + 1.0
        assert abs(psi0 + psi1 * got) <= 1e-12 * scale
