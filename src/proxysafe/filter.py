"""Closed-form safety filter for the scalar proxy input.

The quadratic program

    min  (nu - nu_d)^2    subject to    psi0 + psi1 nu >= 0

has exactly one affine constraint on one scalar, so its solution is the
projection of the nominal input onto a half-line: either the nominal is
already feasible and is returned untouched, or it is shifted along psi1
by exactly the violation over psi1^2.  No QP library is needed.

With several barriers the rows are projected onto one after another,
which on a scalar lands in their intersection whenever it is nonempty;
only where a row is still violated beyond the tolerance does
`solve_cbf_qp_pair` clamp the nominal input into all the half-lines at
once, raising Infeasible when they miss each other.
"""

from __future__ import annotations

import math

__all__ = ["Infeasible", "project_halfspace", "solve_cbf_qp_pair",
           "EPS_PSI", "FEAS_TOL"]

EPS_PSI = 1e-10   # below this magnitude, psi1 is treated as zero
FEAS_TOL = 1e-9   # slack allowed on returned constraint values


class Infeasible(Exception):
    """The constraint cannot be met: psi1 is (numerically) zero while the
    constant part is negative.  Under the theory this cannot happen when
    the barrier conditions hold, so reaching it means the conditions were
    not actually satisfied or tolerances were exhausted; the simulator
    aborts the run and reports the offending values, psi0 and psi1, as
    floats."""

    def __init__(self, psi0: float, psi1: float):
        self.psi0 = float(psi0)
        self.psi1 = float(psi1)
        super().__init__(
            f"barrier constraint infeasible: psi0={self.psi0!r}, psi1={self.psi1!r}")


def project_halfspace(nu_d: float, psi0: float, psi1: float) -> float:
    """Project nu_d onto {nu : psi0 + psi1 nu >= 0}.

    Returns the nominal value unchanged when it already satisfies the
    constraint; raises Infeasible when psi1 is numerically zero and the
    constraint is violated.
    """
    margin = psi0 + psi1 * nu_d
    if margin >= 0.0:
        return nu_d
    nrm2 = psi1 * psi1
    if nrm2 <= EPS_PSI * EPS_PSI:
        raise Infeasible(psi0, psi1)
    return nu_d + (-margin / nrm2) * psi1


def solve_cbf_qp_pair(nu_d: float, *psi: float) -> float:
    """Clamp the scalar nu_d into the intersection of the half-lines
    {nu : psi0 + psi1 nu >= 0}, given as one (psi0, psi1) pair per row.

    nu_d is kept when it meets every row within FEAS_TOL, else clamped
    between the largest root of a rising row and the smallest of a
    falling one.  Where the half-lines miss each other by less than the
    tolerance, the crossings of a rising with a falling row are tried
    next; the point that maximises the smallest margin is one of them.
    Degenerate (zero-row) rows are dropped when slack, fatal when violated.
    """
    rows = list(zip(psi[::2], psi[1::2]))

    def feasible(nu):
        return all(a + b * nu >= -FEAS_TOL for a, b in rows)

    def root(a, b):
        # moved one ulp into the half-line when rounding left it outside,
        # so that its margin rounds to >= 0 however large psi0 is
        nu = -a / b
        return nu if a + b * nu >= 0.0 else math.nextafter(nu, b * math.inf)

    if feasible(nu_d):
        return nu_d
    rising, falling = [], []
    for a, b in rows:
        if b * b > EPS_PSI * EPS_PSI:
            (rising if b > 0.0 else falling).append((a, b))
        elif a + b * nu_d < -FEAS_TOL:
            raise Infeasible(a, b)
    lo = max((root(a, b) for a, b in rising), default=-math.inf)
    hi = min((root(a, b) for a, b in falling), default=math.inf)
    for nu in [min(max(nu_d, lo), hi),
               *((a2 - a1) / (b1 - b2) for a1, b1 in rising
                 for a2, b2 in falling)]:
        if feasible(nu):
            return nu
    # the half-lines are disjoint beyond the tolerance
    raise Infeasible(*min(rows, key=lambda row: row[0] + row[1] * nu_d))
