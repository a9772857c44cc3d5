"""Closed-form safety filter for the scalar proxy input.

The quadratic program

    min  (nu - nu_d)^2    subject to    psi0 + psi1 nu >= 0

has exactly one affine constraint on one scalar, so its solution is the
projection of the nominal input onto a half-line: either the nominal is
already feasible and is returned untouched, or it is shifted along psi1
by exactly the violation over psi1^2.  No QP library is needed.

A two-constraint variant serves the case where a scenario carries two
safe-set barriers and sequential filtering leaves the first constraint
violated: it clamps the nominal input into the intersection of the two
half-lines, or raises Infeasible when that intersection is empty.
"""

from __future__ import annotations

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


def solve_cbf_qp_pair(nu_d: float, psi0_a: float, psi1_a: float,
                      psi0_b: float, psi1_b: float) -> float:
    """Clamp the scalar nu_d into the intersection of two half-lines
    {nu : psi0 + psi1 nu >= 0}.

    The candidates are the nominal and each row's boundary point (its
    single projection); a candidate is kept when it meets both rows
    within FEAS_TOL, and the kept one closest to the nominal wins.  When
    none is kept, the crossing point of two rows of opposite slope is
    tried last: inside the tolerance window the intersection can hold
    neither the nominal nor either boundary point.
    Degenerate (zero-row) constraints are constant: they are dropped when
    slack and fatal when violated.
    """
    nu_d = float(nu_d)
    rows = [(float(psi0_a), float(psi1_a)), (float(psi0_b), float(psi1_b))]

    live = []
    for a, b in rows:
        if b * b <= EPS_PSI * EPS_PSI:
            if a + b * nu_d < -FEAS_TOL:
                raise Infeasible(a, b)
        else:
            live.append((a, b))

    def feasible(nu):
        return all(a + b * nu >= -FEAS_TOL for a, b in rows)

    candidates = [nu_d] if feasible(nu_d) else []
    for a, b in live:
        nu = project_halfspace(nu_d, a, b)
        if feasible(nu):
            candidates.append(nu)

    if not candidates and len(live) == 2 and live[0][1] * live[1][1] < 0.0:
        # rows of opposite slope meet where their margins are equal, the
        # point that maximises the smaller margin: it meets both within
        # FEAS_TOL whenever any point does
        (a1, b1), (a2, b2) = live
        nu = (a2 - a1) / (b1 - b2)
        if feasible(nu):
            candidates.append(nu)

    if not candidates:
        # the half-lines are disjoint beyond the tolerance
        a, b = min(rows, key=lambda row: row[0] + row[1] * nu_d)
        raise Infeasible(a, b)
    return min(candidates, key=lambda nu: (nu - nu_d) ** 2)
