"""Closed-form safety filter for a single affine barrier constraint.

The quadratic program

    min  || nu - nu_d ||^2    subject to    psi0 + psi1 . nu >= 0

has exactly one affine constraint, so its solution is the Euclidean
projection of the nominal input onto a half-space: either the nominal is
already feasible and is returned untouched, or it is shifted along psi1
by exactly the violation over ||psi1||^2.  No QP library is needed.

A two-constraint variant serves the scalar proxy input when a scenario
carries two safe-set barriers and sequential filtering leaves the first
constraint violated: it clamps the nominal input into the intersection
of the two half-lines {nu : psi0 + psi1 nu >= 0}, or raises Infeasible
when that intersection is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["QpInstance", "Infeasible", "solve_cbf_qp", "solve_cbf_qp_pair",
           "EPS_PSI", "FEAS_TOL"]

EPS_PSI = 1e-10   # below this norm, psi1 is treated as zero
FEAS_TOL = 1e-9   # slack allowed on returned constraint values


class Infeasible(Exception):
    """The constraint cannot be met: psi1 is (numerically) zero while the
    constant part is negative.  Under the theory this cannot happen when
    the barrier conditions hold, so reaching it means the conditions were
    not actually satisfied or tolerances were exhausted; the simulator
    aborts the run and reports the offending values."""

    def __init__(self, psi0: float, psi1: Sequence[float]):
        self.psi0 = float(psi0)
        self.psi1 = [float(v) for v in psi1]
        super().__init__(
            f"barrier constraint infeasible: psi0={self.psi0!r}, psi1={self.psi1!r}")


@dataclass(frozen=True)
class QpInstance:
    """One filtering problem: nominal input and constraint row."""

    nu_d: tuple
    psi0: float
    psi1: tuple

    def __post_init__(self):
        object.__setattr__(self, "nu_d", tuple(float(v) for v in self.nu_d))
        object.__setattr__(self, "psi1", tuple(float(v) for v in self.psi1))
        object.__setattr__(self, "psi0", float(self.psi0))
        if len(self.nu_d) != len(self.psi1):
            raise ValueError("nu_d and psi1 must have the same length")
        values = (*self.nu_d, self.psi0, *self.psi1)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("QpInstance entries must be finite")


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def project_halfspace(nu_d: Sequence[float], psi0: float,
                      psi1: Sequence[float]) -> list:
    """Project nu_d onto {nu : psi0 + psi1 . nu >= 0}.

    Returns the nominal values unchanged when they already satisfy the
    constraint; raises Infeasible when psi1 is numerically zero and the
    constraint is violated.
    """
    margin = psi0 + _dot(psi1, nu_d)
    if margin >= 0.0:
        return list(nu_d)
    nrm2 = _dot(psi1, psi1)
    if nrm2 <= EPS_PSI * EPS_PSI:
        raise Infeasible(psi0, psi1)
    scale = -margin / nrm2
    return [v + scale * p for v, p in zip(nu_d, psi1)]


def solve_cbf_qp(q: QpInstance) -> list:
    """Solve the single-constraint CBF-QP exactly."""
    return project_halfspace(q.nu_d, q.psi0, q.psi1)


def solve_cbf_qp_pair(nu_d: float, psi0_a: float, psi1_a: float,
                      psi0_b: float, psi1_b: float) -> float:
    """Clamp the scalar nu_d into the intersection of two half-lines
    {nu : psi0 + psi1 nu >= 0}.

    The candidates are the nominal and each row's boundary point (its
    single projection); a candidate is kept when it meets both rows
    within FEAS_TOL, and the kept one closest to the nominal wins.
    Degenerate (zero-row) constraints are constant: they are dropped when
    slack and fatal when violated.
    """
    nu_d = float(nu_d)
    rows = [(float(psi0_a), float(psi1_a)), (float(psi0_b), float(psi1_b))]

    live = []
    for a, b in rows:
        if b * b <= EPS_PSI * EPS_PSI:
            if a + b * nu_d < -FEAS_TOL:
                raise Infeasible(a, [b])
        else:
            live.append((a, b))

    def feasible(nu):
        return all(a + b * nu >= -FEAS_TOL for a, b in rows)

    candidates = [nu_d] if feasible(nu_d) else []
    for a, b in live:
        (nu,) = project_halfspace([nu_d], a, [b])
        if feasible(nu):
            candidates.append(nu)

    if not candidates:
        # the half-lines are disjoint beyond the tolerance
        a, b = min(rows, key=lambda row: row[0] + row[1] * nu_d)
        raise Infeasible(a, [b])
    return min(candidates, key=lambda nu: (nu - nu_d) ** 2)
