"""Disturbance observer and low-pass filter chain for scalar plant levels.

The observer per level keeps an internal state s_i and outputs the
estimate d_hat_i = s_i + alpha_i z_i; the internal state integrates

    ds_i/dt = -alpha_i (f_i + g_i z_{i+1} + d_hat_i)        i < n
    ds_n/dt = -alpha_n (f_n + g_n u + d_hat_n)

which makes the estimation error a first-order tracker of the true
disturbance.  Because the estimate's own derivative depends on the
unknown error, levels that need differentiable estimates (every level
except the last) feed a cascade of first-order low-pass filters

    d(df_{i,j})/dt = -T_{i,j} (df_{i,j} - df_{i,j-1}),  df_{i,0} = d_hat_i

whose stage derivatives are exactly known; level i carries n-i stages so
the deepest stage is (n-i)-times differentiable.

The module computes the output map and right-hand sides only, on floats
and flat lists; integration belongs to the simulator, which re-derives
every d_hat_i from (s_i, z_i) where it needs one, so the output map
holds exactly rather than drifting.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["DobSpec", "dob_outputs", "dob_derivative", "filter_derivative"]


class DobSpec(namedtuple("DobSpec", "alphas nus time_constants")):
    """Observer gains, analysis constants, and filter time constants.

    alphas holds one positive gain per plant level.  nus are the analysis
    constants entering kappa_i = alpha_i - nu_i/2; they must sit in
    (0, 2 alpha_i) so every kappa_i stays positive.  time_constants[i-1]
    holds (T_{i,1}, .., T_{i,n-i}) for level i < n; the last level has no
    filter because its estimate is used directly.
    """

    __slots__ = ()

    def __new__(cls, alphas: tuple, nus: tuple = (),
                time_constants: tuple = ()):
        alphas = tuple(float(a) for a in alphas)
        if not alphas or any(a <= 0.0 for a in alphas):
            raise ValueError("need at least one positive observer gain")
        nus = tuple(float(v) for v in nus) or tuple(1.0 for _ in alphas)
        if len(nus) != len(alphas):
            raise ValueError("need one nu per level")
        for a, v in zip(alphas, nus):
            if not 0.0 < v < 2.0 * a:
                raise ValueError(f"nu={v} outside (0, {2 * a})")
        n = len(alphas)
        tcs = tuple(tuple(float(t) for t in row) for row in time_constants)
        if not tcs:
            tcs = tuple(tuple(1.0 for _ in range(n - i)) for i in range(1, n))
        if len(tcs) != n - 1 or any(len(row) != n - i for i, row
                                    in enumerate(tcs, start=1)):
            raise ValueError("need filter constants T_{i,1}..T_{i,n-i} "
                             "for every level i < n")
        if any(t <= 0.0 for row in tcs for t in row):
            raise ValueError("filter time constants must be positive")
        return super().__new__(cls, alphas, nus, tcs)

    @property
    def n(self) -> int:
        return len(self.alphas)

    def kappa(self, i: int) -> float:
        """alpha_i - nu_i/2 for level i (1-based)."""
        return self.alphas[i - 1] - self.nus[i - 1] / 2.0


def dob_outputs(spec: DobSpec, s, z) -> list:
    """The estimates d_hat_i = s_i + alpha_i z_i from the internal states
    s and the plant levels z."""
    return [si + a * zi for si, a, zi in zip(s, spec.alphas, z)]


def dob_derivative(spec: DobSpec, d_hat, f_vals, g_vals, z, u: float) -> list:
    """ds_i/dt for every level, given current plant values.

    d_hat holds the estimates (`dob_outputs`); f_vals and g_vals the plant
    drift and gain at the current state; z the level values; u the control.
    """
    n = spec.n
    out = []
    for i in range(n):
        inner = f_vals[i] + d_hat[i]
        inner += g_vals[i] * (u if i == n - 1 else z[i + 1])
        out.append(-spec.alphas[i] * inner)
    return out


def filter_derivative(spec: DobSpec, d_hat, d_f) -> list:
    """d(df_{i,j})/dt for every filter stage; d_f and the result list the
    stages level by level (df_{1,1}..df_{1,n-1}, df_{2,1}, ..), as the
    closed-loop state does."""
    out = []
    stages = iter(d_f)
    for i, consts in enumerate(spec.time_constants):
        upstream = d_hat[i]
        for tc in consts:
            stage = next(stages)
            out.append(-tc * (stage - upstream))
            upstream = stage
    return out
