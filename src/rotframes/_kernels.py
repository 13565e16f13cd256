"""Fixed-step RK4 spin transport, evaluated as an exact power of the step map.

One classical RK4 step of dS/dtau = M S is S -> P S with P = R(hM) and
R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the RK4 stability function. On a
circular orbit M annihilates u and is antisymmetric in the metric, so it
generates a rotation in u's rest frame: M^3 = -Omega^2 M with
Omega^2 = -tr(M^2)/2. Every power of P then reduces to I, M and M^2:

    P^n = I + (r^n sin(n theta) / Omega) M + ((1 - r^n cos(n theta)) / Omega^2) M^2,

where y = h Omega and r e^(i theta) = R(iy). At Omega = 0 the limit
P^n = I + n h M + (n h)^2 / 2 M^2 is exact whenever M^3 = 0.

The drift at the samples is the drift of every step: u_low P = u_low, so
S.u is kept exactly, and S.S changes only in the rotation plane, by the
factor r^(2n). r < 1 for 0 < y < 2 sqrt(2) and r >= 1 beyond, so the S.S
drift is monotone in n and largest at the last step, which fw_transport
always samples.

The map's terms are numpy's: M^2 is one matmul and Omega^2 one trace,
and y's powers, arctan2 and the other transcendentals are numpy's, whose
last bits differ from plain float sums and from the math module; y is a
numpy float because a float's powers raise OverflowError where numpy's
give inf. Only the M^3 check's scale exponent (math.frexp) and Frobenius
norms (np.vdot) take cheaper routes, as they decide that check alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstraintDriftError

#: Read by tools that report the transport backend. The closed form needs
#: no compiled kernel, so this is always False.
USING_NUMBA = False


def fw_rk4(m, s0, h, record_idx, g_diag, u):
    """Spin after record_idx[k] RK4 steps of size h, for every k.

    m is the constant (4, 4) generator, s0 the initial contravariant spin,
    record_idx increasing step counts, ints or integral floats (0 gives
    s0), g_diag the metric diagonal and u the four-velocity. Returns
    (samples, max_ortho, max_norm_drift, theta): the (len(record_idx), 4)
    spins, the largest |g_ab S^a u^b| and the largest |S.S - s0.s0| over
    s0 and the samples, and theta = arg R(i h Omega), the angle one step
    turns M's rotation plane through (0 where Omega = 0).
    Raises ConstraintDriftError when M^3 = -Omega^2 M fails, which means
    the worldline's acceleration does not fit its orbit.
    """
    m2 = m @ m
    omega2 = max(-0.5 * float(m2.trace()), 0.0)
    # checked on M scaled by a power of two (exact) to entries below 1: M^3
    # itself overflows for a large but finite generator
    ms = np.ldexp(m, -math.frexp(abs(m).max())[1])
    ms2 = ms @ ms
    omega2s = max(-0.5 * float(ms2.trace()), 0.0)
    res = ms @ ms2 + omega2s * ms
    # Frobenius norms, which decide only this check
    if math.sqrt(np.vdot(res, res)) > 1e-12 * math.sqrt(np.vdot(ms, ms)) ** 3:
        raise ConstraintDriftError(
            "transport generator fails M^3 = -Omega^2 M; check the acceleration"
        )
    n = np.asarray(record_idx, dtype=float)
    if omega2 == 0.0:
        theta = 0.0
        a, b = n * h, 0.5 * (n * h) ** 2
    else:
        omega = math.sqrt(omega2)
        # a numpy float: its powers overflow to inf, where a float's raise
        y = np.float64(h * omega)
        theta = float(np.arctan2(y - y**3 / 6.0, 1.0 - y * y / 2.0 + y**4 / 24.0))
        # r^2 = 1 - y^6/72 + y^8/576 exactly; re^2 + im^2 - 1 would cancel
        n_log_r = n * (0.5 * np.log1p(-(y**6) / 72.0 + y**8 / 576.0))
        rn = np.exp(n_log_r)
        a = rn * np.sin(n * theta) / omega
        # 1 - r^n cos(n theta), written without cancellation at small n y
        b = (2.0 * rn * np.sin(0.5 * n * theta) ** 2 - np.expm1(n_log_r)) / omega2
    samples = s0 + a[:, None] * (m @ s0) + b[:, None] * (m2 @ s0)
    gu = g_diag * u
    max_ortho = max(abs(float(s0 @ gu)), float(np.maximum.reduce(np.abs(samples @ gu))))
    drift = np.abs((samples * samples) @ g_diag - float(s0 @ (g_diag * s0)))
    return samples, max_ortho, float(np.maximum.reduce(drift)), theta
