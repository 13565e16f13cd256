"""Gyroscope transport along congruence worldlines and precession reports.

A torque-free spin vector S carried by an accelerated observer obeys the
Fermi-Walker law; in coordinate components along a circular worldline it
reduces to a linear, constant-coefficient system

    dS^a/dtau = M S,
    M^a_g = -Gamma^a_{bg} u^b + (a^a u_g - u^a a_g) / c^2,

which fixed-step RK4 integrates; ``_kernels.fw_rk4`` evaluates the N-step
RK4 map in closed form rather than stepping it. The chart's only
connection coefficients are Gamma^rho_{phi phi} = -rho and
Gamma^phi_{rho phi} = Gamma^phi_{phi rho} = 1/rho, so transport_generator
forms M from u, a, rho and c alone, with no connection array: the
Fermi-Walker outer products, plus the connection term written out,

    M^rho_phi = rho u^phi,  M^phi_rho = -(1/rho) u^phi,  M^phi_phi = -(1/rho) u^rho.

The generator is antisymmetric in the metric sense, so S.u and S.S are
conserved exactly by the flow; their numerical drift measures
integration error.

The measured precession angle is the rotation of S's projection onto the
(rho, phi) plane against the co-rotating orthonormal dyad of the orbit
(radial unit vector and boosted azimuthal unit vector). For a rigid
congruence that dyad co-rotates with the neighbouring worldlines, so over
one revolution the measured angle reproduces -Omega * dtau exactly; for
the shearing tt congruence the dyad-referenced angle is the circular
Thomas result -2 pi cosh(lambda), which intentionally differs from the
vorticity-based per-revolution angle; both are -2 pi u^t. See README
for the discussion. Angles are accumulated, never folded mod 2 pi.

fw_transport builds the metric diagonal once per call and forms the
generator from it (_generator; transport_generator is the public form,
which builds its own metric), all under one numpy errstate block: a
value past the float range is caught by the checks on the metric, the
generator and the drift, not by a warning. The spin is recorded at
n_samples >= 2 steps, the last one among them, where the drift is
largest. measure_precession_angle reads the dyad from the scalars u^t,
u^phi and rho, so one angle builds the metric once.

Each per-revolution report is built from one evaluation of the closed
forms (congruences._fixed_point); the integrator angle only on request.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import fw_rk4
from .congruences import (
    GAL,
    MTT,
    TT,
    CongruenceSpec,
    _fixed_point,
    _in_range,
    _period,
    _u_components,
)
from .errors import ConstraintDriftError, DomainError, LightCylinderError
from .tensors import PHI, RHO, T, Event, metric_diag

#: Scaled constraint-drift bound (|S.u| or relative S.S change) above
#: which a transport run is rejected mid-flight.
DRIFT_LIMIT = 1e-6

#: Relative tolerance of the self-checks: the CLI's --self-check gates,
#: and the rounding measure_precession_angle's generator may carry.
SELF_CHECK_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Worldline:
    """Circular orbit of one congruence fixed point at radius rho.

    u and a are constant contravariant components (the orbit is uniform),
    with a^rho = -rho (u^phi)^2 from the connection.
    """

    spec: CongruenceSpec
    rho: float
    u: np.ndarray
    a: np.ndarray


@dataclass(frozen=True, eq=False)
class FwTrajectory:
    """Sampled spin history of one transport run.

    spins[k] holds the contravariant spin components at proper time
    taus[k]. max_drift is the worst scaled constraint violation seen
    mid-run: the larger of |S.u| / (|S| c) and the relative change of S.S.
    One RK4 step turns the plane the generator M rotates by step_angle.
    """

    taus: np.ndarray
    spins: np.ndarray
    max_drift: float
    generator: np.ndarray
    step_angle: float


class PrecessionReport(NamedTuple):
    """Per-revolution precession data for one congruence at one radius.

    speed and dtau_dt are the fixed point's lab speed and proper time
    rate. delta_phi = -vorticity * delta_tau by construction; net_angle adds
    the 2 pi the rotating axes themselves turn through, giving the spin
    rotation relative to inertial axes. A gal entry of compare_congruences
    at or beyond the light cylinder carries status "light_cylinder" and
    NaN numerics.
    """

    kind: str
    rho: float
    omega: float
    c: float
    vorticity: float
    speed: float
    dtau_dt: float
    delta_tau: float
    delta_phi: float
    net_angle: float
    status: str = "ok"


def worldline(spec: CongruenceSpec, rho: float) -> Worldline:
    """Build the circular worldline of the fixed point at radius rho.

    Raises DomainError where u or the acceleration leaves the float range.
    """
    u = _u_components(Event(0.0, rho, 0.0), spec)
    a = np.zeros(4)
    with np.errstate(over="ignore"):
        a[1] = _in_range(-rho * u[PHI] ** 2, rho, spec)
    return Worldline(spec=spec, rho=rho, u=u, a=a)


def corotating_dyad(wl: Worldline) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal spatial pair spanning the orbit plane, orthogonal to u.

    e_r is the coordinate radial direction; e_p is the unit vector along
    the motion, boosted so it stays orthogonal to the four-velocity. Both
    have constant coordinate components along the orbit.
    """
    c = wl.spec.c
    e_r = np.array([0.0, 1.0, 0.0, 0.0])
    e_p = np.array([wl.rho * wl.u[PHI] / (c * c), 0.0, wl.u[T] / wl.rho, 0.0])
    return e_r, e_p


def transport_generator(wl: Worldline) -> np.ndarray:
    """Constant matrix M with dS^a/dtau = M^a_g S^g along the worldline.

    Raises DomainError where M leaves the float range.
    """
    g = metric_diag(wl.rho, wl.spec.c)
    with np.errstate(over="ignore", invalid="ignore"):
        return _generator(wl, g)


def _generator(wl: Worldline, g: np.ndarray) -> np.ndarray:
    """transport_generator from the metric diagonal g at wl.rho, for a
    caller that holds numpy's overflow and invalid warnings off."""
    rho, u, a, c = wl.rho, wl.u, wl.a, wl.spec.c
    # np.float64(c) ** 2 rounds as c**2 does, but gives inf past the float range
    m = (a[:, None] * (g * u) - u[:, None] * (g * a)) / np.float64(c) ** 2
    _, u_rho, u_phi, _ = u.tolist()
    # (1 / rho) u, not u / rho: the last bits differ, and reach the angle
    m[RHO, PHI] += rho * u_phi
    m[PHI, RHO] += -((1.0 / rho) * u_phi)
    m[PHI, PHI] += -((1.0 / rho) * u_rho)
    if not np.isfinite(m).all():
        raise DomainError("transport generator overflows the float range")
    return m


def fw_step(m: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 update of dS/dtau = M S."""
    k1 = m @ s
    k2 = m @ (s + 0.5 * h * k1)
    k3 = m @ (s + 0.5 * h * k2)
    k4 = m @ (s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def fw_transport(wl: Worldline, s0: np.ndarray, tau_span: float, steps: int,
                 n_samples: int = 1025) -> FwTrajectory:
    """Fermi-Walker transport of a spin vector for a span of proper time.

    s0 holds the contravariant spin components; it must be spacelike and
    orthogonal to the worldline's four-velocity.
    steps must be an integer from 16 to 2**53, and n_samples an integer
    of at least 2 (ValueError otherwise). The spin is recorded at
    min(n_samples, steps + 1) steps spread evenly over the span, the
    first and the last step among them.
    Raises ConstraintDriftError when the scaled |S.u| or the relative
    S.S drift exceeds DRIFT_LIMIT at any step, or is nan because the
    steps overflowed. That signals too few steps for the requested span,
    unless the generator's rounding eps (u^t)^2 alone exceeds DRIFT_LIMIT
    (u^t above about 67000), where no step count helps and the message
    says so. Raises DomainError when the generator leaves the float range.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if not 16 <= steps <= 2**53:
        # above 2**53 the step indices are no longer exact floats
        raise ValueError(f"steps must be from 16 to 2**53, got {steps}")
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if not n_samples >= 2:
        # the drift is read at the samples, and the largest is at the last step
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    if not tau_span > 0.0:
        raise ValueError(f"tau_span must be positive, got {tau_span}")
    s = np.asarray(s0, dtype=float)
    rho, u, c = wl.rho, wl.u, wl.spec.c
    h = tau_span / steps
    # overflow in the metric, the generator and the steps is checked on
    # the values they give
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = metric_diag(rho, c)
        s_norm2 = -float(s @ (g * s))
        # g_rr = g_zz = -1, so only g_tt = c^2 and g_pp = -rho^2 can overflow
        if not (math.isfinite(g[T]) and math.isfinite(g[PHI])) or math.isinf(s_norm2):
            raise DomainError(
                f"metric or spin norm leaves the float range at rho = {rho}, c = {c}")
        if not s_norm2 > 0.0:
            raise ValueError("initial spin must be spacelike")
        scale = c * math.sqrt(s_norm2)
        if abs(float(s @ (g * u))) > 1e-9 * scale:
            raise ConstraintDriftError("initial spin is not orthogonal to u")
        # step counts as floats, which are exact up to 2**53
        n_rec = min(n_samples, steps + 1)
        record_idx = np.array([0.0, steps]) if n_rec == 2 else np.unique(
            np.round(np.linspace(0.0, steps, n_rec)))
        m = _generator(wl, g)
        spins, raw_ortho, raw_norm, theta = fw_rk4(m, s, h, record_idx, g, u)
    drift = max(raw_ortho / scale, raw_norm / s_norm2)
    if math.isnan(raw_ortho + raw_norm):
        drift = math.nan  # samples past the float range: the RK4 steps grew
    if not drift <= DRIFT_LIMIT:
        u_t = float(u[T])
        rounding = sys.float_info.epsilon * u_t * u_t
        cause = (f"the generator at u^t = {u_t:.6g} carries rounding eps (u^t)^2 = "
                 f"{rounding:.3g}, which no step count removes"
                 if rounding > DRIFT_LIMIT else "too few steps")
        raise ConstraintDriftError(
            f"constraint drift {drift:.3e} exceeds {DRIFT_LIMIT:.0e}: {cause}")
    return FwTrajectory(taus=record_idx * h, spins=spins, max_drift=drift,
                        generator=m, step_angle=theta)


def proper_period(spec: CongruenceSpec, rho: float) -> float:
    """Proper time elapsed on the fixed point during one lab revolution."""
    fp = _fixed_point(rho, spec)
    return _period(rho, spec, fp, fp.dtau_dt)


def measure_precession_angle(spec: CongruenceSpec, rho: float, steps: int) -> float:
    """Integrator-measured rotation of the spin against the rotating dyad.

    Transports the spin, started along the radial dyad leg, for one
    revolution. The RK4 map turns it by step_angle a step, so the angle is
    -steps * step_angle, in the sense the generator turns e_r; the final
    spin's angle against the dyad must agree mod 2 pi (ConstraintDriftError
    otherwise). Both are read on corotating_dyad's legs lowered, written
    out from rho, u^t and u^phi. Omega^2 = -tr(M^2) / 2 is good to about
    eps (u^t)^2, so where that exceeds SELF_CHECK_TOL (u^t above about
    67000) this raises DomainError before any transport.
    """
    wl = worldline(spec, rho)
    u_t = float(wl.u[T])
    rounding = sys.float_info.epsilon * u_t * u_t
    if not rounding <= SELF_CHECK_TOL:
        transport_generator(wl)  # a generator past the float range says so first
        raise DomainError(
            f"transport generator at u^t = {u_t:.6g} carries rounding eps (u^t)^2 = "
            f"{rounding:.3g}, above {SELF_CHECK_TOL:g}: "
            f"rho = {rho}, omega = {spec.omega}, c = {spec.c}"
        )
    traj = fw_transport(wl, [0.0, 1.0, 0.0, 0.0], proper_period(spec, rho), steps,
                        n_samples=2)
    # the dyad's legs, lowered and negated because spatial legs have
    # e.e = -1: e_r gives (0, 1, 0, 0) and e_p (-rho u^phi, 0, rho u^t, 0)
    p_t, p_phi = -rho * float(wl.u[PHI]), rho * u_t
    m, spin = traj.generator, traj.spins[-1]
    angle = math.copysign(steps, p_t * m[T, RHO] + p_phi * m[PHI, RHO]) * traj.step_angle
    s_r, s_p = spin[RHO], p_t * spin[T] + p_phi * spin[PHI]
    if not abs(math.remainder(math.atan2(s_p, s_r) - angle, 2.0 * math.pi)) <= DRIFT_LIMIT:
        raise ConstraintDriftError(f"transported spin is off the RK4 angle {angle!r}")
    return angle


def precession_per_revolution(spec: CongruenceSpec, rho: float) -> PrecessionReport:
    """Closed-form per-revolution precession of the fixed point at radius rho.

    Raises omega_closed_form's errors, then proper_period's.
    """
    fp = _fixed_point(rho, spec)
    vorticity = _in_range(fp.vorticity, rho, spec)
    delta_tau = _period(rho, spec, fp, fp.dtau_dt)
    delta_phi = -vorticity * delta_tau
    return PrecessionReport(spec.kind, rho, spec.omega, spec.c, vorticity, fp.speed,
                            fp.dtau_dt, delta_tau, delta_phi, delta_phi + 2.0 * math.pi)


def compare_congruences(rho: float, omega: float, c: float = 1.0) -> list[PrecessionReport]:
    """Per-revolution reports for gal, tt and mtt at identical parameters.

    The gal entry is replaced by a light-cylinder marker when rho * omega
    reaches c. tt and mtt are computed by the same code path, so their
    numeric fields are identical.
    """
    try:
        gal_report = precession_per_revolution(CongruenceSpec(GAL, omega, c), rho)
    except LightCylinderError:
        gal_report = PrecessionReport(GAL, rho, omega, c, *(math.nan,) * 6,
                                      "light_cylinder")
    return [
        gal_report,
        precession_per_revolution(CongruenceSpec(TT, omega, c), rho),
        precession_per_revolution(CongruenceSpec(MTT, omega, c), rho),
    ]
