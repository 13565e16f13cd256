"""Gyroscope transport along congruence worldlines and precession reports.

A torque-free spin vector S carried by an accelerated observer obeys the
Fermi-Walker law; in coordinate components along a circular worldline it
reduces to a linear, constant-coefficient system

    dS^a/dtau = M S,
    M^a_g = -Gamma^a_{bg} u^b + (a^a u_g - u^a a_g) / c^2,

which fixed-step RK4 integrates; ``_kernels.fw_rk4`` evaluates the N-step
RK4 map in closed form rather than stepping it. The generator is
antisymmetric in the metric sense, so S.u and S.S are conserved exactly
by the flow; their numerical drift measures integration error.

The measured precession angle is the rotation of S's projection onto the
(rho, phi) plane against the co-rotating orthonormal dyad of the orbit
(radial unit vector and boosted azimuthal unit vector). For a rigid
congruence that dyad co-rotates with the neighbouring worldlines, so over
one revolution the measured angle reproduces -Omega * dtau exactly; for
the shearing tt congruence the dyad-referenced angle is the circular
Thomas result -2 pi cosh(lambda), which intentionally differs from the
vorticity-based per-revolution angle. See README for the discussion.

Angles are reported unwrapped (accumulated), never folded mod 2 pi.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import fw_rk4
from .congruences import (
    GAL,
    MTT,
    TT,
    CongruenceSpec,
    _u_components,
    proper_time_rate,
    revolution_period,
)
from .errors import ConstraintDriftError, DomainError, LightCylinderError
from .kinematics import omega_closed_form
from .tensors import (
    CONTRAVARIANT,
    PHI,
    T,
    Event,
    FourVector,
    _christoffel,
    metric_diag,
)

#: Scaled constraint-drift bound (|S.u| or relative S.S change) above
#: which a transport run is rejected mid-flight.
DRIFT_LIMIT = 1e-6


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
    t0: float = 0.0
    phi0: float = 0.0
    z0: float = 0.0

    def event(self, tau: float) -> Event:
        return Event(
            self.t0 + self.u[T] * tau,
            self.rho,
            self.phi0 + self.u[PHI] * tau,
            self.z0,
        )

    @property
    def angular_rate(self) -> float:
        """dphi/dt of the orbit in lab time."""
        return self.u[PHI] / self.u[T]

    @property
    def proper_acceleration(self) -> float:
        """Magnitude sqrt(-a.a) of the centripetal acceleration."""
        return self.rho * self.u[PHI] ** 2


@dataclass(frozen=True)
class SpinState:
    """Spin four-vector at one proper time along a worldline."""

    tau: float
    S: FourVector
    event: Event


@dataclass(frozen=True, eq=False)
class FwTrajectory:
    """Sampled spin history of one transport run.

    max_drift is the worst scaled constraint violation seen mid-run: the
    larger of |S.u| / (|S| c) and the relative change of S.S.
    """

    worldline: Worldline
    taus: np.ndarray
    spins: np.ndarray
    max_drift: float

    def state(self, k: int) -> SpinState:
        tau = float(self.taus[k])
        return SpinState(
            tau=tau,
            S=FourVector(self.spins[k].copy(), CONTRAVARIANT),
            event=self.worldline.event(tau),
        )

    @property
    def final(self) -> SpinState:
        return self.state(len(self.taus) - 1)


@dataclass(frozen=True)
class PrecessionReport:
    """Per-revolution precession data for one congruence at one radius.

    delta_phi = -vorticity * delta_tau by construction; net_angle adds
    the 2 pi the rotating axes themselves turn through, giving the spin
    rotation relative to inertial axes. fw_angle, when present, is the
    integrator measurement described in the module docstring. A gal entry
    at or beyond the light cylinder carries status "light_cylinder" and
    NaN numerics.
    """

    kind: str
    rho: float
    omega: float
    c: float
    vorticity: float
    delta_tau: float
    delta_phi: float
    net_angle: float
    fw_angle: float | None = None
    status: str = "ok"


def worldline(
    spec: CongruenceSpec,
    rho: float,
    t0: float = 0.0,
    phi0: float = 0.0,
    z0: float = 0.0,
) -> Worldline:
    """Build the circular worldline of the fixed point at radius rho."""
    e0 = Event(t0, rho, phi0, z0)
    u = _u_components(e0, spec)
    a = np.zeros(4)
    a[1] = -rho * u[PHI] ** 2
    return Worldline(spec=spec, rho=rho, u=u, a=a, t0=t0, phi0=phi0, z0=z0)


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
    """Constant matrix M with dS^a/dtau = M^a_g S^g along the worldline."""
    gam = _christoffel(wl.rho)
    g = metric_diag(wl.rho, wl.spec.c)
    u_low = g * wl.u
    a_low = g * wl.a
    m = -np.einsum("abg,b->ag", gam, wl.u)
    m += (np.outer(wl.a, u_low) - np.outer(wl.u, a_low)) / (wl.spec.c**2)
    return m


def fw_step(m: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 update of dS/dtau = M S."""
    k1 = m @ s
    k2 = m @ (s + 0.5 * h * k1)
    k3 = m @ (s + 0.5 * h * k2)
    k4 = m @ (s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _spin_components(s0) -> np.ndarray:
    if isinstance(s0, SpinState):
        return np.asarray(s0.S.components, dtype=float)
    if isinstance(s0, FourVector):
        return np.asarray(s0.components, dtype=float)
    return np.asarray(s0, dtype=float)


def fw_transport(
    wl: Worldline,
    s0,
    tau_span: float,
    steps: int,
    n_samples: int = 1025,
) -> FwTrajectory:
    """Fermi-Walker transport of a spin vector for a span of proper time.

    s0 may be a SpinState, a FourVector or a plain component array; it
    must be spacelike and orthogonal to the worldline's four-velocity.
    steps must be an integer from 16 to 2**53 (ValueError otherwise).
    Raises ConstraintDriftError when the scaled |S.u| or the relative
    S.S drift exceeds DRIFT_LIMIT at any step, or is nan because the
    steps overflowed, which signals too few steps for the requested span;
    DomainError when the generator leaves the float range.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if not 16 <= steps <= 2**53:
        # above 2**53 the step indices are no longer exact floats
        raise ValueError(f"steps must be from 16 to 2**53, got {steps}")
    if not tau_span > 0.0:
        raise ValueError(f"tau_span must be positive, got {tau_span}")
    s = _spin_components(s0)
    c = wl.spec.c
    g = metric_diag(wl.rho, c)
    s_norm2 = -float(s @ (g * s))
    if not s_norm2 > 0.0:
        raise ValueError("initial spin must be spacelike")
    scale = c * math.sqrt(s_norm2)
    if abs(float(s @ (g * wl.u))) > 1e-9 * scale:
        raise ConstraintDriftError("initial spin is not orthogonal to u")

    h = tau_span / steps
    n_rec = min(int(n_samples), steps + 1)
    record_idx = np.unique(np.round(np.linspace(0.0, steps, n_rec)).astype(np.int64))
    # overflow is checked below, on the generator and on the drift
    with np.errstate(over="ignore", invalid="ignore"):
        m = transport_generator(wl)
        if not np.isfinite(m).all():
            raise DomainError("transport generator overflows the float range")
        spins, raw_ortho, raw_norm = fw_rk4(m, s, h, record_idx, g, wl.u)
    drift = max(raw_ortho / scale, raw_norm / s_norm2)
    if math.isnan(raw_ortho + raw_norm):
        drift = math.nan  # samples past the float range: the RK4 steps grew
    if not drift <= DRIFT_LIMIT:
        raise ConstraintDriftError(
            f"constraint drift {drift:.3e} exceeds {DRIFT_LIMIT:.0e}: too few steps"
        )
    return FwTrajectory(
        worldline=wl,
        taus=record_idx.astype(float) * h,
        spins=spins,
        max_drift=drift,
    )


def proper_period(spec: CongruenceSpec, rho: float) -> float:
    """Proper time elapsed on the fixed point during one lab revolution."""
    return revolution_period(rho, spec) * proper_time_rate(rho, spec)


def measure_precession_angle(
    spec: CongruenceSpec,
    rho: float,
    steps: int,
    revolutions: float = 1.0,
    n_samples: int = 2049,
) -> float:
    """Integrator-measured rotation of the spin against the rotating dyad.

    Starts the spin along the radial dyad leg, transports it for the given
    number of revolutions and returns the unwrapped angle swept by its
    projection onto the orbit plane.
    """
    wl = worldline(spec, rho)
    e_r, e_p = corotating_dyad(wl)
    g = metric_diag(rho, spec.c)
    traj = fw_transport(wl, e_r.copy(), revolutions * proper_period(spec, rho), steps,
                        n_samples=n_samples)
    # minus signs: spatial legs have e.e = -1
    comp_r = -traj.spins @ (g * e_r)
    comp_p = -traj.spins @ (g * e_p)
    theta = np.unwrap(np.arctan2(comp_p, comp_r))
    return float(theta[-1] - theta[0])


def precession_per_revolution(
    spec: CongruenceSpec, rho: float, fw_steps: int | None = None
) -> PrecessionReport:
    """Closed-form per-revolution precession, optionally with the FW check."""
    omega_scalar = omega_closed_form(rho, spec)
    delta_tau = proper_period(spec, rho)
    delta_phi = -omega_scalar * delta_tau
    fw_angle = None
    if fw_steps is not None:
        fw_angle = measure_precession_angle(spec, rho, fw_steps)
    return PrecessionReport(
        kind=spec.kind,
        rho=rho,
        omega=spec.omega,
        c=spec.c,
        vorticity=omega_scalar,
        delta_tau=delta_tau,
        delta_phi=delta_phi,
        net_angle=delta_phi + 2.0 * math.pi,
        fw_angle=fw_angle,
    )


def _horizon_report(rho: float, omega: float, c: float) -> PrecessionReport:
    nan = float("nan")
    return PrecessionReport(
        kind=GAL,
        rho=rho,
        omega=omega,
        c=c,
        vorticity=nan,
        delta_tau=nan,
        delta_phi=nan,
        net_angle=nan,
        status="light_cylinder",
    )


def compare_congruences(
    rho: float, omega: float, c: float = 1.0, fw_steps: int | None = None
) -> list[PrecessionReport]:
    """Per-revolution reports for gal, tt and mtt at identical parameters.

    The gal entry is replaced by a light-cylinder marker when rho * omega
    reaches c. tt and mtt are computed by the same code path, so their
    numeric fields are identical; with fw_steps set, mtt inherits tt's
    integrator measurement rather than re-running it.
    """
    try:
        gal_report = precession_per_revolution(
            CongruenceSpec(GAL, omega, c), rho, fw_steps
        )
    except LightCylinderError:
        gal_report = _horizon_report(rho, omega, c)
    tt_report = precession_per_revolution(CongruenceSpec(TT, omega, c), rho, fw_steps)
    mtt_report = replace(
        precession_per_revolution(CongruenceSpec(MTT, omega, c), rho),
        fw_angle=tt_report.fw_angle,
    )
    return [gal_report, tt_report, mtt_report]
