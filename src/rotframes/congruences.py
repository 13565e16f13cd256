"""Rotating-observer congruences and the coordinate maps that define them.

Three families share the angular-rate parameter omega of the rotation and
the light speed c:

* ``gal``: the classical rotating frame, phi' = phi - omega t. Its fixed
  points move at v = omega rho, so they only exist inside the light
  cylinder rho < c / omega.
* ``tt``: the Trocheris-Takeno map, a radius-dependent boost of the
  (c t, rho phi) sector with rapidity lambda = rho omega / c. Fixed
  points move at v = c tanh(lambda) < c at every radius; there is no
  horizon.
* ``mtt``: the modified Trocheris-Takeno family. Its fixed-point
  worldlines and timing are modelled here as identical to ``tt`` (see the
  README caveat); the identifier stays distinct so the two families can
  diverge if an explicit map is adopted later.

All operations are pure functions; a CongruenceSpec is immutable, so
parameter sweeps can evaluate concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, LightCylinderError
from .tensors import CONTRAVARIANT, Event, FourVector

GAL = "gal"
TT = "tt"
MTT = "mtt"
KINDS = (GAL, TT, MTT)


@dataclass(frozen=True)
class CongruenceSpec:
    """Which congruence to use, with its rotation rate and light speed.

    omega = 0 is accepted and describes the static congruence; it is only
    rejected by operations that need an actual revolution.
    """

    kind: str
    omega: float
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.omega >= 0.0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")


def rapidity(rho: float, spec: CongruenceSpec) -> float:
    """Dimensionless boost parameter lambda = rho * omega / c."""
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    return rho * spec.omega / spec.c


def _check_inside_light_cylinder(rho: float, spec: CongruenceSpec) -> None:
    if rho * spec.omega >= spec.c:
        raise LightCylinderError(
            f"gal congruence undefined at rho = {rho}: rho * omega = "
            f"{rho * spec.omega} reaches c = {spec.c} (light cylinder)"
        )


def gal_map(e: Event, spec: CongruenceSpec) -> Event:
    """Rotating-frame coordinates of an event: phi' = phi - omega t."""
    return Event(e.t, e.rho, e.phi - spec.omega * e.t, e.z)


def gal_inverse(e: Event, spec: CongruenceSpec) -> Event:
    """Inverse rotating-frame map; same map with omega negated."""
    return Event(e.t, e.rho, e.phi + spec.omega * e.t, e.z)


def _overflow(lam: float) -> DomainError:
    return DomainError(f"overflow at rapidity {lam}: a value exceeds the float range")


def _hyperbolic(fn, lam: float) -> float:
    """fn(lam) for math.cosh or math.sinh; DomainError where it overflows."""
    try:
        return fn(lam)
    except OverflowError:
        raise _overflow(lam) from None


def _tt_apply(e: Event, lam: float, c: float) -> Event:
    ch, sh = _hyperbolic(math.cosh, lam), _hyperbolic(math.sinh, lam)
    phi = e.phi * ch - e.t * (c / e.rho) * sh
    t = e.t * ch - e.phi * (e.rho / c) * sh
    if not (math.isfinite(phi) and math.isfinite(t)):
        raise _overflow(lam)
    return Event(t, e.rho, phi, e.z)


def tt_map(e: Event, spec: CongruenceSpec) -> Event:
    """Trocheris-Takeno coordinates of an event.

    At fixed rho this is a boost of the (c t, rho phi) plane with rapidity
    lambda = rho omega / c, so it preserves c^2 t^2 - rho^2 phi^2.
    """
    return _tt_apply(e, rapidity(e.rho, spec), spec.c)


def tt_inverse(e: Event, spec: CongruenceSpec) -> Event:
    """Inverse Trocheris-Takeno map; the same boost with lambda negated."""
    return _tt_apply(e, -rapidity(e.rho, spec), spec.c)


# math's cosh and sinh over arrays: numpy's differ from them in the last
# bit, which the 1/step of a difference quotient turns into ~1e-12
_COSH = np.frompyfunc(math.cosh, 1, 1)
_SINH = np.frompyfunc(math.sinh, 1, 1)


def _or_inf(fn):
    """fn as a ufunc that gives inf where it overflows (for lam >= 0)."""

    def value(lam: float) -> float:
        try:
            return fn(lam)
        except OverflowError:
            return math.inf

    return np.frompyfunc(value, 1, 1)


def _u_rows(x: np.ndarray, spec: CongruenceSpec) -> np.ndarray:
    """Contravariant four-velocity at each row of x, an (n, 4) coordinate array.

    Bit-identical to _u_components row by row where that returns. A row
    whose components leave the float range gets non-finite components
    instead of an error, so one such row does not stop the batch. Raises
    DomainError for a row off the chart and LightCylinderError for a gal
    row at or past the light cylinder, whichever row it is. numpy's
    overflow warnings are left to the caller.
    """
    rho = x[:, 1]
    if not (rho > 0.0).all():
        raise DomainError(f"rho must be positive, got {rho.min()}")
    u = np.zeros(x.shape)
    if spec.kind == GAL:
        _check_inside_light_cylinder(rho.max(initial=0.0), spec)
        beta = spec.omega * rho / spec.c
        u[:, 0] = 1.0 / np.sqrt(1.0 - beta * beta)
        u[:, 2] = u[:, 0] * spec.omega
        return u
    lam = rho * spec.omega / spec.c
    try:
        u[:, 0] = _COSH(lam)
        u[:, 2] = _SINH(lam)
    except OverflowError:
        # rare: redo the batch with overflowing rows set to inf
        u[:, 0] = _or_inf(math.cosh)(lam)
        u[:, 2] = _or_inf(math.sinh)(lam)
    u[:, 2] *= spec.c / rho
    return u


def _u_components(e: Event, spec: CongruenceSpec) -> np.ndarray:
    """Contravariant four-velocity components of the fixed point through e.

    The one-event form of _u_rows, kept in scalar math because a batch of
    one costs about five times as much and four_velocity runs per event.
    """
    if spec.kind == GAL:
        _check_inside_light_cylinder(e.rho, spec)
        beta = spec.omega * e.rho / spec.c
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        return np.array([gamma, 0.0, gamma * spec.omega, 0.0])
    lam = rapidity(e.rho, spec)
    u_phi = (spec.c / e.rho) * _hyperbolic(math.sinh, lam)
    if not math.isfinite(u_phi):
        raise _overflow(lam)
    return np.array([_hyperbolic(math.cosh, lam), 0.0, u_phi, 0.0])


def four_velocity(e: Event, spec: CongruenceSpec) -> FourVector:
    """Normalized tangent (u.u = c^2) to the congruence worldline through e."""
    return FourVector(_u_components(e, spec), CONTRAVARIANT)


def fixed_point_speed(rho: float, spec: CongruenceSpec) -> float:
    """Lab-frame speed of the congruence fixed point at radius rho."""
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    if spec.kind == GAL:
        _check_inside_light_cylinder(rho, spec)
        return spec.omega * rho
    return spec.c * math.tanh(rapidity(rho, spec))


def proper_time_rate(rho: float, spec: CongruenceSpec) -> float:
    """dtau/dt for the fixed point at radius rho.

    tt and mtt share one code path, so their values are bit-identical.
    Raises DomainError where cosh(lambda) overflows (lambda above 710).
    """
    if spec.kind == GAL:
        if not rho > 0.0:
            raise DomainError(f"rho must be positive, got {rho}")
        _check_inside_light_cylinder(rho, spec)
        beta = spec.omega * rho / spec.c
        return math.sqrt(1.0 - beta * beta)
    return 1.0 / _hyperbolic(math.cosh, rapidity(rho, spec))


def revolution_period(rho: float, spec: CongruenceSpec) -> float:
    """Lab time for one full turn (delta phi = 2 pi) of the fixed point.

    Raises DomainError where the period leaves the float range, as it
    does for omega below about 3.5e-308.
    """
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    if spec.omega == 0.0:
        raise DegenerateError("no revolution at omega = 0")
    if spec.kind == GAL:
        _check_inside_light_cylinder(rho, spec)
        period = 2.0 * math.pi / spec.omega
    else:
        speed = spec.c * math.tanh(rapidity(rho, spec))
        if speed == 0.0:
            raise DomainError(
                f"rho * omega / c underflows the float range at rho = {rho}, "
                f"omega = {spec.omega}, c = {spec.c}"
            )
        period = 2.0 * math.pi * rho / speed
    if not math.isfinite(period):
        raise DomainError(
            f"revolution period exceeds the float range at rho = {rho}, "
            f"omega = {spec.omega}, c = {spec.c}"
        )
    return period
