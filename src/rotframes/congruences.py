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
  diverge if an explicit map is adopted later. _MODEL is the one place
  that maps mtt to tt.

The closed forms of a fixed point (four-velocity, speed, proper time
rate, vorticity scalar) come from one evaluation per radius,
_fixed_point, which holds the one block per kind and the domain checks.
fixed_point_speed, proper_time_rate, revolution_period and
omega_closed_form read their value from it, and a value past the float
range becomes one DomainError (_in_range). Its array twins are _u_rows,
for the four-velocity, which depends on rho alone (so a difference pass
takes 5 rows per event, see kinematics), and _fixed_point_rows, for the
columns of a precession report, each with the scalar bits on its rows.
lambda = rho omega / c has one rule, _rapidity, and _rapidity_rows
applies it to an array. cosh and sinh of lambda are math's, not numpy's,
and give inf where they overflow: _cosh_sinh is that rule for one lambda
and _cosh_sinh_rows for a list of them.

All operations are pure functions; a CongruenceSpec is immutable, so
parameter sweeps can evaluate concurrently without coordination.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateError, DomainError, LightCylinderError
from .tensors import Event, FourVector

GAL = "gal"
TT = "tt"
MTT = "mtt"
KINDS = (GAL, TT, MTT)
# the kind that models each kind's fixed points; mtt rows are computed as
# the tt rows, and rendered once, as the tt section with its kind cell
# rewritten
_MODEL = {GAL: GAL, TT: TT, MTT: TT}


@dataclass(frozen=True)
class CongruenceSpec:
    """Which congruence to use, with its rotation rate and light speed.

    omega = 0 is accepted and describes the static congruence; it is only
    rejected by operations that need an actual revolution. omega and c
    must be finite: an infinite or nan value raises ValueError, as the CLI
    refuses such a flag.
    """

    kind: str
    omega: float
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be finite and positive, got {self.c}")


def _rapidity(rho: float, omega: float, c: float) -> float:
    """lambda = rho * omega / c, the one rule for it.

    rho * omega is formed first wherever it is a normal float or omega is
    0. Where it is subnormal or 0 although omega is not, or past the float
    range, the quotient is formed from the mantissas, and the binary
    exponents are added back last, so neither the product's underflow nor
    its overflow reaches lambda. A lambda past the float range is inf.
    """
    product = rho * omega
    if sys.float_info.min <= product < math.inf or not omega:
        return product / c
    (m_rho, e_rho), (m_omega, e_omega), (m_c, e_c) = map(math.frexp, (rho, omega, c))
    try:
        return math.ldexp(m_rho * m_omega / m_c, e_rho + e_omega - e_c)
    except OverflowError:
        return math.inf


def _rapidity_rows(rho: np.ndarray, rho_min: float, omega: float, c: float) -> np.ndarray:
    """_rapidity at each radius of rho, whose least value is rho_min, bit
    for bit: rho * omega / c at once, unless some rho * omega is not a
    normal float."""
    # rho * omega <= rho unless omega > 1, so only then can it overflow (an
    # inf rho gives the same lambda either way); a nan rho_min takes the
    # rows one by one
    if omega and (not rho_min * omega >= sys.float_info.min
                  or omega > 1.0 and rho.max(initial=0.0) * omega == math.inf):
        # rare: take _rapidity row by row (it keeps the bits of the other rows)
        return np.array([_rapidity(r, omega, c) for r in rho.tolist()])
    return rho * omega / c


def rapidity(rho: float, spec: CongruenceSpec) -> float:
    """Dimensionless boost parameter lambda = rho * omega / c."""
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    return _rapidity(rho, spec.omega, spec.c)


def _check_inside_light_cylinder(rho: float, spec: CongruenceSpec) -> None:
    if rho * spec.omega >= spec.c:
        raise LightCylinderError(
            f"gal congruence undefined at rho = {rho}: rho * omega = "
            f"{rho * spec.omega} reaches c = {spec.c} (light cylinder)"
        )


def _mapped(e: Event, spec: CongruenceSpec, t: float, phi: float) -> Event:
    """The image (t, e.rho, phi, e.z) of e under a coordinate map.

    Raises DomainError where t or phi left the float range.
    """
    if not (math.isfinite(t) and math.isfinite(phi)):
        raise DomainError(
            f"overflow mapping t = {e.t}, rho = {e.rho}, phi = {e.phi} at "
            f"omega = {spec.omega}, c = {spec.c}: a value exceeds the float range"
        )
    return Event(t, e.rho, phi, e.z)


def gal_map(e: Event, spec: CongruenceSpec) -> Event:
    """Rotating-frame coordinates of an event: phi' = phi - omega t."""
    return _mapped(e, spec, e.t, e.phi - spec.omega * e.t)


def gal_inverse(e: Event, spec: CongruenceSpec) -> Event:
    """Inverse rotating-frame map; same map with omega negated."""
    return _mapped(e, spec, e.t, e.phi + spec.omega * e.t)


def _overflow(rho: float, spec: CongruenceSpec) -> DomainError:
    return DomainError(
        f"overflow at rho = {rho}, omega = {spec.omega}, c = {spec.c}: "
        "a value exceeds the float range"
    )


def _cosh_sinh(lam: float) -> tuple[float, float]:
    """math.cosh(lam) and math.sinh(lam), both inf where they overflow."""
    try:
        return math.cosh(lam), math.sinh(lam)
    except OverflowError:
        return math.inf, math.inf


def _cosh_sinh_rows(lams: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """_cosh_sinh at each rapidity of lams, as two arrays, bit for bit.

    math's cosh and sinh are called from Python: numpy's own differ from
    them in the last bit on a fifth to a quarter of arguments in [0, 3],
    which the 1/step of a difference quotient turns into ~1e-12.
    """
    n = len(lams)
    try:
        return (np.fromiter(map(math.cosh, lams), float, n),
                np.fromiter(map(math.sinh, lams), float, n))
    except OverflowError:
        # rare: redo the rows, an overflowing one as inf
        ch, sh = zip(*map(_cosh_sinh, lams))
        return np.array(ch), np.array(sh)


def _tt_apply(e: Event, spec: CongruenceSpec, lam: float) -> Event:
    ch, sh = _cosh_sinh(lam)  # at inf, phi and t come out non-finite below
    phi = e.phi * ch - e.t * (spec.c / e.rho) * sh
    if not math.isfinite(phi):
        # c / rho leaves the float range below rho = c / 1.8e308, where lam
        # may be subnormal or 0, and t c / rho can overflow where phi' does
        # not; (c / rho) sinh(lam) = omega sinh(lam) / lam avoids both.
        # Ordinary points keep the form above, and its last bit.
        ratio = sh / lam if lam else 1.0
        phi = e.phi * ch - e.t * math.copysign(spec.omega, lam) * ratio
    t = e.t * ch - e.phi * (e.rho / spec.c) * sh
    if not math.isfinite(t):
        # the mirror of phi': rho / c overflows for tiny c where t' need
        # not; (rho / c) sinh(lam) = |lam| sinh(lam) / omega, phi first
        t = e.t * ch - (e.phi * sh * abs(lam) / spec.omega if spec.omega else 0.0)
    return _mapped(e, spec, t, phi)


def tt_map(e: Event, spec: CongruenceSpec) -> Event:
    """Trocheris-Takeno coordinates of an event.

    At fixed rho this is a boost of the (c t, rho phi) plane with rapidity
    lambda = rho omega / c, so it preserves c^2 t^2 - rho^2 phi^2.
    """
    return _tt_apply(e, spec, rapidity(e.rho, spec))


def tt_inverse(e: Event, spec: CongruenceSpec) -> Event:
    """Inverse Trocheris-Takeno map; the same boost with lambda negated."""
    return _tt_apply(e, spec, -rapidity(e.rho, spec))


def _u_rows(x: np.ndarray, spec: CongruenceSpec) -> np.ndarray:
    """Contravariant four-velocity at each row of x, an (n, 4) coordinate array.

    Bit-identical to _u_components row by row where that returns. A row
    whose components leave the float range gets non-finite components
    instead of an error, so one such row does not stop the batch. Raises
    DomainError for a row off the chart and LightCylinderError for a gal
    row at or past the light cylinder, whichever row it is. numpy's
    overflow warnings are left to the caller.

    Only rho is read, so kinematics differences a built-in field along rho
    alone: 5 rows per event, where a user field takes 17. tt and mtt take
    cosh and sinh once per row, from _cosh_sinh_rows.
    """
    rho = x[:, 1]
    rho_min = rho.min(initial=math.inf)
    if not rho_min > 0.0:
        raise DomainError(f"rho must be positive, got {rho_min}")
    if spec.kind == GAL:
        _check_inside_light_cylinder(rho.max(initial=0.0), spec)
        u = np.zeros(x.shape)
        beta = spec.omega * rho / spec.c
        u[:, 0] = 1.0 / np.sqrt(1.0 - beta * beta)
        u[:, 2] = u[:, 0] * spec.omega
        return u
    omega, c = spec.omega, spec.c
    u = np.zeros(x.shape)
    u[:, 0], u[:, 2] = _cosh_sinh_rows(_rapidity_rows(rho, rho_min, omega, c).tolist())
    u[:, 2] *= c / rho
    return u


def _u_components(e: Event, spec: CongruenceSpec) -> np.ndarray:
    """Contravariant four-velocity components of the fixed point through e.

    The one-event form of _u_rows, read from _fixed_point in scalar math
    because a batch of one costs about five times as much and
    four_velocity runs per event.
    """
    fp = _fixed_point(e.rho, spec)
    return np.array([fp.u_t, 0.0, _in_range(fp.u_phi, e.rho, spec), 0.0])


def four_velocity(e: Event, spec: CongruenceSpec) -> FourVector:
    """Normalized tangent (u.u = c^2) to the congruence worldline through e."""
    return FourVector(_u_components(e, spec))


class _FixedPoint(NamedTuple):
    """The closed forms of the fixed point at one radius.

    A value past the float range is inf or nan here; _in_range turns it
    into the overflow DomainError where a caller reads it.
    """

    u_t: float
    u_phi: float
    speed: float
    dtau_dt: float
    vorticity: float


def _fixed_point(rho: float, spec: CongruenceSpec) -> _FixedPoint:
    """Evaluate every closed form of the fixed point at radius rho once.

    Raises DomainError unless rho > 0, and LightCylinderError for a gal
    point at or past the light cylinder.
    """
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    if spec.kind == GAL:
        _check_inside_light_cylinder(rho, spec)
        beta = spec.omega * rho / spec.c
        gap = 1.0 - beta * beta
        dtau_dt = math.sqrt(gap)
        u_t = 1.0 / dtau_dt
        return _FixedPoint(u_t, u_t * spec.omega, spec.omega * rho, dtau_dt,
                           spec.omega / gap)
    lam = _rapidity(rho, spec.omega, spec.c)
    ch, sh = _cosh_sinh(lam)
    # past lam = 710.5 (or at lam = inf, where cosh does not raise) u^t is
    # out of range, although 1 / cosh(lam) would still be a float
    dtau_dt = 1.0 / ch if ch < math.inf else math.inf
    two_rho = 2.0 * rho
    # where 2 rho overflows (rho above 8.99e307), c / 2 is exact and the
    # quotient is rounded once; elsewhere c / (2 rho) keeps its bits
    half_c_rho = spec.c / two_rho if two_rho < math.inf else (0.5 * spec.c) / rho
    return _FixedPoint(ch, (spec.c / rho) * sh, spec.c * math.tanh(lam), dtau_dt,
                       half_c_rho * (sh * ch + lam))


def _in_range(value: float, rho: float, spec: CongruenceSpec) -> float:
    """value, or the overflow DomainError where it left the float range."""
    if not math.isfinite(value):
        raise _overflow(rho, spec)
    return value


def _period(rho: float, spec: CongruenceSpec, fp: _FixedPoint,
            rate: float = 1.0) -> float:
    """revolution_period from the fixed point fp at radius rho, times rate.

    rate = fp.dtau_dt gives proper_period, which is formed without the
    lab period where only that leaves the float range. A rate past the
    float range is the overflow DomainError where the lab period is not.
    """
    if spec.omega == 0.0:
        raise DegenerateError("no revolution at omega = 0")
    if spec.kind == GAL:
        period = 2.0 * math.pi / spec.omega
    elif fp.speed < sys.float_info.min:
        # the speed c tanh(lam) lost bits in the subnormal range, or is 0;
        # rho / c and tanh(lam) did not, and their ratio keeps 2 pi rho out
        # of it
        lam = _rapidity(rho, spec.omega, spec.c)
        if lam == 0.0:
            raise DomainError(
                f"rho * omega / c underflows the float range at rho = {rho}, "
                f"omega = {spec.omega}, c = {spec.c}"
            )
        period = 2.0 * math.pi * ((rho / spec.c) / math.tanh(lam))
    elif rho < sys.float_info.min or 2.0 * math.pi * rho == math.inf:
        # 2 pi rho would round in the subnormal range, or overflow (rho
        # above 2.86e307) where the period need not; rho / speed does neither
        period = 2.0 * math.pi * (rho / fp.speed)
    else:
        period = 2.0 * math.pi * rho / fp.speed
    if period < math.inf:
        return period * _in_range(rate, rho, spec)
    if rate < 1.0:
        # the lab period alone leaves the float range: 2 pi rate / omega
        # (gal) and 2 pi (rho / c) / sinh(lam) (tt) need not
        if spec.kind == GAL:
            period = 2.0 * math.pi * rate / spec.omega
        else:
            lam = _rapidity(rho, spec.omega, spec.c)
            period = 2.0 * math.pi * ((rho / spec.c) / math.sinh(lam))
    if not period < math.inf:
        raise DomainError(
            f"revolution period exceeds the float range at rho = {rho}, "
            f"omega = {spec.omega}, c = {spec.c}"
        )
    return period


class _FixedPointRows(NamedTuple):
    """Closed forms at each radius of an array (see _fixed_point_rows)."""

    vorticity: np.ndarray
    speed: np.ndarray
    dtau_dt: np.ndarray
    proper_period: np.ndarray
    plain: np.ndarray  # bool: the values above are the scalar path's
    light_cylinder: np.ndarray  # bool: a gal radius at or past the light cylinder


def _fixed_point_rows(rho: np.ndarray, spec: CongruenceSpec) -> _FixedPointRows:
    """The array twin of _fixed_point and _period(rate=dtau_dt) at each
    radius of rho, for the rows where both take their ordinary case.

    A row is plain where every branch of _fixed_point and _period takes
    its ordinary case and every value is finite; its vorticity is then
    positive. There its vorticity, speed, dtau_dt and proper period have
    the bits of the scalar path: the same IEEE operations run in the same
    order, lambda comes from _rapidity_rows, cosh and sinh from
    _cosh_sinh_rows, and tanh from math. The other rows hold no meaningful
    value, as the scalar path raises there or takes a fallback branch;
    light_cylinder marks the gal rows among them where it raises
    LightCylinderError. numpy's warnings are left to the caller.
    """
    omega, c = spec.omega, spec.c
    if spec.kind == GAL:
        light_cylinder = rho * omega >= c
        beta = omega * rho / c
        gap = 1.0 - beta * beta
        dtau_dt = np.sqrt(gap)
        vorticity = omega / gap
        period = 2.0 * math.pi / omega if omega else math.inf
        plain = (rho > 0.0) & ~light_cylinder & (vorticity < math.inf) & (period < math.inf)
        return _FixedPointRows(vorticity, omega * rho, dtau_dt, period * dtau_dt,
                               plain, light_cylinder)
    lam = _rapidity_rows(rho, rho.min(initial=math.inf), omega, c)
    lams, n = lam.tolist(), len(lam)
    ch, sh = _cosh_sinh_rows(lams)  # an overflowing row is not plain
    speed = c * np.fromiter(map(math.tanh, lams), float, n)
    vorticity = c / (2.0 * rho) * (sh * ch + lam)
    two_pi_rho = 2.0 * math.pi * rho
    period = two_pi_rho / speed
    # a finite vorticity implies ch < inf, so a finite dtau_dt; a finite
    # period implies 2 pi rho < inf, so 2 rho < inf, and omega above 3.5e-308,
    # so a vorticity of omega or more
    plain = ((rho >= sys.float_info.min) & (vorticity < math.inf)
             & (speed >= sys.float_info.min) & (period < math.inf))
    dtau_dt = 1.0 / ch
    return _FixedPointRows(vorticity, speed, dtau_dt, period * dtau_dt, plain,
                           np.zeros(n, bool))


def fixed_point_speed(rho: float, spec: CongruenceSpec) -> float:
    """Lab-frame speed of the congruence fixed point at radius rho."""
    return _in_range(_fixed_point(rho, spec).speed, rho, spec)


def proper_time_rate(rho: float, spec: CongruenceSpec) -> float:
    """dtau/dt for the fixed point at radius rho.

    tt and mtt share one code path, so their values are bit-identical.
    Raises DomainError where cosh(lambda) overflows (lambda above 710).
    """
    return _in_range(_fixed_point(rho, spec).dtau_dt, rho, spec)


def revolution_period(rho: float, spec: CongruenceSpec) -> float:
    """Lab time for one full turn (delta phi = 2 pi) of the fixed point.

    Raises DegenerateError at omega = 0, and DomainError where the period
    leaves the float range, as it does for omega below about 3.5e-308, or
    where the tt speed underflows to 0.
    """
    return _period(rho, spec, _fixed_point(rho, spec))


def omega_closed_form(rho: float, spec: CongruenceSpec) -> float:
    """Closed-form vorticity scalar of the fixed-point congruence at radius rho.

    gal: omega / (1 - omega^2 rho^2 / c^2), diverging at the light
    cylinder (LightCylinderError); tt and mtt: (c / 2 rho) (sinh(lam)
    cosh(lam) + lam) with lam = rho omega / c, which leaves the float
    range above lam = 355, or where c / rho does (DomainError).
    """
    return _in_range(_fixed_point(rho, spec).vorticity, rho, spec)
