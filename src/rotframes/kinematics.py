"""Acceleration and vorticity of a timelike congruence.

The pipeline differentiates the four-velocity field numerically (central
differences, always with one Richardson extrapolation level), so it
works for any congruence supplied as u(event), not just the built-in
ones, whose closed forms (congruences.omega_closed_form) it is checked
against. Everything runs on arrays of events: one stencil of four points per
axis around every event is evaluated, together with the events
themselves, in one field call, and a call at a single event is a batch of
one. The step follows from the radius alone (_step).

Each event gets one Jacobian, that of the lowered field,
du[a, b] = d_b u_a. The metric is diagonal and depends only on rho, so
the contravariant Jacobian follows from it by the product rule

    d_b u^a = (d_b u_a - delta_b^rho (d_rho g_a) u^a) / g_a,

and the acceleration, the vorticity tensor and both vorticity routes are
computed from that one Jacobian (17 field evaluations per event: 16
stencil points and the event itself). The two routes to
the vorticity vector are

* direct: contract the permutation symbol with u and the comma
  derivatives of the lowered field,
      w^a = eps^{abgd} u_b d_g u_d / (2 c sqrt(-det g)),
* via the tensor: build w_ab from antisymmetrized covariant derivatives
  minus the acceleration bivector and contract the same way.

Connection and acceleration terms cancel under the eps-contraction with
u_b, so the routes agree to rounding plus differencing error; the test
suite leans on that as a cross-check. It checks the cancellation, not two
independent derivatives: both routes read the same Jacobian. The
prefactor uses the tangent normalized to unit norm (u / c), which keeps
the vorticity scalar an angular rate per unit proper time for any value
of c.

This module owns the rule for which events can be differenced: the
stencil must stay off the axis and, for gal, inside the light cylinder
(_stencil_fits). The public functions raise DomainError for an event
that fails it or for a result that is not finite. _scalar_rows, the
batch routine behind vorticity_scalars and the CLI tables, instead
gives nan for such a row and differences the other rows in one field
call.

Sign conventions: antisymmetrization carries the factor 1/2, orientation
has eps(t, rho, phi, z) = +1, and with these choices the vorticity vector
of a rigidly rotating congruence points along +z. Only the magnitude is
convention-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, wraps
from typing import Callable, NamedTuple, Union

import numpy as np

# _u_components is no longer called here; it stays importable because
# rfbench/layers.py wraps it by this name.
from .congruences import (  # noqa: F401
    GAL,
    CongruenceSpec,
    _u_components,
    _u_rows,
)
from .errors import DomainError
from .tensors import (
    CONTRAVARIANT,
    LEVI_CIVITA,
    PHI,
    RHO,
    Event,
    FourVector,
    _christoffel,
    metric_diag,
)

# the 24 nonzero permutation-symbol entries (a, b, g, d), six per a in turn:
# their signs, b, and the flat index d * 4 + g into a 4x4 matrix
_PERM = np.argwhere(LEVI_CIVITA)
_PERM_SIGN = LEVI_CIVITA[tuple(_PERM.T)].astype(float)
_PERM_B = _PERM[:, 1]
_PERM_DG = 4 * _PERM[:, 3] + _PERM[:, 2]

# stencil offsets per axis in units of the step: +-h, then +-h/2 for Richardson
_RICHARDSON = np.array([1.0, -1.0, 0.5, -0.5])
_EYE = np.eye(4)
_UPPER = np.triu(np.ones((4, 4)), 1)


@dataclass(frozen=True)
class VelocityField:
    """A congruence supplied directly as contravariant u(event).

    The callable must return the 4 contravariant components normalized to
    u.u = c^2 at each event it is given.
    """

    u: Callable[[Event], np.ndarray]
    c: float = 1.0


FieldLike = Union[CongruenceSpec, VelocityField]


@dataclass(frozen=True, eq=False)
class KinematicSample:
    """Velocity, acceleration and vorticity data at one event."""

    event: Event
    u: FourVector
    u_dot: FourVector
    vorticity_tensor: np.ndarray
    vorticity_vector: FourVector
    vorticity_scalar: float


class _Jet(NamedTuple):
    """First-order data of the field at n events, from one Jacobian each."""

    rho: np.ndarray  # (n,)
    c: float
    u: np.ndarray  # (n, 4) contravariant u^a
    g: np.ndarray  # (n, 4) metric diagonal g_a
    u_low: np.ndarray  # (n, 4) g_a u^a
    du: np.ndarray  # (n, 4, 4) lowered Jacobian du[n, a, b] = d_b u_a


def _field_rows(spec: FieldLike) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """u^a at each row of an (n, 4) coordinate array, and the field's c.

    A user VelocityField is called once per row.
    """
    if isinstance(spec, VelocityField):
        def u_rows(x: np.ndarray) -> np.ndarray:
            return np.array([spec.u(Event(*row)) for row in x.tolist()], dtype=float)

        return u_rows, spec.c
    return partial(_u_rows, spec=spec), spec.c


def _step(rho: np.ndarray) -> np.ndarray:
    """The difference step at each radius: 1e-4 * max(rho, 1).

    It balances the h^4 truncation error of the Richardson-extrapolated
    difference against the eps / h rounding floor of its quotients.
    """
    return 1e-4 * np.maximum(rho, 1.0)


def _stencil_fits(spec: FieldLike, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Which radii keep the whole stencil off the axis (and inside a gal cylinder)."""
    fits = rho - h > 0.0
    if isinstance(spec, CongruenceSpec) and spec.kind == GAL and spec.omega > 0.0:
        fits &= (rho + h) * spec.omega < spec.c
    return fits


def _guard_stencil(spec: FieldLike, rho: np.ndarray, h: np.ndarray) -> None:
    fits = _stencil_fits(spec, rho, h)
    if fits.all():
        return
    i = int(np.argmin(fits))
    r, step = float(rho[i]), float(h[i])
    if not r - step > 0.0:
        raise DomainError(
            f"difference stencil leaves the chart: rho = {r}, step = {step}"
        )
    raise DomainError(
        "difference stencil crosses the light cylinder: "
        f"rho + step = {r + step}, c / omega = {spec.c / spec.omega}"
    )


def _fd_matrix(fn, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D[n, a, b] = d f_a / d x^b at each row of x, an (n, 4) coordinate array,
    and f at the rows of x.

    h holds one step per row. fn maps (m, 4) coordinate rows to (m, 4)
    values and is called once, on the whole (n, 4 axes, 4 offsets, 4)
    stencil (+-h and +-h/2 per axis) followed by the rows of x. One
    Richardson level combines the central differences at h and h/2.
    """
    n = len(x)
    offsets = h[:, None] * _RICHARDSON
    # adding 0.0 to the other coordinates leaves them bit-identical
    stencil = x[:, None, None, :] + _EYE[None, :, None, :] * offsets[:, None, :, None]
    values = fn(np.concatenate([stencil.reshape(-1, 4), x]))
    f = values[: 16 * n].reshape(n, 4, 4, 4)
    h = h[:, None, None]
    d1 = (f[:, :, 0] - f[:, :, 1]) / (2.0 * h)
    # 2 * (h / 2) is h exactly
    d2 = (f[:, :, 2] - f[:, :, 3]) / h
    return ((4.0 * d2 - d1) / 3.0).transpose(0, 2, 1), values[16 * n :]


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DomainError("kinematics overflow: a value exceeds the float range")
    return values


def _jet(spec: FieldLike, x: np.ndarray, h: np.ndarray) -> _Jet:
    """u, g, u_low and the lowered Jacobian at each row of x, an (n, 4) array.

    h holds one step per row; the stencils must fit (see _stencil_fits).
    The field is called once, on the stencil and the events together; u
    is u_low / g_a, so u_low is exactly the lowered field that was
    differenced. Nothing is checked for overflow here.
    """
    u_rows, c = _field_rows(spec)
    rho = x[:, 1]

    def lowered(y: np.ndarray) -> np.ndarray:
        return metric_diag(y[:, 1], c) * u_rows(y)

    du, u_low = _fd_matrix(lowered, x, h)
    g = metric_diag(rho, c)
    return _Jet(rho, c, u_low / g, g, u_low, du)


def _at(spec: FieldLike, event: Event) -> _Jet:
    x = np.array([[event.t, event.rho, event.phi, event.z]])
    h = _step(x[:, 1])
    _guard_stencil(spec, x[:, 1], h)
    return _jet(spec, x, h)


def _contravariant_jacobian(jet: _Jet) -> np.ndarray:
    """d_b u^a from the lowered Jacobian by the diagonal-metric product rule."""
    d = jet.du.copy()
    # the only metric derivative is d_rho g_phi = -2 rho
    d[:, PHI, RHO] += 2.0 * jet.rho * jet.u[:, PHI]
    return d / jet.g[:, :, None]


def _acceleration_rows(jet: _Jet, gam: np.ndarray) -> np.ndarray:
    return np.einsum("nab,nb->na", _contravariant_jacobian(jet), jet.u) + np.einsum(
        "nabg,nb,ng->na", gam, jet.u, jet.u
    )


def _tensor_rows(jet: _Jet, gam: np.ndarray, u_dot: np.ndarray) -> np.ndarray:
    u_low = jet.u_low
    # cd[n, a, b] = covariant derivative of u_a along x^b
    cd = jet.du - np.einsum("nsab,ns->nab", gam, u_low)
    ud_low = jet.g * u_dot
    asym = 0.5 * (cd - cd.transpose(0, 2, 1))
    outer = ud_low[:, :, None] * u_low[:, None, :]
    bivec = 0.5 * (outer - outer.transpose(0, 2, 1)) / (jet.c * jet.c)
    # keep the 6 independent components so antisymmetry is exact
    upper = (asym - bivec) * _UPPER
    return upper - upper.transpose(0, 2, 1)


def _eps_contract(jet: _Jet, x: np.ndarray) -> np.ndarray:
    """w^a = eps^{abgd} u_b x_dg / (2 c sqrt(-det g)) at each event.

    x is (n, 4, 4). The prefactor applies to unit-normalized tangents,
    i.e. 1 / (2 c^2 rho) on the c^2-normalized field. Each component sums
    its six terms in a fixed order, so a row's result does not depend on
    the batch around it.
    """
    terms = _PERM_SIGN * jet.u_low[:, _PERM_B] * x.reshape(-1, 16)[:, _PERM_DG]
    pref = 1.0 / (2.0 * jet.c * (jet.c * jet.rho))
    return pref[:, None] * terms.reshape(-1, 4, 6).sum(axis=2)


def _norm_rows(jet: _Jet, w: np.ndarray) -> np.ndarray:
    """sqrt(-w.w) of spacelike vectors, one per event."""
    norm2 = -(w * (jet.g * w)).sum(axis=1)
    norm = np.sqrt(np.maximum(norm2, 0.0))
    big = np.isinf(norm2)
    if big.any():
        # w.w overflowed although w fits: redo those rows scaled by a power
        # of two, which is exact
        _, e = np.frexp(np.abs(w[big]).max(axis=1))
        ws = np.ldexp(w[big], -e[:, None])
        norm2 = -(ws * (jet.g[big] * ws)).sum(axis=1)
        norm[big] = np.ldexp(np.sqrt(np.maximum(norm2, 0.0)), e)
    return norm


def _quiet(fn):
    """Run fn with numpy's float warnings off; _finite checks overflow instead."""

    @wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)

    return quiet


@_quiet
def partial_derivatives_u(spec: FieldLike, event: Event) -> np.ndarray:
    """Comma derivatives of the lowered field: du[a, b] = d_b u_a.

    Rows index the component, columns the differentiation coordinate in
    the (t, rho, phi, z) order.
    """
    return _finite(_at(spec, event).du)[0]


@_quiet
def acceleration(spec: FieldLike, event: Event) -> FourVector:
    """Contravariant acceleration u_dot^a = u^b (d_b u^a + Gamma^a_bg u^g)."""
    jet = _at(spec, event)
    a = _acceleration_rows(jet, _christoffel(jet.rho))
    return FourVector(_finite(a)[0], CONTRAVARIANT)


@_quiet
def vorticity_tensor(spec: FieldLike, event: Event) -> np.ndarray:
    """Covariant vorticity tensor w_ab, exactly antisymmetric.

    w_ab = (u_{a;b} - u_{b;a}) / 2 - (u_dot_a u_b - u_dot_b u_a) / (2 c^2);
    the acceleration term makes w_ab u^b vanish for any normalization.
    """
    jet = _at(spec, event)
    gam = _christoffel(jet.rho)
    return _finite(_tensor_rows(jet, gam, _acceleration_rows(jet, gam)))[0]


@_quiet
def vorticity_vector_direct(spec: FieldLike, event: Event) -> FourVector:
    """Vorticity vector from the permutation symbol and comma derivatives."""
    jet = _at(spec, event)
    return FourVector(_finite(_eps_contract(jet, jet.du))[0], CONTRAVARIANT)


@_quiet
def vorticity_vector_from_tensor(spec: FieldLike, event: Event) -> FourVector:
    """Vorticity vector obtained by contracting the vorticity tensor.

    Must agree with the direct route: the connection and acceleration
    pieces of the tensor drop out under the eps-contraction with u.
    """
    jet = _at(spec, event)
    gam = _christoffel(jet.rho)
    w = _tensor_rows(jet, gam, _acceleration_rows(jet, gam))
    return FourVector(_finite(_eps_contract(jet, w))[0], CONTRAVARIANT)


@_quiet
def _scalar_rows(spec: FieldLike, x: np.ndarray) -> np.ndarray:
    """Vorticity scalar at each row of x, an (n, 4) coordinate array.

    A row is nan where its stencil does not fit (off the chart, or across
    the gal light cylinder) or where a value is not finite. The field is
    called once, on the rows that fit.
    """
    h = _step(x[:, 1])
    fits = _stencil_fits(spec, x[:, 1], h)
    out = np.full(len(x), np.nan)
    if fits.any():
        jet = _jet(spec, x[fits], h[fits])
        scalar = _norm_rows(jet, _eps_contract(jet, jet.du))
        finite = np.isfinite(jet.du).all(axis=(1, 2)) & np.isfinite(scalar)
        out[fits] = np.where(finite, scalar, np.nan)
    return out


@_quiet
def vorticity_scalars(spec: FieldLike, coords: np.ndarray) -> np.ndarray:
    """Vorticity scalar at each row (t, rho, phi, z) of an (n, 4) array.

    Raises DomainError if any row's stencil leaves the chart or crosses
    the gal light cylinder, or if a value overflows.
    """
    x = np.asarray(coords, dtype=float).reshape(-1, 4)
    _guard_stencil(spec, x[:, 1], _step(x[:, 1]))
    return _finite(_scalar_rows(spec, x))


def vorticity_scalar(spec: FieldLike, event: Event) -> float:
    """Magnitude sqrt(-w.w) of the (spacelike) vorticity vector."""
    coords = [[event.t, event.rho, event.phi, event.z]]
    return float(vorticity_scalars(spec, coords)[0])


@_quiet
def kinematic_sample(spec: FieldLike, event: Event) -> KinematicSample:
    """Evaluate the full kinematic state of the congruence at one event.

    One Jacobian serves every field of the sample (17 field evaluations).
    """
    jet = _at(spec, event)
    gam = _christoffel(jet.rho)
    u_dot = _finite(_acceleration_rows(jet, gam))
    w_vec = _finite(_eps_contract(jet, jet.du))
    return KinematicSample(
        event=event,
        u=FourVector(jet.u[0], CONTRAVARIANT),
        u_dot=FourVector(u_dot[0], CONTRAVARIANT),
        vorticity_tensor=_finite(_tensor_rows(jet, gam, u_dot))[0],
        vorticity_vector=FourVector(w_vec[0], CONTRAVARIANT),
        vorticity_scalar=float(_finite(_norm_rows(jet, w_vec))[0]),
    )
