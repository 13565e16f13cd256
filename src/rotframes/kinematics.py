"""Acceleration and vorticity of a timelike congruence.

The pipeline differentiates the four-velocity field numerically (central
differences, always with one Richardson extrapolation level), so it
works for any congruence supplied as u(event), not just the built-in
ones, whose closed forms (congruences.omega_closed_form) it is checked
against. Everything runs on arrays of events, and a call at a single
event is a batch of one. A difference pass lays out, per event, four
stencil rows along each differenced axis, then the event (_fd_matrix), so
the rows of consecutive events are one slice. A pass, of at most _PASS
events, may hold the events of several fields that share c, grouped by
field: the metric is built once on all rows, without a check, as a
stencil that fits has only positive radii, and each field is called once
and fills its own slice of the lowered field (_jet). The step follows
from rho (_step).

The built-in congruences are stationary, axisymmetric and z-invariant,
so their u^a, like the metric, depend on rho alone: they are differenced
along rho only (_axes), in 5 field evaluations per event, and their t,
phi and z Jacobian columns are +0.0, as a difference along those axes
gives wherever the event's values are finite (elsewhere every output is
non-finite either way). A user VelocityField, and every event of a pass
that holds one, is differenced along every axis, in 17 evaluations.

Each event gets one Jacobian, that of the lowered field,
du[a, b] = d_b u_a, and the acceleration, the vorticity tensor and the
vorticity vector are computed from it; kinematic_sample returns them
all. The metric is diagonal and depends only on rho, so the one metric
derivative, d_rho g_phi = -2 rho, enters the lowered acceleration

    u_dot_a = u^b d_b u_a - d_a g_bc u^b u^c / 2

and nothing else. The connection never enters the vorticity tensor: it
is symmetric in its lower indices, so it cancels exactly in the
antisymmetrized covariant derivative, and w_ab is built from comma
derivatives alone. The vorticity vector contracts the permutation symbol
with u and the comma derivatives of the lowered field,

    w^a = eps^{abgd} u_b d_g u_d / (2 c sqrt(-det g)).

Contracting w_ab the same way, _eps_contract(jet, _tensor_rows(jet,
_acceleration_low(jet))), gives the same vector: the acceleration
bivector cancels under the eps-contraction with u_b, so the two routes
agree to rounding, and the test suite cross-checks them over these
private helpers. That checks the cancellation, not two independent
derivatives: both routes read the same Jacobian. The prefactor uses the
tangent normalized to unit norm (u / c), which keeps the vorticity
scalar an angular rate per unit proper time for any value of c.

This module owns the rule for which events can be differenced: the
stencil must stay off the axis and, for gal, inside the light cylinder.
One routine, _stencil, holds it as one mask over the rows of every field
it is given, with each row's step. _scalar_rows, the batch routine
behind vorticity_scalars and the CLI tables, gives nan for a row that
fails it or whose result is not finite, and differences the other rows
in passes of at most _PASS events, with no gather or scatter where every
row fits. kinematic_sample and vorticity_scalars raise DomainError for
such a row instead, a stencil that does not fit first (_guard_stencil).

Sign conventions: antisymmetrization carries the factor 1/2, orientation
has eps(t, rho, phi, z) = +1, and with these choices the vorticity vector
of a rigidly rotating congruence points along +z. Only the magnitude is
convention-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial, wraps
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

# _u_components and metric_diag are no longer called here; they stay
# importable because rfbench/layers.py wraps them by these names.
from .congruences import (  # noqa: F401
    GAL,
    CongruenceSpec,
    _u_components,
    _u_rows,
)
from .errors import DomainError
from .tensors import (  # noqa: F401
    LEVI_CIVITA,
    PHI,
    RHO,
    Event,
    FourVector,
    _metric_rows,
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
_ALL_AXES = (0, 1, 2, 3)  # the stencil axes of a user field
# the spans of the two central differences, in units of the step: 2h, then h
_SPANS = np.array([[2.0], [1.0]])
# events per difference pass, which bounds its arrays on a long sweep
_PASS = 1024
# root of the smallest normal float: sqrt(-w.w) below it means w.w has lost
# bits to underflow
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class VelocityField:
    """A congruence supplied directly as contravariant u(event).

    The callable must return the 4 contravariant components normalized to
    u.u = c^2 at each event it is given. c must be finite and positive, as
    on a CongruenceSpec; any other c raises ValueError here.
    """

    u: Callable[[Event], np.ndarray]
    c: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be finite and positive, got {self.c}")


FieldLike = Union[CongruenceSpec, VelocityField]


@dataclass(frozen=True, eq=False)
class KinematicSample:
    """Velocity, acceleration and vorticity data at one event.

    kinematic_sample gives one, from 5 field evaluations for a built-in
    congruence and 17 for a user field, wherever the stencil fits and
    every value in it is finite. For tt and mtt at c = 1 that ends at
    rapidity about 237, where w_ab ~ e^{3 lambda} / 8 overflows (lower for
    larger c); vorticity_scalar holds there up to about 353.
    """

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


def _field_rows(spec: FieldLike) -> Callable[[np.ndarray], np.ndarray]:
    """u^a at each row of an (n, 4) array; a user field is called per row."""
    if isinstance(spec, VelocityField):
        def u_rows(x: np.ndarray) -> np.ndarray:
            return np.array([spec.u(Event(*row)) for row in x.tolist()], dtype=float)

        return u_rows
    return partial(_u_rows, spec=spec)


def _axes(fields: Iterable[FieldLike]) -> tuple[int, ...]:
    """The axes a pass over fields is differenced along (module docstring)."""
    return _ALL_AXES if any(isinstance(f, VelocityField) for f in fields) else (RHO,)


@cache
def _offsets(axes: tuple[int, ...]) -> np.ndarray:
    """Row offsets in steps: 4 per axis, then 0 (eye * offset: others +-0.0)."""
    steps = (np.eye(4)[list(axes), None, :] * _RICHARDSON[:, None]).reshape(-1, 4)
    return np.vstack([steps, np.zeros((1, 4))])


def _step(rho: np.ndarray) -> np.ndarray:
    """The difference step at each radius: 1e-4 * max(rho, 1).

    It balances the h^4 truncation error of the Richardson-extrapolated
    difference against the eps / h rounding floor of its quotients.
    """
    return 1e-4 * np.maximum(rho, 1.0)


def _stencil(fields: Sequence[FieldLike], xs: Sequence[np.ndarray]):
    """The rows of xs[k], (n_k, 4) arrays of the field fields[k], stacked;
    the step of each; which of them have a stencil that stays off the axis
    and, for gal, inside the light cylinder; and each field's slice."""
    x = xs[0] if len(xs) == 1 else np.concatenate(xs)
    rho = x[:, 1]
    h = _step(rho)
    fits = rho - h > 0.0
    bounds, start = [], 0
    for field, part in zip(fields, xs):
        rows = slice(start, start + len(part))
        if isinstance(field, CongruenceSpec) and field.kind == GAL and field.omega > 0.0:
            fit = fits[rows]  # a view: cleared in place
            fit &= (rho[rows] + h[rows]) * field.omega < field.c
        bounds.append(rows)
        start = rows.stop
    return x, h, fits, bounds


def _guard_stencil(spec: FieldLike, x: np.ndarray) -> np.ndarray:
    """The step at each row of x, an (n, 4) array, whose stencils must fit."""
    _, h, fits, _ = _stencil([spec], [x])
    if fits.all():
        return h
    i = int(np.argmin(fits))
    r, step = float(x[i, 1]), float(h[i])
    if not r - step > 0.0:
        raise DomainError(
            f"difference stencil leaves the chart: rho = {r}, step = {step}"
        )
    raise DomainError(
        "difference stencil crosses the light cylinder: "
        f"rho + step = {r + step}, c / omega = {spec.c / spec.omega}"
    )


def _fd_matrix(fn, x: np.ndarray, h: np.ndarray,
               axes: tuple[int, ...] = _ALL_AXES) -> tuple[np.ndarray, np.ndarray]:
    """D[n, a, b] = d f_a / d x^b at each row of x, an (n, 4) coordinate array,
    and f at the rows of x.

    h holds one step per row; axes are adjacent, in increasing order. fn
    maps (m, 4) coordinates to (m, 4) values and is called once, on k + 1
    = 4 len(axes) + 1 rows per event of x in turn: its stencil (+-h and
    +-h/2 along each of axes in turn), then the event. One Richardson level
    combines the differences at h and h/2. A column b not in axes is +0.0:
    fn must not depend on x^b.
    """
    n, k = len(x), 4 * len(axes)
    # adding +-0.0 keeps the other coordinates' values (a -0.0 may turn +0.0)
    y = x[:, None, :] + h[:, None, None] * _offsets(axes)
    y[:, k] = x
    values = fn(y.reshape(-1, 4)).reshape(n, k + 1, 4)
    f = values[:, :k].reshape(n, len(axes), 4, 4)
    # the central differences at h and h / 2: 2 * (h / 2) is h exactly
    d = (f[:, :, 0::2] - f[:, :, 1::2]) / (h[:, None, None, None] * _SPANS)
    du = (4.0 * d[:, :, 1] - d[:, :, 0]) / 3.0
    if k < 16:  # +0.0 in the columns of the axes not differenced
        du, differenced = np.zeros((n, 4, 4)), du
        du[:, axes[0]:axes[-1] + 1] = differenced
    return du.transpose(0, 2, 1), values[:, k]


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DomainError("kinematics overflow: a value exceeds the float range")
    return values


def _jet(groups: Sequence[tuple[FieldLike, int]], x: np.ndarray,
         h: np.ndarray) -> _Jet:
    """u, g, u_low and the lowered Jacobian at each row of x, an (n, 4) array.

    groups holds (field, count) pairs, count > 0: the rows of x are the
    events of the first field, then those of the next, and so on. The
    fields share c. h holds one step per row; the stencils must fit (see
    _stencil), so every radius of them is positive and the metric is
    built unchecked (c is positive on every field). One call of _fd_matrix
    differences every row (_axes): the metric is evaluated once on all its
    rows, and each field once on its own slice of them. u is u_low / g_a,
    so u_low is exactly the lowered field that was differenced. Nothing is
    checked for overflow.
    """
    c = groups[0][0].c
    axes = _axes(field for field, _ in groups)
    per_event = 4 * len(axes) + 1
    slices, start = [], 0
    for field, count in groups:
        stop = start + per_event * count
        slices.append((_field_rows(field), slice(start, stop)))
        start = stop
    g = None

    def lowered(y: np.ndarray) -> np.ndarray:
        nonlocal g
        g = _metric_rows(y[:, 1], c)
        low = np.empty_like(g)
        for u_rows, rows in slices:  # each field fills its own rows
            np.multiply(g[rows], u_rows(y[rows]), out=low[rows])
        return low

    du, u_low = _fd_matrix(lowered, x, h, axes)
    # the metric at the events: the last of each event's rows
    g = g[per_event - 1::per_event]
    return _Jet(x[:, 1], c, u_low / g, g, u_low, du)


def _at(spec: FieldLike, event: Event) -> _Jet:
    x = event.coords()[None, :]
    return _jet([(spec, 1)], x, _guard_stencil(spec, x))


def _acceleration_low(jet: _Jet) -> np.ndarray:
    """The lowered acceleration u_dot_a = u^b d_b u_a - d_a g_bc u^b u^c / 2.

    The only metric derivative is d_rho g_phi = -2 rho, so the metric term
    is rho (u^phi)^2 in the rho component.
    """
    a = (jet.du @ jet.u[:, :, None])[:, :, 0]
    a[:, RHO] += jet.rho * (jet.u[:, PHI] * jet.u[:, PHI])
    return a


def _tensor_rows(jet: _Jet, a_low: np.ndarray) -> np.ndarray:
    """w = (X - X^T) / 2 with X_ab = d_b u_a - u_dot_a u_b / c^2.

    a - b is exactly -(b - a) in round-to-nearest, so w is exactly
    antisymmetric.
    """
    x = jet.du - a_low[:, :, None] * (jet.u_low / (jet.c * jet.c))[:, None, :]
    return 0.5 * (x - x.transpose(0, 2, 1))


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
    # w.w underflowed or overflowed although w fits: redo those rows scaled
    # by a power of two, which is exact. Rows of a timelike w are redone too
    # and give 0 either way; nonzero() is cheaper than any() on a few rows.
    (redo,) = ((norm < _SQRT_TINY) | (norm == np.inf)).nonzero()
    if redo.size:
        _, e = np.frexp(np.abs(w[redo]).max(axis=1))
        ws = np.ldexp(w[redo], -e[:, None])
        norm2 = -(ws * (jet.g[redo] * ws)).sum(axis=1)
        norm[redo] = np.ldexp(np.sqrt(np.maximum(norm2, 0.0)), e)
    return norm


def _quiet(fn):
    """Run fn with numpy's float warnings off; _finite checks overflow instead."""

    @wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)

    return quiet


@_quiet
def _scalar_rows(fields: Sequence[FieldLike], xs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Vorticity scalar at each row of xs[k], an (n_k, 4) coordinate array,
    for the field fields[k]; the fields share c.

    A row is nan where its stencil does not fit (off the chart, or across
    the gal light cylinder) or where a value, the scalar among them, is
    not finite. One mask over every row (_stencil) holds the rule;
    the rows that fit, of every field in turn, are differenced in passes
    of at most _PASS events, one _fd_matrix call each, in which each field
    is called once on its rows in the pass. Where every row fits, no row
    is gathered or scattered. A row's bits do not depend on its pass.
    """
    if any(field.c != fields[0].c for field in fields):
        raise ValueError("fields differenced together must share c")
    x, h, fits, bounds = _stencil(fields, xs)
    every = bool(fits.all())
    if every:
        counts = [len(part) for part in xs]
    else:
        counts = [int(np.count_nonzero(fits[rows])) for rows in bounds]
        x, h = x[fits], h[fits]
    scalar = np.empty(len(x))
    for a in range(0, len(x), _PASS):
        b = a + _PASS
        # the part inside [a, b) of each field's rows [first, first + count)
        groups, first = [], 0
        for field, count in zip(fields, counts):
            n = min(b, first + count) - max(a, first)
            if n > 0:
                groups.append((field, n))
            first += count
        jet = _jet(groups, x[a:b], h[a:b])
        w = _norm_rows(jet, _eps_contract(jet, jet.du))
        w[~(np.isfinite(w) & np.isfinite(jet.du).all(axis=(1, 2)))] = np.nan
        scalar[a:b] = w
    out = scalar
    if not every:
        out = np.full(len(fits), np.nan)
        out[fits] = scalar
    return [out[rows] for rows in bounds]


@_quiet
def vorticity_scalars(spec: FieldLike, coords: np.ndarray) -> np.ndarray:
    """Vorticity scalar at each row (t, rho, phi, z) of an (n, 4) array.

    Raises DomainError if any row's stencil leaves the chart or crosses
    the gal light cylinder (a user VelocityField has then been called on
    the rows that fit), or else if a value overflows.
    """
    x = np.asarray(coords, dtype=float).reshape(-1, 4)
    (scalar,) = _scalar_rows([spec], [x])
    if np.isnan(scalar).any():
        _guard_stencil(spec, x)
    return _finite(scalar)


def vorticity_scalar(spec: FieldLike, event: Event) -> float:
    """Magnitude sqrt(-w.w) of the (spacelike) vorticity vector."""
    return float(vorticity_scalars(spec, event.coords())[0])


@_quiet
def kinematic_sample(spec: FieldLike, event: Event) -> KinematicSample:
    """Evaluate the full kinematic state of the congruence at one event.

    One Jacobian serves every field of the sample: 5 field evaluations
    for a built-in congruence, 17 for a user VelocityField.
    """
    jet = _at(spec, event)
    a_low = _acceleration_low(jet)
    u_dot = a_low[0] / jet.g[0]
    w_ab = _tensor_rows(jet, a_low)[0]
    w_vec = _eps_contract(jet, jet.du)
    scalar = _norm_rows(jet, w_vec)
    # one check of every output but u
    _finite(np.concatenate((u_dot, w_ab.reshape(16), w_vec[0], scalar)))
    return KinematicSample(
        event=event,
        u=FourVector(jet.u[0]),
        u_dot=FourVector(u_dot),
        vorticity_tensor=w_ab,
        vorticity_vector=FourVector(w_vec[0]),
        vorticity_scalar=float(scalar[0]),
    )
