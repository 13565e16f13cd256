"""Flat-spacetime tensor algebra in cylindrical coordinates.

Coordinates are ordered (t, rho, phi, z), indices 0..3. The metric is
diag(c^2, -1, -rho^2, -1), signature (+, -, -, -), so timelike squared
norms are positive and a normalized four-velocity satisfies u.u = c^2.
The chart degenerates on the axis; every event must carry rho > 0.
Orientation is fixed by eps(t, rho, phi, z) = +1.

A FourVector holds contravariant components v^a, and metric_diag is the
only metric: the inner product of a and b at radius rho is
a @ (metric_diag(rho, c) * b), and lowering an index is g * v.

Everything in this module is a pure function of its arguments and safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError

T, RHO, PHI, Z = 0, 1, 2, 3


def _permutation_symbol() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4), dtype=np.int8)
    for perm in permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        eps[perm] = -1 if inversions % 2 else 1
    return eps


#: Rank-4 permutation symbol with LEVI_CIVITA[0, 1, 2, 3] = +1.
LEVI_CIVITA = _permutation_symbol()
LEVI_CIVITA.setflags(write=False)


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, rho, phi, z) with rho strictly off the axis."""

    t: float
    rho: float
    phi: float
    z: float = 0.0

    def __post_init__(self):
        if not self.rho > 0.0:
            raise DomainError(f"rho must be positive, got {self.rho}")

    def coords(self) -> np.ndarray:
        return np.array([self.t, self.rho, self.phi, self.z])


@dataclass(frozen=True, eq=False)
class FourVector:
    """Contravariant components v^a of a four-vector in the (t, rho, phi, z) basis."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float)
        if arr.shape != (4,):
            raise ValueError("FourVector needs exactly 4 components")
        object.__setattr__(self, "components", arr)


def metric_diag(rho, c: float) -> np.ndarray:
    """Diagonal (g_tt, g_rr, g_pp, g_zz) of the metric at radius rho.

    rho may also be an array of radii; the result then has one row of
    four per radius.
    """
    if not c > 0.0:
        raise DomainError(f"c must be positive, got {c}")
    r = np.asarray(rho, dtype=float)
    positive = r > 0.0
    if not positive.all():
        # name one radius: an array's repr can span lines
        raise DomainError(f"rho must be positive, got {r[~positive][0]}")
    return _metric_rows(r, c)


def _metric_rows(r: np.ndarray, c: float) -> np.ndarray:
    """metric_diag at the radii of the float array r, unchecked: for callers
    that have already kept every radius positive and c positive."""
    g = np.empty(r.shape + (4,))
    g[...] = (c * c, -1.0, 0.0, -1.0)
    g[..., 2] = -(r * r)
    return g

