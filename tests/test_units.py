"""A change of time unit is exact in powers of two.

(omega, c) -> (2^k omega, 2^k c) at the same rho keeps the rapidity
rho omega / c, dtau/dt and every angle, and scales each rate (the
vorticity, the speed, u^phi) by 2^k. Every product and quotient of the
pipeline scales exactly wherever no value leaves the normal range, so a
correct implementation keeps the bits: either both sides mark a row (or
refuse a sample) the same way, or the scaled values are equal bit for
bit.

Domain: c and omega log-uniform in [e^-5, e^5], rapidity rho omega / c
in [1e-3, 1.6] (gal rows above 1 are light_cylinder on both sides), and
k in {-20, -8, 8, 20, 40}. Widen it as the pipeline's edges close; never
narrow it to make a draw pass.
"""

import numpy as np
import pytest

from rotframes import CongruenceSpec, DomainError, Event, kinematic_sample
from rotframes.cli import _ROWS_FROM, compute_rows

POWERS = (-20, -8, 8, 20, 40)
# columns that scale by 2^k, and columns that stay
RATES = ("omega_numeric", "omega_closed", "v")
RATIOS = ("lam", "dtau_dt", "delta_phi_prime", "thomas_net", "rel_err")


def _draw(rng):
    c, omega = np.exp(rng.uniform(-5.0, 5.0, 2))
    k = int(rng.choice(POWERS))
    return float(c), float(omega), k, 2.0**k


def _lams(rng, n):
    return rng.uniform(1e-3, 1.6, n)


def test_rows_keep_their_bits_under_a_change_of_time_unit():
    rng = np.random.default_rng(11)
    ok = 0
    # one-row tables and tables that take the array path
    for size in (1, 2, _ROWS_FROM, _ROWS_FROM + 3) * 10:
        c, omega, k, s = _draw(rng)
        rhos = (_lams(rng, size) * c / omega).tolist()
        before = compute_rows(["gal", "tt"], rhos, omega, c)
        after = compute_rows(["gal", "tt"], rhos, s * omega, s * c)
        for (kind, rows), (_, scaled) in zip(before, after):
            for row, other in zip(rows, scaled):
                where = (kind, row.rho, omega, c, k)
                assert other.status == row.status, where
                assert other.rho == row.rho, where
                if row.status != "ok":
                    continue
                ok += 1
                for name in RATES:
                    assert getattr(other, name) == s * getattr(row, name), (name, *where)
                for name in RATIOS:
                    assert getattr(other, name) == getattr(row, name), (name, *where)
    assert ok > 500


def _sample(spec, event):
    try:
        return kinematic_sample(spec, event)
    except DomainError:
        return None


@pytest.mark.parametrize("kind", ["gal", "tt"])
def test_samples_keep_their_bits_under_a_change_of_time_unit(kind):
    rng = np.random.default_rng(12 if kind == "gal" else 13)
    taken = 0
    for _ in range(200):
        c, omega, k, s = _draw(rng)
        rho = float(_lams(rng, 1)[0]) * c / omega
        t, phi, z = rng.normal(size=3).tolist()
        one = _sample(CongruenceSpec(kind, omega, c), Event(t, rho, phi, z))
        other = _sample(CongruenceSpec(kind, s * omega, s * c), Event(s * t, rho, phi, z))
        where = (rho, omega, c, k)
        assert (one is None) == (other is None), where
        if one is None:
            continue
        taken += 1
        assert other.vorticity_scalar == s * one.vorticity_scalar, where
        assert other.u.components[2] == s * one.u.components[2], where
        assert other.u.components[0] == one.u.components[0], where
    assert taken > 100  # of 200
