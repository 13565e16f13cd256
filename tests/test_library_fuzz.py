"""Seeded draws over the public library functions, inside and outside the domain.

Every call either returns finite numbers or raises a RotframesError or a
ValueError; numpy warnings are errors here, as in the whole suite.
"""

import math
import warnings

import numpy as np
import pytest

from rotframes import (
    KINDS,
    CongruenceSpec,
    Event,
    RotframesError,
    compare_congruences,
    four_velocity,
    gal_inverse,
    gal_map,
    kinematic_sample,
    measure_precession_angle,
    precession_per_revolution,
    tt_inverse,
    tt_map,
    vorticity_scalars,
)

SEED = 20062
DRAWS = 1000
# subnormal, tiny, near-overflow and largest doubles
EDGES = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e200, 1e300,
         1.7976931348623157e308]
# transport runs on every MEASURE_EVERY-th draw, with one of these step counts
MEASURE_EVERY = 8
STEPS = [16, 1000, 100_000, 10**9]


def _positive(rng):
    if rng.random() < 0.2:
        return float(rng.choice(EDGES))
    return float(10.0 ** rng.uniform(-9.0, 9.0))


def _signed(rng):
    return float(rng.choice([-1.0, 1.0])) * _positive(rng) if rng.random() < 0.9 else 0.0


def _finite(value) -> bool:
    return bool(np.isfinite(np.asarray(value, dtype=float)).all())


def _calls(rng, spec, rho, event, draw):
    """(name, thunk, finite-check) for every function under test at one draw."""
    coords = np.array([event.coords(),
                       [event.t, _positive(rng), event.phi, event.z]])
    calls = [
        ("vorticity_scalars", lambda: vorticity_scalars(spec, coords), _finite),
        ("kinematic_sample", lambda: kinematic_sample(spec, event),
         lambda s: all(_finite(v) for v in (
             s.u.components, s.u_dot.components, s.vorticity_tensor,
             s.vorticity_vector.components, s.vorticity_scalar))),
        ("precession_per_revolution", lambda: precession_per_revolution(spec, rho),
         lambda r: _finite([r.vorticity, r.delta_tau, r.delta_phi, r.net_angle])),
        ("compare_congruences", lambda: compare_congruences(rho, spec.omega, spec.c),
         lambda reports: all(
             _finite([r.vorticity, r.delta_tau, r.delta_phi, r.net_angle])
             for r in reports if r.status == "ok")),
        ("four_velocity", lambda: four_velocity(event, spec),
         lambda u: _finite(u.components)),
    ]
    for fn in (gal_map, gal_inverse, tt_map, tt_inverse):
        calls.append((fn.__name__, lambda fn=fn: fn(event, spec),
                      lambda e: _finite(e.coords())))
    if draw % MEASURE_EVERY == 0:
        steps = int(rng.choice(STEPS))
        calls.append(("measure_precession_angle",
                      lambda: measure_precession_angle(spec, rho, steps), _finite))
    return calls


def test_every_call_returns_finite_values_or_a_library_error():
    rng = np.random.default_rng(SEED)
    outcomes = {"ok": 0, "error": 0}
    for draw in range(DRAWS):
        spec = CongruenceSpec(str(rng.choice(KINDS)), _positive(rng),
                              _positive(rng) if rng.random() < 0.5 else 1.0)
        rho = _positive(rng)
        event = Event(_signed(rng), rho, _signed(rng), _signed(rng))
        for name, call, finite in _calls(rng, spec, rho, event, draw):
            where = f"{name} at draw {draw}: {spec}, {event}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = call()
                except (RotframesError, ValueError):
                    outcomes["error"] += 1
                    continue
            assert finite(result), where
            outcomes["ok"] += 1
    # the draws land on both sides of the domain's edges
    assert min(outcomes.values()) > DRAWS


@pytest.mark.parametrize("omega, t", [(1e308, 1e10), (1e308, -1e10)])
def test_gal_maps_raise_where_phi_overflows(omega, t):
    # phi - omega t was -inf (or inf) with no error
    spec = CongruenceSpec("gal", omega)
    for fn in (gal_map, gal_inverse):
        with pytest.raises(RotframesError, match="overflow mapping t = "):
            fn(Event(t, 1.0, 0.0), spec)
    assert math.isfinite(gal_map(Event(1.0, 1.0, 0.0), spec).phi)
