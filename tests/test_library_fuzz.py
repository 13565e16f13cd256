"""Seeded draws over the public library functions, inside and outside the domain.

Every call either returns finite numbers or raises a RotframesError or a
ValueError; numpy warnings are errors here, as in the whole suite.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from rotframes import (
    KINDS,
    CongruenceSpec,
    DomainError,
    Event,
    RotframesError,
    VelocityField,
    compare_congruences,
    fixed_point_speed,
    four_velocity,
    fw_transport,
    gal_inverse,
    gal_map,
    kinematic_sample,
    measure_precession_angle,
    omega_closed_form,
    precession_per_revolution,
    proper_period,
    proper_time_rate,
    revolution_period,
    tt_inverse,
    tt_map,
    vorticity_scalars,
    worldline,
)
from rotframes.transport import SELF_CHECK_TOL

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
    # the same congruence as a user field, through the generic path
    user = VelocityField(lambda e: four_velocity(e, spec).components, spec.c)
    calls = []
    for field, prefix in ((spec, ""), (user, "user field ")):
        calls += [
            (prefix + "vorticity_scalars",
             lambda field=field: vorticity_scalars(field, coords), _finite),
            (prefix + "kinematic_sample",
             lambda field=field: kinematic_sample(field, event),
             lambda s: all(_finite(v) for v in (
                 s.u.components, s.u_dot.components, s.vorticity_tensor,
                 s.vorticity_vector.components, s.vorticity_scalar))),
        ]
    calls += [
        ("precession_per_revolution", lambda: precession_per_revolution(spec, rho),
         lambda r: _finite([r.vorticity, r.delta_tau, r.delta_phi, r.net_angle])),
        ("compare_congruences", lambda: compare_congruences(rho, spec.omega, spec.c),
         lambda reports: all(
             _finite([r.vorticity, r.delta_tau, r.delta_phi, r.net_angle])
             for r in reports if r.status == "ok")),
        ("four_velocity", lambda: four_velocity(event, spec),
         lambda u: _finite(u.components)),
        ("worldline", lambda: worldline(spec, rho),
         lambda wl: _finite(wl.u) and _finite(wl.a)),
    ]
    for fn in (fixed_point_speed, proper_time_rate, revolution_period,
               omega_closed_form):
        calls.append((fn.__name__, lambda fn=fn: fn(rho, spec), _finite))
    calls.append(("proper_period", lambda: proper_period(spec, rho), _finite))
    for fn in (gal_map, gal_inverse, tt_map, tt_inverse):
        calls.append((fn.__name__, lambda fn=fn: fn(event, spec),
                      lambda e: _finite(e.coords())))
    if draw % MEASURE_EVERY == 0:
        steps = int(rng.choice(STEPS))
        calls.append(("measure_precession_angle",
                      lambda: measure_precession_angle(spec, rho, steps), _finite))
        # a caller's spin: any mix of the radial and z legs is orthogonal to u
        spin = np.array([0.0, _signed(rng), 0.0, _signed(rng)])
        span, samples = _positive(rng), int(rng.choice([2, 3, 1025]))
        calls.append(("fw_transport",
                      lambda: fw_transport(worldline(spec, rho), spin, span, steps, samples),
                      lambda tr: all(_finite(v) for v in (
                          tr.taus, tr.spins, tr.max_drift, tr.generator, tr.step_angle))))
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


def test_measured_angle_across_the_precision_rule():
    # tt rapidity up to 15 crosses eps (u^t)^2 = SELF_CHECK_TOL at 11.8:
    # past it every call is a DomainError, before it an angle or an error
    rng = np.random.default_rng(SEED + 1)
    outcomes = {"angle": 0, "refused": 0, "other": 0}
    for draw in range(200):
        lam = float(rng.uniform(0.0, 15.0))
        c = _positive(rng) if rng.random() < 0.5 else 1.0
        omega = float(10.0 ** rng.uniform(-3.0, 3.0)) * c
        if not omega > 0.0:
            continue
        steps = int(rng.choice([16, 1000, 100_000, 10**7, 10**9, 2**53]))
        # CongruenceSpec refuses an omega past the float range; steps is
        # drawn before that skip so that the later draws keep their values
        if omega == math.inf:
            continue
        spec = CongruenceSpec("tt", omega, c)
        rho = lam * c / omega
        where = f"draw {draw}: {spec}, rho = {rho}, steps = {steps}"
        try:
            u_t = worldline(spec, rho).u[0]
        except RotframesError:
            continue
        imprecise = sys.float_info.epsilon * u_t * u_t > SELF_CHECK_TOL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                angle = measure_precession_angle(spec, rho, steps)
            except DomainError as exc:
                # the generator's own float-range error may come first
                assert ("above 1e-06" in str(exc)) <= imprecise, where
                outcomes["refused" if imprecise else "other"] += 1
                continue
            except (RotframesError, ValueError):
                assert not imprecise, where
                outcomes["other"] += 1
                continue
        assert not imprecise and math.isfinite(angle), where
        assert angle < 0.0, where
        outcomes["angle"] += 1
    assert min(outcomes.values()) > 10, outcomes
