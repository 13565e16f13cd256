import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rotframes import (
    CongruenceSpec,
    DegenerateError,
    DomainError,
    Event,
    LightCylinderError,
    fixed_point_speed,
    four_velocity,
    gal_inverse,
    gal_map,
    omega_closed_form,
    proper_period,
    proper_time_rate,
    rapidity,
    revolution_period,
    tt_inverse,
    tt_map,
)
from rotframes.tensors import metric_diag


PI_40 = Decimal("3.141592653589793238462643383279502884197")


def _sinh_40(x: Decimal) -> Decimal:
    """sinh(x) to 40 digits for |x| < 1, by its series."""
    term = total = x
    k = 1
    while abs(term) > abs(total) * Decimal("1e-45"):
        term *= x * x / ((k + 1) * (k + 2))
        total += term
        k += 2
    return total


def random_events(rng, n, rho_lo=0.05, rho_hi=5.0):
    for _ in range(n):
        yield Event(
            rng.normal(scale=2.0),
            rng.uniform(rho_lo, rho_hi),
            rng.normal(scale=2.0),
            rng.normal(scale=2.0),
        )


class TestGalMap:
    def test_zero_time_leaves_phi(self):
        spec = CongruenceSpec("gal", 0.5)
        out = gal_map(Event(0.0, 1.0, 0.3, 0.0), spec)
        assert (out.t, out.rho, out.phi, out.z) == (0.0, 1.0, 0.3, 0.0)

    def test_phi_advances_linearly(self):
        spec = CongruenceSpec("gal", 0.5)
        out = gal_map(Event(2.0, 1.0, 0.0, 0.0), spec)
        assert out.phi == pytest.approx(-1.0, abs=0.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(23)
        spec = CongruenceSpec("gal", 0.7, 2.0)
        for e in random_events(rng, 100):
            back = gal_inverse(gal_map(e, spec), spec)
            assert back.t == pytest.approx(e.t, rel=1e-14, abs=1e-14)
            assert back.rho == e.rho
            assert back.phi == pytest.approx(e.phi, rel=1e-14, abs=1e-13)
            assert back.z == e.z


class TestTTMap:
    def test_zero_omega_is_identity(self):
        spec = CongruenceSpec("tt", 0.0)
        e = Event(1.2, 0.7, -0.4, 3.0)
        out = tt_map(e, spec)
        assert (out.t, out.rho, out.phi, out.z) == (e.t, e.rho, e.phi, e.z)

    def test_unit_rapidity_values(self):
        # phi' = -sinh(1), t' = cosh(1) for (t, rho, phi) = (1, 1, 0), c = 1
        spec = CongruenceSpec("tt", 1.0)
        out = tt_map(Event(1.0, 1.0, 0.0, 0.0), spec)
        assert out.phi == pytest.approx(-math.sinh(1.0), rel=1e-15)
        assert out.t == pytest.approx(math.cosh(1.0), rel=1e-15)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(29)
        spec = CongruenceSpec("tt", 1.0, 1.5)
        for e in random_events(rng, 100, rho_hi=4.4):  # keeps lambda <= 3
            assert rapidity(e.rho, spec) <= 3.0
            back = tt_inverse(tt_map(e, spec), spec)
            scale = max(1.0, abs(e.t), abs(e.phi))
            assert back.t == pytest.approx(e.t, abs=1e-13 * scale)
            assert back.phi == pytest.approx(e.phi, abs=1e-13 * scale)
            assert back.rho == e.rho
            assert back.z == e.z

    def test_boost_invariant_of_the_t_phi_sector(self):
        rng = np.random.default_rng(31)
        spec = CongruenceSpec("tt", 0.8, 1.3)
        for e in random_events(rng, 200, rho_hi=3.0):
            c = spec.c
            before = (c * e.t) ** 2 - (e.rho * e.phi) ** 2
            out = tt_map(e, spec)
            after = (c * out.t) ** 2 - (out.rho * out.phi) ** 2
            scale = max(abs(before), (c * e.t) ** 2 + (e.rho * e.phi) ** 2, 1e-30)
            assert abs(after - before) / scale < 1e-12

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("rho,omega,c,t", [
        (1e-310, 1.0, 1.0, 1.0), (5e-324, 0.7, 1.0, 1.0), (5e-324, 0.4, 1.0, -2.5),
        (5e-324, 0.5, 3.0, 1.0), (2e-309, 0.9, 0.5, 3.0), (1e-310, 1e10, 1.0, 1e-5),
        (1e-300, 1.0, 1.0, 1e300), (0.5, 0.1, 1.0, 1.7e308),
    ])
    def test_phi_where_the_ordinary_form_overflows(self, rho, omega, c, t, inverse):
        # c / rho or t c / rho leaves the float range (and lam may be
        # subnormal or 0), but phi' = -t c sinh(lam) / rho, about -t omega,
        # does not
        spec = CongruenceSpec("tt", omega, c)
        out = (tt_inverse if inverse else tt_map)(Event(t, rho, 0.0, 0.0), spec)
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c) * (-1 if inverse else 1)
            expected = float(-Decimal(t) * Decimal(c) * _sinh_40(lam) / Decimal(rho))
        assert out.phi == pytest.approx(expected, rel=2e-16)
        assert (out.t, out.rho, out.z) == (t * math.cosh(rapidity(rho, spec)), rho, 0.0)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_phi_where_the_ordinary_form_overflows_keeps_phi(self, inverse):
        # as above, with phi' = phi cosh(lam) - t c sinh(lam) / rho for a
        # phi that is not 0 and a cosh(lam) that is not 1
        rho, omega, c, t, phi = 0.5, 0.1, 1.0, 1.7e308, 1e306
        spec = CongruenceSpec("tt", omega, c)
        out = (tt_inverse if inverse else tt_map)(Event(t, rho, phi, 0.0), spec)
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c) * (-1 if inverse else 1)
            sinh = _sinh_40(lam)
            expected = float(Decimal(phi) * (sinh * sinh + 1).sqrt()
                             - Decimal(t) * Decimal(c) * sinh / Decimal(rho))
        assert out.phi == pytest.approx(expected, rel=4e-16)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_t_where_the_ordinary_form_overflows_keeps_t(self, inverse):
        # as below, with the t cosh(lam) term as large as the phi term
        rho, omega, c, t, phi = 1.0, 1e-310, 1e-310, 4.0, -1e-310
        spec = CongruenceSpec("tt", omega, c)
        out = (tt_inverse if inverse else tt_map)(Event(t, rho, phi, 0.0), spec)
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c) * (-1 if inverse else 1)
            sinh = _sinh_40(lam)
            expected = float(Decimal(t) * (sinh * sinh + 1).sqrt()
                             - Decimal(phi) * Decimal(rho) / Decimal(c) * sinh)
        assert out.t == pytest.approx(expected, rel=4e-16)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("rho,omega,c,t,phi", [
        (1.0, 1e-310, 1e-310, 1.0, 1e-10), (2.0, 1e-310, 1e-310, -3.0, -1e-12),
        (1.0, 5e-324, 5e-324, 1.0, 1e-300), (4.0, 1e-310, 1e-309, 0.5, -2e-8),
        (1.0, 0.0, 1e-310, 1.0, 1e-10),
    ])
    def test_t_where_the_ordinary_form_overflows(self, rho, omega, c, t, phi, inverse):
        # rho / c leaves the float range, but t' = t cosh(lam) - phi (rho / c)
        # sinh(lam) does not
        spec = CongruenceSpec("tt", omega, c)
        out = (tt_inverse if inverse else tt_map)(Event(t, rho, phi, 0.0), spec)
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c) * (-1 if inverse else 1)
            sinh = _sinh_40(lam)
            expected = float(Decimal(t) * (sinh * sinh + 1).sqrt()
                             - Decimal(phi) * Decimal(rho) / Decimal(c) * sinh)
        assert out.t == pytest.approx(expected, rel=4e-16)
        assert math.isfinite(out.phi) and (out.rho, out.z) == (rho, 0.0)

    def test_fixed_points_move_at_stated_speed(self):
        # differentiate the inverse map along t' at constant (rho', phi')
        spec = CongruenceSpec("tt", 0.9)
        for rho in (0.3, 1.0, 2.5):
            dt = 1e-4
            plus = tt_inverse(Event(1.0 + dt, rho, 0.4, 0.0), spec)
            minus = tt_inverse(Event(1.0 - dt, rho, 0.4, 0.0), spec)
            v = rho * (plus.phi - minus.phi) / (plus.t - minus.t)
            assert v == pytest.approx(fixed_point_speed(rho, spec), abs=1e-8)


class TestFourVelocity:
    def test_gal_normalized_components(self):
        spec = CongruenceSpec("gal", 0.5)
        u = four_velocity(Event(0.0, 1.0, 0.0), spec).components
        gamma = 1.0 / math.sqrt(0.75)
        np.testing.assert_allclose(
            u, [gamma, 0.0, 0.5 * gamma, 0.0], rtol=1e-15, atol=0.0
        )

    def test_tt_unit_rapidity_components(self):
        spec = CongruenceSpec("tt", 1.0)
        e = Event(0.0, 1.0, 0.0)
        u = four_velocity(e, spec)
        np.testing.assert_allclose(
            u.components,
            [math.cosh(1.0), 0.0, math.sinh(1.0), 0.0],
            rtol=1e-15,
            atol=0.0,
        )
        g = metric_diag(e.rho, spec.c)
        assert u.components @ (g * u.components) == pytest.approx(1.0, rel=1e-12)

    def test_static_limit(self):
        for kind in ("gal", "tt", "mtt"):
            spec = CongruenceSpec(kind, 0.0)
            u = four_velocity(Event(0.0, 2.0, 1.0), spec).components
            np.testing.assert_array_equal(u, [1.0, 0.0, 0.0, 0.0])

    def test_normalization_over_random_draws(self):
        rng = np.random.default_rng(37)
        kinds = ("gal", "tt", "mtt")
        for _ in range(1000):
            kind = kinds[rng.integers(3)]
            c = rng.uniform(0.5, 3.0)
            rho = rng.uniform(0.05, 5.0)
            if kind == "gal":
                omega = rng.uniform(0.0, 0.99) * c / rho
            else:
                omega = rng.uniform(0.0, 2.0) * c / rho
            spec = CongruenceSpec(kind, omega, c)
            e = Event(rng.normal(), rho, rng.normal())
            u = four_velocity(e, spec).components
            norm = u @ (metric_diag(e.rho, c) * u)
            assert norm == pytest.approx(c * c, rel=1e-12)

    def test_rows_equal_single_events_bitwise(self):
        from rotframes.congruences import _u_components, _u_rows

        rng = np.random.default_rng(43)
        coords = np.column_stack([rng.normal(size=200), rng.uniform(0.01, 40.0, 200),
                                  rng.normal(size=200), rng.normal(size=200)])
        # omega = 1e-310: rho * omega is subnormal, and lambda takes the
        # mantissa route of _rapidity
        for kind, omega in (("gal", 0.02), ("tt", 0.7), ("mtt", 3.0), ("tt", 0.0),
                            ("tt", 1e-310)):
            spec = CongruenceSpec(kind, omega, 0.9)
            rows = _u_rows(coords, spec)
            single = [_u_components(Event(*c), spec) for c in coords.tolist()]
            assert np.array_equal(rows, np.array(single))

    def test_rows_raise_for_any_bad_row(self):
        from rotframes import vorticity_scalars
        from rotframes.congruences import _u_components, _u_rows

        # a row past the float range is non-finite and leaves the other
        # rows as they are: at rapidity 900 cosh and sinh overflow, at
        # rapidity 30 with omega = 1e300 only c / rho * sinh does
        for omega, rhos, bad in ((1.0, [1.0, 900.0], [0, 2]),
                                 (1e300, [1e-300, 3e-299], [2])):
            spec = CongruenceSpec("tt", omega)
            coords = np.array([[0.3, rhos[0], 0.2, 0.1], [0.0, rhos[1], 0.0, 0.0]])
            with np.errstate(over="ignore"):
                rows = _u_rows(coords, spec)
            assert np.isinf(rows[1, bad]).all()
            assert np.isfinite(np.delete(rows[1], bad)).all()
            assert np.array_equal(rows[0], _u_components(Event(*coords[0]), spec))
        # the kinematics still reports the overflow
        coords = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 900.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match="overflow"):
            vorticity_scalars(CongruenceSpec("tt", 1.0), coords)
        with pytest.raises(LightCylinderError):
            _u_rows(coords, CongruenceSpec("gal", 0.01))
        with pytest.raises(DomainError):
            _u_rows(-coords, CongruenceSpec("tt", 1.0))

    @pytest.mark.parametrize("kind", ["gal", "tt"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_rows_refuse_a_radius_of_zero(self, kind, zero):
        from rotframes.congruences import _u_rows

        # the axis itself, not only a negative radius, is off the chart
        coords = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, zero, 0.0, 0.0]])
        with pytest.raises(DomainError) as info:
            _u_rows(coords, CongruenceSpec(kind, 0.5))
        assert str(info.value) == f"rho must be positive, got {zero}"

    def test_light_cylinder_boundary_is_inclusive(self):
        spec = CongruenceSpec("gal", 1.0)
        four_velocity(Event(0.0, 0.999999, 0.0), spec)
        with pytest.raises(LightCylinderError):
            four_velocity(Event(0.0, 1.0, 0.0), spec)
        with pytest.raises(LightCylinderError):
            four_velocity(Event(0.0, 1.5, 0.0), spec)


def _stencil(rhos, seed=0):
    """The rows of a difference pass along every axis over events at the
    radii rhos, laid out as kinematics._fd_matrix lays them out: 17 rows
    per event."""
    from rotframes.kinematics import _ALL_AXES, _offsets, _step

    rng = np.random.default_rng(seed)
    rhos = np.asarray(rhos, dtype=float)
    x = np.column_stack([rng.normal(size=len(rhos)), rhos,
                         rng.normal(size=len(rhos)), rng.normal(size=len(rhos))])
    h = _step(rhos)
    y = x[:, None, :] + h[:, None, None] * _offsets(_ALL_AXES)
    y[:, 16] = x
    return y.reshape(-1, 4)


def _assert_rows_match_single_events(coords, spec):
    """_u_rows equals _u_components bitwise on every row where that returns,
    and is non-finite where it raises the overflow DomainError."""
    from rotframes.congruences import _u_components, _u_rows

    with np.errstate(over="ignore", invalid="ignore"):
        rows = _u_rows(coords, spec)
    overflowed = []
    for i, c in enumerate(coords.tolist()):
        try:
            single = _u_components(Event(*c), spec)
        except DomainError:
            overflowed.append(i)
            assert not np.isfinite(rows[i]).all()
            continue
        assert np.array_equal(rows[i], single), (i, c, rows[i], single)
    return rows, overflowed


class TestStencilRows:
    """_u_rows on the rows of difference passes, against _u_components."""

    @pytest.mark.parametrize("events", [1, 4, 5, 9])
    @pytest.mark.parametrize("kind,omega,c", [
        ("tt", 0.7, 0.9), ("mtt", 3.0, 1.3), ("tt", 0.0, 1.0),
        # rho * omega is subnormal: lambda takes the mantissa route
        ("tt", 1e-310, 0.9),
    ])
    def test_stencil_rows_equal_single_events_bitwise(self, events, kind, omega, c):
        rhos = np.random.default_rng(events).uniform(0.01, 40.0, events)
        _, overflowed = _assert_rows_match_single_events(
            _stencil(rhos), CongruenceSpec(kind, omega, c))
        assert overflowed == []

    def test_radii_that_recur_apart(self):
        # a radius recurs at rows that are not next to each other; each
        # row still equals _u_components of its own event bitwise
        rhos = np.tile([1.0, 2.5, 1.0, 1.0, 0.3, 2.5, 1.0], 85)
        coords = np.column_stack([np.arange(len(rhos)) * 0.1, rhos,
                                  np.zeros(len(rhos)), np.ones(len(rhos))])
        for kind, omega in (("tt", 0.8), ("mtt", 1.7)):
            _assert_rows_match_single_events(coords, CongruenceSpec(kind, omega))

    def test_overflow_fallback_sets_only_those_rows(self):
        # at omega = c = 1, cosh(lambda) overflows above lambda = 710.4759:
        # every row of the stencil at 720 does, and the rows of the stencil
        # at 710.46 with rho + h or rho + h / 2 do
        rows, overflowed = _assert_rows_match_single_events(
            _stencil([1.0, 720.0, 2.0, 710.46, 0.5, 3.0]), CongruenceSpec("tt", 1.0))
        assert overflowed == [*range(17, 34), 55, 57]
        assert np.isinf(rows[overflowed][:, [0, 2]]).all()
        assert np.isfinite(np.delete(rows, overflowed, axis=0)).all()

    def test_rho_omega_past_the_float_range(self):
        # rho * omega overflows, but lambda = 5.63 and u fit: the rows of
        # that stencil take _rapidity's mantissa route, the others keep theirs
        rho, omega, c = 1.5252990216509972e+77, 3.364998115658751e+231, 9.11131909243001e+307
        spec = CongruenceSpec("tt", omega, c)
        rows, overflowed = _assert_rows_match_single_events(
            _stencil([1.0, rho, 2.0, 3.0, 4.0]), spec)
        assert overflowed == []
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c)
            cosh = (lam.exp() + (-lam).exp()) / 2
        assert rows[33, 0] == pytest.approx(float(cosh), rel=4e-15, abs=0.0)

    def test_calls_per_event(self, monkeypatch):
        # a tt event takes 5 rows (its stencil along rho, then the event),
        # so 5 calls each of cosh and sinh, in one _scalar_rows pass; as a
        # user field, which is differenced along every axis, it takes 17
        from rotframes.kinematics import VelocityField, _scalar_rows

        calls = {"cosh": 0, "sinh": 0}

        def counted(name):
            fn = getattr(math, name)

            def call(lam):
                calls[name] += 1
                return fn(lam)

            return call

        events = 6
        x = np.zeros((events, 4))
        x[:, 1] = np.linspace(0.5, 2.0, events)
        spec = CongruenceSpec("tt", 0.6)
        seen = []

        def u_fn(e):
            seen.append(e)
            return four_velocity(e, spec).components

        monkeypatch.setattr(math, "cosh", counted("cosh"))
        monkeypatch.setattr(math, "sinh", counted("sinh"))
        _scalar_rows(spec, x)
        assert calls == {"cosh": 5 * events, "sinh": 5 * events}
        calls.update(cosh=0, sinh=0)
        _scalar_rows(VelocityField(u_fn), x)
        assert calls == {"cosh": 17 * events, "sinh": 17 * events}
        assert len(seen) == 17 * events


class TestSpeedAndTiming:
    def test_tt_speed_at_unit_rapidity(self):
        spec = CongruenceSpec("tt", 1.0)
        assert fixed_point_speed(1.0, spec) == pytest.approx(
            math.tanh(1.0), rel=1e-15
        )

    def test_tt_speed_monotone_and_below_c(self):
        spec = CongruenceSpec("tt", 1.0, c=2.0)
        rhos = np.linspace(0.1, 16.0, 400)  # rapidity up to 8
        speeds = [fixed_point_speed(r, spec) for r in rhos]
        assert all(v < spec.c for v in speeds)
        assert all(b > a for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] > 0.9999 * spec.c

    def test_gal_speed_is_rigid(self):
        spec = CongruenceSpec("gal", 0.5)
        assert fixed_point_speed(1.0, spec) == 0.5
        with pytest.raises(LightCylinderError):
            fixed_point_speed(2.0, spec)

    def test_proper_time_rates(self):
        gal = CongruenceSpec("gal", 0.5)
        assert proper_time_rate(1.0, gal) == pytest.approx(
            math.sqrt(0.75), rel=1e-15
        )
        tt = CongruenceSpec("tt", 1.0)
        assert proper_time_rate(1.0, tt) == pytest.approx(
            1.0 / math.cosh(1.0), rel=1e-15
        )
        for kind in ("gal", "tt", "mtt"):
            assert proper_time_rate(3.0, CongruenceSpec(kind, 0.0)) == 1.0

    def test_tt_and_mtt_timing_bit_identical(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            omega = rng.uniform(0.01, 2.0)
            c = rng.uniform(0.5, 3.0)
            rho = rng.uniform(0.05, 5.0)
            tt = CongruenceSpec("tt", omega, c)
            mtt = CongruenceSpec("mtt", omega, c)
            assert proper_time_rate(rho, tt) == proper_time_rate(rho, mtt)
            assert fixed_point_speed(rho, tt) == fixed_point_speed(rho, mtt)
            assert revolution_period(rho, tt) == revolution_period(rho, mtt)
            e = Event(0.0, rho, 0.0)
            assert np.array_equal(
                four_velocity(e, tt).components, four_velocity(e, mtt).components
            )

    def test_revolution_periods(self):
        gal = CongruenceSpec("gal", 0.5)
        assert revolution_period(1.0, gal) == pytest.approx(4.0 * math.pi, rel=1e-15)
        tt = CongruenceSpec("tt", 1.0)
        assert revolution_period(1.0, tt) == pytest.approx(
            2.0 * math.pi / math.tanh(1.0), rel=1e-15
        )

    def test_revolution_period_degenerate_at_zero_omega(self):
        with pytest.raises(DegenerateError):
            revolution_period(1.0, CongruenceSpec("gal", 0.0))

    def test_tt_period_is_domain_error_when_rapidity_underflows(self):
        spec = CongruenceSpec("tt", 1e-300)
        assert rapidity(1e-300, spec) == 0.0
        with pytest.raises(DomainError, match="underflows"):
            revolution_period(1e-300, spec)

    @pytest.mark.parametrize("omega", [3e-308, 1e-310, 5e-324])
    @pytest.mark.parametrize("kind", ["gal", "tt", "mtt"])
    def test_period_past_the_float_range_is_domain_error(self, kind, omega):
        # 2 pi / omega overflows below omega = 3.5e-308
        with pytest.raises(DomainError, match="float range"):
            revolution_period(1.0, CongruenceSpec(kind, omega))
        assert math.isfinite(revolution_period(1.0, CongruenceSpec(kind, 4e-308)))

    @pytest.mark.parametrize("rho,omega,c", [
        (5e-324, 1.0, 1.0), (1e-320, 1.0, 1.0), (1e-310, 1.0, 1.0), (5e-324, 1.0, 1e-300),
        (5e-324, 1e300, 1.0), (1e-310, 1e300, 1.0), (4.94e-321, 1.0, 5e-324),
        (5e-324, 1.0, 5e-324), (4.940656e-318, 1e-6, 5e-324),
        (4.940656458412465e-24, 1e-300, 5e-324), (5e-324, 1e-6, 5e-324),
        (5e-324, 1e-300, 1e-300),
    ])
    @pytest.mark.parametrize("kind", ["tt", "mtt"])
    def test_tt_period_at_subnormal_rho(self, kind, rho, omega, c):
        # 2 pi rho rounds in the subnormal range: 5e-324 gave 6.0 for 2 pi;
        # so does a subnormal speed c tanh(lam): the next three gave 2 pi
        # for 2 pi / tanh(1); the last two were refused as an underflow,
        # because rho * omega underflowed to 0
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c)
            tanh = _sinh_40(lam) / (_sinh_40(lam) ** 2 + 1).sqrt()
            expected = float(2 * PI_40 * Decimal(rho) / (Decimal(c) * tanh))
        assert revolution_period(rho, CongruenceSpec(kind, omega, c)) == pytest.approx(
            expected, rel=2e-16)

    @pytest.mark.parametrize("rho,omega,c", [
        (1e-300, 1e-300, 1e-300), (1e-6, 4e-308, 1e-6), (5e-324, 1e-6, 5e-324),
        (1e-310, 0.5, 1e-300),
    ])
    def test_rapidity_where_rho_omega_is_not_a_normal_float(self, rho, omega, c):
        # rho * omega underflowed or rounded in the subnormal range first:
        # the first point gave lambda = 0 and a vorticity of 0.0
        spec = CongruenceSpec("tt", omega, c)
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c)
            sinh = _sinh_40(lam)
            vorticity = Decimal(c) / (2 * Decimal(rho)) * (sinh * (sinh**2 + 1).sqrt() + lam)
        assert rapidity(rho, spec) == pytest.approx(float(lam), rel=2.3e-16, abs=0.0)
        assert omega_closed_form(rho, spec) == pytest.approx(float(vorticity), rel=5e-16,
                                                             abs=0.0)

    def test_rapidity_forms_a_product_of_exactly_the_smallest_normal(self):
        # rho * omega rounds to the smallest normal float: the rule takes
        # rho * omega / c there (the mantissa route would give another last
        # bit), and the rows take the same route as the single radius
        from rotframes.congruences import _rapidity_rows

        rho, c = 3e-100, 1.1
        omega = sys.float_info.min / rho
        assert rho * omega == sys.float_info.min
        lams = [rho * omega / c, 2.0 * rho * omega / c]
        assert rapidity(rho, CongruenceSpec("tt", omega, c)) == lams[0]
        assert _rapidity_rows(np.array([rho, 2.0 * rho]), rho, omega, c).tolist() == lams

    @pytest.mark.parametrize("kind", ["tt", "mtt"])
    def test_closed_forms_where_rho_omega_overflows(self, kind):
        # rho * omega overflowed: lambda was inf, the speed c, and the rate
        # and the vorticity were refused as an overflow
        rho, omega, c = 1.5252990216509972e+77, 3.364998115658751e+231, 9.11131909243001e+307
        spec = CongruenceSpec(kind, omega, c)
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c)
            cosh = (lam.exp() + (-lam).exp()) / 2
            sinh = (lam.exp() - (-lam).exp()) / 2
            expected = {
                rapidity: lam,
                fixed_point_speed: Decimal(c) * sinh / cosh,
                proper_time_rate: 1 / cosh,
                omega_closed_form: Decimal(c) / (2 * Decimal(rho)) * (sinh * cosh + lam),
                revolution_period: 2 * PI_40 * Decimal(rho) * cosh / (Decimal(c) * sinh),
                proper_period: 2 * PI_40 * Decimal(rho) / (Decimal(c) * sinh),
            }
        # 4 eps (1 + lambda): cosh and sinh of a rounded lambda
        rel = 4 * sys.float_info.epsilon * (1 + float(lam))
        for fn, value in expected.items():
            got = fn(spec, rho) if fn is proper_period else fn(rho, spec)
            assert got == pytest.approx(float(value), rel=rel, abs=0.0), fn

    @pytest.mark.parametrize("kind,rho,omega,c,rel", [
        # tt at rapidity 1: the lab period 2 pi (rho / c) / tanh(1) is
        # about 2.06e308, the proper period 1/cosh(1) of it
        ("tt", 1.2351641146031164e-16, 4e-308, 5e-324, 2.3e-16),
        # gal at rho omega / c = 0.99: 2 pi / omega is about 6.3e308; the
        # rate sqrt(1 - 0.99^2) carries 50 times the rounding of 0.99^2
        ("gal", 9.9e306, 1e-308, 0.1, 2e-14),
    ])
    def test_proper_period_where_only_the_lab_period_overflows(self, kind, rho, omega, c,
                                                               rel):
        # the proper period was refused with the lab period
        spec = CongruenceSpec(kind, omega, c)
        with pytest.raises(DomainError, match="revolution period exceeds"):
            revolution_period(rho, spec)
        with localcontext() as ctx:
            ctx.prec = 40
            if kind == "gal":
                beta = Decimal(rho) * Decimal(omega) / Decimal(c)
                expected = 2 * PI_40 * (1 - beta * beta).sqrt() / Decimal(omega)
            else:
                lam = Decimal(rho) * Decimal(omega) / Decimal(c)
                expected = 2 * PI_40 * Decimal(rho) / (Decimal(c) * _sinh_40(lam))
        assert proper_period(spec, rho) == pytest.approx(float(expected), rel=rel, abs=0.0)

    @pytest.mark.parametrize("rho,omega,c", [
        (1e308, 1e-300, 1e10), (1.5e308, 5e-301, 1e8), (9e307, 1.6e-308, 1.0),
    ])
    @pytest.mark.parametrize("kind", ["tt", "mtt"])
    def test_tt_vorticity_where_2_rho_overflows(self, kind, rho, omega, c):
        # 2 rho overflowed in c / (2 rho): the first point gave 0.0
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c)
            sinh = _sinh_40(lam)
            vorticity = Decimal(c) / (2 * Decimal(rho)) * (sinh * (sinh**2 + 1).sqrt() + lam)
        assert omega_closed_form(rho, CongruenceSpec(kind, omega, c)) == pytest.approx(
            float(vorticity), rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("rho,omega,c", [(1e308, 1e-300, 1e10), (5e307, 1e-300, 1e10)])
    @pytest.mark.parametrize("kind", ["tt", "mtt"])
    def test_tt_period_where_only_2_pi_rho_overflows(self, kind, rho, omega, c):
        # 2 pi rho overflowed: the lab period (about 6.3e300 at the first
        # point) was refused while the proper period was not
        spec = CongruenceSpec(kind, omega, c)
        with localcontext() as ctx:
            ctx.prec = 40
            lam = Decimal(rho) * Decimal(omega) / Decimal(c)
            sinh = _sinh_40(lam)
            expected = 2 * PI_40 * Decimal(rho) * (sinh**2 + 1).sqrt() / (Decimal(c) * sinh)
        period = revolution_period(rho, spec)
        assert period == pytest.approx(float(expected), rel=5e-16, abs=0.0)
        assert period * proper_time_rate(rho, spec) == proper_period(spec, rho)

    def test_tt_period_keeps_its_form_at_normal_rho(self):
        spec = CongruenceSpec("tt", 1.0)
        for rho in (sys.float_info.min, 1e-300, 1.0):
            speed = fixed_point_speed(rho, spec)
            assert revolution_period(rho, spec) == 2.0 * math.pi * rho / speed

    @pytest.mark.parametrize("rho,omega,c", [(5e-324, 0.5, 3.0), (1e-310, 1.0, 1.0)])
    def test_overflow_names_the_inputs(self, rho, omega, c):
        # lam is 0 or tiny here: c / rho is what leaves the float range
        spec = CongruenceSpec("tt", omega, c)
        cause = f"overflow at rho = {rho}, omega = {omega}, c = {c}"
        with pytest.raises(DomainError, match=re.escape(cause)):
            omega_closed_form(rho, spec)
        with pytest.raises(DomainError, match=re.escape(cause)):
            four_velocity(Event(0.0, rho, 0.0), spec)
        # and at rapidity past 710, where cosh itself overflows
        with pytest.raises(DomainError, match=re.escape("overflow at rho = 800.0")):
            proper_time_rate(800.0, CongruenceSpec("tt", 1.0))

    def test_gal_and_tt_periods_agree_in_slow_limit(self):
        # tanh(lam)/lam = 1 - lam^2/3 + O(lam^4)
        rho = 1.0
        for omega in (1e-3, 1e-4, 1e-5):
            gal = revolution_period(rho, CongruenceSpec("gal", omega))
            tt = revolution_period(rho, CongruenceSpec("tt", omega))
            ratio = gal / tt
            assert abs(ratio - 1.0) <= 0.5 * omega * omega


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CongruenceSpec("spinny", 0.5)

    def test_rejects_negative_omega_and_c(self):
        with pytest.raises(ValueError):
            CongruenceSpec("gal", -0.5)
        with pytest.raises(ValueError):
            CongruenceSpec("gal", 0.5, c=0.0)

    @pytest.mark.parametrize("omega,c", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
        (-math.inf, 1.0), (1.0, -math.inf),
    ])
    def test_rejects_non_finite_omega_and_c(self, omega, c):
        # omega = inf gave a speed of 1 and a period of 2 pi at rho = 1, and
        # c = inf a proper time rate of 1, none of them a documented limit
        with pytest.raises(ValueError, match="must be finite"):
            CongruenceSpec("tt", omega, c)

    def test_rapidity_matches_definition(self):
        spec = CongruenceSpec("tt", 0.75, 1.5)
        assert rapidity(2.0, spec) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(DomainError):
            rapidity(0.0, spec)
