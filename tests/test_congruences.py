import math
import re

import numpy as np
import pytest

from rotframes import (
    CongruenceSpec,
    DegenerateError,
    DomainError,
    Event,
    LightCylinderError,
    dot,
    fixed_point_speed,
    four_velocity,
    gal_inverse,
    gal_map,
    metric_at,
    omega_closed_form,
    proper_time_rate,
    rapidity,
    revolution_period,
    tt_inverse,
    tt_map,
)


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
        assert dot(u, u, metric_at(e, spec.c)) == pytest.approx(1.0, rel=1e-12)

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
            u = four_velocity(e, spec)
            norm = dot(u, u, metric_at(e, c))
            assert norm == pytest.approx(c * c, rel=1e-12)

    def test_rows_equal_single_events_bitwise(self):
        from rotframes.congruences import _u_components, _u_rows

        rng = np.random.default_rng(43)
        coords = np.column_stack([rng.normal(size=200), rng.uniform(0.01, 40.0, 200),
                                  rng.normal(size=200), rng.normal(size=200)])
        for kind, omega in (("gal", 0.02), ("tt", 0.7), ("mtt", 3.0), ("tt", 0.0)):
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

    def test_light_cylinder_boundary_is_inclusive(self):
        spec = CongruenceSpec("gal", 1.0)
        four_velocity(Event(0.0, 0.999999, 0.0), spec)
        with pytest.raises(LightCylinderError):
            four_velocity(Event(0.0, 1.0, 0.0), spec)
        with pytest.raises(LightCylinderError):
            four_velocity(Event(0.0, 1.5, 0.0), spec)


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

    def test_rapidity_matches_definition(self):
        spec = CongruenceSpec("tt", 0.75, 1.5)
        assert rapidity(2.0, spec) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(DomainError):
            rapidity(0.0, spec)
