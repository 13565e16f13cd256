import math
from dataclasses import replace

import numpy as np
import pytest

import rotframes._kernels as kernels
from rotframes import (
    CongruenceSpec,
    ConstraintDriftError,
    DomainError,
    Event,
    LightCylinderError,
    acceleration,
    compare_congruences,
    corotating_dyad,
    dot,
    fw_step,
    fw_transport,
    measure_precession_angle,
    metric_at,
    precession_per_revolution,
    proper_period,
    worldline,
)
from rotframes.tensors import metric_diag
from rotframes.transport import transport_generator


def gamma_of(beta):
    return 1.0 / math.sqrt(1.0 - beta * beta)


class TestWorldline:
    def test_gal_rates_and_acceleration(self):
        wl = worldline(CongruenceSpec("gal", 0.5), 1.0)
        # dphi/dt = u^phi / u^t and sqrt(-a.a) = -a^rho at rho = 1
        assert wl.u[2] / wl.u[0] == pytest.approx(0.5, rel=1e-15)
        g = gamma_of(0.5)
        assert -wl.a[1] == pytest.approx(g * g * 0.25, rel=1e-14)
        np.testing.assert_array_equal(wl.a[[0, 2, 3]], 0.0)
        # u constant in the rotating basis: coordinate components are fixed
        np.testing.assert_allclose(wl.u, [g, 0.0, 0.5 * g, 0.0], rtol=1e-15)

    def test_tt_angular_rate(self):
        wl = worldline(CongruenceSpec("tt", 1.0), 1.0)
        assert wl.u[2] / wl.u[0] == pytest.approx(math.tanh(1.0), rel=1e-14)

    def test_static_worldline_has_no_acceleration(self):
        wl = worldline(CongruenceSpec("tt", 0.0), 2.0)
        assert np.all(wl.a == 0.0)
        np.testing.assert_array_equal(wl.u, [1.0, 0.0, 0.0, 0.0])

    def test_closed_form_acceleration_matches_pipeline(self):
        for kind, omega in (("gal", 0.5), ("tt", 1.0)):
            spec = CongruenceSpec(kind, omega)
            wl = worldline(spec, 1.3)
            numeric = acceleration(spec, Event(0.0, 1.3, 0.0)).components
            np.testing.assert_allclose(wl.a, numeric, atol=1e-9)

    def test_light_cylinder_guard(self):
        with pytest.raises(LightCylinderError):
            worldline(CongruenceSpec("gal", 1.0), 1.0)


class TestDyadAndGenerator:
    @pytest.mark.parametrize("kind,omega,c", [("gal", 0.5, 1.0), ("tt", 1.2, 2.0)])
    def test_dyad_is_orthonormal_and_orthogonal_to_u(self, kind, omega, c):
        wl = worldline(CongruenceSpec(kind, omega, c), 1.4)
        e_r, e_p = corotating_dyad(wl)
        g = metric_diag(1.4, c)
        assert float(e_r @ (g * e_r)) == pytest.approx(-1.0, rel=1e-14)
        assert float(e_p @ (g * e_p)) == pytest.approx(-1.0, rel=1e-13)
        assert abs(float(e_r @ (g * e_p))) < 1e-14
        assert abs(float(wl.u @ (g * e_r))) < 1e-13
        assert abs(float(wl.u @ (g * e_p))) < 1e-13

    def test_generator_is_metric_antisymmetric(self):
        # g M must be antisymmetric so that S.S and S.u are conserved, and
        # M u = 0 makes M a rotation generator: M^3 = -Omega^2 M
        for kind, omega, c, rho in (
            ("tt", 0.9, 1.3, 1.1),
            ("gal", 0.5, 1.0, 1.0),
            ("gal", 0.999, 1.0, 1.0),
            ("tt", 3.0, 1.0, 1.0),
            ("tt", 1e-6, 1.0, 1e-3),
        ):
            wl = worldline(CongruenceSpec(kind, omega, c), rho)
            m = transport_generator(wl)
            g = np.diag(metric_diag(wl.rho, wl.spec.c))
            gm = g @ m
            assert np.max(np.abs(gm + gm.T)) < 1e-13
            omega2 = -0.5 * np.trace(m @ m)
            resid = np.linalg.norm(m @ m @ m + omega2 * m)
            assert resid <= 1e-14 * np.linalg.norm(m) ** 3


class TestKernels:
    def test_fw_step_matches_kernel_single_step(self):
        wl = worldline(CongruenceSpec("gal", 0.3), 1.0)
        m = transport_generator(wl)
        g = metric_diag(wl.rho, wl.spec.c)
        e_r, _ = corotating_dyad(wl)
        idx = np.array([0, 1], dtype=np.int64)
        out, _, _ = kernels.fw_rk4(m, e_r.copy(), 0.01, idx, g, wl.u)
        np.testing.assert_allclose(
            out[1], fw_step(m, e_r.copy(), 0.01), rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize(
        "kind,omega", [("gal", 0.5), ("tt", 1.0), ("gal", 1e-6), ("tt", 0.0)]
    )
    def test_closed_form_matches_chained_steps(self, kind, omega):
        # the closed-form power of the RK4 map against N explicit steps
        wl = worldline(CongruenceSpec(kind, omega), 1.0)
        m = transport_generator(wl)
        g = metric_diag(wl.rho, wl.spec.c)
        e_r, e_p = corotating_dyad(wl)
        s0 = e_r + 0.3 * e_p
        h = (proper_period(wl.spec, 1.0) if omega > 0.0 else 10.0) / 1000
        chain = [s0]
        for _ in range(4096):
            chain.append(fw_step(m, chain[-1], h))
        chain = np.array(chain)
        for n in (1, 17, 1000, 4096):
            idx = np.arange(n + 1, dtype=np.int64)
            out, _, _ = kernels.fw_rk4(m, s0, h, idx, g, wl.u)
            err = np.linalg.norm(out - chain[: n + 1], axis=1).max()
            assert err <= 1e-13 * np.linalg.norm(s0)

    def test_wrong_acceleration_is_rejected(self):
        # hand-built worldlines whose a does not fit the orbit: a boost-
        # dominated generator breaks the closed form's identity, a milder
        # one keeps it but moves S off u
        wl = worldline(CongruenceSpec("gal", 0.5), 1.0)
        g = metric_diag(wl.rho, wl.spec.c)
        e_r, _ = corotating_dyad(wl)
        m = transport_generator(replace(wl, a=4.0 * wl.a))
        with pytest.raises(ConstraintDriftError, match="M\\^3"):
            kernels.fw_rk4(m, e_r, 0.01, np.arange(3), g, wl.u)
        with pytest.raises(ConstraintDriftError, match="drift"):
            fw_transport(replace(wl, a=0.5 * wl.a), e_r, 1.0, 1000)


class TestTransport:
    def test_static_worldline_spin_is_constant(self):
        wl = worldline(CongruenceSpec("gal", 0.0), 1.0)
        e_r, _ = corotating_dyad(wl)
        traj = fw_transport(wl, e_r, tau_span=10.0, steps=256)
        np.testing.assert_allclose(traj.spins[-1], traj.spins[0], atol=1e-14)

    def test_gal_revolution_reproduces_minus_two_pi_gamma(self):
        spec = CongruenceSpec("gal", 0.5)
        angle = measure_precession_angle(spec, 1.0, steps=10_000)
        assert angle == pytest.approx(-2.0 * math.pi * gamma_of(0.5), abs=1e-8)

    def test_tt_revolution_reproduces_circular_thomas_angle(self):
        # dyad-referenced angle for any circular orbit of speed v is
        # -2 pi gamma(v); for tt, gamma(v) = cosh(lambda)
        spec = CongruenceSpec("tt", 1.0)
        angle = measure_precession_angle(spec, 1.0, steps=20_000)
        assert angle == pytest.approx(-2.0 * math.pi * math.cosh(1.0), abs=1e-8)

    @pytest.mark.parametrize("kind, rho, steps, rel", [
        ("tt", 8.0, 10**7, 1e-9),
        # the generator's rate Omega^2 = -tr(M^2) / 2 sums terms (u^t)^2
        # times larger, so it is good to about eps (u^t)^2 = 1.4e-8 here
        ("tt", 10.0, 10**7, 1e-8),
        ("gal", 0.9999999, 10**9, 1e-9),
    ])
    def test_angle_does_not_alias_at_high_u_t(self, kind, rho, steps, rel):
        # the spin turns 2 pi u^t per revolution; with 2049 samples at any
        # u^t, np.unwrap folded it once u^t passed about 512
        spec = CongruenceSpec(kind, 1.0)
        exact = -2.0 * math.pi * worldline(spec, rho).u[0]
        angle = measure_precession_angle(spec, rho, steps)
        assert angle == pytest.approx(exact, rel=rel)

    def test_sample_bound_is_domain_error(self):
        # u^t = cosh 13 needs 8 u^t + 1 = 1769655 samples
        spec = CongruenceSpec("tt", 1.0)
        with pytest.raises(DomainError, match="takes 1769655 spin samples, more than"):
            measure_precession_angle(spec, 13.0, 10**9)
        # where c * c underflows, the generator's DomainError comes without
        # a warning from the dyad
        with pytest.raises(DomainError, match="generator"):
            measure_precession_angle(CongruenceSpec("tt", 1e-200, 1e-200), 1.0, 1000)

    def test_constraints_preserved_over_revolution(self):
        spec = CongruenceSpec("gal", 0.6)
        wl = worldline(spec, 1.2)
        e_r, e_p = corotating_dyad(wl)
        s0 = (e_r + 0.5 * e_p) / math.sqrt(1.25)
        g = metric_diag(wl.rho, spec.c)
        traj = fw_transport(wl, s0, proper_period(spec, 1.2), steps=100_000)
        assert traj.max_drift <= 1e-9
        norm0 = float(s0 @ (g * s0))
        norm1 = float(traj.spins[-1] @ (g * traj.spins[-1]))
        assert abs(norm1 - norm0) / abs(norm0) <= 1e-9

    def test_convergence_order_is_fourth(self):
        spec = CongruenceSpec("gal", 0.5)
        exact = -2.0 * math.pi * gamma_of(0.5)
        ns = [400, 800, 1600]
        errs = [abs(measure_precession_angle(spec, 1.0, n) - exact) for n in ns]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(ns) - 1)]
        for p in orders:
            assert 3.7 <= p <= 4.3

    def test_drift_error_on_too_few_steps(self):
        spec = CongruenceSpec("gal", 0.9)
        wl = worldline(spec, 1.0)
        e_r, _ = corotating_dyad(wl)
        with pytest.raises(ConstraintDriftError):
            fw_transport(wl, e_r, 3.0 * proper_period(spec, 1.0), steps=16)

    def test_rejects_non_orthogonal_or_timelike_spin(self):
        wl = worldline(CongruenceSpec("gal", 0.5), 1.0)
        with pytest.raises(ConstraintDriftError):
            fw_transport(wl, np.array([0.3, 1.0, 0.0, 0.0]), 1.0, 256)
        with pytest.raises(ValueError):
            fw_transport(wl, wl.u.copy(), 1.0, 256)
        with pytest.raises(ValueError):
            e_r, _ = corotating_dyad(wl)
            fw_transport(wl, e_r, 1.0, steps=8)

    def test_overflowed_samples_fail_the_drift_gate(self):
        # h Omega far past RK4's stability bound: the samples overflow to nan
        spec = CongruenceSpec("tt", 14.0)
        wl = worldline(spec, 1.0)
        e_r, _ = corotating_dyad(wl)
        with pytest.raises(ConstraintDriftError, match="nan"):
            fw_transport(wl, e_r, proper_period(spec, 1.0), steps=1649)

    def test_step_count_must_be_an_exact_integer(self):
        wl = worldline(CongruenceSpec("gal", 0.5), 1.0)
        e_r, _ = corotating_dyad(wl)
        for steps in (2**70, 2**53 + 1, 1000.0, 1e20, True):
            with pytest.raises(ValueError, match="steps"):
                fw_transport(wl, e_r, 1.0, steps)
        for steps in (2**53, np.int64(4096)):
            traj = fw_transport(wl, e_r, 1.0, steps, n_samples=3)
            assert traj.taus[-1] == pytest.approx(1.0, rel=1e-15)

    def test_trajectory_states_carry_events(self):
        # one sample per recorded step, the last one at the end of the span
        spec = CongruenceSpec("tt", 0.5)
        wl = worldline(spec, 1.0)
        e_r, _ = corotating_dyad(wl)
        traj = fw_transport(wl, e_r, 1.0, 64, n_samples=5)
        assert traj.taus[0] == 0.0
        assert traj.taus[-1] == pytest.approx(1.0, rel=1e-12)
        assert traj.spins.shape == (5, 4)
        np.testing.assert_array_equal(traj.spins[0], e_r)


class TestPrecessionReports:
    def test_gal_closed_form_composition(self):
        rep = precession_per_revolution(CongruenceSpec("gal", 0.5), 1.0)
        g = gamma_of(0.5)
        assert rep.delta_tau == pytest.approx(4.0 * math.pi / g, rel=1e-12)
        assert rep.delta_phi == pytest.approx(-2.0 * math.pi * g, rel=1e-12)
        assert rep.net_angle == pytest.approx(2.0 * math.pi * (1.0 - g), rel=1e-10)
        assert rep.delta_phi == -rep.vorticity * rep.delta_tau

    def test_tt_closed_form_composition(self):
        rep = precession_per_revolution(CongruenceSpec("tt", 1.0), 1.0)
        assert rep.delta_tau == pytest.approx(
            2.0 * math.pi / math.sinh(1.0), rel=1e-12
        )
        assert rep.delta_phi == pytest.approx(
            -math.pi * (math.cosh(1.0) + 1.0 / math.sinh(1.0)), rel=1e-12
        )

    def test_fw_check_attached_and_consistent_for_gal(self):
        # the integrator angle, measured apart from the closed-form report
        spec = CongruenceSpec("gal", 0.5)
        rep = precession_per_revolution(spec, 1.0)
        fw_angle = measure_precession_angle(spec, 1.0, 20_000)
        assert fw_angle == pytest.approx(rep.delta_phi, abs=1e-7)

    def test_newtonian_limit(self):
        for kind in ("gal", "tt", "mtt"):
            rep = precession_per_revolution(CongruenceSpec(kind, 1e-6), 1.0)
            assert rep.delta_phi == pytest.approx(-2.0 * math.pi, abs=1e-9)
            assert abs(rep.net_angle) < 1e-9

    def test_period_past_the_float_range_is_domain_error(self):
        # 2 pi / omega overflows: delta_phi and net_angle were -inf
        for kind in ("gal", "tt", "mtt"):
            spec = CongruenceSpec(kind, 3e-308)
            with pytest.raises(DomainError, match="float range"):
                precession_per_revolution(spec, 1.0)
            with pytest.raises(DomainError, match="float range"):
                proper_period(spec, 1.0)

    def test_classic_thomas_small_speed_expansion(self):
        # net angle 2 pi (1 - gamma) ~ -pi beta^2 for slow rigid rotation
        for beta in (0.05, 0.1):
            rep = precession_per_revolution(CongruenceSpec("gal", beta), 1.0)
            leading = -math.pi * beta * beta
            assert abs(rep.net_angle - leading) / abs(leading) < 0.05


class TestCompare:
    def test_three_way_values(self):
        gal, tt, mtt = compare_congruences(1.0, 0.5)
        assert gal.vorticity == pytest.approx(2.0 / 3.0, rel=1e-12)
        expected_tt = 0.5 * (math.sinh(0.5) * math.cosh(0.5) + 0.5)
        assert tt.vorticity == pytest.approx(expected_tt, rel=1e-12)
        assert (gal.kind, tt.kind, mtt.kind) == ("gal", "tt", "mtt")

    def test_tt_and_mtt_identical_numeric_fields(self):
        _, tt, mtt = compare_congruences(1.3, 0.7, c=1.1)
        assert tt.vorticity == mtt.vorticity
        assert tt.delta_tau == mtt.delta_tau
        assert tt.delta_phi == mtt.delta_phi
        assert tt.net_angle == mtt.net_angle

    def test_horizon_marker_at_light_cylinder(self):
        gal, tt, mtt = compare_congruences(1.0, 1.0)
        assert gal.status == "light_cylinder"
        assert math.isnan(gal.vorticity)
        assert tt.status == "ok"
        assert tt.vorticity == pytest.approx(
            0.5 * (math.sinh(1.0) * math.cosh(1.0) + 1.0), rel=1e-12
        )
        assert mtt.vorticity == tt.vorticity

    def test_slow_rotation_convergence(self):
        gal, tt, mtt = compare_congruences(1.0, 1e-6)
        assert gal.vorticity == pytest.approx(tt.vorticity, rel=1e-9)
        assert tt.vorticity == mtt.vorticity
