import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import rotframes._kernels as kernels
import rotframes.transport as transport
from _geometry import _christoffel
from rotframes import (
    CongruenceSpec,
    ConstraintDriftError,
    DomainError,
    Event,
    LightCylinderError,
    Worldline,
    compare_congruences,
    corotating_dyad,
    fw_step,
    fw_transport,
    kinematic_sample,
    measure_precession_angle,
    omega_closed_form,
    precession_per_revolution,
    proper_period,
    rapidity,
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
            numeric = kinematic_sample(spec, Event(0.0, 1.3, 0.0)).u_dot.components
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

    def test_generator_equals_the_christoffel_contraction(self):
        # the written-out entries against -Gamma^a_{bg} u^b from the full
        # connection, plus the Fermi-Walker term, bit for bit; the hand-built
        # worldline has u^rho != 0 and every component of a nonzero
        def reference(wl):
            g = metric_diag(wl.rho, wl.spec.c)
            m = -np.einsum("abg,b->ag", _christoffel(wl.rho), wl.u)
            m += (np.outer(wl.a, g * wl.u) - np.outer(wl.u, g * wl.a)) / (wl.spec.c**2)
            return m

        rng = np.random.default_rng(26)
        wls = [Worldline(CongruenceSpec("gal", 0.4, 1.3), 1.7,
                         np.array([1.6, 0.45, 0.3, -0.2]), np.array([0.1, -0.35, 0.05, 0.2]))]
        for kind in ("gal", "tt", "mtt") * 20:
            c, omega = np.exp(rng.uniform(-5.0, 5.0, 2))
            lam = rng.uniform(0.01, 0.99 if kind == "gal" else 6.0)
            wls.append(worldline(CongruenceSpec(kind, omega, c), lam * c / omega))
        for wl in wls:
            assert np.array_equal(transport_generator(wl), reference(wl))
        # 1 / rho overflows
        with pytest.raises(DomainError) as info:
            transport_generator(replace(wls[1], rho=1e-320))
        assert str(info.value) == "transport generator overflows the float range"

    @pytest.mark.parametrize("kind", ["gal", "tt"])
    def test_c_squared_past_the_float_range(self, kind):
        # c**2 overflows for c above about 1.34e154: the documented
        # DomainError, never Python's OverflowError
        for c in (1.4e154, 1e200, sys.float_info.max):
            wl = worldline(CongruenceSpec(kind, 0.5, c), 1.0)
            with pytest.raises(DomainError) as info:
                transport_generator(wl)
            assert str(info.value) == "transport generator overflows the float range"

    def test_rotation_rate_is_vorticity_plus_shear(self):
        # sqrt(-tr(M^2) / 2) is the spin's rate against a non-rotating
        # frame: the vorticity for the rigid gal congruence, and vorticity
        # plus shear, (c / rho) sinh(lam) cosh(lam), for tt; the generator
        # carries rounding eps (u^t)^2
        rng = np.random.default_rng(14)
        eps = np.finfo(float).eps
        for kind in ("gal", "tt") * 300:
            c, omega = np.exp(rng.uniform(-5.0, 5.0, 2))
            spec = CongruenceSpec(kind, omega, c)
            rho = rng.uniform(0.001, 0.999 if kind == "gal" else 6.0) * c / omega
            wl = worldline(spec, rho)
            m = transport_generator(wl)
            rate = math.sqrt(-0.5 * np.trace(m @ m))
            if kind == "gal":
                expected = omega_closed_form(rho, spec)
            else:
                lam = rapidity(rho, spec)
                expected = c / rho * math.sinh(lam) * math.cosh(lam)
            tol = 8.0 * eps * wl.u[0] ** 2 * expected
            assert abs(rate - expected) <= tol, (kind, rho, omega, c)


class TestKernels:
    def test_fw_step_matches_kernel_single_step(self):
        wl = worldline(CongruenceSpec("gal", 0.3), 1.0)
        m = transport_generator(wl)
        g = metric_diag(wl.rho, wl.spec.c)
        e_r, _ = corotating_dyad(wl)
        idx = np.array([0, 1], dtype=np.int64)
        out = kernels.fw_rk4(m, e_r.copy(), 0.01, idx, g, wl.u)[0]
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
            out = kernels.fw_rk4(m, s0, h, idx, g, wl.u)[0]
            err = np.linalg.norm(out - chain[: n + 1], axis=1).max()
            assert err <= 1e-13 * np.linalg.norm(s0)

    def test_closed_form_of_a_nilpotent_generator(self):
        # M^3 = 0 with M^2 != 0: Omega = 0 and P^n = I + n h M + (n h)^2 / 2 M^2
        # exactly, the branch no worldline of a rotating congruence reaches
        m = np.zeros((4, 4))
        m[0, 1], m[1, 2] = 0.3, -0.7
        s0 = np.array([1.0, 0.5, -0.25, 2.0])
        h = 0.01
        chain = [s0]
        for _ in range(1000):
            chain.append(fw_step(m, chain[-1], h))
        idx = np.array([0, 1, 17, 1000])
        out = kernels.fw_rk4(m, s0, h, idx, metric_diag(1.0, 1.0), np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(out[0], np.array(chain)[idx], rtol=1e-13, atol=0.0)
        assert out[3] == 0.0

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

    def test_large_generator_fits_the_identity(self):
        # at tt rapidity 50 the entries of M^3 reach about 5e192 and the
        # norm of the identity's residual overflowed, failing a correct
        # worldline; what the run gives past that check is not pinned here
        wl = worldline(CongruenceSpec("tt", 1.0), 50.0)
        try:
            fw_transport(wl, (0.0, 0.0, 0.0, 1.0), proper_period(wl.spec, 50.0), 2**53, 2)
        except ConstraintDriftError as exc:
            assert "M^3" not in str(exc)

    def test_generator_near_the_float_range(self):
        # entries near 1e154: M^2 nears the float range, and the identity is
        # checked on M scaled to entries below 1; the kernel runs under
        # fw_transport's errstate
        wl = worldline(CongruenceSpec("tt", 0.5), 1.0)
        g = metric_diag(wl.rho, wl.spec.c)
        e_r, _ = corotating_dyad(wl)
        m = transport_generator(wl) * 1e154
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            spins, ortho, norm, _ = kernels.fw_rk4(m, e_r, 1e-160, [0, 16], g, wl.u)
            assert np.isfinite(spins).all() and max(ortho, norm) <= 1e-6
            # a step far past RK4's stability bound overflows to nan
            _, ortho, norm, _ = kernels.fw_rk4(m, e_r, 1.0, [0, 16], g, wl.u)
            assert math.isnan(ortho + norm)
            with pytest.raises(ConstraintDriftError, match="M\\^3"):
                kernels.fw_rk4(m + 1e153 * np.eye(4), e_r, 1e-160, [0, 16], g, wl.u)


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

    def test_precision_bound_is_domain_error(self):
        # eps (cosh 13)^2 = 1.09e-5: Omega^2 = -tr(M^2) / 2 is not good to 1e-6
        spec = CongruenceSpec("tt", 1.0)
        with pytest.raises(DomainError,
                           match=r"eps \(u\^t\)\^2 = 1.09e-05, above 1e-06"):
            measure_precession_angle(spec, 13.0, 10**9)
        # where c * c underflows, the generator's DomainError comes without
        # a warning from the dyad
        with pytest.raises(DomainError, match="generator"):
            measure_precession_angle(CongruenceSpec("tt", 1e-200, 1e-200), 1.0, 1000)

    @pytest.mark.parametrize("lam", [10.0, 12.0, 13.0, 20.0, 50.0])
    def test_precision_rule_at_rapidity(self, lam):
        # eps (u^t)^2 is 2.7e-8 at lam = 10 and 1.5e-6, 1.1e-5, 13, 1.5e+27
        # at 12, 13, 20, 50; numpy warnings fail the test
        spec = CongruenceSpec("tt", 1.0)
        if lam == 10.0:
            angle = measure_precession_angle(spec, lam, 10**9)
            assert angle == pytest.approx(-2.0 * math.pi * math.cosh(lam), rel=1e-8)
            return
        with pytest.raises(DomainError, match=r"eps \(u\^t\)\^2 = .*, above 1e-06"):
            measure_precession_angle(spec, lam, 10**9)

    @pytest.mark.parametrize("steps", [10**3, 2**53])
    def test_angle_transports_to_the_end_only(self, monkeypatch, steps):
        # the angle is -N theta: one call hands the kernel the start and
        # the end of the revolution and nothing in between
        seen = []

        def spy(m, s0, h, record_idx, g_diag, u):
            seen.append(np.array(record_idx))
            return kernels.fw_rk4(m, s0, h, record_idx, g_diag, u)

        monkeypatch.setattr(transport, "fw_rk4", spy)
        spec = CongruenceSpec("gal", 0.5)
        angle = measure_precession_angle(spec, 1.0, steps)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], [0, steps])
        if steps == 2**53:
            assert angle == pytest.approx(-2.0 * math.pi * gamma_of(0.5), rel=1e-9)

    def test_angle_sign_comes_from_the_generator(self, monkeypatch):
        # a counter-rotating orbit (u^phi negated) turns the spin the other
        # way against the same dyad
        spec = CongruenceSpec("tt", 0.8)
        angle = measure_precession_angle(spec, 1.0, 10**5)
        forward = transport.worldline
        monkeypatch.setattr(
            transport, "worldline",
            lambda spec, rho: replace(forward(spec, rho),
                                      u=forward(spec, rho).u * [1.0, 1.0, -1.0, 1.0]))
        assert measure_precession_angle(spec, 1.0, 10**5) == -angle

    def test_transported_spin_must_agree_with_the_angle(self, monkeypatch):
        # a kernel whose step angle disagrees with its own samples
        def skewed(*args):
            *rest, theta = kernels.fw_rk4(*args)
            return (*rest, theta * (1.0 + 1e-6))

        monkeypatch.setattr(transport, "fw_rk4", skewed)
        with pytest.raises(ConstraintDriftError, match="off the RK4 angle"):
            measure_precession_angle(CongruenceSpec("gal", 0.5), 1.0, 10**5)

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

    def test_orthogonality_tolerance_scales_with_c_and_the_spin(self):
        # |S.u| is held to 1e-9 c |S|: at c = 100 and |S| = 1, an S.u of
        # 1e-8 passes and one of 1e-6 does not
        c = 100.0
        wl = worldline(CongruenceSpec("gal", 0.005, c), 1.0)
        for s_dot_u, passes in ((1e-8, True), (1e-6, False)):
            # only g_tt u^t S^t enters S.u, as u^rho = u^z = 0 and S^phi = 0
            s0 = np.array([s_dot_u / (c * c * wl.u[0]), 1.0, 0.0, 0.0])
            if passes:
                fw_transport(wl, s0, 1.0, 256)
            else:
                with pytest.raises(ConstraintDriftError, match="not orthogonal"):
                    fw_transport(wl, s0, 1.0, 256)

    def test_overflowed_samples_fail_the_drift_gate(self):
        # h Omega far past RK4's stability bound: the samples overflow to nan
        spec = CongruenceSpec("tt", 14.0)
        wl = worldline(spec, 1.0)
        e_r, _ = corotating_dyad(wl)
        with pytest.raises(ConstraintDriftError, match="nan"):
            fw_transport(wl, e_r, proper_period(spec, 1.0), steps=1649)

    def test_drift_from_generator_rounding_is_named(self):
        # at tt rapidity 12 Omega^2 carries eps (u^t)^2 = 1.5e-6 of rounding,
        # so an in-plane spin drifts past the limit at any step count
        spec = CongruenceSpec("tt", 1.0)
        wl = worldline(spec, 12.0)
        e_r, _ = corotating_dyad(wl)
        with pytest.raises(ConstraintDriftError, match="rounding") as info:
            fw_transport(wl, e_r, proper_period(spec, 12.0), steps=2**40, n_samples=2)
        assert "too few steps" not in str(info.value)

    def test_step_count_must_be_an_exact_integer(self):
        wl = worldline(CongruenceSpec("gal", 0.5), 1.0)
        e_r, _ = corotating_dyad(wl)
        for steps in (2**70, 2**53 + 1, 1000.0, 1e20, True):
            with pytest.raises(ValueError, match="steps"):
                fw_transport(wl, e_r, 1.0, steps)
        for steps in (2**53, np.int64(4096)):
            traj = fw_transport(wl, e_r, 1.0, steps, n_samples=3)
            assert traj.taus[-1] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("n_samples, message", [
        (1, "at least 2, got 1"),
        (0, "at least 2, got 0"),
        (-5, "at least 2, got -5"),
        (2.7, "an integer, got 2.7"),
        (True, "an integer, got True"),
    ])
    def test_sample_count_must_be_an_integer_of_at_least_two(self, n_samples, message):
        # one sample is the start alone, which would skip the drift gate:
        # 16 steps over 50 revolutions drift far past the limit
        spec = CongruenceSpec("tt", 0.5)
        wl = worldline(spec, 1.0)
        e_r, _ = corotating_dyad(wl)
        span = 50.0 * proper_period(spec, 1.0)
        with pytest.raises(ValueError, match=f"n_samples must be {message}$"):
            fw_transport(wl, e_r, span, 16, n_samples=n_samples)
        with pytest.raises(ConstraintDriftError, match="constraint drift .*too few steps"):
            fw_transport(wl, e_r, span, 16, n_samples=2)
        traj = fw_transport(wl, e_r, 1.0, 16, n_samples=np.int64(2))
        assert traj.taus.tolist() == [0.0, 1.0]

    def test_steps_past_the_float_range_fail_the_drift_gate(self):
        # h Omega above 1e198: the powers of h Omega in the RK4 map overflow
        # to inf, never to OverflowError
        wl = worldline(CongruenceSpec("tt", 0.5), 1.0)
        e_r, _ = corotating_dyad(wl)
        with pytest.raises(ConstraintDriftError, match="^constraint drift nan"):
            fw_transport(wl, e_r, 1e200, 16, n_samples=2)

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

    def test_fw_deviation_is_minus_shear_times_period(self):
        # the two checks meet: the spin turns at vorticity plus shear against
        # the dyad, so fw_measured - delta_phi = -sigma delta_tau, with the
        # tt shear rate sigma = (c / 2 rho)(sinh lam cosh lam - lam), which is
        # -pi (cosh lam - lam / sinh lam); gal is rigid (sigma = 0), so its
        # gap is RK4 error and rounding only. Domain: c and omega in e^+-3,
        # lam in [0.01, 6] (tt) and rho omega / c in [0.01, 0.99] (gal),
        # 100000 steps. Worst seen: 4.0e-10 (tt) and 3.8e-15 (gal) relative,
        # held to 1e-9 and 1e-13.
        rng = np.random.default_rng(14)
        for kind in ("tt", "gal") * 300:
            c, omega = np.exp(rng.uniform(-3.0, 3.0, 2))
            spec = CongruenceSpec(kind, omega, c)
            rho = rng.uniform(0.01, 6.0 if kind == "tt" else 0.99) * c / omega
            rep = precession_per_revolution(spec, rho)
            gap = measure_precession_angle(spec, rho, 100_000) - rep.delta_phi
            if kind == "tt":
                lam = rapidity(rho, spec)
                sigma = c / (2.0 * rho) * (math.sinh(lam) * math.cosh(lam) - lam)
                expected = -sigma * rep.delta_tau
                assert abs(gap - expected) <= 1e-9 * -expected, (rho, omega, c)
            else:
                assert abs(gap) <= 1e-13 * -rep.delta_phi, (rho, omega, c)

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
