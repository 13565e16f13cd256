import math
import warnings

import numpy as np
import pytest

from rotframes import (
    CongruenceSpec,
    DomainError,
    Event,
    LightCylinderError,
    VelocityField,
    acceleration,
    dot,
    four_velocity,
    kinematic_sample,
    metric_at,
    omega_closed_form,
    partial_derivatives_u,
    proper_time_rate,
    vorticity_scalar,
    vorticity_scalars,
    vorticity_tensor,
    vorticity_vector_direct,
    vorticity_vector_from_tensor,
)

T, RHO, PHI, Z = 0, 1, 2, 3


def gal_lowered_partials(rho, omega, c):
    """Analytic d_rho of the lowered gal field: u_t = c^2 gamma, u_phi = -rho^2 gamma omega."""
    beta2 = (omega * rho / c) ** 2
    gamma = 1.0 / math.sqrt(1.0 - beta2)
    dgamma = gamma**3 * omega**2 * rho / c**2
    du_t = c**2 * dgamma
    du_phi = -omega * (2.0 * rho * gamma + rho**2 * dgamma)
    return du_t, du_phi


def tt_lowered_partials(rho, omega, c):
    """Analytic d_rho of the lowered tt field: u_t = c^2 cosh, u_phi = -c rho sinh."""
    lam = rho * omega / c
    du_t = c * omega * math.sinh(lam)
    du_phi = -c * math.sinh(lam) - rho * omega * math.cosh(lam)
    return du_t, du_phi


class TestPartialDerivatives:
    def test_static_congruence_has_zero_gradient(self):
        spec = CongruenceSpec("tt", 0.0)
        du = partial_derivatives_u(spec, Event(0.0, 1.3, 0.2))
        assert np.max(np.abs(du)) < 1e-12

    def test_symmetry_kills_t_phi_z_columns(self):
        spec = CongruenceSpec("gal", 0.5)
        du = partial_derivatives_u(spec, Event(0.7, 1.0, -0.3, 2.0))
        for axis in (T, PHI, Z):
            assert np.max(np.abs(du[:, axis])) < 1e-11

    @pytest.mark.parametrize("tol", [pytest.param(1e-11, id="extrapolated-1e-11")])
    def test_gal_against_analytic_oracle(self, tol):
        rho, omega, c = 1.0, 0.5, 1.0
        spec = CongruenceSpec("gal", omega, c)
        du = partial_derivatives_u(spec, Event(0.0, rho, 0.0))
        du_t, du_phi = gal_lowered_partials(rho, omega, c)
        assert du[T, RHO] == pytest.approx(du_t, abs=tol)
        assert du[PHI, RHO] == pytest.approx(du_phi, abs=tol)

    @pytest.mark.parametrize("tol", [pytest.param(1e-11, id="extrapolated-1e-11")])
    def test_tt_against_analytic_oracle(self, tol):
        rho, omega, c = 1.4, 0.8, 1.2
        spec = CongruenceSpec("tt", omega, c)
        du = partial_derivatives_u(spec, Event(0.0, rho, 0.0))
        du_t, du_phi = tt_lowered_partials(rho, omega, c)
        assert du[T, RHO] == pytest.approx(du_t, abs=tol)
        assert du[PHI, RHO] == pytest.approx(du_phi, abs=tol)

    def test_stencil_guards(self):
        # the step is 1e-4 at both radii
        spec = CongruenceSpec("gal", 1.0)
        with pytest.raises(DomainError, match="light cylinder"):
            partial_derivatives_u(spec, Event(0.0, 0.9999999, 0.0))
        with pytest.raises(DomainError, match="chart"):
            partial_derivatives_u(CongruenceSpec("tt", 1.0), Event(0.0, 1e-7, 0.0))


class TestAcceleration:
    def test_gal_centripetal_value(self):
        # closed form: only u_dot^rho = -gamma^2 omega^2 rho = -1/3 here
        spec = CongruenceSpec("gal", 0.5)
        a = acceleration(spec, Event(0.0, 1.0, 0.0)).components
        assert a[RHO] == pytest.approx(-1.0 / 3.0, abs=1e-9)
        for idx in (T, PHI, Z):
            assert abs(a[idx]) < 1e-9

    def test_static_observer_is_geodesic(self):
        spec = CongruenceSpec("mtt", 0.0)
        a = acceleration(spec, Event(0.0, 2.0, 0.0)).components
        assert np.max(np.abs(a)) < 1e-12

    def test_orthogonal_to_velocity(self):
        spec = CongruenceSpec("tt", 1.0)
        e = Event(0.0, 1.0, 0.0)
        a = acceleration(spec, e)
        u = four_velocity(e, spec)
        assert abs(dot(a, u, metric_at(e, spec.c))) < 1e-9


class TestVorticityTensor:
    def test_static_congruence_zero(self):
        w = vorticity_tensor(CongruenceSpec("gal", 0.0), Event(0.0, 1.0, 0.0))
        assert np.max(np.abs(w)) < 1e-12

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            kind = ("gal", "tt", "mtt")[rng.integers(3)]
            rho = rng.uniform(0.3, 2.0)
            omega = rng.uniform(0.05, 0.45)
            w = vorticity_tensor(CongruenceSpec(kind, omega), Event(0.0, rho, 0.0))
            assert np.array_equal(w, -w.T)
            assert np.all(np.diag(w) == 0.0)

    def test_gal_nonzero_structure(self):
        # Stationarity and axisymmetry confine the tensor to the (t, rho)
        # and (rho, phi) slots; the z row/column and (t, phi) vanish.
        spec = CongruenceSpec("gal", 0.5)
        w = vorticity_tensor(spec, Event(0.0, 1.0, 0.0))
        assert np.max(np.abs(w[Z, :])) < 1e-11
        assert np.max(np.abs(w[:, Z])) < 1e-11
        assert abs(w[T, PHI]) < 1e-11
        assert abs(w[RHO, PHI]) > 0.1
        # hand-derived closed forms at c = 1:
        # w_tr = gamma^3 omega^2 rho and w_rp = gamma^3 omega rho
        gamma = 1.0 / math.sqrt(0.75)
        assert w[T, RHO] == pytest.approx(gamma**3 * 0.5**2, abs=1e-10)
        assert w[RHO, PHI] == pytest.approx(gamma**3 * 0.5, abs=1e-10)

    def test_u_in_kernel_of_tensor(self):
        for kind, omega in (("gal", 0.5), ("tt", 1.0)):
            spec = CongruenceSpec(kind, omega)
            e = Event(0.0, 1.0, 0.0)
            w = vorticity_tensor(spec, e)
            u = four_velocity(e, spec).components
            assert np.max(np.abs(w @ u)) < 1e-9


class TestVorticityVector:
    def test_static_congruence_zero(self):
        for fn in (vorticity_vector_direct, vorticity_vector_from_tensor):
            w = fn(CongruenceSpec("tt", 0.0), Event(0.0, 1.0, 0.0)).components
            assert np.max(np.abs(w)) < 1e-12

    def test_gal_axis_aligned_with_known_magnitude(self):
        spec = CongruenceSpec("gal", 0.5)
        e = Event(0.0, 1.0, 0.0)
        w = vorticity_vector_direct(spec, e).components
        for idx in (T, RHO, PHI):
            assert abs(w[idx]) < 1e-10
        # sqrt(-w.w) = omega / (1 - omega^2 rho^2 / c^2) = 2/3
        assert abs(w[Z]) == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_tt_magnitude_at_unit_rapidity(self):
        spec = CongruenceSpec("tt", 1.0)
        e = Event(0.0, 1.0, 0.0)
        w = vorticity_vector_direct(spec, e)
        mag = math.sqrt(-dot(w, w, metric_at(e, spec.c)))
        expected = 0.5 * (math.sinh(1.0) * math.cosh(1.0) + 1.0)
        assert mag == pytest.approx(expected, rel=1e-10)

    def test_routes_agree_on_random_samples(self):
        rng = np.random.default_rng(13)
        kinds = ("gal", "tt", "mtt")
        for _ in range(200):
            kind = kinds[rng.integers(3)]
            c = rng.uniform(0.6, 2.0)
            rho = rng.uniform(0.2, 3.0)
            omega = rng.uniform(0.05, 0.9) * (c / rho if kind == "gal" else 1.0)
            spec = CongruenceSpec(kind, omega, c)
            e = Event(rng.normal(), rho, rng.normal())
            direct = vorticity_vector_direct(spec, e).components
            via_tensor = vorticity_vector_from_tensor(spec, e).components
            assert np.max(np.abs(direct - via_tensor)) < 1e-8

    @pytest.mark.parametrize("kind", ["gal", "tt", "mtt"])
    def test_routes_and_closed_form_on_rho_omega_grid(self, kind):
        # 20 x 20 grid in (rho, omega); the gal grid keeps rho omega / c
        # at or below 0.95
        omegas = np.linspace(0.05, 1.0, 20)
        worst_route = worst_closed = 0.0
        for omega in omegas:
            spec = CongruenceSpec(kind, float(omega))
            if kind == "gal":
                rhos = np.linspace(0.05, 0.95, 20) / omega
            else:
                rhos = np.linspace(0.1, 3.0, 20)
            for rho in rhos:
                e = Event(0.0, float(rho), 0.0)
                direct = vorticity_vector_direct(spec, e).components
                via = vorticity_vector_from_tensor(spec, e).components
                worst_route = max(worst_route, float(np.max(np.abs(direct - via))))
                num = vorticity_scalar(spec, e)
                closed = omega_closed_form(float(rho), spec)
                worst_closed = max(worst_closed, abs(num - closed) / closed)
        assert worst_route < 1e-8
        assert worst_closed < 1e-8

    def test_routes_agree_near_light_cylinder(self):
        spec = CongruenceSpec("gal", 0.5)
        e = Event(0.0, 1.9, 0.0)  # rho omega / c = 0.95
        direct = vorticity_vector_direct(spec, e).components
        via_tensor = vorticity_vector_from_tensor(spec, e).components
        assert np.max(np.abs(direct - via_tensor)) < 1e-6

    def test_orthogonal_to_velocity(self):
        for kind, omega in (("gal", 0.4), ("tt", 1.2), ("mtt", 0.8)):
            spec = CongruenceSpec(kind, omega)
            e = Event(0.0, 1.1, 0.3)
            w = vorticity_vector_direct(spec, e)
            u = four_velocity(e, spec)
            m = metric_at(e, spec.c)
            wn = math.sqrt(abs(dot(w, w, m)))
            un = math.sqrt(abs(dot(u, u, m)))
            assert abs(dot(w, u, m)) <= 1e-9 * max(wn * un, 1.0)


class TestVorticityScalar:
    @pytest.mark.parametrize("kind", ["gal", "tt", "mtt"])
    @pytest.mark.parametrize("omega", [0.1, 0.5])
    def test_matches_closed_form_on_grid(self, kind, omega):
        c = 1.0
        if kind == "gal":
            grid = np.linspace(0.05, 0.95, 20) * c / omega
        else:
            grid = np.linspace(0.1, 3.0, 20)
        spec = CongruenceSpec(kind, omega, c)
        for rho in grid:
            num = vorticity_scalar(spec, Event(0.0, float(rho), 0.0))
            closed = omega_closed_form(float(rho), spec)
            assert abs(num - closed) / closed < 1e-8

    def test_known_values(self):
        assert vorticity_scalar(
            CongruenceSpec("gal", 0.5), Event(0.0, 1.0, 0.0)
        ) == pytest.approx(2.0 / 3.0, rel=1e-8)
        assert vorticity_scalar(
            CongruenceSpec("tt", 1.0), Event(0.0, 1.0, 0.0)
        ) == pytest.approx(0.5 * (math.sinh(1.0) * math.cosh(1.0) + 1.0), rel=1e-8)

    def test_static_zero(self):
        for kind in ("gal", "tt", "mtt"):
            assert vorticity_scalar(
                CongruenceSpec(kind, 0.0), Event(0.0, 1.0, 0.0)
            ) < 1e-12

    def test_slow_rotation_limit(self):
        # sinh cosh + lam = 2 lam + O(lam^3), so Omega -> omega either way
        for kind in ("gal", "tt"):
            for lam in (1e-3, 1e-4):
                spec = CongruenceSpec(kind, lam)  # rho = 1, c = 1
                ratio = omega_closed_form(1.0, spec) / spec.omega
                assert abs(ratio - 1.0) < 1e-5

    def test_halving_step_is_stable(self):
        from rotframes.kinematics import _eps_contract, _jet, _norm_rows

        spec = CongruenceSpec("tt", 0.7)
        x = np.array([[0.0, 1.3, 0.0, 0.0]])

        def scalar(h):
            jet = _jet(spec, x, np.array([h]))
            return float(_norm_rows(jet, _eps_contract(jet, jet.du))[0])

        coarse, fine = scalar(2e-4), scalar(1e-4)
        assert abs(coarse - fine) / fine < 1e-9


class TestClosedForm:
    def test_values(self):
        assert omega_closed_form(1.0, CongruenceSpec("gal", 0.5)) == pytest.approx(
            2.0 / 3.0, rel=1e-15
        )
        assert omega_closed_form(1.0, CongruenceSpec("tt", 1.0)) == pytest.approx(
            0.5 * (math.sinh(1.0) * math.cosh(1.0) + 1.0), rel=1e-15
        )

    def test_gal_horizon(self):
        with pytest.raises(LightCylinderError):
            omega_closed_form(2.0, CongruenceSpec("gal", 0.5))

    def test_definitions_diverge_at_moderate_rapidity(self):
        # at lam = 0.5 the gal and tt scalars differ by well over 1%
        gal = omega_closed_form(1.0, CongruenceSpec("gal", 0.5))
        tt = omega_closed_form(1.0, CongruenceSpec("tt", 0.5))
        assert abs(tt - gal) / gal > 0.01


class TestUserSuppliedField:
    def test_matches_builtin_congruence(self):
        omega, c = 0.5, 1.0

        def u_fn(e):
            gamma = 1.0 / math.sqrt(1.0 - (omega * e.rho / c) ** 2)
            return np.array([gamma, 0.0, gamma * omega, 0.0])

        field = VelocityField(u_fn, c)
        builtin = CongruenceSpec("gal", omega, c)
        e = Event(0.0, 1.2, 0.4)
        np.testing.assert_allclose(
            vorticity_vector_direct(field, e).components,
            vorticity_vector_direct(builtin, e).components,
            rtol=0.0,
            atol=1e-12,
        )
        assert vorticity_scalar(field, e) == pytest.approx(
            omega_closed_form(1.2, builtin), rel=1e-8
        )


class TestKinematicSample:
    def test_internally_consistent(self):
        spec = CongruenceSpec("tt", 1.0)
        e = Event(0.0, 1.0, 0.0)
        s = kinematic_sample(spec, e)
        m = metric_at(e, spec.c)
        assert dot(s.u, s.u, m) == pytest.approx(1.0, rel=1e-12)
        assert abs(dot(s.u_dot, s.u, m)) < 1e-9
        assert np.array_equal(s.vorticity_tensor, -s.vorticity_tensor.T)
        assert s.vorticity_scalar == pytest.approx(
            math.sqrt(-dot(s.vorticity_vector, s.vorticity_vector, m)), rel=1e-10
        )
        assert s.vorticity_scalar == pytest.approx(
            omega_closed_form(1.0, spec), rel=1e-8
        )


def _events(seed, count, kinds=("gal", "tt", "mtt")):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        c = rng.uniform(0.6, 2.0)
        rho = rng.uniform(0.2, 3.0)
        omega = rng.uniform(0.05, 0.9) * (c / rho if kind == "gal" else 1.0)
        yield CongruenceSpec(kind, omega, c), Event(rng.normal(), rho, rng.normal())


def _user(spec):
    return VelocityField(lambda e: four_velocity(e, spec).components, spec.c)


class TestOneJacobian:
    def test_user_field_called_17_times_per_sample(self):
        calls = []
        spec = CongruenceSpec("tt", 0.7)

        def u_fn(e):
            calls.append(e)
            return four_velocity(e, spec).components

        kinematic_sample(VelocityField(u_fn), Event(0.3, 1.1, -0.2))
        assert len(calls) == 17

    def test_sample_matches_the_single_quantity_functions(self):
        for i, (spec, e) in enumerate(_events(29, 40)):
            field = _user(spec) if i % 2 else spec
            s = kinematic_sample(field, e)
            for got, ref in (
                (s.u_dot.components, acceleration(field, e).components),
                (s.vorticity_tensor, vorticity_tensor(field, e)),
                (s.vorticity_vector.components,
                 vorticity_vector_direct(field, e).components),
            ):
                np.testing.assert_allclose(got, ref, rtol=0.0,
                                           atol=1e-12 * max(1.0, np.max(np.abs(ref))))
            assert s.vorticity_scalar == pytest.approx(vorticity_scalar(field, e),
                                                       rel=1e-12)

    @pytest.mark.parametrize("tol", [pytest.param(1e-9, id="extrapolated")])
    def test_product_rule_matches_differencing_u_up(self, tol):
        # reference: difference the contravariant field itself
        from rotframes.kinematics import (
            _at,
            _contravariant_jacobian,
            _fd_matrix,
            _field_rows,
            _step,
        )

        for spec, e in _events(31, 30):
            jet = _at(spec, e)
            u_rows, _ = _field_rows(spec)
            x = e.coords()[None, :]
            ref, _ = _fd_matrix(u_rows, x, _step(x[:, 1]))
            ref = ref[0]
            scale = max(1.0, float(np.max(np.abs(ref))))
            np.testing.assert_allclose(_contravariant_jacobian(jet)[0], ref,
                                       rtol=0.0, atol=tol * scale)

    def test_batch_rows_equal_single_events_bitwise(self):
        for kind in ("gal", "tt", "mtt"):
            spec = CongruenceSpec(kind, 0.45, 1.1)
            rng = np.random.default_rng(41)
            coords = np.column_stack([
                rng.normal(size=25), rng.uniform(0.05, 2.4, 25),
                rng.normal(size=25), rng.normal(size=25),
            ])
            for field in (spec, _user(spec)):
                batch = vorticity_scalars(field, coords)
                single = [vorticity_scalar(field, Event(*r)) for r in coords.tolist()]
                assert batch.tolist() == single

    def test_batch_raises_for_any_bad_row(self):
        spec = CongruenceSpec("gal", 0.5)
        with pytest.raises(DomainError, match="light cylinder"):
            vorticity_scalars(spec, [[0.0, 1.0, 0.0, 0.0], [0.0, 1.99995, 0.0, 0.0]])
        with pytest.raises(DomainError, match="chart"):
            vorticity_scalars(spec, [[0.0, 1e-5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        assert vorticity_scalars(spec, np.zeros((0, 4))).shape == (0,)


class TestScalarRows:
    """kinematics._scalar_rows, the batch routine behind the CLI tables."""

    @pytest.fixture
    def jacobians(self, monkeypatch):
        from rotframes import kinematics

        sizes = []
        real = kinematics._fd_matrix

        def counted(fn, x, h):
            sizes.append(len(x))
            return real(fn, x, h)

        monkeypatch.setattr(kinematics, "_fd_matrix", counted)
        return sizes

    def test_bad_rows_are_nan_and_the_rest_one_batch(self, jacobians):
        from rotframes.kinematics import _scalar_rows

        # tt: stencil off the chart, fits, scalar past the float range,
        # u past the float range, fits
        spec = CongruenceSpec("tt", 1.0)
        x = np.zeros((5, 4))
        x[:, 1] = [1e-5, 1.0, 400.0, 900.0, 2.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _scalar_rows(spec, x)
        assert jacobians == [4]
        assert np.isnan(out[[0, 2, 3]]).all()
        assert out[[1, 4]].tolist() == vorticity_scalars(spec, x[[1, 4]]).tolist()
        # gal at c / omega = 2: fits, stencil across the light cylinder,
        # on it, past it
        jacobians.clear()
        spec = CongruenceSpec("gal", 0.5)
        x[:4, 1] = [1.0, 1.99995, 2.0, 3.0]
        out = _scalar_rows(spec, x[:4])
        assert jacobians == [1]
        assert np.isnan(out[1:]).all()
        assert out[0] == vorticity_scalar(spec, Event(0.0, 1.0, 0.0))
        # no row fits: the field is not evaluated
        jacobians.clear()
        assert np.isnan(_scalar_rows(spec, x[1:4])).all()
        assert _scalar_rows(spec, np.zeros((0, 4))).shape == (0,)
        assert jacobians == []

    def test_overflowing_cli_row_takes_one_jacobian(self, jacobians):
        from rotframes.cli import compute_row

        # c^2 overflows the metric; this row was differenced three times
        row = compute_row("tt", 5.550993789130864e87, 4.01386935375306e-185,
                          8.55311998774621e197)
        assert row.status == "domain_error"
        assert jacobians == [1]


class TestOverflow:
    @pytest.mark.parametrize("lam", [400.0, 800.0])
    def test_domain_error_without_warnings(self, lam):
        spec = CongruenceSpec("tt", 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                omega_closed_form(lam, spec)
            with pytest.raises(DomainError):
                vorticity_scalar(spec, Event(0.0, lam, 0.0))
            with pytest.raises(DomainError):
                kinematic_sample(spec, Event(0.0, lam, 0.0))
            if lam > 710.0:
                with pytest.raises(DomainError):
                    four_velocity(Event(0.0, lam, 0.0), spec)
                with pytest.raises(DomainError):
                    proper_time_rate(lam, spec)
            else:
                assert proper_time_rate(lam, spec) > 0.0

    def test_scalar_holds_until_the_closed_form_overflows(self):
        # w.w would overflow from rapidity ~177; the norm is scaled exactly
        spec = CongruenceSpec("tt", 1.0)
        for lam in (150.0, 250.0, 350.0):
            num = vorticity_scalar(spec, Event(0.0, lam, 0.0))
            assert num == pytest.approx(omega_closed_form(lam, spec), rel=1e-7)
