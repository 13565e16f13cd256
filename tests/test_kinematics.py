import math
import warnings

import numpy as np
import pytest

from _geometry import _christoffel
from rotframes import (
    CongruenceSpec,
    DomainError,
    Event,
    KinematicSample,
    LightCylinderError,
    VelocityField,
    four_velocity,
    kinematic_sample,
    omega_closed_form,
    proper_time_rate,
    vorticity_scalar,
    vorticity_scalars,
)
from rotframes.kinematics import _acceleration_low, _at, _eps_contract, _tensor_rows
from rotframes.tensors import metric_diag

T, RHO, PHI, Z = 0, 1, 2, 3


def vorticity_routes(field, e):
    """The vorticity vector two ways from one Jacobian: contracting the comma
    derivatives directly, and contracting the vorticity tensor."""
    jet = _at(field, e)
    via_tensor = _eps_contract(jet, _tensor_rows(jet, _acceleration_low(jet)))
    return _eps_contract(jet, jet.du)[0], via_tensor[0]


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
        du = _at(spec, Event(0.0, 1.3, 0.2)).du[0]
        assert np.max(np.abs(du)) < 1e-12

    def test_symmetry_kills_t_phi_z_columns(self):
        spec = CongruenceSpec("gal", 0.5)
        du = _at(spec, Event(0.7, 1.0, -0.3, 2.0)).du[0]
        for axis in (T, PHI, Z):
            assert np.max(np.abs(du[:, axis])) < 1e-11

    @pytest.mark.parametrize("tol", [pytest.param(1e-11, id="extrapolated-1e-11")])
    def test_gal_against_analytic_oracle(self, tol):
        rho, omega, c = 1.0, 0.5, 1.0
        spec = CongruenceSpec("gal", omega, c)
        du = _at(spec, Event(0.0, rho, 0.0)).du[0]
        du_t, du_phi = gal_lowered_partials(rho, omega, c)
        assert du[T, RHO] == pytest.approx(du_t, abs=tol)
        assert du[PHI, RHO] == pytest.approx(du_phi, abs=tol)

    @pytest.mark.parametrize("tol", [pytest.param(1e-11, id="extrapolated-1e-11")])
    def test_tt_against_analytic_oracle(self, tol):
        rho, omega, c = 1.4, 0.8, 1.2
        spec = CongruenceSpec("tt", omega, c)
        du = _at(spec, Event(0.0, rho, 0.0)).du[0]
        du_t, du_phi = tt_lowered_partials(rho, omega, c)
        assert du[T, RHO] == pytest.approx(du_t, abs=tol)
        assert du[PHI, RHO] == pytest.approx(du_phi, abs=tol)

    def test_stencil_guards(self):
        # the step is 1e-4 at both radii
        spec = CongruenceSpec("gal", 1.0)
        with pytest.raises(DomainError, match="light cylinder"):
            _at(spec, Event(0.0, 0.9999999, 0.0))
        with pytest.raises(DomainError, match="chart"):
            _at(CongruenceSpec("tt", 1.0), Event(0.0, 1e-7, 0.0))

    def test_light_cylinder_message_names_the_stencil_edge(self):
        # the step is 1e-4 rho; the edge rho + step passes c / omega = 2
        with pytest.raises(DomainError) as info:
            vorticity_scalar(CongruenceSpec("gal", 0.5), Event(0.0, 1.9999, 0.0))
        assert str(info.value) == ("difference stencil crosses the light cylinder: "
                                   "rho + step = 2.00009999, c / omega = 2.0")


class TestAcceleration:
    def test_gal_centripetal_value(self):
        # closed form: only u_dot^rho = -gamma^2 omega^2 rho = -1/3 here
        spec = CongruenceSpec("gal", 0.5)
        a = kinematic_sample(spec, Event(0.0, 1.0, 0.0)).u_dot.components
        assert a[RHO] == pytest.approx(-1.0 / 3.0, abs=1e-9)
        for idx in (T, PHI, Z):
            assert abs(a[idx]) < 1e-9

    def test_static_observer_is_geodesic(self):
        spec = CongruenceSpec("mtt", 0.0)
        a = kinematic_sample(spec, Event(0.0, 2.0, 0.0)).u_dot.components
        assert np.max(np.abs(a)) < 1e-12

    def test_orthogonal_to_velocity(self):
        spec = CongruenceSpec("tt", 1.0)
        e = Event(0.0, 1.0, 0.0)
        a = kinematic_sample(spec, e).u_dot.components
        u = four_velocity(e, spec).components
        assert abs(a @ (metric_diag(e.rho, spec.c) * u)) < 1e-9


class TestVorticityTensor:
    def test_static_congruence_zero(self):
        s = kinematic_sample(CongruenceSpec("gal", 0.0), Event(0.0, 1.0, 0.0))
        w = s.vorticity_tensor
        assert np.max(np.abs(w)) < 1e-12

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            kind = ("gal", "tt", "mtt")[rng.integers(3)]
            rho = rng.uniform(0.3, 2.0)
            omega = rng.uniform(0.05, 0.45)
            w = kinematic_sample(CongruenceSpec(kind, omega),
                                 Event(0.0, rho, 0.0)).vorticity_tensor
            assert np.array_equal(w, -w.T)
            assert np.all(np.diag(w) == 0.0)

    def test_gal_nonzero_structure(self):
        # Stationarity and axisymmetry confine the tensor to the (t, rho)
        # and (rho, phi) slots; the z row/column and (t, phi) vanish.
        spec = CongruenceSpec("gal", 0.5)
        w = kinematic_sample(spec, Event(0.0, 1.0, 0.0)).vorticity_tensor
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
            w = kinematic_sample(spec, e).vorticity_tensor
            u = four_velocity(e, spec).components
            assert np.max(np.abs(w @ u)) < 1e-9


class TestVorticityVector:
    def test_static_congruence_zero(self):
        for w in vorticity_routes(CongruenceSpec("tt", 0.0), Event(0.0, 1.0, 0.0)):
            assert np.max(np.abs(w)) < 1e-12

    def test_gal_axis_aligned_with_known_magnitude(self):
        spec = CongruenceSpec("gal", 0.5)
        e = Event(0.0, 1.0, 0.0)
        w = kinematic_sample(spec, e).vorticity_vector.components
        for idx in (T, RHO, PHI):
            assert abs(w[idx]) < 1e-10
        # sqrt(-w.w) = omega / (1 - omega^2 rho^2 / c^2) = 2/3
        assert abs(w[Z]) == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_tt_magnitude_at_unit_rapidity(self):
        spec = CongruenceSpec("tt", 1.0)
        e = Event(0.0, 1.0, 0.0)
        w = kinematic_sample(spec, e).vorticity_vector.components
        mag = math.sqrt(-(w @ (metric_diag(e.rho, spec.c) * w)))
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
            direct, via_tensor = vorticity_routes(spec, e)
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
                direct, via = vorticity_routes(spec, e)
                worst_route = max(worst_route, float(np.max(np.abs(direct - via))))
                num = vorticity_scalar(spec, e)
                closed = omega_closed_form(float(rho), spec)
                worst_closed = max(worst_closed, abs(num - closed) / closed)
        assert worst_route < 1e-8
        assert worst_closed < 1e-8

    def test_routes_agree_near_light_cylinder(self):
        spec = CongruenceSpec("gal", 0.5)
        e = Event(0.0, 1.9, 0.0)  # rho omega / c = 0.95
        direct, via_tensor = vorticity_routes(spec, e)
        assert np.max(np.abs(direct - via_tensor)) < 1e-6

    def test_orthogonal_to_velocity(self):
        for kind, omega in (("gal", 0.4), ("tt", 1.2), ("mtt", 0.8)):
            spec = CongruenceSpec(kind, omega)
            e = Event(0.0, 1.1, 0.3)
            w = kinematic_sample(spec, e).vorticity_vector.components
            u = four_velocity(e, spec).components
            g = metric_diag(e.rho, spec.c)
            wn = math.sqrt(abs(w @ (g * w)))
            un = math.sqrt(abs(u @ (g * u)))
            assert abs(w @ (g * u)) <= 1e-9 * max(wn * un, 1.0)


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
            jet = _jet([(spec, 1)], x, np.array([h]))
            return float(_norm_rows(jet, _eps_contract(jet, jet.du))[0])

        coarse, fine = scalar(2e-4), scalar(1e-4)
        assert abs(coarse - fine) / fine < 1e-9


class TestClosedForm:
    def test_values(self):
        assert omega_closed_form(1.0, CongruenceSpec("gal", 0.5)) == pytest.approx(
            2.0 / 3.0, rel=1e-15, abs=0.0
        )
        assert omega_closed_form(1.0, CongruenceSpec("tt", 1.0)) == pytest.approx(
            0.5 * (math.sinh(1.0) * math.cosh(1.0) + 1.0), rel=1e-15, abs=0.0
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
            kinematic_sample(field, e).vorticity_vector.components,
            kinematic_sample(builtin, e).vorticity_vector.components,
            rtol=0.0,
            atol=1e-12,
        )
        assert vorticity_scalar(field, e) == pytest.approx(
            omega_closed_form(1.2, builtin), rel=1e-8
        )

    @pytest.mark.parametrize("c", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_rejects_c_that_is_not_finite_and_positive(self, c):
        # these built fine and failed only at first use: DomainError from the
        # metric ("c must be positive"), or "kinematics overflow" at inf
        calls = []
        with pytest.raises(ValueError, match="c must be finite and positive"):
            VelocityField(calls.append, c)
        assert calls == []


class TestKinematicSample:
    def test_internally_consistent(self):
        spec = CongruenceSpec("tt", 1.0)
        e = Event(0.0, 1.0, 0.0)
        s = kinematic_sample(spec, e)
        g = metric_diag(e.rho, spec.c)
        u, w = s.u.components, s.vorticity_vector.components
        assert u @ (g * u) == pytest.approx(1.0, rel=1e-12)
        assert abs(s.u_dot.components @ (g * u)) < 1e-9
        assert np.array_equal(s.vorticity_tensor, -s.vorticity_tensor.T)
        assert s.vorticity_scalar == pytest.approx(
            math.sqrt(-(w @ (g * w))), rel=1e-10
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


def _drifting(seed, count):
    """User fields with u^rho != 0 that depend on every coordinate, at
    seeded events. The built-in congruences all have u^rho = 0, which hides
    the d_rho column of the Jacobian from the acceleration."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = rng.uniform(0.6, 2.0)
        a, b, k = rng.uniform(-0.5, 0.5, 3)

        def u_fn(e, a=a, b=b, k=k, c=c):
            u_rho = a * math.sin(e.phi) + 0.1 * e.t + k * e.z
            u_phi = b / e.rho + 0.2 * math.cos(e.phi + e.z)
            u_z = 0.3 * math.sin(e.t) * e.rho
            u_t = math.sqrt(1.0 + (u_rho**2 + (e.rho * u_phi) ** 2 + u_z**2) / c**2)
            return np.array([u_t, u_rho, u_phi, u_z])

        yield VelocityField(u_fn, c), Event(rng.normal(), rng.uniform(0.2, 3.0),
                                            rng.normal(), rng.normal())


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
            assert s.vorticity_scalar == pytest.approx(vorticity_scalar(field, e),
                                                       rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tol", [pytest.param(1e-9, id="extrapolated")])
    def test_acceleration_matches_differencing_u_up(self, tol):
        # reference: u^b d_b u^a, differencing the contravariant field
        # itself, plus the connection terms
        from rotframes.kinematics import _fd_matrix, _field_rows, _step

        for field, e in [*_events(31, 30), *_drifting(37, 10)]:
            jet = _at(field, e)
            x = e.coords()[None, :]
            d_up, _ = _fd_matrix(_field_rows(field), x, _step(x[:, 1]))
            u = jet.u[0]
            ref = d_up[0] @ u + np.einsum("abg,b,g->a", _christoffel(e.rho), u, u)
            scale = max(1.0, float(np.max(np.abs(ref))))
            np.testing.assert_allclose((_acceleration_low(jet) / jet.g)[0], ref,
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

    def test_stencils_that_end_exactly_on_the_axis_or_the_cylinder(self):
        from rotframes.cli import compute_rows

        # rho = 1e-4 is the step, so the stencil's inner point is the axis;
        # at 1.9998000199980002, (rho + step) * omega is c exactly
        edge = 1.9998000199980002
        assert (edge + 1e-4 * edge) * 0.5 == 1.0
        for kind, rho, where in (("tt", 1e-4, "chart"), ("gal", 1e-4, "chart"),
                                 ("gal", edge, "light cylinder")):
            spec = CongruenceSpec(kind, 0.5)
            with pytest.raises(DomainError, match=where):
                vorticity_scalars(spec, [[0.0, rho, 0.0, 0.0]])
            with pytest.raises(DomainError, match=where):
                kinematic_sample(spec, Event(0.0, rho, 0.0))
        statuses = [[row.status for row in rows]
                    for _, rows in compute_rows(["gal", "tt"], [1e-4, edge], 0.5, 1.0)]
        assert statuses == [["domain_error", "domain_error"], ["domain_error", "ok"]]

    def test_one_stencil_per_call_where_every_row_fits(self, monkeypatch):
        from rotframes import kinematics

        calls = []
        real = kinematics._stencil

        def spy(fields, xs):
            calls.append(len(fields))
            return real(fields, xs)

        monkeypatch.setattr(kinematics, "_stencil", spy)
        spec = CongruenceSpec("gal", 0.5)
        coords = [[0.0, 0.5, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]]
        for field in (spec, _user(spec)):
            calls.clear()
            vorticity_scalars(field, coords)
            vorticity_scalar(field, Event(0.0, 1.0, 0.0, 0.0))
            assert calls == [1, 1]
        # a row that does not fit: the stencil is built again to name it
        calls.clear()
        with pytest.raises(DomainError, match="light cylinder"):
            vorticity_scalars(spec, [[0.0, 1.99995, 0.0, 0.0]])
        assert calls == [1, 1]

    def test_user_field_runs_on_the_rows_that_fit_before_the_stencil_error(self):
        spec = CongruenceSpec("tt", 0.5)
        seen = []

        def u(e):
            seen.append(e.rho)
            return four_velocity(e, spec).components

        with pytest.raises(DomainError, match="chart"):
            vorticity_scalars(VelocityField(u), [[0.0, 1e-5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        # the one row that fits, differenced along every axis: 17 evaluations
        assert len(seen) == 17 and min(seen) > 0.99


class TestGeometry:
    """The explicit metric terms against the Christoffel-symbol formulas."""

    @staticmethod
    def _christoffel_forms(jet):
        """u_dot^a and w_ab by contracting the full connection at one event."""
        gam = _christoffel(jet.rho[0])
        u, g, u_low, du = jet.u[0], jet.g[0], jet.u_low[0], jet.du[0]
        # d_b u^a by the product rule, with d_rho g_phi = -2 rho
        d_up = du.copy()
        d_up[PHI, RHO] += 2.0 * jet.rho[0] * u[PHI]
        d_up /= g[:, None]
        u_dot = d_up @ u + np.einsum("abg,b,g->a", gam, u, u)
        cd = du - np.einsum("sab,s->ab", gam, u_low)
        outer = np.outer(g * u_dot, u_low)
        w = 0.5 * (cd - cd.T) - 0.5 * (outer - outer.T) / (jet.c * jet.c)
        return u_dot, w

    def test_matches_the_christoffel_contractions(self):
        draws = [(_user(spec) if i % 3 == 2 else spec, e)
                 for i, (spec, e) in enumerate(_events(43, 60))]
        for field, e in [*draws, *_drifting(47, 20)]:
            u_dot, w = self._christoffel_forms(_at(field, e))
            s = kinematic_sample(field, e)
            for got, ref in ((s.u_dot.components, u_dot), (s.vorticity_tensor, w)):
                np.testing.assert_allclose(got, ref, rtol=0.0,
                                           atol=1e-12 * max(1.0, np.max(np.abs(ref))))
            direct, via_tensor = vorticity_routes(field, e)
            assert np.max(np.abs(direct - via_tensor)) < 1e-8


class TestStencil:
    """The rows _fd_matrix hands to the field, bit for bit."""

    @staticmethod
    def _layout(x, h, axes=(T, RHO, PHI, Z)):
        # +-h, then +-h/2, along each axis in turn, then the event itself
        offsets = h[:, None] * np.array([1.0, -1.0, 0.5, -0.5])
        stencil = (x[:, None, None, :] + np.eye(4)[None, list(axes), None, :]
                   * offsets[:, None, :, None]).reshape(len(x), 4 * len(axes), 4)
        return np.concatenate([stencil, x[:, None, :]], axis=1).reshape(-1, 4)

    def test_rows_match_the_documented_layout(self):
        from rotframes.kinematics import _fd_matrix, _step

        x = np.array([[-0.0, 1.3, -0.0, -0.0],
                      [0.0, 0.7, 0.0, 0.0],
                      [-2.5, 4.0, -0.0, 3.25],
                      [1e-300, 1.0 + 2.0**-52, -1e-300, -0.0]])
        seen = []

        def spy(y):
            seen.append(y.copy())
            return np.cos(y)

        d, f = _fd_matrix(spy, x, _step(x[:, 1]))
        (rows,) = seen
        expected = self._layout(x, _step(x[:, 1]))
        assert rows.tobytes() == expected.tobytes()
        assert rows.reshape(len(x), 17, 4)[:, 16].tobytes() == x.tobytes()
        assert f.tobytes() == np.cos(x).tobytes()
        assert d.shape == (len(x), 4, 4)

    def test_built_in_field_sees_the_rho_layout(self, monkeypatch):
        from rotframes import kinematics
        from rotframes.kinematics import _step

        seen = []
        real = kinematics._u_rows

        def spy(y, spec):
            seen.append(y.copy())
            return real(y, spec)

        monkeypatch.setattr(kinematics, "_u_rows", spy)
        e = Event(-0.0, 1.1, -0.0, 2.5)
        s = kinematic_sample(CongruenceSpec("tt", 0.7), e)
        x = e.coords()[None, :]
        (rows,) = seen
        assert rows.tobytes() == self._layout(x, _step(x[:, 1]), (RHO,)).tobytes()
        # t, phi and z columns of the Jacobian are +0.0 exactly
        jet = _at(CongruenceSpec("tt", 0.7), e)
        assert jet.du[0][:, [T, PHI, Z]].tobytes() == bytes(8 * 12)
        assert s.vorticity_scalar > 0.0

    def test_user_field_sees_the_layout(self):
        from rotframes.kinematics import _step

        spec = CongruenceSpec("tt", 0.7)
        seen = []

        def u_fn(e):
            seen.append((e.t, e.rho, e.phi, e.z))
            return four_velocity(e, spec).components

        e = Event(-0.0, 1.1, -0.0, -0.0)
        kinematic_sample(VelocityField(u_fn), e)
        x = e.coords()[None, :]
        assert np.array(seen).tobytes() == self._layout(x, _step(x[:, 1])).tobytes()


def _outcome(fn, *args):
    """The bytes of each array fn returns, or its exception's type and text."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, KinematicSample):
        result = [np.asarray(getattr(result, name).components
                             if name in ("u", "u_dot", "vorticity_vector")
                             else getattr(result, name))
                  for name in ("u", "u_dot", "vorticity_tensor", "vorticity_vector",
                               "vorticity_scalar")]
    return [np.asarray(a).tobytes() for a in result]


class TestRadialStencil:
    """A built-in field differenced along rho alone (5 rows per event)
    against the same field differenced along every axis (17 rows, as a user
    field is), bit for bit: the Jacobian, _scalar_rows and kinematic_sample,
    over the float range and at each edge of the domain."""

    SEED = 2022
    DRAWS = 120  # per kind

    @staticmethod
    def _draws(kind, rng, count):
        """(spec, event) pairs: ordinary points; gal with the event or the
        stencil's edge within 1e-5 of the light cylinder; rapidity near 355
        and 710; a subnormal rho omega; c near 1e-160 and 1e150, and c^2
        past the float range."""
        for _ in range(count):
            c = [rng.lognormal(0.0, 1.0), 1e-160 * rng.uniform(0.5, 2.0),
                 1e150 * rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(155.0, 300.0),
                 ][rng.choice(4, p=[0.4, 0.2, 0.2, 0.2])]
            rho = 10.0 ** rng.uniform(-3.0, 3.0) * (c if rng.random() < 0.5 else 1.0)
            near = 10.0 ** rng.uniform(-12.0, -5.0)
            if kind == "gal":
                lam = [rng.uniform(0.0, 1.0), 1.0 - near,
                       (1.0 - near) * rho / (rho + 1e-4 * max(rho, 1.0)), None]
            else:
                lam = [rng.lognormal(0.0, 1.0), 355.0 + rng.uniform(-1.0, 1.0),
                       710.0 + rng.uniform(-1.0, 1.0), None]
            lam = lam[rng.choice(4, p=[0.4, 0.2, 0.2, 0.2])]
            if lam is None:
                omega = 10.0 ** rng.uniform(-322.0, -308.5) / rho
            else:
                omega = lam * c / rho
            if 0.0 <= omega < math.inf:
                yield (CongruenceSpec(kind, omega, c),
                       Event(rng.normal(), rho, rng.normal(), rng.normal()))

    @staticmethod
    def _every_axis(monkeypatch):
        from rotframes import kinematics

        monkeypatch.setattr(kinematics, "_axes", lambda fields: kinematics._ALL_AXES)

    @pytest.mark.parametrize("kind", ["gal", "tt", "mtt"])
    def test_both_layouts_agree_bitwise(self, kind, monkeypatch):
        from rotframes.congruences import _u_rows
        from rotframes.kinematics import (
            _ALL_AXES,
            _fd_matrix,
            _scalar_rows,
            _stencil,
        )

        rng = np.random.default_rng([self.SEED, len(kind)])
        draws = list(self._draws(kind, rng, self.DRAWS))
        outcomes = {}
        for layout in ("rho", "all"):
            if layout == "all":
                self._every_axis(monkeypatch)
            outcomes[layout] = [
                (_outcome(kinematic_sample, spec, e),
                 _outcome(_scalar_rows, [spec],
                          [np.array([e.coords(), e.coords() * (1.0, 1.0 - 2e-6, 1.0, 1.0),
                                     e.coords() * (1.0, 1.0 + 2e-6, 1.0, 1.0)])]))
                for spec, e in draws]
        assert outcomes["rho"] == outcomes["all"]
        # the Jacobian itself, where the stencil fits: equal rho columns, and
        # +0.0 in the others, which every axis gives too wherever the event's
        # values are finite
        finite = []
        for spec, e in draws:
            def lowered(y, spec=spec):
                return metric_diag(y[:, 1], spec.c) * _u_rows(y, spec)

            x, h, fits, _ = _stencil([spec], [e.coords()[None, :]])
            if not fits[0]:
                continue
            with np.errstate(all="ignore"):
                d1, f1 = _fd_matrix(lowered, x, h, (RHO,))
                d4, f4 = _fd_matrix(lowered, x, h, _ALL_AXES)
            assert f1.tobytes() == f4.tobytes()
            assert d1[..., RHO].tobytes() == d4[..., RHO].tobytes()
            others = [T, PHI, Z]
            assert d1[..., others].tobytes() == bytes(8 * 12)
            finite.append(bool(np.isfinite(f4).all()))
            if finite[-1]:
                assert d4[..., others].tobytes() == bytes(8 * 12)
        # the draws reach every outcome
        assert 0 < sum(finite) < len(finite)
        assert 0 < sum(isinstance(s, list) for s, _ in outcomes["rho"]) < len(draws)

    @pytest.mark.parametrize("kind", ["gal", "tt", "mtt"])
    def test_rows_in_a_pass_with_a_user_field(self, kind):
        # the built-in rows of a pass that holds a user field take 17 rows
        # each, and equal the rows of a pass of their own
        from rotframes.kinematics import _scalar_rows

        rng = np.random.default_rng([self.SEED, 7, len(kind)])
        for spec, e in self._draws(kind, rng, 40):
            x = np.array([e.coords(), e.coords() * (1.0, 1.0 - 2e-6, 1.0, 1.0)])
            user = _user(CongruenceSpec("gal", 0.0, spec.c))  # never raises
            xu = rng.normal(size=(2, 4))
            xu[:, 1] = rng.uniform(0.5, 2.0, 2)
            (alone,) = _scalar_rows([spec], [x])
            before, _ = _scalar_rows([spec, user], [x, xu])
            _, after = _scalar_rows([user, spec], [xu, x])
            assert alone.tobytes() == before.tobytes() == after.tobytes()


class TestScalarRows:
    """kinematics._scalar_rows, the batch routine behind the CLI tables."""

    @pytest.fixture
    def jacobians(self, monkeypatch):
        from rotframes import kinematics

        sizes = []
        real = kinematics._fd_matrix

        def counted(fn, x, h, *axes):
            sizes.append(len(x))
            return real(fn, x, h, *axes)

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
            (out,) = _scalar_rows([spec], [x])
        assert jacobians == [4]
        assert np.isnan(out[[0, 2, 3]]).all()
        assert out[[1, 4]].tolist() == vorticity_scalars(spec, x[[1, 4]]).tolist()
        # gal at c / omega = 2: fits, stencil across the light cylinder,
        # on it, past it
        jacobians.clear()
        spec = CongruenceSpec("gal", 0.5)
        x[:4, 1] = [1.0, 1.99995, 2.0, 3.0]
        (out,) = _scalar_rows([spec], [x[:4]])
        assert jacobians == [1]
        assert np.isnan(out[1:]).all()
        assert out[0] == vorticity_scalar(spec, Event(0.0, 1.0, 0.0))
        # no row fits: the field is not evaluated
        jacobians.clear()
        assert np.isnan(_scalar_rows([spec], [x[1:4]])[0]).all()
        assert _scalar_rows([spec], [np.zeros((0, 4))])[0].shape == (0,)
        assert jacobians == []

    def test_a_field_without_a_row_that_fits_is_left_out_of_the_pass(self):
        from rotframes.kinematics import _scalar_rows

        spec = CongruenceSpec("tt", 0.5)
        calls = []

        def u(e):
            calls.append(e)
            return four_velocity(e, spec).components

        x = np.zeros((3, 4))
        x[:, 1] = [0.5, 1.0, 1.5]
        off_chart = np.zeros((2, 4))
        off_chart[:, 1] = [1e-5, 2e-5]
        user_out, spec_out = _scalar_rows([VelocityField(u), spec], [off_chart, x])
        assert np.isnan(user_out).all() and calls == []
        assert spec_out.tolist() == _scalar_rows([spec], [x])[0].tolist()

    def test_mixed_fields_equal_the_per_field_calls_bitwise(self, jacobians):
        from rotframes.kinematics import _scalar_rows

        rng = np.random.default_rng(7)

        def rows(rhos):
            x = rng.normal(size=(len(rhos), 4))
            x[:, 1] = rhos
            return x

        # gal at c / omega = 2: fits, stencil across the light cylinder, fits;
        # tt: fits, scalar past the float range (rapidity 400), off the chart,
        # u past the float range, fits; a user field; a gal field with no
        # row that fits
        gal = CongruenceSpec("gal", 0.5)
        fields = [gal, CongruenceSpec("tt", 0.5), _user(CongruenceSpec("mtt", 0.3)), gal]
        xs = [rows([1.0, 1.99995, 0.3]), rows([1.0, 800.0, 1e-5, 1800.0, 2.5]),
              rows(rng.uniform(0.2, 3.0, 6)), rows([2.0, 3.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = _scalar_rows(fields, xs)
        assert jacobians == [2 + 4 + 6]
        singles = [_scalar_rows([f], [x])[0] for f, x in zip(fields, xs)]
        assert [np.isnan(out).tolist() for out in mixed] == [
            [False, True, False], [False, True, True, True, False], [False] * 6,
            [True, True]]
        for out, single in zip(mixed, singles):
            assert np.array_equal(out, single, equal_nan=True)
        with pytest.raises(ValueError, match="share c"):
            _scalar_rows([gal, CongruenceSpec("tt", 0.5, 2.0)], xs[:2])

    def test_passes_that_straddle_fields_equal_the_per_field_calls(self, jacobians,
                                                                  monkeypatch):
        from rotframes import kinematics

        rng = np.random.default_rng(11)

        def rows(rhos):
            x = rng.normal(size=(len(rhos), 4))
            x[:, 1] = rhos
            return x

        # gal at c / omega = 2: four rows fit, one stencil crosses the light
        # cylinder, one row is past it; tt: one scalar past the float range
        fields = [CongruenceSpec("gal", 0.5), CongruenceSpec("tt", 0.5),
                  _user(CongruenceSpec("mtt", 0.5))]
        xs = [rows([1.0, 1.99995, 0.3, 1.5, 2.5, 0.9]), rows([1.0, 800.0, 2.5, 0.7]),
              rows(rng.uniform(0.2, 3.0, 5))]
        singles = [kinematics._scalar_rows([f], [x])[0] for f, x in zip(fields, xs)]
        monkeypatch.setattr(kinematics, "_PASS", 3)
        jacobians.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = kinematics._scalar_rows(fields, xs)
        # passes: gal 3 | gal 1, tt 2 | tt 2, user 1 | user 3 | user 1
        assert jacobians == [3, 3, 3, 3, 1]
        assert np.isnan(mixed[0]).tolist() == [False, True, False, False, True, False]
        assert np.isnan(mixed[1]).tolist() == [False, True, False, False]
        for out, single in zip(mixed, singles):
            assert np.array_equal(out, single, equal_nan=True)

    def test_no_pass_exceeds_the_pass_size(self, capsys, jacobians, monkeypatch):
        from rotframes import cli, kinematics

        argv = ["omega", "--kind", "gal,tt,mtt", "--rho-min", "0.05", "--rho-max", "2.5",
                "--steps", "20", "--omega", "0.5"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(kinematics, "_PASS", 3)
        jacobians.clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
        # the 16 gal rows inside c / omega = 2 and the 20 tt rows, which the
        # mtt rows reuse
        assert jacobians == [3] * 12

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

    def test_a_jacobian_past_the_float_range_is_refused(self):
        # u^rho jumps by 2e308 at rho = 1, so d_rho u_rho is not finite
        # there; the scalar never reads that entry, but the row is refused
        spec = CongruenceSpec("tt", 0.5)

        def u(e):
            v = four_velocity(e, spec).components.copy()
            v[RHO] = 1e308 if e.rho > 1.0 else -1e308
            return v

        with pytest.raises(DomainError, match="overflow"):
            vorticity_scalars(VelocityField(u), [[0.0, 1.0, 0.0, 0.0]])

    def test_scalar_holds_until_the_closed_form_overflows(self):
        # w.w would overflow from rapidity ~177; the norm is scaled exactly.
        # kinematic_sample stops at ~237, where w_ab ~ e^(3 lam) / 8 overflows.
        spec = CongruenceSpec("tt", 1.0)
        for lam in (150.0, 250.0, 350.0):
            e = Event(0.0, lam, 0.0)
            num = vorticity_scalar(spec, e)
            assert num == pytest.approx(omega_closed_form(lam, spec), rel=1e-7)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if lam < 237.0:
                    assert kinematic_sample(spec, e).vorticity_scalar == num
                else:
                    with pytest.raises(DomainError, match="overflow"):
                        kinematic_sample(spec, e)

    @pytest.mark.parametrize("kind", ["gal", "tt"])
    @pytest.mark.parametrize("omega", [1e-300, 1e-200, 1e-160])
    def test_scalar_holds_where_w_dot_w_underflows(self, kind, omega):
        # w is about omega, so w.w drops below the smallest normal float
        spec = CongruenceSpec(kind, omega)
        e = Event(0.0, 1.0, 0.0)
        closed = omega_closed_form(1.0, spec)
        for num in (vorticity_scalar(spec, e),
                    vorticity_scalars(spec, e.coords())[0],
                    kinematic_sample(spec, e).vorticity_scalar):
            assert num == pytest.approx(closed, rel=1e-10, abs=0.0)
