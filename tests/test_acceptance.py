"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them). Tolerances
are fixed here and intentionally not imported from the library.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from rotframes import (
    CongruenceSpec,
    Event,
    LightCylinderError,
    compare_congruences,
    corotating_dyad,
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
    tt_inverse,
    tt_map,
    vorticity_scalar,
    worldline,
)
from rotframes.cli import main
from rotframes.kinematics import _acceleration_low, _at, _eps_contract, _tensor_rows
from rotframes.tensors import metric_diag


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {label}")
        raise
    print(f"[acceptance] criterion {num}: PASS - {label}")


def fidelity_grids():
    for kind in ("gal", "tt", "mtt"):
        for omega in (0.1, 0.5):
            if kind == "gal":
                grid = np.linspace(0.05, 0.95, 20) / omega
            else:
                grid = np.linspace(0.1, 3.0, 20)
            yield CongruenceSpec(kind, omega, 1.0), grid


def test_criterion_1_closed_form_fidelity():
    with criterion(1, "numeric vorticity matches the closed forms to 1e-8"):
        worst = 0.0
        for spec, grid in fidelity_grids():
            for rho in grid:
                e = Event(0.0, float(rho), 0.0)
                num = vorticity_scalar(spec, e)
                closed = omega_closed_form(float(rho), spec)
                worst = max(worst, abs(num - closed) / closed)
        assert worst < 1e-8, f"worst relative error {worst:.3e}"


def test_criterion_2_route_equivalence():
    with criterion(2, "both vorticity-vector routes agree to 1e-8"):
        worst = 0.0
        for spec, grid in fidelity_grids():
            for rho in grid:
                e = Event(0.0, float(rho), 0.0)
                # the same Jacobian contracted directly and through w_ab
                jet = _at(spec, e)
                direct = _eps_contract(jet, jet.du)[0]
                via = _eps_contract(jet, _tensor_rows(jet, _acceleration_low(jet)))[0]
                worst = max(worst, float(np.max(np.abs(direct - via))))
        assert worst < 1e-8, f"worst component deviation {worst:.3e}"


def test_criterion_3_thomas_oracle():
    with criterion(3, "transport reproduces -2 pi gamma and 4th-order error"):
        for beta in (0.1, 0.3, 0.5, 0.7):
            spec = CongruenceSpec("gal", beta)  # rho = 1, c = 1
            gamma = 1.0 / math.sqrt(1.0 - beta * beta)
            measured = measure_precession_angle(spec, 1.0, steps=100_000)
            expected = -2.0 * math.pi * gamma
            assert abs(measured - expected) < 1e-6
            net = measured + 2.0 * math.pi
            assert abs(net - 2.0 * math.pi * (1.0 - gamma)) < 1e-6
        spec = CongruenceSpec("gal", 0.5)
        exact = -2.0 * math.pi / math.sqrt(0.75)
        ns = [400, 800, 1600, 3200]
        errs = [abs(measure_precession_angle(spec, 1.0, n) - exact) for n in ns]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(3.7 <= p <= 4.3 for p in orders), f"orders {orders}"


def test_criterion_4_thesis_reproduction():
    with criterion(4, "gal and tt/mtt precess differently at the same parameters"):
        gal, tt, mtt = compare_congruences(1.0, 0.5, 1.0)
        assert gal.vorticity == pytest.approx(2.0 / 3.0, rel=1e-9)
        expected_tt = 0.5 * (math.sinh(0.5) * math.cosh(0.5) + 0.5)
        assert tt.vorticity == pytest.approx(expected_tt, rel=1e-9)
        assert abs(gal.vorticity - tt.vorticity) / gal.vorticity > 0.18
        for field in ("vorticity", "delta_tau", "delta_phi", "net_angle", "status"):
            assert getattr(tt, field) == getattr(mtt, field)


def _random_draw(rng):
    kind = ("gal", "tt", "mtt")[rng.integers(3)]
    c = rng.uniform(0.8, 1.25)
    omega = rng.uniform(0.1, 1.0)
    if kind == "gal":
        rho = rng.uniform(0.3, min(2.5, 0.9 * c / omega))
    else:
        rho = rng.uniform(0.3, 2.5)
    return CongruenceSpec(kind, omega, c), rho


def test_criterion_5_invariant_suite():
    with criterion(5, "normalization, orthogonality and transport constraints"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            spec, rho = _random_draw(rng)
            e = Event(rng.normal(), rho, rng.normal())
            g = metric_diag(e.rho, spec.c)
            u = four_velocity(e, spec).components
            assert u @ (g * u) == pytest.approx(spec.c**2, rel=1e-12)

            s = kinematic_sample(spec, e)
            u_dot = s.u_dot.components
            un = math.sqrt(abs(u @ (g * u)))
            an = math.sqrt(abs(u_dot @ (g * u_dot)))
            assert abs(u_dot @ (g * u)) <= 1e-9 * max(an * un, 1e-12)

            w_vec = s.vorticity_vector.components
            wn = math.sqrt(abs(w_vec @ (g * w_vec)))
            assert abs(w_vec @ (g * u)) <= 1e-9 * max(wn * un, 1e-12)

            w_ten = s.vorticity_tensor
            contraction = w_ten @ u
            scale = float(np.linalg.norm(w_ten)) * float(np.linalg.norm(u))
            assert float(np.max(np.abs(contraction))) <= 1e-9 * max(scale, 1e-12)

            # transport one revolution with a random orthogonal spin
            wl = worldline(spec, rho)
            r = rng.normal(size=4)
            s0 = r - (float(r @ (g * wl.u)) / spec.c**2) * wl.u
            norm0 = float(s0 @ (g * s0))
            traj = fw_transport(
                wl, s0, proper_period(spec, rho), steps=6000, n_samples=2
            )
            assert traj.max_drift <= 1e-9
            norm1 = float(traj.spins[-1] @ (g * traj.spins[-1]))
            assert abs(norm1 - norm0) / abs(norm0) <= 1e-9


def test_criterion_6_transformation_algebra():
    with criterion(6, "map round trips, boost invariant, speeds and horizon"):
        rng = np.random.default_rng(99)
        gal = CongruenceSpec("gal", 0.6, 1.1)
        tt = CongruenceSpec("tt", 0.8, 1.1)
        for _ in range(300):
            e = Event(
                rng.normal(scale=2.0),
                rng.uniform(0.1, 3.5),
                rng.normal(scale=2.0),
                rng.normal(),
            )
            scale = max(1.0, abs(e.t), abs(e.phi))
            back = gal_inverse(gal_map(e, gal), gal)
            assert abs(back.phi - e.phi) <= 1e-13 * scale
            assert back.t == e.t and back.rho == e.rho and back.z == e.z
            back = tt_inverse(tt_map(e, tt), tt)
            assert abs(back.t - e.t) <= 1e-13 * scale
            assert abs(back.phi - e.phi) <= 1e-13 * scale
            # boost invariant of the (t, phi) sector at fixed rho
            out = tt_map(e, tt)
            q_in = (tt.c * e.t) ** 2 - (e.rho * e.phi) ** 2
            q_out = (tt.c * out.t) ** 2 - (out.rho * out.phi) ** 2
            q_scale = max((tt.c * e.t) ** 2 + (e.rho * e.phi) ** 2, 1e-30)
            assert abs(q_out - q_in) / q_scale < 1e-12

        # fixed points of the tt map move at c tanh(lambda)
        for rho in (0.3, 1.0, 2.0, 3.0):
            dt = 1e-4
            plus = tt_inverse(Event(2.0 + dt, rho, -0.7, 0.0), tt)
            minus = tt_inverse(Event(2.0 - dt, rho, -0.7, 0.0), tt)
            v = rho * (plus.phi - minus.phi) / (plus.t - minus.t)
            assert abs(v - fixed_point_speed(rho, tt)) < 1e-8

        # light cylinder is inclusive and exact
        spec = CongruenceSpec("gal", 0.5, 1.0)
        four_velocity(Event(0.0, 2.0 - 1e-9, 0.0), spec)
        for rho in (2.0, 2.5):
            with pytest.raises(LightCylinderError):
                four_velocity(Event(0.0, rho, 0.0), spec)


def test_criterion_7_limits():
    with criterion(7, "slow-rotation limits of the scalar and the precession"):
        for kind in ("gal", "tt", "mtt"):
            for lam in (1e-3, 3e-4, 1e-4):
                spec = CongruenceSpec(kind, lam)  # rho = 1, c = 1
                ratio = omega_closed_form(1.0, spec) / spec.omega
                assert 1.0 - 1e-5 <= ratio <= 1.0 + 1e-5
            rep = precession_per_revolution(CongruenceSpec(kind, 1e-6), 1.0)
            assert rep.delta_phi == pytest.approx(-2.0 * math.pi, abs=1e-9)


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    with criterion(8, "byte-identical CSV reruns and self-check fault injection"):
        argv = [
            "omega", "--kind", "gal,tt,mtt", "--omega", "0.5",
            "--rho-min", "0.1", "--rho-max", "1.8", "--steps", "20",
        ]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

        j = tmp_path / "r.json"
        assert main(argv + ["--format", "json", "--out", str(j)]) == 0
        doc = json.loads(j.read_text(encoding="utf-8"))
        assert set(doc) == {"params", "rows", "version"}

        clean = main(argv + ["--self-check", "--out", str(tmp_path / "sc.csv")])
        assert clean == 0
        monkeypatch.setenv("ROTFRAMES_SELF_CHECK_PERTURB", "5e-6")
        tripped = main(argv + ["--self-check", "--out", str(tmp_path / "sc2.csv")])
        assert tripped == 2
