import itertools
import math

import numpy as np
import pytest

from _geometry import _christoffel
from rotframes import LEVI_CIVITA, DomainError, Event, FourVector
from rotframes.tensors import metric_diag


def test_metric_unit_radius_is_minkowski_like():
    np.testing.assert_array_equal(metric_diag(1.0, 1.0), [1.0, -1.0, -1.0, -1.0])


def test_metric_phi_phi_scales_with_radius_squared():
    assert metric_diag(2.0, 1.0)[2] == -4.0


def test_metric_tt_scales_with_c_squared():
    assert metric_diag(1.0, 2.0)[0] == 4.0


def test_metric_rejects_bad_inputs():
    with pytest.raises(DomainError):
        Event(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        Event(0.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        metric_diag(1.0, 0.0)
    # an array names its first radius that is not positive, in one line
    with pytest.raises(DomainError) as info:
        metric_diag(np.linspace(-1, 1, 12), 1.0)
    assert str(info.value) == "rho must be positive, got -1.0"


def test_metric_refuses_a_radius_of_zero():
    for rho in (0.0, -0.0, [1.0, 0.0]):
        with pytest.raises(DomainError, match="rho must be positive"):
            metric_diag(rho, 1.0)


@pytest.mark.parametrize("rho", [0.1, 0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("c", [1.0, 2.0, 3e8])
def test_metric_inverse_consistency(rho, c):
    # the kinematics raise an index by dividing by the diagonal and take
    # sqrt(-det g) = c rho in the permutation-symbol prefactor
    g = metric_diag(rho, c)
    assert np.max(np.abs(g * (1.0 / g) - 1.0)) < 1e-13
    assert np.prod(g) < 0.0
    assert math.sqrt(-np.prod(g)) == pytest.approx(c * rho, rel=1e-15)


def test_christoffel_closed_form_values():
    gam = _christoffel(1.0)
    assert gam[1, 2, 2] == -1.0
    assert gam[2, 1, 2] == 1.0
    gam = _christoffel(2.0)
    assert gam[1, 2, 2] == -2.0
    assert gam[2, 1, 2] == 0.5
    assert gam[2, 2, 1] == 0.5


def test_christoffel_zero_outside_documented_set():
    rng = np.random.default_rng(7)
    documented = {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    for _ in range(100):
        gam = _christoffel(rng.uniform(0.05, 10.0))
        for idx in itertools.product(range(4), repeat=3):
            if idx not in documented:
                assert gam[idx] == 0.0
        # symmetric in the two lower indices
        assert np.array_equal(gam, np.swapaxes(gam, 1, 2))


def test_christoffel_t_or_z_index_components_vanish():
    gam = _christoffel(1.7)
    for idx in itertools.product(range(4), repeat=3):
        if 0 in idx or 3 in idx:
            assert gam[idx] == 0.0


def test_raise_lower_round_trip_random_vectors():
    # lower with g, raise by dividing by g, as the kinematics do with u
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = metric_diag(rng.uniform(0.1, 5.0), rng.uniform(0.5, 3.0))
        v = rng.normal(size=4)
        np.testing.assert_allclose((g * v) / g, v, rtol=1e-14, atol=0.0)
        w = rng.normal(size=4)
        expected = float(v @ np.diag(g) @ w)
        assert (g * v) @ w == pytest.approx(expected, rel=1e-13)
        assert v @ (g * w) == pytest.approx(expected, rel=1e-13)


def test_dot_examples():
    g = metric_diag(1.0, 1.0)
    a = FourVector([1.0, 0.0, 0.0, 0.0]).components
    assert a @ (g * a) == 1.0
    b = FourVector([0.0, 1.0, 0.0, 0.0]).components
    assert a @ (g * b) == 0.0
    z = FourVector([0.0, 0.0, 0.0, 1.0]).components
    assert z @ (g * z) == -1.0


def test_dot_mixed_variance_and_symmetry():
    # a lowered vector contracted with a contravariant one gives a.b too
    rng = np.random.default_rng(3)
    g = metric_diag(1.7, 2.0)
    a = FourVector(rng.normal(size=4)).components
    b = FourVector(rng.normal(size=4)).components
    expected = float(a @ np.diag(g) @ b)
    assert a @ (g * b) == pytest.approx(expected, rel=1e-14)
    assert (g * a) @ b == pytest.approx(expected, rel=1e-13)
    assert b @ (g * a) == pytest.approx(a @ (g * b), rel=1e-14)


def test_levi_civita_convention_and_signs():
    assert LEVI_CIVITA[0, 1, 2, 3] == 1
    assert LEVI_CIVITA[1, 0, 2, 3] == -1
    assert LEVI_CIVITA[0, 0, 2, 3] == 0
    # the sign flips under every transposition of two indices
    for idx in itertools.permutations(range(4)):
        for i, j in itertools.combinations(range(4), 2):
            swapped = list(idx)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert LEVI_CIVITA[tuple(swapped)] == -LEVI_CIVITA[idx]


def test_levi_civita_sum_of_magnitudes_counts_permutations():
    total = sum(
        abs(int(LEVI_CIVITA[i, j, k, l]))
        for i, j, k, l in itertools.product(range(4), repeat=4)
    )
    assert total == 24
    assert int(np.abs(LEVI_CIVITA).sum()) == 24


def test_metric_is_covariantly_constant():
    # nabla_g g_ab = d_g g_ab - Gamma^s_ag g_sb - Gamma^s_bg g_as should
    # vanish; the partial derivative is taken by central differences.
    rng = np.random.default_rng(19)
    h = 1e-4
    for _ in range(20):
        c = rng.uniform(0.5, 2.0)
        x = np.array([rng.normal(), rng.uniform(0.5, 5.0), rng.normal(), rng.normal()])
        gam = _christoffel(x[1])
        g = np.diag(metric_diag(x[1], c))
        for axis in range(4):
            step = h * np.eye(4)[axis]
            gp = np.diag(metric_diag((x + step)[1], c))
            gm = np.diag(metric_diag((x - step)[1], c))
            dg = (gp - gm) / (2.0 * h)
            nabla = (
                dg
                - np.einsum("sa,sb->ab", gam[:, :, axis], g)
                - np.einsum("sb,as->ab", gam[:, :, axis], g)
            )
            assert np.max(np.abs(nabla)) < 1e-8


def test_four_vector_validation():
    with pytest.raises(ValueError):
        FourVector([1.0, 2.0, 3.0])


def test_levi_civita_is_read_only():
    with pytest.raises(ValueError):
        LEVI_CIVITA[0, 1, 2, 3] = -1.0
    assert LEVI_CIVITA[0, 1, 2, 3] == 1.0


def test_four_vector_stores_a_float_array():
    v = FourVector([1, 2, 3, 4])
    assert isinstance(v.components, np.ndarray) and v.components.dtype == np.float64
    assert v.components.tolist() == [1.0, 2.0, 3.0, 4.0]
