import itertools

import numpy as np
import pytest

from rotframes import (
    COVARIANT,
    LEVI_CIVITA,
    DomainError,
    Event,
    FourVector,
    dot,
    metric_at,
)
from rotframes.tensors import _christoffel


def test_metric_unit_radius_is_minkowski_like():
    m = metric_at(Event(0.0, 1.0, 0.0), c=1.0)
    np.testing.assert_array_equal(np.diag(m.g), [1.0, -1.0, -1.0, -1.0])
    assert m.sqrt_neg_det == 1.0


def test_metric_phi_phi_scales_with_radius_squared():
    m = metric_at(Event(0.0, 2.0, 0.0), c=1.0)
    assert m.g[2, 2] == -4.0
    assert m.sqrt_neg_det == 2.0


def test_metric_tt_scales_with_c_squared():
    m = metric_at(Event(0.0, 1.0, 0.0), c=2.0)
    assert m.g[0, 0] == 4.0
    assert m.sqrt_neg_det == 2.0


def test_metric_rejects_bad_inputs():
    with pytest.raises(DomainError):
        Event(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        Event(0.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        metric_at(Event(0.0, 1.0, 0.0), c=0.0)


@pytest.mark.parametrize("rho", [0.1, 0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("c", [1.0, 2.0, 3e8])
def test_metric_inverse_consistency(rho, c):
    m = metric_at(Event(0.0, rho, 0.3, -1.0), c=c)
    assert np.max(np.abs(m.g @ m.g_inv - np.eye(4))) < 1e-13
    assert m.det_g < 0.0
    assert m.sqrt_neg_det == c * rho


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
    # lower with g, raise with g^-1: the conversion dot applies to
    # covariant input
    rng = np.random.default_rng(11)
    for _ in range(50):
        e = Event(0.0, rng.uniform(0.1, 5.0), 0.0)
        m = metric_at(e, c=rng.uniform(0.5, 3.0))
        v = rng.normal(size=4)
        np.testing.assert_allclose(m.g_inv @ (m.g @ v), v, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(m.g @ (m.g_inv @ v), v, rtol=1e-14, atol=0.0)
        w = rng.normal(size=4)
        expected = float(v @ m.g @ w)
        v_low = FourVector(m.g @ v, COVARIANT)
        w_low = FourVector(m.g @ w, COVARIANT)
        assert dot(v_low, FourVector(w), m) == pytest.approx(expected, rel=1e-13)
        assert dot(v_low, w_low, m) == pytest.approx(expected, rel=1e-13)


def test_dot_examples():
    m = metric_at(Event(0.0, 1.0, 0.0), c=1.0)
    a = FourVector([1.0, 0.0, 0.0, 0.0])
    assert dot(a, a, m) == 1.0
    b = FourVector([0.0, 1.0, 0.0, 0.0])
    assert dot(a, b, m) == 0.0
    z = FourVector([0.0, 0.0, 0.0, 1.0])
    assert dot(z, z, m) == -1.0


def test_dot_mixed_variance_and_symmetry():
    rng = np.random.default_rng(3)
    e = Event(0.0, 1.7, 0.4)
    m = metric_at(e, c=2.0)
    a_up = FourVector(rng.normal(size=4))
    b_up = FourVector(rng.normal(size=4))
    a_low = FourVector(m.g @ a_up.components, COVARIANT)
    expected = float(a_up.components @ m.g @ b_up.components)
    assert dot(a_up, b_up, m) == pytest.approx(expected, rel=1e-14)
    assert dot(a_low, b_up, m) == pytest.approx(expected, rel=1e-13)
    assert dot(b_up, a_up, m) == pytest.approx(dot(a_up, b_up, m), rel=1e-14)


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
        g = metric_at(Event(*x), c).g
        for axis in range(4):
            step = h * np.eye(4)[axis]
            gp = metric_at(Event(*(x + step)), c).g
            gm = metric_at(Event(*(x - step)), c).g
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
    with pytest.raises(ValueError):
        FourVector([1.0, 2.0, 3.0, 4.0], "sideways")
