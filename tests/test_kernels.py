import numpy as np
import pytest

from landau.errors import DegenerateRelativeVelocity
from landau.kernels import KernelParams, Z_FLOOR, time_scale_k

from oracles import divergence_of_matrix_field, kernel_A, kernel_K, kernel_sigma, projection

P2 = KernelParams(1.0 / 8.0, 0.0, 2)
P3 = KernelParams(1.0 / 12.0, 0.0, 3)


def random_vectors(dim, n, seed=0, lo=0.1, hi=3.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, dim))
    r = rng.uniform(lo, hi, n)
    return v / np.linalg.norm(v, axis=1)[:, None] * r[:, None]


def test_kernel_a_2d_example():
    np.testing.assert_allclose(kernel_A([1.0, 0.0], P2), [[0.0, 0.0], [0.0, 0.125]], atol=1e-15)


def test_kernel_a_zero_z_gamma0():
    np.testing.assert_array_equal(kernel_A([0.0, 0.0], P2), np.zeros((2, 2)))


def test_kernel_a_3d_example():
    a = kernel_A([1.0, 1.0, 0.0], P3)
    expect = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]) / 12.0
    np.testing.assert_allclose(a, expect, atol=1e-15)
    np.testing.assert_allclose(a @ np.array([1.0, 1.0, 0.0]), 0.0, atol=1e-15)


@pytest.mark.parametrize("p", [P2, P3, KernelParams(0.125, -3.0, 2), KernelParams(1.0, -2.0, 3)])
def test_kernel_a_psd_with_z_in_kernel(p):
    z = random_vectors(p.dim, 50, seed=1)
    a = kernel_A(z, p)
    np.testing.assert_allclose(a, np.swapaxes(a, -1, -2), atol=1e-12)
    eig = np.linalg.eigvalsh(a)
    assert eig.min() >= -1e-12
    az = np.einsum("nij,nj->ni", a, z)
    np.testing.assert_allclose(az, 0.0, atol=1e-12 * np.max(np.abs(a)))


def test_kernel_k_examples():
    np.testing.assert_allclose(kernel_K([1.0, 0.0], P2), [-0.125, 0.0], atol=1e-15)
    np.testing.assert_allclose(kernel_K([2.0, 0.0, 0.0], P3), [-1.0 / 3.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("p", [P2, P3, KernelParams(0.5, -1.0, 2), KernelParams(0.3, 1.0, 3)])
def test_kernel_k_matches_divergence_of_a(p):
    for z in random_vectors(p.dim, 10, seed=2, lo=0.5, hi=2.5):
        fd = divergence_of_matrix_field(lambda y: kernel_A(y, p), z)
        np.testing.assert_allclose(kernel_K(z, p), fd, atol=1e-6)


def test_sigma_2d_example():
    s = kernel_sigma([1.0, 0.0], P2)
    np.testing.assert_allclose(s, [[0.0, 0.0], [0.0, 1.0 / np.sqrt(8.0)]], atol=1e-15)


def test_sigma_coulomb_3d_example():
    s = kernel_sigma([0.0, 0.0, 1.0], KernelParams(1.0, -3.0, 3))
    np.testing.assert_allclose(s, np.diag([1.0, 1.0, 0.0]), atol=1e-15)


@pytest.mark.parametrize("p", [P2, P3, KernelParams(0.125, -3.0, 2)])
def test_sigma_squares_to_a(p):
    z = random_vectors(p.dim, 100, seed=3)
    s = kernel_sigma(z, p)
    a = kernel_A(z, p)
    ssT = np.einsum("nij,nkj->nik", s, s)
    scale = np.maximum(np.linalg.norm(a, axis=(1, 2)), 1e-30)
    assert np.max(np.linalg.norm(ssT - a, axis=(1, 2)) / scale) < 1e-12
    sz = np.einsum("nij,nj->ni", s, z)
    np.testing.assert_allclose(sz, 0.0, atol=1e-12)


def test_projection_example_and_properties():
    np.testing.assert_allclose(projection([1.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    for dim in (2, 3):
        z = random_vectors(dim, 50, seed=4)
        pi = projection(z)
        np.testing.assert_allclose(np.einsum("nij,njk->nik", pi, pi), pi, atol=1e-12)
        np.testing.assert_allclose(np.trace(pi, axis1=1, axis2=2), dim - 1, atol=1e-12)
        xi = np.random.default_rng(5).standard_normal(z.shape)
        pxi = np.einsum("nij,nj->ni", pi, xi)
        dots = np.abs(np.sum(pxi * z, axis=1))
        bound = 1e-12 * np.linalg.norm(xi, axis=1) * np.linalg.norm(z, axis=1)
        assert np.all(dots <= bound)


def test_time_scale_examples():
    # |z| = 5, 2 and 0.5, passed as |z|^2
    assert time_scale_k(25.0, P2) == pytest.approx(0.5, rel=1e-15)
    assert time_scale_k(4.0, KernelParams(0.125, -3.0, 2)) == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert time_scale_k(0.25, KernelParams(1.0, -2.0, 2)) == pytest.approx(16.0, rel=1e-14)


@pytest.mark.parametrize("p", [P2, P3, KernelParams(0.0, 0.0, 3)])
def test_time_scale_at_gamma_zero_is_bitwise_constant(p):
    zs = [random_vectors(p.dim, 50, seed=3), np.zeros((4, p.dim)), np.ones(p.dim),
          np.full((2, 3, p.dim), np.inf)]
    for z in zs:
        r2 = np.sum(z * z, axis=-1)
        expect = 4.0 * p.lam * np.power(r2, 0.0)
        got = time_scale_k(r2, p)
        assert np.shape(got) == np.shape(expect)
        np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("lam, dim, match", [(-1.0, 2, "strength"), (1.0, 4, "dim")])
def test_kernel_params_reject_bad_values(lam, dim, match):
    with pytest.raises(ValueError, match=match):
        KernelParams(lam, 0.0, dim)


def test_degenerate_raises_for_negative_gamma():
    p = KernelParams(0.125, -3.0, 2)
    tiny = [Z_FLOOR / 10.0, 0.0]
    for fn in (kernel_A, kernel_K):
        with pytest.raises(DegenerateRelativeVelocity):
            fn(tiny, p)
    with pytest.raises(DegenerateRelativeVelocity):
        time_scale_k((Z_FLOOR / 10.0) ** 2, p)
    with pytest.raises(DegenerateRelativeVelocity):
        kernel_sigma(tiny, P2)
    with pytest.raises(DegenerateRelativeVelocity):
        projection([0.0, 0.0])


def test_shipped_kinds_log_nothing(caplog):
    from landau.cli import _KINDS
    with caplog.at_level("DEBUG"):
        for kind in _KINDS.values():
            if kind.physics:  # sampler-test fixes no physics
                KernelParams(kind.physics.get("lam", 0.0), kind.physics["gamma"],
                             kind.physics["dim"])
    assert not caplog.records
