import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chisquare, kstest

from landau import analytic
from landau.analytic import (BIMAX_U1, BIMAX_U2, DAMPING_LENGTH, bkw_density, bkw_scale,
                             bkw_t_min, sample_bimaxwellian, sample_bkw, sample_landau_damping)
from landau.errors import FixedPointNotConverged, InvalidTime
from landau.streams import RngStream

from oracles import (bimaxwellian_density, bkw_mollified_density, gauss_legendre_cell_masses,
                     landau_damping_density, radial_moment)


def test_bkw_scale_values():
    assert bkw_scale(2, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert bkw_scale(3, bkw_t_min(3)) == pytest.approx(0.6, abs=1e-12)


def test_bkw_invalid_time():
    with pytest.raises(InvalidTime):
        bkw_density(2, -1.0, np.zeros(2))
    with pytest.raises(InvalidTime):
        bkw_density(3, 0.0, np.zeros(3))


def test_bkw_density_t0_values():
    assert bkw_density(2, 0.0, np.zeros(2)) == 0.0
    assert bkw_density(2, 0.0, np.array([1.0, 0.0])) == pytest.approx(np.exp(-1.0) / np.pi, rel=1e-12)


@pytest.mark.parametrize("dim,t", [(2, 0.0), (2, 5.0), (3, bkw_t_min(3)), (3, 10.0)])
def test_bkw_mass_and_energy_quadrature(dim, t):
    f_scalar = lambda r2: float(bkw_density(dim, t, np.r_[np.sqrt(r2), np.zeros(dim - 1)]))
    assert radial_moment(f_scalar, dim, 0) == pytest.approx(1.0, abs=1e-6)
    assert radial_moment(f_scalar, dim, 2) == pytest.approx(dim, abs=1e-6)


def test_bkw_density_nonnegative():
    rng = np.random.default_rng(0)
    for dim, t in ((2, 0.0), (2, 3.0), (3, bkw_t_min(3))):
        v = rng.uniform(-6, 6, (2000, dim))
        assert np.all(bkw_density(dim, t, v) >= 0)


def test_bkw_sampler_moments():
    n = 1_000_000
    for dim, t in ((2, 0.0), (2, 4.0), (3, bkw_t_min(3))):
        v = sample_bkw(dim, t, n, RngStream(1))
        r2 = np.sum(v * v, axis=1)
        se = r2.std(ddof=1) / np.sqrt(n)
        assert abs(r2.mean() - dim) <= 3.0 * se
        np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=4.5 / np.sqrt(n))


def test_bkw_k_half_has_no_gaussian_component():
    # at K = 1/2 the Gaussian mixture weight 2 - 1/K vanishes; samples carry
    # the |v|^2-weighted law, which is nearly empty around the origin
    v = sample_bkw(2, 0.0, 100_000, RngStream(9))
    frac_small = np.mean(np.sum(v * v, axis=1) < 0.01)
    # Gamma(2, 1) radial law: P(r^2 < 0.01) ~ 5e-5; a Gaussian part would give ~1%
    assert frac_small < 1e-3


def test_bkw_fourth_moment_trajectory_under_simulation():
    # coarse dynamic check: the empirical 4th radial moment of an SBM run
    # follows the analytic value 16 K - 8 K^2 of the closed-form solution
    from landau.collision import SBM, ParticleEnsemble, SchemeConfig, simulate_homogeneous
    from landau.kernels import KernelParams

    n = 50_000
    cfg = SchemeConfig(0.1, SBM, KernelParams(1.0 / 8.0, 0.0, 2), seed=10)
    init = ParticleEnsemble(sample_bkw(2, 0.0, n, RngStream(10)))
    res = simulate_homogeneous(cfg, init, 5.0, [0.0, 2.5, 5.0], store_snapshots=True)
    for c in res:
        k = bkw_scale(2, c.time)
        m4 = np.mean(np.sum(c.ensemble.velocities**2, axis=1) ** 2)
        assert m4 == pytest.approx(16.0 * k - 8.0 * k * k, abs=0.3)


def test_bkw_sampler_gof_2d():
    n = 1_000_000
    t = 2.0
    v = sample_bkw(2, t, n, RngStream(2))
    lo, hi, nb = -4.0, 4.0, 20
    inside = np.all((v >= lo) & (v < hi), axis=1)
    ix = ((v[inside, 0] - lo) / (hi - lo) * nb).astype(int)
    iy = ((v[inside, 1] - lo) / (hi - lo) * nb).astype(int)
    counts = np.bincount(ix * nb + iy, minlength=nb * nb).astype(float)
    masses = gauss_legendre_cell_masses(lambda u: bkw_density(2, t, u), lo, hi, nb).reshape(-1)
    keep = masses * n >= 20  # merge ultra-thin tail bins into the complement
    expected = np.append(masses[keep] * n, n - masses[keep].sum() * n)
    observed = np.append(counts[keep], n - counts[keep].sum())
    res = chisquare(observed, expected)
    assert res.pvalue > 0.01


def test_bkw_mollified_matches_numerical_convolution():
    eps, t = 0.01, 1.5
    k = bkw_scale(2, t)
    for vx in (0.0, 1.2):
        def integrand(uy, ux):
            f = bkw_density(2, t, np.array([ux, uy]))
            w = np.exp(-((vx - ux) ** 2 + uy**2) / (2 * eps)) / (2 * np.pi * eps)
            return f * w
        num, _ = integrate.dblquad(integrand, -8, 8, lambda _: -8, lambda _: 8,
                                   epsabs=1e-10, epsrel=1e-10)
        assert bkw_mollified_density(2, t, eps, np.array([vx, 0.0])) == pytest.approx(num, abs=1e-9)


def test_bkw_mollified_mass_and_energy():
    eps = 0.01
    for dim, t in ((2, 0.0), (3, bkw_t_min(3))):
        f_scalar = lambda r2: float(bkw_mollified_density(dim, t, eps, np.r_[np.sqrt(r2), np.zeros(dim - 1)]))
        assert radial_moment(f_scalar, dim, 0) == pytest.approx(1.0, abs=1e-6)
        assert radial_moment(f_scalar, dim, 2) == pytest.approx(dim * (1 + eps), abs=1e-6)


def test_bimaxwellian_value_and_integral():
    expect = (0.4 + 1.6 * np.exp(-6.5)) / (4 * np.pi)
    assert bimaxwellian_density(BIMAX_U1) == pytest.approx(expect, rel=1e-13)
    val, _ = integrate.dblquad(lambda y, x: bimaxwellian_density(np.array([x, y])),
                               -12, 12, lambda _: -12, lambda _: 12, epsabs=1e-8)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_bimaxwellian_sampler():
    n = 1_000_000
    v = sample_bimaxwellian(n, RngStream(3))
    np.testing.assert_allclose(v.mean(axis=0), 0.2 * BIMAX_U1 + 0.8 * BIMAX_U2,
                               atol=3.0 * np.sqrt(3.0 / n))
    lo, hi, nb = -6.0, 5.0, 15
    inside = np.all((v >= lo) & (v < hi), axis=1)
    ix = ((v[inside, 0] - lo) / (hi - lo) * nb).astype(int)
    iy = ((v[inside, 1] - lo) / (hi - lo) * nb).astype(int)
    counts = np.bincount(ix * nb + iy, minlength=nb * nb).astype(float)
    masses = gauss_legendre_cell_masses(bimaxwellian_density, lo, hi, nb).reshape(-1)
    keep = masses * n >= 20
    expected = np.append(masses[keep] * n, n - masses[keep].sum() * n)
    observed = np.append(counts[keep], n - counts[keep].sum())
    assert chisquare(observed, expected).pvalue > 0.01


def test_damping_density_basics():
    x = np.linspace(0, DAMPING_LENGTH, 7)
    v = np.zeros((7, 2))
    np.testing.assert_allclose(landau_damping_density(x, v, 0.0), 1.0 / (2 * np.pi))
    # mass over x in [0, 4 pi] and v in R^2 equals 4 pi
    marginal = lambda x_: 1.0 + 0.3 * np.cos(0.5 * x_)
    val, _ = integrate.quad(marginal, 0, DAMPING_LENGTH)
    assert val == pytest.approx(DAMPING_LENGTH, rel=1e-12)
    with pytest.raises(ValueError):
        landau_damping_density(0.0, np.zeros(2), 1.5)


def test_damping_sampler_alpha0():
    x, v = sample_landau_damping(200_000, 0.0, RngStream(4))
    assert np.all((x >= 0) & (x < DAMPING_LENGTH + 1e-9))
    assert kstest(x / DAMPING_LENGTH, "uniform").pvalue > 0.01
    assert kstest(v[:, 0], "norm").pvalue > 0.01
    assert kstest(v[:, 1], "norm").pvalue > 0.01


def test_damping_sampler_spatial_gof():
    alpha = 0.5
    n = 1_000_000
    x, _ = sample_landau_damping(n, alpha, RngStream(5))
    nb = 40
    counts, edges = np.histogram(x, bins=nb, range=(0, DAMPING_LENGTH))
    # expected mass per bin from the exact CDF x + 2 alpha sin(x/2)
    cdf = (edges + 2 * alpha * np.sin(0.5 * edges)) / DAMPING_LENGTH
    expected = np.diff(cdf) * n
    assert chisquare(counts, expected).pvalue > 0.01


def test_damping_sampler_inverse_cdf_accuracy():
    n = 10_000
    alpha = 0.5
    x, _ = sample_landau_damping(n, alpha, RngStream(6))
    # recompute the uniforms the bisection targeted; bitwise same stream
    gen = RngStream(6).generator()
    u = gen.random(n) * DAMPING_LENGTH
    np.testing.assert_allclose(x + 2 * alpha * np.sin(0.5 * x), u, atol=2e-12)


@pytest.mark.parametrize("alpha", [0.99, 1.0 - 1e-6])
def test_damping_sampler_converges_near_alpha_one(alpha):
    # plain Newton from x = u diverges here; the sweeps from the convex side do not
    n = 100_000
    x, _ = sample_landau_damping(n, alpha, RngStream(7))
    u = RngStream(7).generator().random(n) * DAMPING_LENGTH
    assert np.all((x >= 0) & (x <= DAMPING_LENGTH))
    np.testing.assert_allclose(x + 2 * alpha * np.sin(0.5 * x), u, atol=2e-12)


@pytest.mark.parametrize("alpha", [-0.1, 1.0])
def test_damping_sampler_rejects_alpha_outside_0_1(alpha):
    with pytest.raises(ValueError, match="alpha"):
        sample_landau_damping(10, alpha, RngStream(8))


def test_damping_sampler_raises_at_its_sweep_cap(monkeypatch):
    monkeypatch.setattr(analytic, "_DAMPING_MAX_SWEEPS", 1)
    with pytest.raises(FixedPointNotConverged):
        sample_landau_damping(1000, 0.5, RngStream(8))
