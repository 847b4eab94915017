import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_legendre
from scipy.stats import chisquare, kstest, ks_2samp

from landau import sphere
from landau.collision import SBM, SchemeConfig
from landau.errors import FixedPointNotConverged, InvalidSamplerForDim, SeriesTruncated
from landau.kernels import KernelParams
from landau.sphere import (SamplerKind, _death_process_draws, _death_process_probs, _rodrigues,
                           _so3_lift, default_sampler, sample_sbm_batch)
from landau.streams import RngStream

from oracles import (death_process_probs, einsum_death_process_probs, heat_kernel_cos_cdf,
                     reference_death_process_draws, reference_rodrigues,
                     reference_sample_sbm_batch, reference_so3_lift, so3_lift_legendre_moment,
                     unit)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

E2 = SamplerKind.EXACT_2D
S3 = SamplerKind.SPHERE_3D


def pole(dim):
    v = np.zeros(dim)
    v[-1] = 1.0
    return v


def batch_from(start, n, tau, seed=0):
    starts = np.broadcast_to(start, (n, start.size))
    return sample_sbm_batch(starts, np.full(n, tau), default_sampler(start.size), RngStream(seed))


def polar_cos(tau, n, seed):
    """Cosine of the S^2 polar angle after time tau, started at the pole."""
    return batch_from(pole(3), n, tau, seed)[:, 2]


def test_zero_time_identity():
    for dim in (2, 3):
        start = unit(np.arange(1.0, dim + 1.0))
        out = sample_sbm_batch(start, 0.0, default_sampler(dim), RngStream(1))
        np.testing.assert_array_equal(out[0], start)


def test_exact2d_is_rotation_by_gaussian_angle():
    n = 1000
    start = unit(np.array([0.3, -0.8]))
    tau = 0.07
    out = batch_from(start, n, tau, seed=0)
    normals = RngStream(0).generator().standard_normal(n)
    th = np.arctan2(start[1], start[0]) + np.sqrt(tau) * normals
    np.testing.assert_allclose(out, np.column_stack([np.cos(th), np.sin(th)]), atol=1e-15)


def test_invalid_sampler_for_dim():
    with pytest.raises(InvalidSamplerForDim):
        sample_sbm_batch(pole(3), 0.1, E2, RngStream(0))
    with pytest.raises(InvalidSamplerForDim):
        sample_sbm_batch(pole(2), 0.1, S3, RngStream(0))
    assert default_sampler(2) is E2
    assert default_sampler(3) is S3
    assert len(SamplerKind) == 2
    with pytest.raises(InvalidSamplerForDim):
        SchemeConfig(0.1, SBM, KernelParams(1.0, 0.0, 3), E2)
    with pytest.raises(InvalidSamplerForDim):
        SchemeConfig(0.1, SBM, KernelParams(1.0, 0.0, 2), "exact2d")
    SchemeConfig(0.1, SBM, KernelParams(1.0, 0.0, 3), S3)


def test_unit_norm_output():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        starts = unit(rng.standard_normal((500, dim)))
        taus = rng.uniform(0.0, 2.0, 500)
        out = sample_sbm_batch(starts, taus, default_sampler(dim), RngStream(4))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_determinism_of_streams():
    starts = np.broadcast_to(pole(3), (100, 3))
    taus = np.linspace(0.0, 50.0, 100)
    a = sample_sbm_batch(starts, taus, S3, RngStream(5, step=2, stream=1))
    b = sample_sbm_batch(starts, taus, S3, RngStream(5, step=2, stream=1))
    c = sample_sbm_batch(starts, taus, S3, RngStream(5, step=2, stream=2))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def lift_alone(starts, taus, rng):
    """The SO(3) lift at every tau, also past its band."""
    return _so3_lift(starts, taus, rng.generator())


def default_path(starts, taus, rng):
    return sample_sbm_batch(starts, taus, default_sampler(starts.shape[1]), rng)


# The ids are the sampler kinds each path once was: TANGENT_SUBSTEP-3 is the
# path below the mixture band run at every tau, now the SO(3) lift;
# RADIAL_ANGULAR_3D the S^2 sampler with all three bands.
@pytest.mark.parametrize("sample,dim", [
    pytest.param(default_path, 2, id="SamplerKind.EXACT_2D-2"),
    pytest.param(lift_alone, 3, id="SamplerKind.TANGENT_SUBSTEP-3"),
    pytest.param(default_path, 3, id="SamplerKind.RADIAL_ANGULAR_3D-3"),
])
@pytest.mark.parametrize("tau", [0.01, 0.05, 0.5])
def test_heat_kernel_moment(sample, dim, tau):
    n = 200_000
    starts = np.broadcast_to(pole(dim), (n, dim))
    dots = sample(starts, np.full(n, tau), RngStream(11))[:, -1]
    exact = np.exp(-(dim - 1) * tau / 2.0)
    se = dots.std(ddof=1) / np.sqrt(n)
    assert abs(dots.mean() - exact) <= 3.0 * se


def test_large_time_is_uniform():
    n = 100_000
    # S^2: cos(polar) is uniform on [-1, 1]
    out = batch_from(pole(3), n, 100.0, seed=12)
    assert kstest(out[:, 2], lambda x: (np.asarray(x) + 1.0) / 2.0).pvalue > 0.01
    # S^1: the angle is uniform; tau = 1e30 would feed angles of 1e15 to cos/sin
    out = batch_from(pole(2), n, 1e30, seed=14)
    angle = np.arctan2(out[:, 1], out[:, 0])
    assert kstest(angle, lambda x: (np.asarray(x) + np.pi) / (2.0 * np.pi)).pvalue > 0.01


def test_radial_cos_basics():
    vals = polar_cos(0.7, 50_000, seed=1)
    assert np.all((vals >= -1.0) & (vals <= 1.0))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - np.exp(-0.7)) <= 3.0 * se


@pytest.mark.parametrize("tau", [0.05, 0.12])
def test_radial_cos_moment_small_time_path(tau):
    vals = polar_cos(tau, 100_000, seed=2)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - np.exp(-tau)) <= 3.0 * se


@pytest.mark.parametrize("tau", [0.3, 1.0])
def test_radial_cos_matches_series_oracle(tau):
    res = kstest(polar_cos(tau, 100_000, seed=3), lambda x: heat_kernel_cos_cdf(x, tau))
    assert res.pvalue > 0.01


def test_tangent_substep_distribution_matches_series_oracle():
    # tau = 0.12 is in the SO(3) lift band
    res = kstest(polar_cos(0.12, 100_000, seed=13), lambda x: heat_kernel_cos_cdf(x, 0.12))
    assert res.pvalue > 0.01


def test_one_batch_spans_all_3d_bands():
    # per-pair distinct tau in the lift, mixture and uniform bands, plus
    # tau = 0 rows, in one shuffled batch; each band is checked on its own
    n = 100_000
    rng = np.random.default_rng(40)
    edges = [0.0, 0.15, 46.0, 1e3]
    taus = np.concatenate([rng.uniform(1e-4, 0.15, n),
                           np.exp(rng.uniform(np.log(0.15), np.log(46.0), n)),
                           rng.uniform(46.0, 1e3, n), np.zeros(1000)])
    taus = rng.permutation(taus)
    starts = unit(rng.standard_normal((taus.size, 3)))
    out = sample_sbm_batch(starts, taus, S3, RngStream(41))
    np.testing.assert_array_equal(out[taus == 0], starts[taus == 0])
    c = np.sum(out * starts, axis=1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (taus > lo) & (taus <= hi)
        assert np.count_nonzero(sel) >= n - 1
        for l in range(1, 5):
            r = eval_legendre(l, c[sel]) - np.exp(-l * (l + 1) * taus[sel] / 2.0)
            z = r.mean() / (r.std(ddof=1) / np.sqrt(r.size))
            assert abs(z) <= 3.0, (lo, l, z)


def test_mixture_band_memory_is_bounded():
    n = 100_000
    rng = np.random.default_rng(42)
    taus = np.exp(rng.uniform(np.log(0.15), np.log(46.0), n))
    starts = unit(rng.standard_normal((n, 3)))
    tracemalloc.start()
    try:
        sample_sbm_batch(starts, taus, S3, RngStream(43))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_death_process_series():
    ts = np.array([0.15, 0.3, 1.0, 5.0, 45.0])
    q = _death_process_probs(ts)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-14)
    # at t = 0.15 the terms reach 1.6e3 with exponents near 300, so each
    # series carries rounding of about 1e-11: there the oracle's raw sum is
    # off by 1.5e-11, the product's by 2.0e-13, and the rows differ by 6.3e-12
    for t, row in zip(ts, q):
        np.testing.assert_allclose(row, death_process_probs(t), rtol=0, atol=1e-10)
    # E[(1 - cos)/2] = E[1 / (2 + M)] for cos = 1 - 2 Beta(1, 1 + M)
    mean_x = q @ (1.0 / (2.0 + np.arange(q.shape[1])))
    np.testing.assert_allclose(1.0 - 2.0 * mean_x, np.exp(-ts), rtol=1e-11, atol=1e-14)
    with pytest.raises(SeriesTruncated):
        _death_process_probs(np.array([0.01]))


def test_death_process_draws_match_the_einsum_series():
    # 1e5 times log-uniform over the mixture band: the BLAS product draws
    # the same M as the einsum path from the same generator, and its rows
    # differ by about 2e-12
    t = np.exp(np.random.default_rng(70).uniform(np.log(0.15), np.log(46.0), 100_000))
    got = _death_process_draws(t, np.random.default_rng(71))
    np.testing.assert_array_equal(got, reference_death_process_draws(t, np.random.default_rng(71)))
    for lo in range(0, t.size, 2048):
        ts = t[lo:lo + 2048]
        np.testing.assert_allclose(_death_process_probs(ts), einsum_death_process_probs(ts),
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("tau", [1e-4, 1e-3, 1.0 / 30.0, 0.15])
def test_lift_law_legendre_moments_by_quadrature(tau):
    for l in range(1, 9):
        exact = np.exp(-l * (l + 1) * tau / 2.0)
        assert abs(so3_lift_legendre_moment(l, tau) - exact) <= 1e-13, l
    # without the sin(psi/2) / (psi/2) acceptance the law is off at l = 1
    assert abs(so3_lift_legendre_moment(1, tau, weighted=False) - np.exp(-tau)) > 5e-10


def test_lift_moments_resolve_the_acceptance_weight():
    # 4e6 draws at tau = 1/30 in four blocks; dropping the acceptance shifts
    # E[P_1] by 9e-5, about 5 standard errors here
    tau = 1.0 / 30.0
    sums = np.zeros((2, 6))
    n = 1_000_000
    starts = np.broadcast_to(pole(3), (n, 3))
    for block in range(4):
        c = sample_sbm_batch(starts, np.full(n, tau), S3, RngStream(50, step=block))[:, 2]
        for l in range(1, 7):
            r = eval_legendre(l, c) - np.exp(-l * (l + 1) * tau / 2.0)
            sums[:, l - 1] += r.sum(), (r * r).sum()
    total = 4 * n
    mean = sums[0] / total
    se = np.sqrt((sums[1] / total - mean ** 2) / (total - 1))
    assert np.all(np.abs(mean / se) <= 3.0), mean / se


@pytest.mark.parametrize("psi", [1e-12, 1.0, 6.0])
def test_rodrigues_matches_matrix_exponential(psi):
    rng = np.random.default_rng(51)
    axes = unit(rng.standard_normal((20, 3)))
    ys = unit(rng.standard_normal((20, 3)))
    omega = psi * axes
    norms = np.linalg.norm(omega, axis=1)
    out = _rodrigues(omega, norms, np.sinc(norms / (2.0 * np.pi)), ys)
    for w, y, o in zip(omega, ys, out):
        skew = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        np.testing.assert_allclose(o, expm(skew) @ y, rtol=0, atol=1e-14)


def test_chapman_kolmogorov_across_the_mixture_edge():
    # two lift steps of 0.1 against one mixture step of 0.2, no formula used
    n = 200_000
    starts = np.broadcast_to(pole(3), (n, 3))
    half = sample_sbm_batch(starts, np.full(n, 0.1), S3, RngStream(52))
    twice = sample_sbm_batch(half, np.full(n, 0.1), S3, RngStream(52, step=1))
    once = sample_sbm_batch(starts, np.full(n, 0.2), S3, RngStream(53))
    assert ks_2samp(twice[:, 2], once[:, 2]).pvalue > 0.01


@pytest.mark.parametrize("dim", [2, 3])
def test_nan_tau_raises(dim):
    starts = np.broadcast_to(pole(dim), (3, dim))
    with pytest.raises(ValueError, match="NaN"):
        sample_sbm_batch(starts, [np.nan, 0.01, 0.5], default_sampler(dim), RngStream(0))


def test_infinite_tau_is_uniform():
    n = 100_000
    out = batch_from(pole(3), n, np.inf, seed=54)
    assert kstest(out[:, 2], lambda x: (np.asarray(x) + 1.0) / 2.0).pvalue > 0.01
    out = batch_from(pole(2), n, np.inf, seed=55)
    angle = np.arctan2(out[:, 1], out[:, 0])
    assert kstest(angle, lambda x: (np.asarray(x) + np.pi) / (2.0 * np.pi)).pvalue > 0.01


@pytest.mark.parametrize("taus", [np.full(25_000, 1.0 / 30.0), np.geomspace(1e-4, 0.149, 25_000)])
def test_lift_matches_reference_bitwise(taus):
    starts = unit(np.random.default_rng(57).standard_normal((taus.size, 3)))
    # the first round rejects some rows, so the redraws are compared too
    first = np.random.default_rng(58)
    w = first.standard_normal((taus.size, 3)) * np.sqrt(taus)[:, None]
    assert np.any(first.random(taus.size) >= np.sinc(np.linalg.norm(w, axis=1) / (2.0 * np.pi)))
    got = _so3_lift(starts, taus, np.random.default_rng(58))
    np.testing.assert_array_equal(got, reference_so3_lift(starts, taus, np.random.default_rng(58)))


def test_rodrigues_and_sinc_match_reference_bitwise():
    g = np.random.default_rng(62)
    omega = g.standard_normal((1000, 3)) * np.geomspace(1e-9, 4.0 * np.pi, 1000)[:, None]
    omega[:3] = 0.0
    y = unit(g.standard_normal((1000, 3)))
    psi = np.sqrt(np.einsum("ij,ij->i", omega, omega))
    half = np.sinc(psi / (2.0 * np.pi))
    want = reference_rodrigues(omega, psi, half, y)
    np.testing.assert_array_equal(_rodrigues(omega, psi.copy(), half.copy(), y), want)
    x = np.concatenate([[0.0, -0.0, 5e-324, 1e-300], np.linspace(-3.0, 3.0, 601)])
    np.testing.assert_array_equal(sphere._sinc(x.copy()), np.sinc(x))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("zero_taus", [False, True], ids=["all-active", "some-zero"])
def test_sample_into_out_never_writes_starts(dim, zero_taus):
    # lift (or small-angle), mixture and uniform bands in one batch
    taus = np.concatenate([np.geomspace(1e-4, 0.149, 100), np.geomspace(0.15, 45.0, 100),
                           np.full(50, 100.0)])
    if zero_taus:
        taus[::7] = 0.0
    starts = unit(np.random.default_rng(60).standard_normal((taus.size, dim)))
    keep = starts.copy()
    out = np.full_like(starts, np.nan)
    got = sample_sbm_batch(starts, taus, default_sampler(dim), RngStream(61), out=out)
    assert got is out
    np.testing.assert_array_equal(starts, keep)
    np.testing.assert_array_equal(out, reference_sample_sbm_batch(keep, taus, RngStream(61)))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("zero_taus", [False, True], ids=["all-active", "some-zero"])
def test_sample_into_out_matches_reference_at_pair_batch_size(order, zero_taus):
    # a 2e4-row batch shaped like a gamma = -3 collision window: mostly
    # lift rows, about 2% mixture and 1% uniform rows, shuffled, written
    # into a C- or Fortran-ordered out
    rng = np.random.default_rng(63)
    taus = rng.permutation(np.concatenate([np.geomspace(1e-5, 0.1499, 19_400),
                                           np.geomspace(0.15, 45.9, 400),
                                           np.geomspace(46.0, 1e4, 200)]))
    if zero_taus:
        taus[::50] = 0.0
    starts = unit(rng.standard_normal((taus.size, 3)))
    keep = starts.copy()
    out = np.full(starts.shape, np.nan, order=order)
    got = sample_sbm_batch(starts, taus, S3, RngStream(64), out=out)
    assert got is out
    np.testing.assert_array_equal(starts, keep)
    np.testing.assert_array_equal(out, reference_sample_sbm_batch(keep, taus, RngStream(64)))


def test_lift_raises_at_its_round_cap(monkeypatch):
    # one round rejects about 1.2% of 10 000 rows at tau = 0.1
    monkeypatch.setattr(sphere, "_LIFT_MAX_ROUNDS", 1)
    with pytest.raises(FixedPointNotConverged):
        batch_from(pole(3), 10_000, 0.1, seed=56)


@pytest.mark.parametrize("start", [pole(3), -pole(3), np.eye(3)[0], -np.eye(3)[0]],
                         ids=["+e3", "-e3", "+e1", "-e1"])
def test_mixture_band_from_poles_and_axes(start):
    # no start point is singular for the tangent-plane end point
    tau = 0.5
    out = batch_from(start, 50_000, tau, seed=34)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-15)
    assert kstest(out @ start, lambda x: heat_kernel_cos_cdf(x, tau)).pvalue > 0.01


def test_mixture_band_cosine_is_one_minus_twice_the_beta_draw():
    # mixture and uniform rows only, so the generator is read in the
    # sampler's order: the death-process uniforms, then u, then the normals
    n = 10_000
    rng = np.random.default_rng(35)
    taus = np.concatenate([np.geomspace(0.15, 45.9, n - 100), np.full(100, 100.0)])
    starts = unit(rng.standard_normal((n, 3)))
    out = sample_sbm_batch(starts, taus, S3, RngStream(36))
    gen = RngStream(36).generator()
    m = np.zeros(n, dtype=np.int64)
    m[:n - 100] = _death_process_draws(taus[:n - 100], gen)
    b = -np.expm1(np.log1p(-gen.random(n)) / (1 + m))
    np.testing.assert_allclose(np.sum(out * starts, axis=1), 1.0 - 2.0 * b, rtol=0, atol=1e-15)


@pytest.mark.parametrize("tau", [0.1, 0.25])
def test_rotation_equivariance(tau):
    n = 100_000
    s1 = pole(3)
    s2 = unit(np.array([0.6, -0.7, 0.3]))
    out1 = batch_from(s1, n, tau, seed=31)
    out2 = batch_from(s2, n, tau, seed=32)
    res = ks_2samp(out1 @ s1, out2 @ s2)
    assert res.pvalue > 0.01


@pytest.mark.parametrize("tau", [0.1, 0.3])
def test_azimuthal_uniformity(tau):
    n = 100_000
    start = unit(np.array([0.2, 0.5, -0.8]))
    # orthonormal frame adapted to the start point
    a = unit(np.cross(start, [1.0, 0.0, 0.0]))
    b = np.cross(start, a)
    out = batch_from(start, n, tau, seed=33)
    az = np.arctan2(out @ b, out @ a)
    counts, _ = np.histogram(az, bins=36, range=(-np.pi, np.pi))
    res = chisquare(counts)
    assert res.pvalue > 0.01
