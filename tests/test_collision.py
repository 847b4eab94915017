import tracemalloc

import numpy as np
import pytest

from landau import collision
from landau.analytic import sample_bkw
from landau.collision import (EM, SBM, ParticleEnsemble, SchemeConfig, collision_step,
                              em_pair_update, random_pairing, sbm_pair_update,
                              simulate_homogeneous)
from landau.errors import InvalidCheckpoint, NonFiniteState, OddParticleCount
from landau.kernels import KernelParams, Z_FLOOR, kernel_K, projection, time_scale_k
from landau.sphere import _MIXTURE_MIN_TAU, _uniform_time
from landau.streams import DOMAIN_PAIRING, RngStream

from oracles import reference_sbm_pair_update, reference_simulate_homogeneous

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MAXWELL_2D = KernelParams(1.0 / 8.0, 0.0, 2)
MAXWELL_3D = KernelParams(1.0 / 12.0, 0.0, 3)
COULOMB_2D = KernelParams(1.0 / 8.0, -3.0, 2)
COULOMB_3D = KernelParams(1.0 / 12.0, -3.0, 3)


def bkw_ensemble(dim, n, seed=0):
    t0 = 0.0 if dim == 2 else -6.0 * np.log(0.4)
    return ParticleEnsemble(sample_bkw(dim, t0, n, RngStream(seed)))


def pair_sums(v, pairing):
    i, j = pairing
    return v[i] + v[j], np.sum(v[i] ** 2 + v[j] ** 2, axis=1)


def stepped(v, pairing, cfg, step=1):
    """A copy of the velocities v after collision window ``step`` of the pairs."""
    v = v.copy()
    collision_step(v, *pairing, cfg, step)
    return v


def test_pairing_n2():
    i, j = random_pairing(2, RngStream(0))
    assert sorted([int(i[0]), int(j[0])]) == [0, 1]
    assert i.shape == j.shape == (1,)


def test_pairing_rejects_odd_and_small():
    with pytest.raises(OddParticleCount):
        random_pairing(5, RngStream(0))
    with pytest.raises(OddParticleCount):
        random_pairing(0, RngStream(0))


@pytest.mark.parametrize("n", [4, 100, 10_000])
def test_pairing_involution_no_fixed_points(n):
    i, j = random_pairing(n, RngStream(3, step=n))
    assert i.shape == j.shape == (n // 2,)
    # contiguous copies of the shuffle's alternate entries
    assert i.flags.c_contiguous and j.flags.c_contiguous
    perm = RngStream(3, step=n).generator().permutation(n)
    np.testing.assert_array_equal(i, perm[0::2])
    np.testing.assert_array_equal(j, perm[1::2])
    # the two halves are disjoint and together cover 0..n-1
    np.testing.assert_array_equal(np.sort(np.concatenate([i, j])), np.arange(n))
    # so the partner map they define is a fixed-point-free involution
    theta = np.empty(n, dtype=np.int64)
    theta[i] = j
    theta[j] = i
    idx = np.arange(n)
    assert np.all(theta != idx)
    np.testing.assert_array_equal(theta[theta], idx)


def test_pairing_uniform_over_matchings_n4():
    # the three perfect matchings of {0,1,2,3}, keyed by the partner of 0
    counts = {1: 0, 2: 0, 3: 0}
    trials = 100_000
    for k in range(trials):
        i, j = random_pairing(4, RngStream(11, step=k % (1 << 27), stream=k // (1 << 27)))
        at = np.flatnonzero((i == 0) | (j == 0))[0]
        counts[int(i[at] + j[at])] += 1  # one of the two is particle 0
    se = np.sqrt((1.0 / 3.0) * (2.0 / 3.0) / trials)
    for c in counts.values():
        assert abs(c / trials - 1.0 / 3.0) <= 3.0 * se


def test_sbm_step_zero_rate_is_identity():
    v = np.array([[1.0, 0.0], [-1.0, 0.0]])
    cfg = SchemeConfig(0.1, SBM, KernelParams(0.0, 0.0, 2), seed=1)
    out = stepped(v, (np.array([0]), np.array([1])), cfg)
    np.testing.assert_array_equal(out, v)


def test_sbm_step_degenerate_pair_unchanged():
    v = np.array([[1.0, 0.0], [1.0, 0.0], [0.4, 0.2], [-0.1, 0.3]])
    cfg = SchemeConfig(0.1, SBM, COULOMB_2D, seed=2)
    out = stepped(v, (np.array([0, 2]), np.array([1, 3])), cfg)
    np.testing.assert_array_equal(out[:2], v[:2])
    assert not np.array_equal(out[2:], v[2:])


@pytest.mark.parametrize("kernel,dim", [(MAXWELL_2D, 2), (COULOMB_2D, 2), (MAXWELL_3D, 3)])
def test_sbm_per_pair_conservation(kernel, dim):
    v = bkw_ensemble(dim, 1000, seed=4).velocities
    pairing = random_pairing(1000, RngStream(5))
    cfg = SchemeConfig(0.1, SBM, kernel, seed=6)
    out = stepped(v, pairing, cfg)
    s0, e0 = pair_sums(v, pairing)
    s1, e1 = pair_sums(out, pairing)
    np.testing.assert_allclose(s1, s0, rtol=0, atol=1e-12 * np.max(np.abs(s0)))
    np.testing.assert_allclose(e1, e0, rtol=1e-12)


@pytest.mark.parametrize("kernel,dim", [(COULOMB_2D, 2), (COULOMB_3D, 3)])
def test_sbm_pair_update_same_on_any_memory_layout(kernel, dim):
    v = bkw_ensemble(dim, 1000, seed=5).velocities
    i, j = random_pairing(1000, RngStream(6))
    out = {}
    for name, w in (("c", v.copy()), ("f", np.asfortranarray(v)), ("strided", v.repeat(2, axis=0)[::2])):
        sbm_pair_update(w, i, j, kernel, 0.1, RngStream(7))
        out[name] = w
    assert not np.array_equal(out["c"], v)
    np.testing.assert_array_equal(out["f"], out["c"])
    np.testing.assert_array_equal(out["strided"], out["c"])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("gamma", [0.0, -2.0, -3.0])
def test_sbm_pair_update_matches_reference_bitwise(dim, gamma):
    # BKW pairs, plus pairs at |z| = 0, below the floor and at small |z|
    # (large tau when gamma < 0); three dt put gamma = 0 in every band
    kernel = KernelParams(1.0 / 8.0, gamma, dim)
    v0 = bkw_ensemble(dim, 4000, seed=20).velocities
    i, j = random_pairing(4000, RngStream(21))
    g = np.random.default_rng(22)
    v0[j[:5]] = v0[i[:5]]
    v0[j[5:10]] = v0[i[5:10]] + 1e-15
    v0[j[10:60]] = v0[i[10:60]] + 10.0 ** g.uniform(-3.0, -0.5, (50, 1)) * g.standard_normal((50, dim))
    z = v0[i] - v0[j]
    r = np.linalg.norm(z, axis=1)
    assert np.any(r == 0) and np.any((r > 0) & (r < Z_FLOOR))
    taus = []
    for dt in (0.1, 2.0, 500.0):
        want = v0.copy()
        reference_sbm_pair_update(want, i, j, kernel, dt, RngStream(23))
        assert not np.array_equal(want, v0)
        np.testing.assert_array_equal(want[i[:10]], v0[i[:10]])
        for w in (v0.copy(), np.asfortranarray(v0), v0.repeat(2, axis=0)[::2]):
            sbm_pair_update(w, i, j, kernel, dt, RngStream(23))
            np.testing.assert_array_equal(w, want)
        taus.append(time_scale_k(z[r >= Z_FLOOR], kernel) * dt)
    taus = np.concatenate(taus)
    assert np.any(taus < _MIXTURE_MIN_TAU)
    assert np.any((taus >= _MIXTURE_MIN_TAU) & (taus < _uniform_time(dim)))
    assert np.any(taus >= _uniform_time(dim))


class _SharedGenerator:
    """An RngStream stand-in that hands out one generator on every call, as
    the blocks of one sbm_pair_update call share one."""

    def __init__(self, rng):
        self.gen = rng.generator()

    def generator(self):
        return self.gen


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("gamma", [0.0, -3.0])
def test_blocked_pair_update_matches_reference_bitwise(dim, gamma, monkeypatch):
    # blocks of 700 pairs: 3000 pairs make four full blocks and one of 200,
    # and an empty batch (a PIC step with no leftover pair) makes none. The
    # blocks draw one after another from one generator, in every band.
    block = 700
    monkeypatch.setattr(collision, "_PAIR_BLOCK", block)
    kernel = KernelParams(1.0 / 8.0, gamma, dim)
    v0 = bkw_ensemble(dim, 6000, seed=30).velocities
    i, j = random_pairing(6000, RngStream(31))
    v0[j[:5]] = v0[i[:5]]
    z = v0[i] - v0[j]
    r = np.linalg.norm(z, axis=1)
    empty = np.empty(0, dtype=np.intp)
    unblocked = 0
    for dt in (0.1, 2.0, 500.0):
        want = v0.copy()
        shared = _SharedGenerator(RngStream(32))
        for lo in range(0, len(i), block):
            reference_sbm_pair_update(want, i[lo:lo + block], j[lo:lo + block], kernel, dt, shared)
        got = v0.copy()
        sbm_pair_update(got, i, j, kernel, dt, RngStream(32))
        np.testing.assert_array_equal(got, want)
        sbm_pair_update(got, empty, empty, kernel, dt, RngStream(33))
        np.testing.assert_array_equal(got, want)
        taus = time_scale_k(z[r >= Z_FLOOR], kernel) * dt
        if dim == 2 and np.all(taus < _uniform_time(2)):
            # the draws of a 2D batch with no uniform-band pair do not interleave
            whole = v0.copy()
            reference_sbm_pair_update(whole, i, j, kernel, dt, RngStream(32))
            np.testing.assert_array_equal(got, whole)
            unblocked += 1
    assert unblocked == (2 if (dim, gamma) == (2, 0.0) else 0)


# tracemalloc peaks of one collision_step at N = 1e5 with blocks of
# _PAIR_BLOCK pairs are 2.72, 5.09 and 7.41 MB; numpy reports its buffers to
# tracemalloc
STEP_PEAK_MB = {(2, 0.0): 2.80, (3, 0.0): 5.20, (3, -3.0): 7.55}


def _step_peak_mb(dim, gamma, n):
    v = bkw_ensemble(dim, n, seed=1).velocities
    cfg = SchemeConfig(0.1, SBM, KernelParams(1.0 / 8.0 if dim == 2 else 1.0 / 12.0, gamma, dim),
                       seed=3)
    i, j = random_pairing(len(v), RngStream(3, step=1, domain=DOMAIN_PAIRING))
    collision_step(v, i, j, cfg, 1)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        collision_step(v, i, j, cfg, 2)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim,gamma", list(STEP_PEAK_MB))
def test_collision_step_memory_peak(dim, gamma):
    assert _step_peak_mb(dim, gamma, 100_000) <= STEP_PEAK_MB[dim, gamma]


def test_collision_step_peak_does_not_grow_with_n():
    # 5e4 and 2e5 pairs both span several blocks, so the step's temporaries
    # are those of one full block either way
    for dim, gamma in STEP_PEAK_MB:
        assert _step_peak_mb(dim, gamma, 400_000) <= 1.1 * _step_peak_mb(dim, gamma, 100_000)


def test_em_momentum_and_zero_noise_drift():
    v = bkw_ensemble(2, 50 * 2, seed=7).velocities
    pairing = random_pairing(len(v), RngStream(8))
    cfg = SchemeConfig(0.1, EM, MAXWELL_2D, seed=9)
    i, j = pairing
    z = v[i] - v[j]

    out = stepped(v, pairing, cfg)
    s0, _ = pair_sums(v, pairing)
    s1, _ = pair_sums(out, pairing)
    np.testing.assert_allclose(s1, s0, rtol=0, atol=1e-12 * np.max(np.abs(s0)))

    out0 = v.copy()
    em_pair_update(out0, i, j, MAXWELL_2D, cfg.dt, None, noise=np.zeros_like(z))
    dv = out0[i] - v[i]
    np.testing.assert_allclose(dv, kernel_K(z, MAXWELL_2D) * cfg.dt, atol=1e-14)
    np.testing.assert_allclose(out0[j] - v[j], -dv, atol=1e-15)


@pytest.mark.parametrize("kernel,dim", [(MAXWELL_2D, 2), (MAXWELL_3D, 3), (COULOMB_2D, 2)])
def test_em_energy_identity_per_realized_noise(kernel, dim):
    # Delta(|v_i|^2 + |v_j|^2) = 2 lam^2 (d-1)^2 |z|^(2g+2) dt^2
    #                          + 2 lam |z|^(g+2) (|Pi(z) xi|^2 - (d-1)) dt
    v = bkw_ensemble(dim, 400, seed=10).velocities
    pairing = random_pairing(len(v), RngStream(11))
    dt = 0.05
    i, j = pairing
    z = v[i] - v[j]
    rng = np.random.default_rng(13)
    dw = rng.standard_normal(z.shape) * np.sqrt(dt)
    out = v.copy()
    em_pair_update(out, i, j, kernel, dt, None, noise=dw)
    _, e0 = pair_sums(v, pairing)
    _, e1 = pair_sums(out, pairing)
    r = np.linalg.norm(z, axis=1)
    xi = dw / np.sqrt(dt)
    pxi = np.einsum("nij,nj->ni", projection(z), xi)
    lam, g, d = kernel.lam, kernel.gamma, kernel.dim
    expect = (2.0 * lam**2 * (d - 1) ** 2 * r ** (2 * g + 2) * dt**2
              + 2.0 * lam * r ** (g + 2) * (np.sum(pxi**2, axis=1) - (d - 1)) * dt)
    np.testing.assert_allclose(e1 - e0, expect, rtol=0, atol=1e-10)


def test_exchangeability_under_relabeling_n4():
    # the pair update commutes with a relabeling of the particles: the pairs
    # (perm[i], perm[j]) in the same order draw the same noise from the same
    # stream, so every pair lands on the same velocities, bitwise
    i, j = np.array([0, 1]), np.array([2, 3])
    perm = np.array([3, 0, 2, 1])  # relabeled index of each particle
    for kernel, v in ((MAXWELL_2D, [[0.3, 1.1], [-0.5, 0.2], [0.9, -0.7], [0.1, 0.4]]),
                      (COULOMB_3D, [[0.3, 1.1, -0.2], [-0.5, 0.2, 0.6],
                                    [0.9, -0.7, 0.1], [0.1, 0.4, -1.3]])):
        v = np.array(v)
        cfg = SchemeConfig(0.2, SBM, kernel, seed=14)
        out = stepped(v, (i, j), cfg)
        assert not np.any(np.all(out == v, axis=1))

        v2 = np.empty_like(v)
        v2[perm] = v
        out2 = stepped(v2, (perm[i], perm[j]), cfg)

        np.testing.assert_array_equal(out2[perm], out)


@pytest.mark.parametrize("scheme,kernel", [(SBM, MAXWELL_2D), (SBM, COULOMB_3D), (EM, MAXWELL_2D)])
def test_simulate_matches_reference_bitwise(scheme, kernel):
    # one array updated in place gives the snapshots of a fresh ensemble per window
    ens = bkw_ensemble(kernel.dim, 2000, seed=23)
    v0 = ens.velocities.copy()
    cfg = SchemeConfig(0.1, scheme, kernel, seed=24)
    got = simulate_homogeneous(cfg, ens, 2.0, [0.0, 1.0, 2.0], store_snapshots=True)
    want = reference_simulate_homogeneous(cfg, ens, 2.0, [0.0, 1.0, 2.0])
    assert [c.time for c in got] == [c.time for c in want] == [0.0, 1.0, 2.0]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.ensemble.velocities, b.ensemble.velocities)
        assert a.record.kinetic_energy == b.record.kinetic_energy
    assert not np.array_equal(got[-1].ensemble.velocities, v0)
    np.testing.assert_array_equal(ens.velocities, v0)


def test_em_blow_up_raises_non_finite_state():
    ens = bkw_ensemble(2, 200, seed=25)
    v0 = ens.velocities.copy()
    cfg = SchemeConfig(1e200, EM, MAXWELL_2D, seed=26)
    with pytest.raises(NonFiniteState, match="Euler-Maruyama"):
        simulate_homogeneous(cfg, ens, 3e200, [3e200])
    np.testing.assert_array_equal(ens.velocities, v0)


def test_simulate_determinism_and_zero_t_end():
    ens = bkw_ensemble(2, 200, seed=15)
    cfg = SchemeConfig(0.1, SBM, MAXWELL_2D, seed=16)
    res0 = simulate_homogeneous(cfg, ens, 0.0, [0.0], store_snapshots=True)
    assert len(res0) == 1 and res0[0].time == 0.0
    np.testing.assert_array_equal(res0[0].ensemble.velocities, ens.velocities)

    a = simulate_homogeneous(cfg, ens, 1.0, [1.0], store_snapshots=True)
    b = simulate_homogeneous(cfg, ens, 1.0, [1.0], store_snapshots=True)
    np.testing.assert_array_equal(a[-1].ensemble.velocities, b[-1].ensemble.velocities)


def test_simulate_rejects_bad_checkpoints_and_odd_n():
    ens = bkw_ensemble(2, 200, seed=17)
    cfg = SchemeConfig(0.1, SBM, MAXWELL_2D, seed=18)
    with pytest.raises(InvalidCheckpoint):
        simulate_homogeneous(cfg, ens, 1.0, [0.55])
    with pytest.raises(InvalidCheckpoint):
        simulate_homogeneous(cfg, ens, 1.0, [2.0])  # past t_end
    with pytest.raises(InvalidCheckpoint):
        simulate_homogeneous(cfg, ens, 0.25, [0.0])  # t_end off the dt grid
    odd = ParticleEnsemble(np.zeros((3, 2)) + np.arange(3)[:, None])
    with pytest.raises(OddParticleCount):
        simulate_homogeneous(cfg, odd, 1.0, [1.0])


@pytest.mark.parametrize("kernel,dim", [(MAXWELL_3D, 2), (MAXWELL_2D, 3)])
def test_simulate_rejects_a_kernel_of_another_dimension(kernel, dim):
    # a 3D kernel on 2D velocities would run with the 3D drift (1 - d) lam z
    ens = bkw_ensemble(dim, 200, seed=21)
    with pytest.raises(ValueError, match="kernel cannot step"):
        simulate_homogeneous(SchemeConfig(0.1, EM, kernel), ens, 1.0, [1.0])


def test_simulate_conserves_momentum_and_energy():
    ens = bkw_ensemble(2, 2000, seed=19)
    cfg = SchemeConfig(0.1, SBM, MAXWELL_2D, seed=20)
    res = simulate_homogeneous(cfg, ens, 5.0, [0.0, 2.5, 5.0])
    p0 = res[0].record.momentum
    e0 = res[0].record.kinetic_energy
    scale = max(np.linalg.norm(p0), np.sqrt(2.0 * e0))
    for c in res[1:]:
        assert np.linalg.norm(c.record.momentum - p0) <= 1e-10 * scale
        assert abs(c.record.kinetic_energy - e0) <= 1e-10 * e0


def test_em_accumulates_energy_on_average():
    ens = bkw_ensemble(2, 2000, seed=21)
    cfg = SchemeConfig(0.1, EM, MAXWELL_2D, seed=22)
    res = simulate_homogeneous(cfg, ens, 20.0, [0.0, 20.0])
    assert res[-1].record.kinetic_energy > res[0].record.kinetic_energy
