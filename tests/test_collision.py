import tracemalloc

import numpy as np
import pytest

from landau import collision
from landau.analytic import sample_bkw
from landau.collision import (EM, SBM, ParticleEnsemble, SchemeConfig, collision_step,
                              em_pair_update, random_pairing, sbm_pair_update,
                              simulate_homogeneous)
from landau.errors import InvalidCheckpoint, NonFiniteState, OddParticleCount
from landau.kernels import KernelParams, Z_FLOOR, time_scale_k
from landau.sphere import _MIXTURE_MIN_TAU, _uniform_time
from landau.streams import DOMAIN_PAIRING, RngStream

from oracles import (kernel_K, kernel_sigma, projection, reference_em_pair_update,
                     reference_sbm_pair_update, reference_simulate_homogeneous)

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
        taus.append(time_scale_k(r[r >= Z_FLOOR] ** 2, kernel) * dt)
    taus = np.concatenate(taus)
    assert np.any(taus < _MIXTURE_MIN_TAU)
    assert np.any((taus >= _MIXTURE_MIN_TAU) & (taus < _uniform_time(dim)))
    assert np.any(taus >= _uniform_time(dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_at_the_floor_collides(dim):
    # |z|^2 = 9.999999999999999e-29 lies one double below Z_FLOOR**2, yet its
    # root rounds to Z_FLOOR: the pair block keeps the pair, and the kernel
    # must then take it rather than raise
    z = np.array([5.398502917760716e-15, 8.417610483202999e-15, 0.0][:dim])
    assert np.sqrt(z @ z) == Z_FLOOR and z @ z < Z_FLOOR * Z_FLOOR
    v0 = np.stack([z, np.zeros(dim)])
    i, j = np.array([0]), np.array([1])
    kernel = KernelParams(1.0 / 8.0, -3.0, dim)
    want = v0.copy()
    reference_sbm_pair_update(want, i, j, kernel, 0.1, RngStream(24))
    got = v0.copy()
    sbm_pair_update(got, i, j, kernel, 0.1, RngStream(24))
    np.testing.assert_array_equal(got, want)
    assert not np.array_equal(got, v0)
    got = v0.copy()
    em_pair_update(got, i, j, kernel, 0.1, RngStream(24))
    assert np.all(np.isfinite(got)) and not np.array_equal(got, v0)


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
        taus = time_scale_k(r[r >= Z_FLOOR] ** 2, kernel) * dt
        if dim == 2 and np.all(taus < _uniform_time(2)):
            # the draws of a 2D batch with no uniform-band pair do not interleave
            whole = v0.copy()
            reference_sbm_pair_update(whole, i, j, kernel, dt, RngStream(32))
            np.testing.assert_array_equal(got, whole)
            unblocked += 1
    assert unblocked == (2 if (dim, gamma) == (2, 0.0) else 0)


def _found_pair():
    # |z|^2 is 9.999999999999997e-29 by columns, below _R2_FLOOR, and 1e-28 by np.einsum
    z = np.array([1.0935994656727792e-15, -3.976993308474837e-15, -9.109751063175467e-15])
    return np.stack([z, np.zeros(3)]), np.array([0]), np.array([1])


def _pairs_at_the_floor():
    # 2e5 disjoint pairs (z, 0) with |z| within 3e-16 (relative) of Z_FLOOR, in 7 blocks
    m = 200_000
    g = np.random.default_rng(70)
    u = g.standard_normal((m, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    z = u * (Z_FLOOR * (1.0 + g.uniform(-3e-16, 3e-16, (m, 1))))
    return np.concatenate([z, np.zeros((m, 3))]), np.arange(m), np.arange(m, 2 * m)


@pytest.mark.parametrize("case", [_found_pair, _pairs_at_the_floor])
def test_pair_block_and_kernel_share_one_norm(case):
    # the block's floor and the kernel's time scale read one |z|^2 per pair,
    # so no pair the block keeps can be rejected by the kernel
    v0, i, j = case()
    kernel = KernelParams(1.0 / 12.0, -3.0, 3)
    want = v0.copy()
    shared = _SharedGenerator(RngStream(71))
    block = collision._PAIR_BLOCK
    for lo in range(0, len(i), block):
        reference_sbm_pair_update(want, i[lo:lo + block], j[lo:lo + block], kernel, 0.1, shared)
    got = v0.copy()
    sbm_pair_update(got, i, j, kernel, 0.1, RngStream(71))
    np.testing.assert_array_equal(got, want)
    moved = np.count_nonzero(np.any(want[i] != v0[i], axis=1))
    assert moved == 0 if len(i) == 1 else 0 < moved < len(i)
    got = v0.copy()
    em_pair_update(got, i, j, kernel, 0.1, RngStream(71))
    assert np.all(np.isfinite(got))


# tracemalloc peaks of one collision_step at N = 1e5 with blocks of
# _PAIR_BLOCK pairs are 2.72, 5.12 and 5.10 MB; numpy reports its buffers to
# tracemalloc
STEP_PEAK_MB = {(2, 0.0): 2.80, (3, 0.0): 5.20, (3, -3.0): 5.24}


def _step_peak_mb(dim, gamma, n, scheme=SBM):
    v = bkw_ensemble(dim, n, seed=1).velocities
    cfg = SchemeConfig(0.1, scheme, KernelParams(1.0 / 8.0 if dim == 2 else 1.0 / 12.0, gamma, dim),
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
    # are those of one full block either way, for EM as for SBM
    cases = [(SBM, dim, gamma) for dim, gamma in STEP_PEAK_MB] + [(EM, 3, -3.0)]
    for scheme, dim, gamma in cases:
        assert (_step_peak_mb(dim, gamma, 400_000, scheme)
                <= 1.1 * _step_peak_mb(dim, gamma, 100_000, scheme))


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

    # less the realized noise sigma dW, dW re-drawn from the stream the
    # update reads, the increment is the drift K dt
    out0 = v.copy()
    rng = RngStream(12)
    em_pair_update(out0, i, j, MAXWELL_2D, cfg.dt, rng)
    dw = rng.generator().standard_normal(z.shape) * np.sqrt(cfg.dt)
    dv = out0[i] - v[i]
    noise = np.einsum("nab,nb->na", kernel_sigma(z, MAXWELL_2D), dw)
    np.testing.assert_allclose(dv - noise, kernel_K(z, MAXWELL_2D) * cfg.dt, atol=1e-14)
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
    rng = RngStream(13)
    out = v.copy()
    em_pair_update(out, i, j, kernel, dt, rng)
    # the realized dW, re-drawn from the stream the update reads
    dw = rng.generator().standard_normal(z.shape) * np.sqrt(dt)
    dv = kernel_K(z, kernel) * dt + np.einsum("nab,nb->na", kernel_sigma(z, kernel), dw)
    np.testing.assert_allclose(out[i] - v[i], dv, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out[j] - v[j], -dv, rtol=0, atol=1e-14)
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


def _simulate_and_reference(scheme, kernel):
    """Checkpoints at t = 0, 1, 2 of simulate_homogeneous and of the reference
    run, over 20 windows of 1000 BKW pairs; the input stays unwritten."""
    ens = bkw_ensemble(kernel.dim, 2000, seed=23)
    v0 = ens.velocities.copy()
    cfg = SchemeConfig(0.1, scheme, kernel, seed=24)
    got = simulate_homogeneous(cfg, ens, 2.0, [0.0, 1.0, 2.0], store_snapshots=True)
    want = reference_simulate_homogeneous(cfg, ens, 2.0, [0.0, 1.0, 2.0])
    assert [c.time for c in got] == [c.time for c in want] == [0.0, 1.0, 2.0]
    assert not np.array_equal(got[-1].ensemble.velocities, v0)
    np.testing.assert_array_equal(ens.velocities, v0)
    return got, want


@pytest.mark.parametrize("scheme,kernel", [(SBM, MAXWELL_2D), (SBM, COULOMB_3D)])
def test_simulate_matches_reference_bitwise(scheme, kernel):
    # one array updated in place gives the snapshots of a fresh ensemble per window
    for a, b in zip(*_simulate_and_reference(scheme, kernel)):
        np.testing.assert_array_equal(a.ensemble.velocities, b.ensemble.velocities)
        assert a.record.kinetic_energy == b.record.kinetic_energy


def test_simulate_em_matches_matrix_reference_to_rounding():
    # the closed-form EM step against K dt + sigma dW with (m, d, d) matrices,
    # on the same normal draws: the two differ by rounding only
    for a, b in zip(*_simulate_and_reference(EM, MAXWELL_2D)):
        err = np.max(np.abs(a.ensemble.velocities - b.ensemble.velocities))
        assert err <= 1e-12 * np.max(np.abs(b.ensemble.velocities))
        assert abs(a.record.kinetic_energy - b.record.kinetic_energy) <= 1e-12 * b.record.kinetic_energy


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("gamma", [0.0, -3.0])
def test_em_pair_update_matches_matrix_reference_to_rounding(dim, gamma):
    # 35 000 BKW pairs span two blocks; one pair of the first block lies below
    # the floor, so every later pair draws its normals one pair earlier than
    # a draw for all pairs would. Each pair's error is rounding against the
    # size of its new velocities.
    kernel = KernelParams(1.0 / 8.0, gamma, dim)
    v0 = bkw_ensemble(dim, 70_000, seed=40).velocities
    i, j = random_pairing(70_000, RngStream(41))
    assert len(i) > collision._PAIR_BLOCK
    v0[j[7]] = v0[i[7]] + 1e-15
    got, want = v0.copy(), v0.copy()
    em_pair_update(got, i, j, kernel, 0.1, RngStream(42))
    reference_em_pair_update(want, i, j, kernel, 0.1, RngStream(42))
    np.testing.assert_array_equal(got[[i[7], j[7]]], v0[[i[7], j[7]]])
    moved = np.ones(len(i), dtype=bool)
    moved[7] = False
    assert np.all(np.any(got[i[moved]] != v0[i[moved]], axis=1))
    err = np.maximum(np.max(np.abs(got[i] - want[i]), axis=1), np.max(np.abs(got[j] - want[j]), axis=1))
    scale = np.linalg.norm(want[i], axis=1) + np.linalg.norm(want[j], axis=1)
    assert np.all(err <= 1e-12 * scale)


def test_em_blow_up_raises_non_finite_state():
    ens = bkw_ensemble(2, 200, seed=25)
    v0 = ens.velocities.copy()
    cfg = SchemeConfig(1e200, EM, MAXWELL_2D, seed=26)
    with pytest.raises(NonFiniteState, match="Euler-Maruyama"):
        simulate_homogeneous(cfg, ens, 3e200, [3e200])
    np.testing.assert_array_equal(ens.velocities, v0)


def test_em_blow_up_leaves_the_block_unwritten():
    # the second pair's step overflows (|z| = 1e10, tau = 5e299); the block
    # raises before it writes either pair, with no RuntimeWarning
    v = np.array([[1e10, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    v0 = v.copy()
    with pytest.raises(NonFiniteState, match="Euler-Maruyama"):
        em_pair_update(v, np.array([2, 0]), np.array([3, 1]), MAXWELL_2D, 1e300, RngStream(27))
    np.testing.assert_array_equal(v, v0)


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


def _traceless_moment(v):
    """D, the traceless part of the centred second moments of v."""
    c = v - v.mean(axis=0)
    m = c.T @ c / len(v)
    return m - np.trace(m) / v.shape[1] * np.eye(v.shape[1])


# Seeds per case of the one-window law. With 100, the cases below read
# |z| <= 1.1, and a 5% error (either way) in the tau that the sampler uses in
# the 2D normal band, the lift or the mixture band reads |z| = 7.6 to 13.7
LAW_SEEDS = 100
LAW_Z = 4.0


def _window_law_z(dim, dt, scheme):
    """z-score of the mean of <D', D> / <D, D> over LAW_SEEDS windows of a
    uniform pairing of 2e4 bi-Maxwellian particles, T = (2, 0.5[, 0.5]),
    against its law r = ((N - 2) + N exp(-d tau)) / (2 (N - 1)).

    Maxwell molecules give every pair the one time tau = 4 lam dt. Given the
    pairing, SBM takes E[z'z'^T] to |z|^2 I/d + (zz^T - |z|^2 I/d) exp(-d tau),
    the decay of the degree-2 harmonics, and the pair's second moment
    v_i v_i^T + v_j v_j^T to (ss^T + z'z'^T)/2. Averaged over the uniform
    pairings of centred velocities, the sum of ss^T over the pairs is
    (N - 2)/(N - 1) of the sum of v v^T and that of zz^T is N/(N - 1) of it,
    so E[D'] = r D."""
    n = 20_000
    kernel = KernelParams(1.0 / 8.0 if dim == 2 else 1.0 / 12.0, 0.0, dim)
    v0 = np.random.default_rng(60).standard_normal((n, dim)) * np.sqrt([2.0, 0.5, 0.5][:dim])
    d0 = _traceless_moment(v0)
    tau = 4.0 * kernel.lam * dt
    r = ((n - 2) + n * np.exp(-dim * tau)) / (2.0 * (n - 1))
    rho = np.empty(LAW_SEEDS)
    for k in range(LAW_SEEDS):
        v = v0.copy()
        i, j = random_pairing(n, RngStream(61, step=k, domain=DOMAIN_PAIRING))
        collision_step(v, i, j, SchemeConfig(dt, scheme, kernel, seed=62 + k), 1)
        rho[k] = np.sum(_traceless_moment(v) * d0) / np.sum(d0 * d0)
    return (rho.mean() - r) / (rho.std(ddof=1) / np.sqrt(LAW_SEEDS))


# one dt per band of the sampler, in the one block of 1e4 pairs, and two
# bands in blocks of 2048 pairs: four full blocks and one of 1808, so a
# skipped or misplaced later block shows as well
LAW_CASES = [(2, 1.0, "normal", None), (2, 250.0, "uniform", None), (3, 0.3, "lift", None),
             (3, 1.5, "mixture", None), (3, 200.0, "uniform", None),
             (2, 1.0, "normal", 2048), (3, 1.5, "mixture", 2048)]


@pytest.mark.parametrize("dim,dt,band,block", LAW_CASES,
                         ids=[f"{d}-{dt}-{band}" + (f"-block{b}" if b else "")
                              for d, dt, band, b in LAW_CASES])
def test_one_window_moves_the_anisotropy_by_its_law(dim, dt, band, block, monkeypatch):
    # pairing, pair geometry, sphere step and scatter together; in the
    # uniform bands exp(-d tau) is 0
    if block:
        monkeypatch.setattr(collision, "_PAIR_BLOCK", block)
    tau = 4.0 * (1.0 / 8.0 if dim == 2 else 1.0 / 12.0) * dt
    lift = dim == 3 and tau < _MIXTURE_MIN_TAU
    uniform = tau >= _uniform_time(dim)
    assert band == ("uniform" if uniform else "lift" if lift else "mixture" if dim == 3 else "normal")
    z = _window_law_z(dim, dt, SBM)
    assert abs(z) <= LAW_Z, f"z = {z:+.2f}"


def test_em_window_misses_the_law():
    # EM's drift and noise give E[z'z'^T] the traceless factor
    # (1 - tau/2)^2 - tau = 0.0625 at tau = 0.5 in 2D, not exp(-1) = 0.37
    z = _window_law_z(2, 1.0, EM)
    assert abs(z) > LAW_Z, f"z = {z:+.2f}"


def test_coulomb_window_moves_the_anisotropy_by_its_law():
    """One window of 2e4 bi-Maxwellian particles, T = (2, 0.5, 0.5), under
    3D gamma = -3 at dt = 5, per seed against the law of its own pairing: the
    z-score of the mean of <D' - E[D'], D> / <D, D> over LAW_SEEDS windows.

    Given v and the pairing, pair k turns z over its own time
    tau_k = 4 lam |z_k|^gamma dt, so E[z'z'^T] = |z|^2 I/d
    + (zz^T - |z|^2 I/d) exp(-d tau_k), and E[sum of v'v'^T] is the sum over
    the pairs of (ss^T + E[z'z'^T])/2. The mean is conserved, so E[D'] is
    exact for every N and every pairing. A window holds about 4200 pairs in
    the lift band, 5700 in the mixture band and 50 in the uniform band. It
    reads z = -0.81, and -10.47 with tau 5% too large; at dt = 1 the two
    read -1.27 and -4.00, too close to the bound."""
    n, dim, dt, kernel = 20_000, 3, 5.0, COULOMB_3D
    v0 = np.random.default_rng(63).standard_normal((n, dim)) * np.sqrt([2.0, 0.5, 0.5])
    d0 = _traceless_moment(v0)
    mean = v0.mean(axis=0)
    rho = np.empty(LAW_SEEDS)
    for k in range(LAW_SEEDS):
        i, j = random_pairing(n, RngStream(64, step=k, domain=DOMAIN_PAIRING))
        s, z = v0[i] + v0[j], v0[i] - v0[j]
        r2 = np.sum(z * z, axis=1)
        decay = np.exp(-dim * 4.0 * kernel.lam * r2 ** (kernel.gamma / 2.0) * dt)
        second = (s.T @ s + (z * decay[:, None]).T @ z
                  + np.sum(r2 * (1.0 - decay)) / dim * np.eye(dim))
        c = second / (2.0 * n) - np.outer(mean, mean)
        expect = c - np.trace(c) / dim * np.eye(dim)
        v = v0.copy()
        collision_step(v, i, j, SchemeConfig(dt, SBM, kernel, seed=65 + k), 1)
        rho[k] = np.sum((_traceless_moment(v) - expect) * d0) / np.sum(d0 * d0)
    z = rho.mean() / (rho.std(ddof=1) / np.sqrt(LAW_SEEDS))
    assert abs(z) <= LAW_Z, f"z = {z:+.2f}"


# dim -> (N, seeds) of the fourth-moment law. The seed mean of M4 at t = 4
# has an SE of about 0.004 (2D) and 0.006 (3D), a fifth or less of the 0.021
# to 0.034 by which a 5% error in tau moves it. The cases read |z| <= 1.8,
# and +4.3 to +6.2 with tau 5% too large.
M4_RUNS = {2: (100_000, 16), 3: (50_000, 48)}


@pytest.mark.parametrize("dim,dt", [(2, 1.0), (2, 0.5), (3, 1.0), (3, 0.5)])
def test_windows_relax_the_bkw_fourth_moment_by_the_window_law(dim, dt):
    """For Maxwell molecules one window of a pair adds (1 - exp(-d tau))/2
    (|s|^2 |z|^2/d - (s.z)^2) to E[|v_i|^4 + |v_j|^4]. Over a uniform pairing
    of isotropic velocities, M4 - Minf then moves per window to
    (1 - c (1 - exp(-x))) (M4 - Minf), with x = d tau = dt for both BKW
    kernels, c = (d - 1)/(2d) and Minf = (d + 2)/d <|v|^2>^2 (8 in 2D, 15 in
    3D), up to O(1/N). Landau's BKW solution relaxes as exp(-c t) instead:
    the window's rate is (1 - exp(-x))/x of Landau's. Each seed's prediction
    starts from its own sample at t_min, and the Landau value must miss at
    dt = 1."""
    kernel = MAXWELL_2D if dim == 2 else MAXWELL_3D
    t_end, (n, seeds) = 4.0, M4_RUNS[dim]
    k, c = round(t_end / dt), (dim - 1) / (2.0 * dim)
    window, landau = (1.0 - c * (1.0 - np.exp(-dt))) ** k, np.exp(-c * t_end)
    res = np.empty((seeds, 2))
    for seed in range(seeds):
        v = bkw_ensemble(dim, n, seed=2600 + seed).velocities
        r2 = np.sum(v * v, axis=1)
        m4, m_inf = np.mean(r2 * r2), (dim + 2) / dim * np.mean(r2) ** 2
        cfg = SchemeConfig(dt, SBM, kernel, seed=2600 + seed)
        for step in range(1, k + 1):
            collision_step(v, *random_pairing(n, RngStream(2600 + seed, step=step,
                                                           domain=DOMAIN_PAIRING)), cfg, step)
        r2 = np.sum(v * v, axis=1)
        res[seed] = np.mean(r2 * r2) - (m_inf + np.array([window, landau]) * (m4 - m_inf))
    z_window, z_landau = res.mean(axis=0) / (res.std(axis=0, ddof=1) / np.sqrt(len(res)))
    assert abs(z_window) <= LAW_Z, f"window law z = {z_window:+.2f}"
    if dt == 1.0:
        assert abs(z_landau) > LAW_Z, f"Landau z = {z_landau:+.2f}"
