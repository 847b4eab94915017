import numpy as np
import pytest

from landau.analytic import sample_bkw
from landau.collision import (EM, SBM, ParticleEnsemble, SchemeConfig,
                              em_collision_step, random_pairing, sbm_collision_step,
                              sbm_pair_update, simulate_homogeneous)
from landau.errors import InvalidCheckpoint, OddParticleCount
from landau.kernels import KernelParams, kernel_K, projection
from landau.streams import RngStream

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MAXWELL_2D = KernelParams(1.0 / 8.0, 0.0, 2)
MAXWELL_3D = KernelParams(1.0 / 12.0, 0.0, 3)
COULOMB_2D = KernelParams(1.0 / 8.0, -3.0, 2)
COULOMB_3D = KernelParams(1.0 / 12.0, -3.0, 3)


def bkw_ensemble(dim, n, seed=0):
    t0 = 0.0 if dim == 2 else -6.0 * np.log(0.4)
    return ParticleEnsemble(sample_bkw(dim, t0, n, RngStream(seed)))


def pair_sums(ens, pairing):
    i, j = pairing
    v = ens.velocities
    return v[i] + v[j], np.sum(v[i] ** 2 + v[j] ** 2, axis=1)


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
    ens = ParticleEnsemble(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    cfg = SchemeConfig(0.1, SBM, KernelParams(0.0, 0.0, 2), seed=1)
    out = sbm_collision_step(ens, (np.array([0]), np.array([1])), cfg, step=1)
    np.testing.assert_array_equal(out.velocities, ens.velocities)


def test_sbm_step_degenerate_pair_unchanged():
    ens = ParticleEnsemble(np.array([[1.0, 0.0], [1.0, 0.0], [0.4, 0.2], [-0.1, 0.3]]))
    cfg = SchemeConfig(0.1, SBM, COULOMB_2D, seed=2)
    out = sbm_collision_step(ens, (np.array([0, 2]), np.array([1, 3])), cfg, step=1)
    np.testing.assert_array_equal(out.velocities[:2], ens.velocities[:2])
    assert not np.array_equal(out.velocities[2:], ens.velocities[2:])


@pytest.mark.parametrize("kernel,dim", [(MAXWELL_2D, 2), (COULOMB_2D, 2), (MAXWELL_3D, 3)])
def test_sbm_per_pair_conservation(kernel, dim):
    ens = bkw_ensemble(dim, 1000, seed=4)
    pairing = random_pairing(1000, RngStream(5))
    cfg = SchemeConfig(0.1, SBM, kernel, seed=6)
    out = sbm_collision_step(ens, pairing, cfg, step=1)
    s0, e0 = pair_sums(ens, pairing)
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


def test_em_momentum_and_zero_noise_drift():
    ens = bkw_ensemble(2, 50 * 2, seed=7)
    pairing = random_pairing(ens.n, RngStream(8))
    cfg = SchemeConfig(0.1, EM, MAXWELL_2D, seed=9)
    i, j = pairing
    z = ens.velocities[i] - ens.velocities[j]

    out = em_collision_step(ens, pairing, cfg, step=1)
    s0, _ = pair_sums(ens, pairing)
    s1, _ = pair_sums(out, pairing)
    np.testing.assert_allclose(s1, s0, rtol=0, atol=1e-12 * np.max(np.abs(s0)))

    out0 = em_collision_step(ens, pairing, cfg, step=1, noise=np.zeros_like(z))
    dv = out0.velocities[i] - ens.velocities[i]
    np.testing.assert_allclose(dv, kernel_K(z, MAXWELL_2D) * cfg.dt, atol=1e-14)
    np.testing.assert_allclose(out0.velocities[j] - ens.velocities[j], -dv, atol=1e-15)


@pytest.mark.parametrize("kernel,dim", [(MAXWELL_2D, 2), (MAXWELL_3D, 3), (COULOMB_2D, 2)])
def test_em_energy_identity_per_realized_noise(kernel, dim):
    # Delta(|v_i|^2 + |v_j|^2) = 2 lam^2 (d-1)^2 |z|^(2g+2) dt^2
    #                          + 2 lam |z|^(g+2) (|Pi(z) xi|^2 - (d-1)) dt
    ens = bkw_ensemble(dim, 400, seed=10)
    pairing = random_pairing(ens.n, RngStream(11))
    dt = 0.05
    cfg = SchemeConfig(dt, EM, kernel, seed=12)
    i, j = pairing
    z = ens.velocities[i] - ens.velocities[j]
    rng = np.random.default_rng(13)
    dw = rng.standard_normal(z.shape) * np.sqrt(dt)
    out = em_collision_step(ens, pairing, cfg, step=1, noise=dw)
    _, e0 = pair_sums(ens, pairing)
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
        out = sbm_collision_step(ParticleEnsemble(v), (i, j), cfg, 1)
        assert not np.any(np.all(out.velocities == v, axis=1))

        v2 = np.empty_like(v)
        v2[perm] = v
        out2 = sbm_collision_step(ParticleEnsemble(v2), (perm[i], perm[j]), cfg, 1)

        np.testing.assert_array_equal(out2.velocities[perm], out.velocities)


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
