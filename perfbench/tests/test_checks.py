"""The benchmark's checks reject wrong outputs and accept right ones.

    python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
from scipy.integrate import trapezoid

from landau.analytic import sample_bkw
from landau.collision import EM, SBM, ParticleEnsemble, SchemeConfig, simulate_homogeneous
from landau.kernels import KernelParams
from landau.sphere import default_sampler, sample_sbm_batch
from landau.streams import DOMAIN_INIT, RngStream
from landau.vpl import PicGrid, VplConfig, initial_state
from perfbench import checks
from perfbench.workloads import WORKLOADS


def _bkw2d_final(scheme, n, t_end, seed=11):
    spec = WORKLOADS["bkw2d"]
    v0 = sample_bkw(2, 0.0, n, RngStream(seed, domain=DOMAIN_INIT))
    cfg = SchemeConfig(spec["dt"], scheme, KernelParams(spec["lam"], spec["gamma"], 2), seed=seed)
    res = simulate_homogeneous(cfg, ParticleEnsemble(v0), t_end, [t_end], store_snapshots=True)
    return v0, res[-1].ensemble.velocities


def test_em_run_fails_bkw_moment_check():
    # Euler-Maruyama grows the energy by about 3e-4 per step at dt=0.1, so
    # after 100 steps <|v|^4> sits many standard errors above 16K - 8K^2.
    _, v_em = _bkw2d_final(EM, 100_000, 10.0)
    _, v_sbm = _bkw2d_final(SBM, 100_000, 10.0)
    assert not checks.check_fourth_moment(v_em, 2, 10.0).ok
    assert checks.check_fourth_moment(v_sbm, 2, 10.0).ok


def test_scaled_velocities_fail_conservation_check():
    v0, v1 = _bkw2d_final(SBM, 20_000, 1.0)
    assert all(c.ok for c in checks.check_conservation(v0, v1))
    bad = checks.check_conservation(v0, 1.001 * v1)
    assert not all(c.ok for c in bad)


def test_halved_mode_fails_alpha_over_k_check():
    spec = WORKLOADS["vpl-damping"]
    cfg = VplConfig(n_particles=spec["n"], dt=spec["dt"], t_end=spec["dt"], alpha=spec["alpha"],
                    kernel=KernelParams(spec["lam"], spec["gamma"], 2), n_cells=spec["n_cells"],
                    seed=5)
    grid = PicGrid(cfg.length, cfg.n_cells)
    field = initial_state(cfg, grid).field
    k = 2.0 * math.pi / cfg.length
    ok = checks.check_damping_mode(field, cfg.length, k, cfg.alpha, cfg.n_particles)
    assert ok.ok
    amp = checks.field_mode(field, cfg.length, k)
    halved = field - 0.5 * amp * np.sin(k * grid.centers())
    assert not checks.check_damping_mode(halved, cfg.length, k, cfg.alpha, cfg.n_particles).ok


def test_bkw_closed_forms_agree_with_each_other():
    # The fourth moment of the closed-form density, integrated radially,
    # equals the closed-form moment; this ties the two formulas together.
    r = np.linspace(0.0, 40.0, 400_001)
    for dim, t in ((2, 0.0), (2, 5.0), (3, checks.BKW3D_T_MIN), (3, 9.0)):
        v = np.zeros((r.size, dim))
        v[:, 0] = r
        f = checks.bkw_density(dim, t, v)
        shell = 2.0 * np.pi * r if dim == 2 else 4.0 * np.pi * r * r
        mass = trapezoid(shell * f, r)
        m4 = trapezoid(shell * f * r**4, r)
        assert abs(mass - 1.0) < 1e-9
        assert abs(m4 - checks.bkw_fourth_moment(dim, t)) < 1e-8


def test_legendre_check_detects_a_five_percent_late_turn():
    rng = np.random.default_rng(3)
    n = 100_000
    starts = rng.standard_normal((n, 3))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    taus = rng.choice([0.02, 0.2, 1.0], n)
    kind = default_sampler(3)
    ends = sample_sbm_batch(starts, taus, kind, RngStream(4))
    assert all(c.ok for c in checks.check_legendre(checks.legendre_sums(starts, ends, taus)))
    late = sample_sbm_batch(starts, 1.05 * taus, kind, RngStream(4))
    assert not all(c.ok for c in checks.check_legendre(checks.legendre_sums(starts, late, taus)))
