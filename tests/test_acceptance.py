"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear; the
acceptance suite takes about two minutes on two cores, dominated by the two
Landau-damping runs and the long BKW relaxation.
"""

import time

import numpy as np
import pytest
from scipy import integrate
from scipy.signal import find_peaks
from scipy.stats import chisquare, ks_2samp, kstest

from landau.analytic import bkw_density, sample_bimaxwellian, sample_bkw
from landau.collision import (EM, SBM, DiagnosticsPlan, ParticleEnsemble,
                              SchemeConfig, collision_step, random_pairing,
                              simulate_homogeneous)
from landau.diagnostics import DensityGrid
from landau.kernels import KernelParams
from landau.sphere import default_sampler, sample_sbm_batch
from landau.streams import RngStream, DOMAIN_PAIRING
from landau.vpl import PicGrid, VplConfig, simulate_vpl, solve_poisson

from oracles import (bkw_mollified_density, center_mesh, heat_kernel_cos_cdf,
                     landau_damping_rate, unit)

MAXWELL_2D = KernelParams(1.0 / 8.0, 0.0, 2)
COULOMB_2D = KernelParams(1.0 / 8.0, -3.0, 2)


def report(num, name, ok, detail):
    print(f"\n[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def bkw_large_run():
    """N=1e5 SBM Maxwell run to t=200 with KDE diagnostics every 2 time units."""
    grid = DensityGrid(2, -8.0, 8.0, 128)
    mesh = center_mesh(grid)
    plan = DiagnosticsPlan(grid=grid, eps=0.01,
                           reference=lambda t: bkw_density(2, t, mesh))
    cfg = SchemeConfig(0.1, SBM, MAXWELL_2D, seed=42)
    init = ParticleEnsemble(sample_bkw(2, 0.0, 100_000, RngStream(42)))
    checkpoints = [round(2.0 * k, 10) for k in range(101)]
    return simulate_homogeneous(cfg, init, 200.0, checkpoints, plan)


@pytest.fixture(scope="module")
def vpl_runs():
    """Landau damping at N=1e5 with 5 fixed Crank-Nicolson sweeps per step,
    without (lambda = 0) and with (lambda = 1) collisions."""
    out = {}
    for lam in (0.0, 1.0):
        cfg = VplConfig(n_particles=100_000, dt=0.02, t_end=50.0, alpha=0.1,
                        kernel=KernelParams(lam, -2.0, 2), n_cells=128, n_iters=5, seed=7)
        out[lam, "fix5"], _ = simulate_vpl(cfg)
    return out


# ---------------------------------------------------------------- criteria

def test_c01_sbm_exact_conservation():
    cfg = SchemeConfig(0.1, SBM, MAXWELL_2D, seed=1)
    init = ParticleEnsemble(sample_bkw(2, 0.0, 10_000, RngStream(1)))
    checkpoints = [round(10.0 * k, 10) for k in range(21)]
    res = simulate_homogeneous(cfg, init, 200.0, checkpoints)
    p0 = res[0].record.momentum
    e0 = res[0].record.kinetic_energy
    pscale = max(np.linalg.norm(p0), np.sqrt(2.0 * e0))
    dp = max(np.linalg.norm(c.record.momentum - p0) for c in res) / pscale
    de = max(abs(c.record.kinetic_energy - e0) for c in res) / e0
    ok = dp <= 1e-10 and de <= 1e-10
    report(1, "SBM exact conservation", ok,
           f"max rel momentum dev {dp:.2e}, max rel energy dev {de:.2e} (tol 1e-10)")


def test_c02_em_energy_growth_law():
    # single pair: v1=(1,0), v2=(-1,0), |z|=2, dt=0.1 -> E[d(|v1|^2+|v2|^2)] = 0.00125
    m = 1_000_000
    v = np.empty((2 * m, 2))
    v[0::2] = [1.0, 0.0]
    v[1::2] = [-1.0, 0.0]
    pairs = (np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2))
    cfg = SchemeConfig(0.1, EM, MAXWELL_2D, seed=101)
    out = v.copy()
    collision_step(out, *pairs, cfg, step=1)
    pair_sq = lambda w: np.sum(w**2, axis=1).reshape(-1, 2).sum(axis=1)
    dsq = pair_sq(out) - pair_sq(v)
    se = dsq.std(ddof=1) / np.sqrt(m)
    z = (dsq.mean() - 0.00125) / se
    ok1 = abs(z) <= 3.0

    # ensemble: measured per-step energy increase vs lam^2 (d-1)^2 sum |z|^(2g+2) dt^2.
    # The zero-mean noise term gives the ratio a standard error of about
    # 0.21 * sqrt(1e4 / n) over 100 steps; n = 4e5 puts the 10% tolerance at ~3 SE.
    n = 400_000
    cfg2 = SchemeConfig(0.1, EM, MAXWELL_2D, seed=102)
    v = sample_bkw(2, 0.0, n, RngStream(102))
    measured, predicted = [], []
    for step in range(1, 101):
        i, j = random_pairing(n, RngStream(102, step=step, domain=DOMAIN_PAIRING))
        r2 = np.sum((v[i] - v[j]) ** 2, axis=1)
        predicted.append(np.sum(MAXWELL_2D.lam**2 * r2 ** (MAXWELL_2D.gamma + 1)) * cfg2.dt**2)
        before = 0.5 * np.sum(v**2)
        collision_step(v, i, j, cfg2, step)
        measured.append(0.5 * np.sum(v**2) - before)
    ratio = np.mean(measured) / np.mean(predicted)
    ok2 = abs(ratio - 1.0) <= 0.10
    report(2, "EM energy growth law", ok1 and ok2,
           f"single-pair mean {dsq.mean():.6f} vs 0.00125 (z={z:+.2f}); ensemble ratio {ratio:.4f}")


def test_c03_sbm_sampler_heat_kernel_moment():
    n = 1_000_000
    worst = 0.0
    lines = []
    for dim in (2, 3):
        kind = default_sampler(dim)
        start = np.zeros(dim)
        start[-1] = 1.0
        starts = np.broadcast_to(start, (n, dim))
        for k, tau in enumerate((0.01, 0.05, 0.5)):
            res = sample_sbm_batch(starts, np.full(n, tau), kind, RngStream(300 + dim, step=k))
            dots = res[:, -1]
            exact = np.exp(-(dim - 1) * tau / 2.0)
            z = (dots.mean() - exact) / (dots.std(ddof=1) / np.sqrt(n))
            worst = max(worst, abs(z))
            lines.append(f"d={dim},tau={tau}:z={z:+.2f}")
    ok_moments = worst <= 3.0

    s2 = unit(np.array([0.6, -0.7, 0.3]))
    o1 = sample_sbm_batch(np.broadcast_to(s2, (n, 3)), np.full(n, 0.25),
                          default_sampler(3), RngStream(310))
    o2 = sample_sbm_batch(np.broadcast_to([0.0, 0.0, 1.0], (n, 3)), np.full(n, 0.25),
                          default_sampler(3), RngStream(311))
    p_ks = ks_2samp(o1 @ s2, o2[:, 2]).pvalue
    a = unit(np.cross(s2, [1.0, 0.0, 0.0]))
    b = np.cross(s2, a)
    counts, _ = np.histogram(np.arctan2(o1 @ b, o1 @ a), bins=36, range=(-np.pi, np.pi))
    p_chi = chisquare(counts).pvalue
    ok = ok_moments and p_ks > 0.01 and p_chi > 0.01
    report(3, "SBM sampler heat-kernel moment", ok,
           f"max |z| {worst:.2f} (<=3); equivariance KS p={p_ks:.3f}, azimuth chi2 p={p_chi:.3f} "
           + " ".join(lines))


def test_c04_half_order_convergence():
    grid = DensityGrid(2, -8.0, 8.0, 128)
    mesh = center_mesh(grid)
    plan = DiagnosticsPlan(grid=grid, eps=0.01, reference=lambda t: bkw_density(2, t, mesh))
    n_list = (1000, 4000, 16000)
    means = []
    for n in n_list:
        errs = []
        for s in range(8):
            cfg = SchemeConfig(0.1, SBM, MAXWELL_2D, seed=400 + s)
            init = ParticleEnsemble(sample_bkw(2, 0.0, n, RngStream(400 + s)))
            res = simulate_homogeneous(cfg, init, 5.0, [5.0], plan)
            errs.append(res[-1].record.rel_l2_error)
        means.append(float(np.mean(errs)))
    slope = np.polyfit(np.log10(n_list), np.log10(means), 1)[0]
    ok = -0.7 <= slope <= -0.3
    report(4, "half-order convergence", ok,
           f"mean errors {np.round(means, 4).tolist()} at N={list(n_list)}, slope {slope:.3f} in [-0.7,-0.3]")


def test_c05_linear_per_step_cost():
    n_list = (10_000, 100_000, 1_000_000)
    times = []
    for n in n_list:
        cfg = SchemeConfig(0.1, SBM, MAXWELL_2D, seed=0)
        v = sample_bkw(2, 0.0, n, RngStream(0))
        best = np.inf
        for rep in range(7):
            # the step's own CPU time: other processes on the machine do not add to it
            t0 = time.process_time()
            i, j = random_pairing(n, RngStream(0, step=rep + 1, domain=DOMAIN_PAIRING))
            collision_step(v, i, j, cfg, rep + 1)
            el = time.process_time() - t0
            if rep >= 2:
                best = min(best, el)
        times.append(best)
    slope = np.polyfit(np.log10(n_list), np.log10(times), 1)[0]
    ok = 0.9 <= slope <= 1.15
    report(5, "linear per-step cost", ok,
           f"per-step {[f'{t * 1e3:.2f}ms' for t in times]} at N={list(n_list)}, slope {slope:.3f} in [0.9,1.15]")


def test_c06_bkw_tracking_accuracy(bkw_large_run):
    errs = np.array([c.record.rel_l2_error for c in bkw_large_run])
    ts = np.array([c.time for c in bkw_large_run])
    max_err = errs.max()
    design = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(design, errs, rcond=None)
    resid = errs - design @ coef
    se = np.sqrt(np.sum(resid**2) / (len(ts) - 2) / np.sum((ts - ts.mean()) ** 2))
    ok = max_err < 0.05 and coef[0] <= 2.0 * se
    report(6, "BKW tracking accuracy", ok,
           f"max rel-L2 {max_err:.4f} (<0.05); trend slope {coef[0]:.2e} vs 2*SE {2 * se:.2e}")


def test_c07_entropy_dissipation(bkw_large_run):
    ents = np.array([c.record.entropy for c in bkw_large_run])
    max_rise = np.diff(ents).max()
    ok_mono = max_rise <= 5e-3

    def mollified_entropy(t, eps=0.01):
        def g(r):
            val = float(bkw_mollified_density(2, t, eps, np.array([r, 0.0])))
            return 2.0 * np.pi * r * (val * np.log(val) if val > 0 else 0.0)
        return integrate.quad(g, 0.0, 30.0, limit=400)[0]

    drop_oracle = mollified_entropy(0.0) - mollified_entropy(200.0)
    drop_meas = ents[0] - ents[-1]
    rel_dev = abs(drop_meas - drop_oracle) / abs(drop_oracle)
    ok = ok_mono and rel_dev <= 0.10
    report(7, "entropy dissipation", ok,
           f"max checkpoint-to-checkpoint rise {max_rise:.2e} (tol 5e-3); "
           f"drop {drop_meas:.4f} vs mollified-analytic {drop_oracle:.4f} (dev {rel_dev:.1%}, tol 10%)")


def test_c08_singular_kernel_stability():
    init = ParticleEnsemble(sample_bimaxwellian(10_000, RngStream(800)))
    cfg = SchemeConfig(0.1, SBM, COULOMB_2D, seed=800)
    checkpoints = [round(20.0 * k, 10) for k in range(11)]
    res = simulate_homogeneous(cfg, init, 200.0, checkpoints)
    e0 = res[0].record.kinetic_energy
    de = max(abs(c.record.kinetic_energy - e0) for c in res) / e0
    finite = all(np.isfinite(c.record.kinetic_energy) and np.all(np.isfinite(c.record.momentum))
                 for c in res)

    cfg_em = SchemeConfig(0.1, EM, COULOMB_2D, seed=800)
    res_em = simulate_homogeneous(cfg_em, init, 20.0, [0.0, 10.0, 20.0])
    em_e = [c.record.kinetic_energy for c in res_em]
    em_finite = all(np.isfinite(em_e))
    growth = em_e[-1] / em_e[0]
    ok = de <= 1e-10 and finite and em_finite and growth > 1.01
    report(8, "singular-kernel stability", ok,
           f"SBM rel energy dev {de:.2e} (tol 1e-10), finite={finite}; "
           f"EM energy x{growth:.1f} by t=20 (finite={em_finite})")


def test_c09_spectral_poisson():
    grid = PicGrid(4.0 * np.pi, 128)
    x = grid.centers()
    e = solve_poisson(np.cos(0.5 * x), grid)
    err = np.max(np.abs(e - 2.0 * np.sin(0.5 * x)))
    ok = err <= 1e-12
    report(9, "spectral Poisson correctness", ok, f"max |E - 2 sin(x/2)| = {err:.2e} (tol 1e-12)")


def test_c10_vpl_total_energy_conservation(vpl_runs):
    details = []
    ok = True
    for (lam, mode), recs in vpl_runs.items():
        e0 = recs[0].total_energy
        drift = max(abs(r.total_energy - e0) for r in recs) / abs(e0)
        ok &= drift <= 1e-12
        details.append(f"lam={lam:g},{mode}: {drift:.2e}<=1e-12")
    report(10, "VPL total-energy conservation", ok, "; ".join(details))


def test_c11_landau_damping_rate(vpl_runs):
    _, oracle_rate = landau_damping_rate(0.5)
    assert abs(oracle_rate - 0.153) < 1e-3  # sanity of the oracle itself
    recs = vpl_runs[0.0, "fix5"]
    el2 = np.array([r.electric_l2 for r in recs])
    ts = np.array([r.time for r in recs])
    sel = (ts >= 2.0) & (ts <= 15.0)
    t_w, e_w = ts[sel], el2[sel]
    peaks, _ = find_peaks(e_w)
    coef = np.polyfit(t_w[peaks], np.log(e_w[peaks]), 1)
    rate = -coef[0]
    ok = abs(rate - oracle_rate) <= 0.05
    report(11, "Landau damping rate", ok,
           f"envelope rate {rate:.4f} vs dispersion-relation oracle {oracle_rate:.4f} "
           f"({len(peaks)} peaks, tol 0.05)")


def test_c12_radial_sampler_vs_series_oracle():
    n = 100_000
    vals = sample_sbm_batch(np.broadcast_to([0.0, 0.0, 1.0], (n, 3)), np.full(n, 1.0),
                            default_sampler(3), RngStream(1200))[:, 2]
    res = kstest(vals, lambda x: heat_kernel_cos_cdf(x, 1.0))
    ok = res.pvalue > 0.01
    report(12, "radial sampler vs heat-kernel series", ok,
           f"KS stat {res.statistic:.5f}, p = {res.pvalue:.3f} (level 0.01)")
