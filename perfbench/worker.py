"""One round of one workload, in a fresh process.

    python3 -m perfbench.worker --workload bkw2d --seed 0 --traced 0 \
        --spawned-at <time.monotonic() of the parent just before the spawn>

Run from the repository root; perfbench/run.py starts it with BLAS and OpenMP
pools held to one thread. Prints one JSON object: the round's timings, its
operation counts and check results and, when traced, its per-layer figures.
"""

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import checks, trace
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench_out" / "spans"


def _expected_checks(spec, traced):
    """Number of checks a round makes; all count as failed when the solver raises."""
    if spec["kind"] == "vpl":
        return 3
    n = 3 + (2 if spec["density"] else 1) + (1 if spec["density"] and spec["dim"] == 2 else 0)
    return n + (2 if traced and spec["dim"] == 3 else 0)


class SphereStats:
    """Counts and Legendre sums taken from every sphere-sampler call."""

    def __init__(self):
        self.pairs = 0
        self.samples = 0
        self.distinct = []
        self.legendre = np.zeros(4)

    def on_pairing(self, args, kwargs, out):
        self.pairs += int(args[0]) // 2

    def on_sample(self, args, kwargs, out):
        starts = np.atleast_2d(args[0])
        taus = np.broadcast_to(np.asarray(args[1], dtype=float), (starts.shape[0],))
        act = taus > 0
        self.samples += int(np.count_nonzero(act))
        self.distinct.append(int(np.unique(taus[act]).size))
        if starts.shape[1] == 3:
            self.legendre += checks.legendre_sums(starts[act], out[act], taus[act])


def calibration_s():
    """Time a fixed numpy mix like the solver's own work.

    Shuffles, gathers, transcendental maps, a bincount and a loop of tiny
    array operations, on fixed data. Its time tracks the speed the shared
    host gives this process at the moment; see CAL_REF_S.
    """
    rng = np.random.default_rng(2024)
    v = rng.standard_normal((100_000, 2))
    t0 = time.perf_counter()
    for _ in range(16):
        perm = rng.permutation(100_000)
        z = v[perm[0::2]] - v[perm[1::2]]
        r = np.linalg.norm(z, axis=1)
        th = np.arctan2(z[:, 1], z[:, 0]) + 0.1 * rng.standard_normal(r.size)
        v[perm[0::2]] = 0.5 * r[:, None] * np.column_stack([np.cos(th), np.sin(th)])
        cells = np.floor((v[:, 0] + 8.0) * 8.0).astype(np.int64).clip(0, 127)
        np.bincount(cells, weights=np.exp(-v[:, 1] ** 2), minlength=128)
        y = np.ones(3)
        for _ in range(300):
            y = y / np.linalg.norm(y)
    return time.perf_counter() - t0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _layers(spans, run_id, n, kind, stats):
    """Per-layer figures of one traced round, and its per-call samples."""
    homogeneous = kind == "homogeneous"

    def ids(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return math.fsum(net[i] for i in ids(name))

    steps = trace.derive_steps(spans, run_id) if homogeneous else ids("vpl.step")
    net, self_t = trace.span_times(spans)
    coll = steps if homogeneous else []
    n_cn = len(ids("vpl.cn"))
    out = {
        "collision.pairing_s": total("collision.pairing"),
        "collision.pair_update_s": math.fsum(self_t[i] for i in coll),
        "collision.particle_steps_per_s":
            n * len(coll) / math.fsum(net[i] for i in coll) if coll else 0.0,
        "collision.pairs": stats.pairs,
        "collision.active_ratio": stats.samples / stats.pairs if stats.pairs else 0.0,
        "kernels.time_scale_s": total("kernels.time_scale_k"),
        "sphere.sample_s": total("sphere.sample"),
        "sphere.samples": stats.samples,
        "sphere.us_per_sample":
            total("sphere.sample") / stats.samples * 1e6 if stats.samples else 0.0,
        "sphere.distinct_tau": _median(stats.distinct),
        "diagnostics.kde_s": total("diagnostics.kde"),
        "diagnostics.kde_calls": len(ids("diagnostics.kde")),
        "diagnostics.moments_s": total("diagnostics.moments"),
        "vpl.cell_collisions_s": total("vpl.cell_collisions"),
        "vpl.cn_s": total("vpl.cn"),
        "vpl.deposit_s": total("vpl.deposit"),
        "vpl.interpolate_s": total("vpl.interpolate"),
        "vpl.cn_self_s": math.fsum(self_t[i] for i in ids("vpl.cn")),
        "vpl.sweeps_per_step": len(ids("vpl.deposit")) / n_cn if n_cn else 0.0,
        "vpl.diagnostics_s": total("vpl.diagnostics"),
        "streams.generators": len(ids("streams.generator")),
        "streams.generator_s": total("streams.generator"),
        "analytic.init_s": total("analytic.init"),
    }
    samples = {"step_ms": [net[i] * 1e3 for i in coll],
               "vpl_step_ms": [] if homogeneous else [net[i] * 1e3 for i in steps],
               "kde_ms": [net[i] * 1e3 for i in ids("diagnostics.kde")]}
    return out, samples


def _homogeneous(spec, seed, span):
    from landau import analytic, collision
    from landau.diagnostics import DensityGrid, mollified_density
    from landau.kernels import KernelParams
    from landau.streams import DOMAIN_INIT, RngStream

    dim = spec["dim"]
    t0 = 0.0 if dim == 2 else checks.BKW3D_T_MIN
    with span("analytic.init"):
        v0 = analytic.sample_bkw(dim, t0, spec["n"], RngStream(seed, domain=DOMAIN_INIT))
    init = collision.ParticleEnsemble(v0)
    cfg = collision.SchemeConfig(spec["dt"], collision.SBM,
                                 KernelParams(spec["lam"], spec["gamma"], dim), None, seed)
    grid = DensityGrid(dim, -wl.GRID_EXTENT, wl.GRID_EXTENT, wl.GRID_CELLS[dim])
    mesh = checks.grid_mesh(dim, grid.lo, grid.hi, grid.n_grid)
    plan = collision.DiagnosticsPlan()
    if spec["density"]:
        plan = collision.DiagnosticsPlan(
            grid=grid, eps=wl.EPS, reference=lambda t: checks.bkw_density(dim, t0 + t, mesh))

    def finish(res):
        v1 = res[-1].ensemble.velocities
        out = checks.check_conservation(v0, v1)
        out.append(checks.check_fourth_moment(v0, dim, t0))
        if spec["density"]:
            out.append(checks.check_fourth_moment(v1, dim, t0 + spec["t_end"]))
            out.append(checks.check_entropy_non_increasing([c.record.entropy for c in res]))
            rel = res[-1].record.rel_l2_error
            if dim == 2:
                out.append(checks.check_below("rel L2 error vs BKW", rel, checks.BKW2D_MAX_REL_L2))
        else:
            # gamma != 0 has no closed form after t_min: the metric is the
            # error of the initial density, the one closed form this run has.
            dens = mollified_density(v0, wl.EPS, grid)
            rel = checks.relative_l2(checks.bkw_density(dim, t0, mesh), dens.values)
            out.append(checks.check_kurtosis_relaxes(v0, v1, 5.0 / 3.0))
        return out, rel

    def run():
        return collision.simulate_homogeneous(cfg, init, spec["t_end"], spec["checkpoints"],
                                              plan, store_snapshots=True)

    return run, finish


def _vpl(spec, seed, span):
    from landau import vpl
    from landau.kernels import KernelParams

    vcfg = vpl.VplConfig(n_particles=spec["n"], dt=spec["dt"], t_end=spec["t_end"],
                         alpha=spec["alpha"], kernel=KernelParams(spec["lam"], spec["gamma"], 2),
                         n_cells=spec["n_cells"], n_iters=spec["n_iters"], seed=seed)
    grid = vpl.PicGrid(vcfg.length, vcfg.n_cells)
    n_steps = round(spec["t_end"] / spec["dt"])
    stepper = vpl.iterate_vpl(vcfg)
    _, s0 = next(stepper)  # initial sampling and Poisson solve

    def run():
        with span("vpl.diagnostics"):
            records = [vpl.vpl_diagnostics(s0, grid)]
        state = s0
        for _ in range(n_steps):
            with span("vpl.step"):
                _, state = next(stepper)
            with span("vpl.diagnostics"):
                records.append(vpl.vpl_diagnostics(state, grid))
        stepper.close()
        return state

    def finish(final):
        k = 2.0 * math.pi / vcfg.length
        fine = vpl.PicGrid(vcfg.length, wl.FINE_CELLS)
        rho = vpl.deposit_charge(s0, fine) + 1.0  # deposit_charge removes the mean 1
        rel = checks.relative_l2(1.0 + vcfg.alpha * np.cos(k * fine.centers()), rho)
        e0 = checks.pic_total_energy(s0.velocities, s0.field, s0.charge, vcfg.length)
        e1 = checks.pic_total_energy(final.velocities, final.field, final.charge, vcfg.length)
        out = [checks.check_component_conserved("sum v_y conserved", s0.velocities[:, 1],
                                                 final.velocities[:, 1]),
               checks.check_energy_drift(e0, e1),
               checks.check_damping_mode(s0.field, vcfg.length, k, vcfg.alpha, vcfg.n_particles)]
        return out, rel

    return run, finish


def round_result(workload, seed, traced, spawned_at):
    """Set up, run and check one round; time it from the parent's spawn."""
    import landau

    src = (ROOT / "src").resolve()
    if src not in Path(landau.__file__).resolve().parents:
        raise SystemExit(f"landau imported from {landau.__file__}, not from {src}")
    spec = wl.WORKLOADS[workload]
    tracer = trace.Tracer() if traced else None
    stats = SphereStats()
    if tracer is not None:
        tracer.patch({"collision.pairing": stats.on_pairing, "sphere.sample": stats.on_sample})
        span = tracer.span
    else:
        def span(name):
            return contextlib.nullcontext()
    build = _homogeneous if spec["kind"] == "homogeneous" else _vpl
    run, finish = build(spec, seed, span)
    n_steps = round(spec["t_end"] / spec["dt"])
    n_checks = _expected_checks(spec, traced)

    t_setup = time.monotonic()
    cal_before = calibration_s()
    t_first = time.monotonic()
    with span("run") as run_id:
        try:
            output = run()
        except Exception:
            traceback.print_exc()
            output = None
    t_last = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
    cal = 0.5 * (cal_before + calibration_s())
    wall_setup, wall_run = t_setup - spawned_at, t_last - t_first

    result = {"setup_s": wall_setup * wl.CAL_REF_S / cal, "run_s": wall_run * wl.CAL_REF_S / cal,
              "wall_setup_s": wall_setup, "wall_run_s": wall_run, "calibration_s": cal,
              "peak_rss_mb": rss_mb, "rel_l2_error": None,
              "attempted": n_steps + n_checks, "failed": n_steps + n_checks, "checks": []}
    if output is None:
        return result
    found, rel = finish(output)
    if tracer is not None and spec.get("dim") == 3:
        found += checks.check_legendre(stats.legendre)
    if len(found) != n_checks:
        raise SystemExit(f"{workload}: {len(found)} checks ran, {n_checks} expected")
    result["rel_l2_error"] = rel
    result["failed"] = sum(not c.ok for c in found)
    result["checks"] = [list(c) for c in found]
    if tracer is not None:
        layers, samples = _layers(tracer.spans, run_id, spec["n"], spec["kind"], stats)
        layers["trace.missing"] = len(tracer.missing)
        result["layers"] = layers
        result.update(samples)
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        path = SPAN_DIR / f"{workload}-seed{seed}-{int(spawned_at * 1e6)}.jsonl"
        tracer.write(path, {"workload": workload, "seed": seed})
        result["spans"] = str(path.relative_to(ROOT))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    res = round_result(args.workload, args.seed, bool(args.traced), args.spawned_at)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
