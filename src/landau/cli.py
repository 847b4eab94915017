"""Configuration-driven experiment runner.

``landau run <config.json>`` reproduces the shipped experiments (BKW
relaxation in 2D/3D, the singular-kernel bi-Maxwellian run, Landau damping);
``landau convergence`` and ``landau bench`` drive the particle-count studies
and ``landau sampler-test`` Monte-Carlo-checks the sphere sampler. Every run
writes CSV diagnostics plus a JSON manifest; reruns with the same config and
seed are bitwise identical.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .analytic import bkw_density, bkw_t_min, sample_bkw, sample_bimaxwellian
from .collision import (EM, SBM, DiagnosticsPlan, ParticleEnsemble, SchemeConfig,
                        random_pairing, sbm_collision_step, simulate_homogeneous)
from .diagnostics import (DensityGrid, load_grid_binary, load_grid_csv,
                          mollified_density, save_grid_csv,
                          DEFAULT_GRID_CELLS, DEFAULT_GRID_EXTENT)
from .errors import ConfigError, FormatError, LandauError
from .kernels import KernelParams
from .sphere import SamplerKind
from .streams import RngStream, DOMAIN_INIT, DOMAIN_PAIRING
from .vpl import PicGrid, VplConfig, iterate_vpl, vpl_diagnostics

HOMOGENEOUS_KINDS = ("bkw2d", "bkw3d", "coulomb2d")
EXPERIMENT_KINDS = HOMOGENEOUS_KINDS + ("vpl-damping", "convergence-study", "sampler-test", "cpu-bench")

_KIND_DEFAULTS = {
    "bkw2d": dict(dim=2, gamma=0.0, lam=1.0 / 8.0),
    "bkw3d": dict(dim=3, gamma=0.0, lam=1.0 / 12.0),
    "coulomb2d": dict(dim=2, gamma=-3.0, lam=1.0 / 8.0),
    "vpl-damping": dict(dim=2, gamma=-2.0, lam=0.0),
    "convergence-study": dict(dim=2, gamma=0.0, lam=1.0 / 8.0),
    "cpu-bench": dict(dim=2, gamma=0.0, lam=1.0 / 8.0),
    "sampler-test": dict(dim=3, gamma=0.0, lam=0.0),
}


@dataclass
class ExperimentConfig:
    """One experiment: kind, numerical parameters, grids and output paths."""

    kind: str
    outdir: str = "."
    scheme: str = SBM
    seed: int = 0
    n_particles: Optional[int] = None
    dt: Optional[float] = None
    t_end: Optional[float] = None
    checkpoint_every: Optional[float] = None
    checkpoints: Optional[list] = None
    dim: Optional[int] = None
    gamma: Optional[float] = None
    lam: Optional[float] = None
    sampler: Optional[str] = None
    grid_extent: float = DEFAULT_GRID_EXTENT
    grid_cells: Optional[int] = None
    eps: float = 0.01
    reference_path: Optional[str] = None
    reference_time: Optional[float] = None
    dump_density_at: list = field(default_factory=list)
    # vpl
    alpha: Optional[float] = None
    n_cells: int = 128
    n_iters: int = 5
    residual_tol: Optional[float] = None
    record_every: int = 1
    dump_field: bool = False
    # convergence study
    n_list: Optional[list] = None
    n_seeds: int = 8
    t_eval: float = 5.0
    # cpu bench
    bench_steps: int = 5
    bench_warmup: int = 2
    # sampler test
    tau: Optional[float] = None
    samples: int = 1_000_000

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind: must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if self.scheme not in (SBM, EM):
            raise ConfigError(f"scheme: must be '{SBM}' or '{EM}'")
        defaults = _KIND_DEFAULTS[self.kind]
        for key in ("dim", "gamma", "lam"):
            if getattr(self, key) is None:
                setattr(self, key, defaults[key])
        if self.grid_cells is None:
            self.grid_cells = DEFAULT_GRID_CELLS[self.dim]
        if self.sampler is not None:
            try:
                SamplerKind(self.sampler)
            except ValueError:
                raise ConfigError(f"sampler: unknown kind {self.sampler!r}") from None
        _positive = {"dt": self.dt, "eps": self.eps, "grid_extent": self.grid_extent,
                     "residual_tol": self.residual_tol}
        for name, val in _positive.items():
            if val is not None and val <= 0:
                raise ConfigError(f"{name}: must be positive")
        if self.kind in HOMOGENEOUS_KINDS:
            self._require("n_particles", "dt", "t_end")
            if self.n_particles % 2 != 0:
                raise ConfigError("n_particles: must be even for homogeneous runs")
            if self.checkpoints is None and self.checkpoint_every is None:
                raise ConfigError("checkpoints: give either 'checkpoints' or 'checkpoint_every'")
            if self.reference_path is not None and self.reference_time is None:
                raise ConfigError("reference_time: required when reference_path is given")
        elif self.kind == "vpl-damping":
            self._require("n_particles", "dt", "t_end", "alpha")
        elif self.kind == "convergence-study":
            self._require("dt", "n_list")
            if any(n % 2 for n in self.n_list):
                raise ConfigError("n_list: all particle counts must be even")
        elif self.kind == "cpu-bench":
            self._require("dt", "n_list")
        elif self.kind == "sampler-test":
            self._require("tau")
            if self.dim not in (2, 3):
                raise ConfigError("dim: sampler-test needs dim 2 or 3")

    def _require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"{name}: required for kind {self.kind!r}")

    def kernel(self) -> KernelParams:
        return KernelParams(self.lam, self.gamma, self.dim)

    def sampler_kind(self) -> Optional[SamplerKind]:
        return None if self.sampler is None else SamplerKind(self.sampler)

    def checkpoint_times(self):
        if self.checkpoints is not None:
            return [float(t) for t in self.checkpoints]
        n = int(np.floor(self.t_end / self.checkpoint_every + 1e-9))
        return [round(k * self.checkpoint_every, 12) for k in range(n + 1)]


@dataclass
class RunManifest:
    """Reproducibility record written at the end of every run."""

    config: dict
    version: str
    git_revision: Optional[str]
    seed: int
    run_seconds: Optional[float]
    outputs: list
    summary: dict

    def write(self, path):
        tmp = str(path) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, default=float)
            fh.write("\n")
        os.replace(tmp, path)


def _git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5)
        return out.stdout.strip() or None if out.returncode == 0 else None
    except OSError:
        return None


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if x is None else
                              _fmt(x) if isinstance(x, (int, float, np.floating)) else str(x)
                              for x in row) + "\n")


def load_reference_density(path) -> DensityGrid:
    """Load and validate an externally produced reference density grid."""
    grid = load_grid_csv(path) if str(path).endswith(".csv") else load_grid_binary(path)
    if np.any(grid.values < 0):
        raise FormatError(f"{path}: negative density values")
    return grid


def _initial_ensemble(cfg: ExperimentConfig, n=None, seed=None) -> ParticleEnsemble:
    n = cfg.n_particles if n is None else n
    rng = RngStream(cfg.seed if seed is None else seed, domain=DOMAIN_INIT)
    if cfg.kind == "coulomb2d":
        return ParticleEnsemble(sample_bimaxwellian(n, rng))
    return ParticleEnsemble(sample_bkw(cfg.dim, bkw_t_min(cfg.dim), n, rng))


def _reference_fn(cfg: ExperimentConfig, grid: DensityGrid):
    if cfg.kind in ("bkw2d", "bkw3d", "convergence-study"):
        mesh = grid.center_mesh()
        t0 = bkw_t_min(cfg.dim)
        return lambda t: bkw_density(cfg.dim, t0 + t, mesh)
    if cfg.reference_path is not None:
        ref = load_reference_density(cfg.reference_path)
        if not ref.congruent(grid):
            raise ConfigError("reference_path: grid does not match the experiment grid "
                              f"(dim={ref.dim}, n_grid={ref.n_grid}, lo={ref.lo}, hi={ref.hi})")
        t_ref = cfg.reference_time
        return lambda t: ref.values if abs(t - t_ref) < 1e-9 else None
    return None


def _run_homogeneous(cfg: ExperimentConfig, outdir):
    grid = DensityGrid(cfg.dim, -cfg.grid_extent, cfg.grid_extent, cfg.grid_cells)
    plan = DiagnosticsPlan(grid=grid, eps=cfg.eps, reference=_reference_fn(cfg, grid))
    scheme = SchemeConfig(cfg.dt, cfg.scheme, cfg.kernel(), cfg.sampler_kind(), cfg.seed)
    init = _initial_ensemble(cfg)
    checkpoints = cfg.checkpoint_times()
    dump_at = set(float(t) for t in cfg.dump_density_at)
    if not dump_at <= set(checkpoints):
        raise ConfigError("dump_density_at: every dump time must be a checkpoint time")
    t_start = time.perf_counter()
    results = simulate_homogeneous(scheme, init, cfg.t_end, checkpoints, plan,
                                   store_snapshots=bool(dump_at))
    elapsed = time.perf_counter() - t_start

    outputs = []
    mom_cols = [f"momentum_{ax}" for ax in "xyz"[: cfg.dim]]
    rows = []
    for c in results:
        rows.append([c.time, *c.record.momentum, c.record.kinetic_energy,
                     c.record.entropy, c.record.rel_l2_error])
    diag_path = os.path.join(outdir, "diagnostics.csv")
    _write_csv(diag_path, ["time", *mom_cols, "kinetic_energy", "entropy", "rel_l2_error"], rows)
    outputs.append(diag_path)
    for c in results:
        if c.time in dump_at and c.ensemble is not None:
            dens = mollified_density(c.ensemble, cfg.eps, grid)
            p = os.path.join(outdir, f"density_t{c.time:g}.csv")
            save_grid_csv(dens, p)
            outputs.append(p)
    summary = {
        "final_time": results[-1].time,
        "final_kinetic_energy": results[-1].record.kinetic_energy,
        "final_entropy": results[-1].record.entropy,
    }
    return outputs, elapsed, summary


def _run_vpl(cfg: ExperimentConfig, outdir):
    vcfg = VplConfig(n_particles=cfg.n_particles, dt=cfg.dt, t_end=cfg.t_end,
                     alpha=cfg.alpha, kernel=cfg.kernel(), n_cells=cfg.n_cells,
                     n_iters=cfg.n_iters, residual_tol=cfg.residual_tol,
                     seed=cfg.seed, record_every=cfg.record_every)
    grid = PicGrid(vcfg.length, vcfg.n_cells)
    n_steps = max(1, math.ceil(round(cfg.t_end / cfg.dt, 9)))
    records = []
    final_state = None
    t_start = time.perf_counter()
    for step, state in iterate_vpl(vcfg):
        if step == 0 or step % vcfg.record_every == 0 or step == n_steps:
            records.append(vpl_diagnostics(state, grid))
        final_state = state
    elapsed = time.perf_counter() - t_start
    rows = [[r.time, r.electric_l2, r.kinetic_energy, r.electric_energy,
             r.total_energy, r.momentum[0], r.momentum[1]] for r in records]
    ts_path = os.path.join(outdir, "timeseries.csv")
    _write_csv(ts_path, ["time", "electric_l2", "E_K", "E_E", "E_total",
                         "momentum_x", "momentum_y"], rows)
    outputs = [ts_path]
    if cfg.dump_field:
        fp = os.path.join(outdir, "field_final.csv")
        _write_csv(fp, ["x", "E"], list(zip(grid.centers(), final_state.field)))
        outputs.append(fp)
    e0, e1 = records[0].total_energy, records[-1].total_energy
    summary = {"initial_total_energy": e0, "final_total_energy": e1,
               "relative_energy_drift": abs(e1 - e0) / abs(e0),
               "mass_weight_convention": "per-particle weight q = Q/N with Q = domain length"}
    return outputs, elapsed, summary


def _fit_loglog(ns, errs):
    slope, intercept = np.polyfit(np.log10(ns), np.log10(errs), 1)
    return float(slope), float(intercept)


def _run_convergence(cfg: ExperimentConfig, outdir):
    grid = DensityGrid(cfg.dim, -cfg.grid_extent, cfg.grid_extent, cfg.grid_cells)
    plan = DiagnosticsPlan(grid=grid, eps=cfg.eps, reference=_reference_fn(cfg, grid))
    rows = []
    means = []
    t_start = time.perf_counter()
    for n in cfg.n_list:
        errs = []
        for s in range(cfg.n_seeds):
            seed = cfg.seed + s
            scheme = SchemeConfig(cfg.dt, cfg.scheme, cfg.kernel(), cfg.sampler_kind(), seed)
            init = _initial_ensemble(cfg, n=n, seed=seed)
            res = simulate_homogeneous(scheme, init, cfg.t_eval, [cfg.t_eval], plan)
            errs.append(res[-1].record.rel_l2_error)
            rows.append([n, seed, errs[-1]])
        means.append(float(np.mean(errs)))
    elapsed = time.perf_counter() - t_start
    slope, _ = _fit_loglog(cfg.n_list, means)
    csv_path = os.path.join(outdir, "convergence.csv")
    _write_csv(csv_path, ["n_particles", "seed", "rel_l2_error"], rows)
    print(f"mean rel-L2 at t={cfg.t_eval:g}: " +
          ", ".join(f"N={n}: {e:.4g}" for n, e in zip(cfg.n_list, means)))
    print(f"fitted log-log slope: {slope:.3f}")
    summary = {"n_list": list(cfg.n_list), "mean_errors": means, "slope": slope,
               "total_seconds": elapsed}
    return [csv_path], None, summary


def _run_bench(cfg: ExperimentConfig, outdir):
    kernel = cfg.kernel()
    rows = []
    times = []
    for n in cfg.n_list:
        scheme = SchemeConfig(cfg.dt, cfg.scheme, kernel, cfg.sampler_kind(), cfg.seed)
        ens = _initial_ensemble(cfg, n=n)
        best = math.inf
        for rep in range(cfg.bench_warmup + cfg.bench_steps):
            step = rep + 1
            t0 = time.perf_counter()
            pairing = random_pairing(ens.n, RngStream(cfg.seed, step=step, domain=DOMAIN_PAIRING))
            ens = sbm_collision_step(ens, pairing, scheme, step)
            dt_step = time.perf_counter() - t0
            if rep >= cfg.bench_warmup:
                best = min(best, dt_step)
        times.append(best)
        rows.append([n, best])
        print(f"N={n}: {best * 1e3:.3f} ms per step")
    slope, _ = _fit_loglog(cfg.n_list, times)
    print(f"fitted log-log slope: {slope:.3f}")
    csv_path = os.path.join(outdir, "bench.csv")
    _write_csv(csv_path, ["n_particles", "seconds_per_step"], rows)
    summary = {"n_list": list(cfg.n_list), "seconds_per_step": times, "slope": slope}
    return [csv_path], None, summary


def _run_sampler_test(cfg: ExperimentConfig, outdir):
    from .sphere import default_sampler, sample_sbm_batch

    kind = cfg.sampler_kind() or default_sampler(cfg.dim)
    start = np.zeros(cfg.dim)
    start[-1] = 1.0
    starts = np.broadcast_to(start, (cfg.samples, cfg.dim))
    out = sample_sbm_batch(starts, np.full(cfg.samples, cfg.tau), kind,
                           RngStream(cfg.seed, domain=DOMAIN_INIT))
    dots = out @ start
    exact = math.exp(-(cfg.dim - 1) * cfg.tau / 2.0)
    se = float(np.std(dots, ddof=1) / math.sqrt(cfg.samples))
    zscore = (float(np.mean(dots)) - exact) / se if se > 0 else 0.0
    ok = abs(zscore) <= 3.0
    print(f"sampler {kind.value}, dim={cfg.dim}, tau={cfg.tau:g}, samples={cfg.samples}")
    print(f"E[Y_tau . Y_0] = {np.mean(dots):.6f}  exact {exact:.6f}  z = {zscore:+.2f}  "
          f"[{'PASS' if ok else 'FAIL'} at 3 SE]")
    summary = {"kind": kind.value, "dim": cfg.dim, "tau": cfg.tau,
               "mean_dot": float(np.mean(dots)), "exact": exact, "zscore": zscore,
               "pass": bool(ok)}
    outputs = []
    if not ok:
        raise LandauError("sampler-test failed the 3-standard-error moment check")
    return outputs, None, summary


def run(cfg: ExperimentConfig) -> RunManifest:
    """Execute the configured experiment and write outputs plus the manifest."""
    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    dispatch = {
        "vpl-damping": _run_vpl,
        "convergence-study": _run_convergence,
        "cpu-bench": _run_bench,
        "sampler-test": _run_sampler_test,
    }
    runner = dispatch.get(cfg.kind, _run_homogeneous)
    outputs, run_seconds, summary = runner(cfg, outdir)
    manifest = RunManifest(config={k: v for k, v in cfg.__dict__.items()},
                           version=__version__, git_revision=_git_revision(),
                           seed=cfg.seed, run_seconds=run_seconds,
                           outputs=[os.path.basename(p) for p in outputs],
                           summary=summary)
    manifest.write(os.path.join(outdir, "manifest.json"))
    return manifest


def _build_parser():
    parser = argparse.ArgumentParser(prog="landau",
                                     description="stochastic particle solver for the Landau equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kinds in (("run", HOMOGENEOUS_KINDS + ("vpl-damping",)),
                        ("convergence", ("convergence-study",)),
                        ("bench", ("cpu-bench",))):
        p = sub.add_parser(name, help=f"execute a config of kind {', '.join(kinds)}")
        p.add_argument("config", help="JSON experiment config")
        p.set_defaults(kinds=kinds)
    p = sub.add_parser("sampler-test", help="Monte Carlo check of the sphere sampler")
    p.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--kind", choices=[k.value for k in SamplerKind], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=".")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sampler-test":
            cfg = ExperimentConfig(kind="sampler-test", dim=args.dim, tau=args.tau,
                                   samples=args.samples, sampler=args.kind,
                                   seed=args.seed, outdir=args.outdir)
            cfg.validate()
        else:
            cfg = ExperimentConfig.from_file(args.config)
            if cfg.kind not in args.kinds:
                raise ConfigError(f"kind: {cfg.kind!r} is not runnable by 'landau {args.command}'")
        run(cfg)
    except LandauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
