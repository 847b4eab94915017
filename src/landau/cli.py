"""Configuration-driven experiment runner.

``landau run <config.json>`` runs every experiment kind, as the config's
``kind`` picks it: the BKW relaxation in 2D/3D, the singular-kernel
bi-Maxwellian run, Landau damping, the particle-count studies and the Monte
Carlo check of the sphere sampler (``landau convergence`` and ``landau
bench`` are aliases of ``run``). Every run writes its outputs plus a JSON
manifest; reruns with the same config and seed are bitwise identical.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from . import __version__
from .analytic import BKW_LAMBDA, _bkw_radial, bkw_t_min, sample_bkw, sample_bimaxwellian
from .collision import (EM, SBM, DiagnosticsPlan, ParticleEnsemble, SchemeConfig,
                        collision_step, random_pairing, simulate_homogeneous, step_count)
from .diagnostics import (DensityGrid, load_grid_csv, save_grid_csv,
                          DEFAULT_GRID_CELLS, DEFAULT_GRID_EXTENT)
from .errors import ConfigError, InvalidCheckpoint, LandauError
from .kernels import KernelParams
from .sphere import default_sampler, sample_sbm_batch
from .streams import RngStream, DOMAIN_INIT, DOMAIN_PAIRING
from .vpl import PicGrid, VplConfig, simulate_vpl

REQUIRED = object()  # marks a config field that has no default
# The file of a dumped density grid; the config rejects two times of one name.
_DENSITY_FILE = "density_t{:g}.csv"


class ExperimentConfig(SimpleNamespace):
    """One validated experiment: its kind, the physics the kind fixes (dim,
    gamma, lam) and the fields the kind reads, as attributes."""

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(f"kind: must be one of {tuple(_KINDS)}, got {kind!r}")
        spec = _KINDS[kind]
        unknown = set(raw) - set(spec.fields) - {"kind"}
        if unknown:
            raise ConfigError(f"unknown config field(s) for kind {kind!r}: "
                              f"{', '.join(sorted(unknown))}")
        values = {}
        for name, (type_, default) in spec.fields.items():
            value = raw.get(name, default)
            if value is REQUIRED:
                raise ConfigError(f"{name}: required for kind {kind!r}")
            if value is not default:  # defaults are valid as they stand
                _check_value(name, type_, value)
            values[name] = value
        cfg = cls(kind=kind, **spec.physics, **values)
        if values.get("alpha", 0) >= 1:  # the density 1 + alpha cos(x/2) must stay positive
            raise ConfigError(f"alpha: must be below 1, got {cfg.alpha!r}")
        for name in ("n_cells", "samples"):  # a periodic PIC grid, and a standard error, need two
            if values.get(name, 2) < 2:
                raise ConfigError(f"{name}: must be at least 2, got {values[name]!r}")
        if kind != "vpl-damping":  # the homogeneous solver collides particles in pairs
            for name in ("n_particles", "n_list"):
                if any(n % 2 for n in np.atleast_1d(values.get(name, 0))):
                    raise ConfigError(f"{name}: particle counts must be even")
        if "n_list" in values and len(set(cfg.n_list)) < 2:
            raise ConfigError("n_list: the log-log fit needs two distinct particle counts")
        if (values.get("reference_path") is None) != (values.get("reference_time") is None):
            raise ConfigError("reference_time: give it together with reference_path")
        for name in ("t_end", "checkpoint_every", "t_eval"):  # by the solver's own step rule
            if name in values:
                try:
                    steps = step_count(values[name], cfg.dt)
                except (InvalidCheckpoint, OverflowError):  # t / dt may overflow to inf
                    steps = 0
                if steps < 1:
                    raise ConfigError(f"{name}: must be a multiple of dt of at least one step")
        if "checkpoint_every" in values:
            # checked by step counts, without building the times: a rounding
            # to 12 decimals that moved checkpoint_every off its step would
            # move its multiples off theirs, or repeat them
            every = cfg.checkpoint_every
            if abs(round(every, 12) - every) > 1e-9 * every:
                raise ConfigError("checkpoint_every: its multiples, rounded to 12 decimals, "
                                  "must stay distinct and on the dt grid")
            n = cfg._checkpoint_count()
            if n * step_count(every, cfg.dt) != step_count(cfg.t_end, cfg.dt) \
                    or cfg._checkpoint_time(n) != round(cfg.t_end, 12):
                raise ConfigError("t_end: must be a multiple of checkpoint_every")
            # a time between checkpoints would be skipped without a word; no
            # reference (None) passes as t = 0
            for name, asked in (("dump_density_at", cfg.dump_density_at),
                                ("reference_time", [values.get("reference_time") or 0.0])):
                if not all(t / every < n + 0.5 and cfg._checkpoint_time(round(t / every)) == t
                           for t in asked):
                    raise ConfigError(f"{name}: every time must be a checkpoint time "
                                      "(a multiple of checkpoint_every up to t_end)")
            asked = set(cfg.dump_density_at)
            if len({_DENSITY_FILE.format(t) for t in asked}) < len(asked):
                raise ConfigError("dump_density_at: two times would write one density_t<t>.csv")
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def kernel(self) -> KernelParams:
        return KernelParams(self.lam, self.gamma, self.dim)

    def _checkpoint_count(self):
        """The number of whole checkpoint intervals up to t_end, in dt steps."""
        return step_count(self.t_end, self.dt) // step_count(self.checkpoint_every, self.dt)

    def _checkpoint_time(self, k):
        return round(k * self.checkpoint_every, 12)

    def checkpoint_times(self):
        return [self._checkpoint_time(k) for k in range(self._checkpoint_count() + 1)]


# Numbers must be finite and positive, or non-negative for these fields.
_NON_NEGATIVE = {"seed", "lam", "alpha", "reference_time", "dump_density_at", "bench_warmup"}


def _check_value(name, type_, value):
    """Check one JSON value against its field type: int, float (an int is
    accepted), bool or str, a tuple of the allowed values (all of one type),
    or [t] for a list of t. bools never pass as numbers."""
    if isinstance(type_, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name}: expected a list, got {value!r}")
        for item in value:
            _check_value(name, type_[0], item)
    elif isinstance(type_, tuple):
        if value not in type_ or type(value) is not type(type_[0]):
            raise ConfigError(f"{name}: must be one of {type_}, got {value!r}")
    elif not (type(value) is type_ or (type_ is float and type(value) is int)):
        raise ConfigError(f"{name}: expected {type_.__name__}, got {value!r}")
    elif type(value) is int and abs(value) >= 1 << 63:  # a JSON integer has no bound
        raise ConfigError(f"{name}: an integer must be below 2^63 in magnitude")
    elif type_ in (int, float):
        non_negative = name in _NON_NEGATIVE
        if not math.isfinite(value) or value < 0 or (value == 0 and not non_negative):
            raise ConfigError(f"{name}: must be finite and "
                              f"{'non-negative' if non_negative else 'positive'}, got {value!r}")


def _git(*args):
    """The stripped output of git run in this package's directory, or None."""
    out = subprocess.run(["git", *args], capture_output=True, text=True, timeout=5,
                         cwd=os.path.dirname(os.path.abspath(__file__)))
    return out.stdout.strip() or None if out.returncode == 0 else None


def _git_revision():
    """Full SHA of HEAD of the checkout this package is imported from, whatever
    the working directory, with "-dirty" appended when tracked files differ
    from HEAD or an untracked, non-ignored file lies in the package directory
    (a module a run may import); None outside a git checkout."""
    try:
        rev = _git("describe", "--always", "--dirty", "--abbrev=40", "--exclude=*")
        if rev and not rev.endswith("-dirty") and _git("ls-files", "--others",
                                                       "--exclude-standard"):
            rev += "-dirty"
        return rev
    except (OSError, subprocess.SubprocessError):
        return None


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if x is None else f"{x:.17g}"
                              if isinstance(x, (int, float, np.floating)) else str(x)
                              for x in row) + "\n")


def _initial_ensemble(cfg: ExperimentConfig, n, seed) -> ParticleEnsemble:
    rng = RngStream(seed, domain=DOMAIN_INIT)
    if cfg.kind == "coulomb2d":
        return ParticleEnsemble(sample_bimaxwellian(n, rng))
    return ParticleEnsemble(sample_bkw(cfg.dim, bkw_t_min(cfg.dim), n, rng))


def _reference_fn(cfg: ExperimentConfig, grid: DensityGrid):
    if cfg.kind != "coulomb2d":  # the BKW kinds compare with the closed form
        # |v|^2 at the cell centers, summed over the axes in order as
        # np.sum(v * v, axis=-1) sums them on the center mesh
        sq = grid.centers() ** 2
        r2 = sq[:, None] + sq
        if cfg.dim == 3:
            r2 = r2[..., None] + sq
        t0 = bkw_t_min(cfg.dim)
        return lambda t: _bkw_radial(cfg.dim, t0 + t, r2)
    if cfg.reference_path is None:
        return None
    ref = load_grid_csv(cfg.reference_path)
    if not ref.congruent(grid):
        raise ConfigError("reference_path: grid does not match the experiment grid "
                          f"(dim={ref.dim}, n_grid={ref.n_grid}, lo={ref.lo}, hi={ref.hi})")
    return lambda t: ref.values if abs(t - cfg.reference_time) < 1e-9 else None


def _plan(cfg: ExperimentConfig, keep=()) -> DiagnosticsPlan:
    """The KDE grid, its reference and the checkpoint times whose density is kept."""
    grid = DensityGrid(cfg.dim, -cfg.grid_extent, cfg.grid_extent, cfg.grid_cells)
    return DiagnosticsPlan(grid=grid, eps=cfg.eps, reference=_reference_fn(cfg, grid),
                           keep_density_at=frozenset(keep))


def _run_homogeneous(cfg: ExperimentConfig):
    plan = _plan(cfg, cfg.dump_density_at)
    scheme = SchemeConfig(cfg.dt, cfg.scheme, cfg.kernel(), seed=cfg.seed)
    init = _initial_ensemble(cfg, cfg.n_particles, cfg.seed)
    results = simulate_homogeneous(scheme, init, cfg.t_end, cfg.checkpoint_times(), plan)

    mom_cols = [f"momentum_{ax}" for ax in "xyz"[: cfg.dim]]
    rows = [[c.time, *c.record.momentum, c.record.kinetic_energy, c.record.entropy,
             c.record.rel_l2_error] for c in results]
    diag_path = os.path.join(cfg.outdir, "diagnostics.csv")
    _write_csv(diag_path, ["time", *mom_cols, "kinetic_energy", "entropy", "rel_l2_error"], rows)
    outputs = [diag_path]
    for c in results:
        if c.record.density is not None:
            p = os.path.join(cfg.outdir, _DENSITY_FILE.format(c.time))
            save_grid_csv(c.record.density, p)
            outputs.append(p)
    last = results[-1]
    summary = {"final_time": last.time, "final_kinetic_energy": last.record.kinetic_energy,
               "final_entropy": last.record.entropy}
    return outputs, summary


def _run_vpl(cfg: ExperimentConfig):
    vcfg = VplConfig(n_particles=cfg.n_particles, dt=cfg.dt, t_end=cfg.t_end,
                     alpha=cfg.alpha, kernel=cfg.kernel(), n_cells=cfg.n_cells,
                     n_iters=cfg.n_iters, seed=cfg.seed)
    records, final_state = simulate_vpl(vcfg)
    rows = [[r.time, r.electric_l2, r.kinetic_energy, r.electric_energy,
             r.total_energy, r.momentum[0], r.momentum[1]] for r in records]
    ts_path = os.path.join(cfg.outdir, "timeseries.csv")
    _write_csv(ts_path, ["time", "electric_l2", "E_K", "E_E", "E_total",
                         "momentum_x", "momentum_y"], rows)
    outputs = [ts_path]
    if cfg.dump_field:
        fp = os.path.join(cfg.outdir, "field_final.csv")
        centers = PicGrid(vcfg.length, vcfg.n_cells).centers()
        _write_csv(fp, ["x", "E"], list(zip(centers, final_state.field)))
        outputs.append(fp)
    e0 = records[0].total_energy  # energy that strays and comes back still counts as drift
    summary = {"initial_total_energy": e0, "final_total_energy": records[-1].total_energy,
               "relative_energy_drift": max(abs(r.total_energy - e0) for r in records) / abs(e0),
               "mass_weight_convention": "per-particle weight q = Q/N with Q = domain length"}
    return outputs, summary


def _run_convergence(cfg: ExperimentConfig):
    plan = _plan(cfg)
    rows, means = [], []
    for n in cfg.n_list:
        errs = []
        for s in range(cfg.n_seeds):
            seed = cfg.seed + s
            scheme = SchemeConfig(cfg.dt, cfg.scheme, cfg.kernel(), seed=seed)
            init = _initial_ensemble(cfg, n, seed)
            res = simulate_homogeneous(scheme, init, cfg.t_eval, [cfg.t_eval], plan)
            errs.append(res[-1].record.rel_l2_error)
            rows.append([n, seed, errs[-1]])
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log10(cfg.n_list), np.log10(means), 1)[0])
    csv_path = os.path.join(cfg.outdir, "convergence.csv")
    _write_csv(csv_path, ["n_particles", "seed", "rel_l2_error"], rows)
    print(f"mean rel-L2 at t={cfg.t_eval:g}: " +
          ", ".join(f"N={n}: {e:.4g}" for n, e in zip(cfg.n_list, means)))
    print(f"fitted log-log slope: {slope:.3f}")
    summary = {"n_list": list(cfg.n_list), "mean_errors": means, "slope": slope}
    return [csv_path], summary


def _run_bench(cfg: ExperimentConfig):
    scheme = SchemeConfig(cfg.dt, SBM, cfg.kernel(), seed=cfg.seed)
    times = []
    for n in cfg.n_list:
        v = _initial_ensemble(cfg, n, cfg.seed).velocities
        best = math.inf
        for step in range(1, cfg.bench_warmup + cfg.bench_steps + 1):
            # the step's own CPU time: other processes on the machine do not add to it
            t0 = time.process_time()
            i, j = random_pairing(n, RngStream(cfg.seed, step=step, domain=DOMAIN_PAIRING))
            collision_step(v, i, j, scheme, step)
            dt_step = time.process_time() - t0
            if step > cfg.bench_warmup:
                best = min(best, dt_step)
        times.append(best)
        print(f"N={n}: {best * 1e3:.3f} ms CPU time (process_time) per step")
    slope = float(np.polyfit(np.log10(cfg.n_list), np.log10(times), 1)[0])
    print(f"fitted log-log slope: {slope:.3f}")
    csv_path = os.path.join(cfg.outdir, "bench.csv")
    _write_csv(csv_path, ["n_particles", "seconds_per_step"], zip(cfg.n_list, times))
    summary = {"n_list": list(cfg.n_list), "seconds_per_step": times, "slope": slope}
    return [csv_path], summary


def _run_sampler_test(cfg: ExperimentConfig):
    """Monte Carlo check of E[Y_tau . Y_0] = exp(-(d-1) tau / 2) from the pole."""
    kind = default_sampler(cfg.dim)
    start = np.zeros(cfg.dim)
    start[-1] = 1.0
    starts = np.broadcast_to(start, (cfg.samples, cfg.dim))
    out = sample_sbm_batch(starts, np.full(cfg.samples, cfg.tau), kind,
                           RngStream(cfg.seed, domain=DOMAIN_INIT))
    dots = out @ start
    exact = math.exp(-(cfg.dim - 1) * cfg.tau / 2.0)
    mean = float(np.mean(dots))
    se = float(np.std(dots, ddof=1) / math.sqrt(cfg.samples))
    zscore = (mean - exact) / se if se > 0 else math.nan
    ok = abs(mean - exact) <= 3.0 * se  # a non-finite SE fails
    print(f"sampler {kind.value}, dim={cfg.dim}, tau={cfg.tau:g}, samples={cfg.samples}")
    print(f"E[Y_tau . Y_0] = {mean:.6f}  exact {exact:.6f}  z = {zscore:+.2f}  "
          f"[{'PASS' if ok else 'FAIL'} at 3 SE]")
    if not ok:
        raise LandauError("sampler-test failed the 3-standard-error moment check")
    summary = {"kind": kind.value, "dim": cfg.dim, "tau": cfg.tau,
               "mean_dot": mean, "exact": exact, "zscore": zscore, "pass": True}
    return [], summary


# Each kind: its runner cfg -> (outputs, summary), the dim, gamma and lam it
# fixes, and the fields it reads as name -> (type as in _check_value, default
# or REQUIRED).
_Kind = namedtuple("_Kind", "runner physics fields")


_RUN = {"outdir": (str, "."), "seed": (int, 0), "dt": (float, REQUIRED)}


def _density(dim):  # kinds that score the particles by a KDE on a velocity grid
    return {**_RUN, "scheme": ((SBM, EM), SBM), "grid_extent": (float, DEFAULT_GRID_EXTENT),
            "grid_cells": (int, DEFAULT_GRID_CELLS[dim]), "eps": (float, DiagnosticsPlan.eps)}


def _homogeneous(dim):
    return {**_density(dim), "n_particles": (int, REQUIRED), "t_end": (float, REQUIRED),
            "checkpoint_every": (float, REQUIRED), "dump_density_at": ([float], [])}


_MAXWELL_2D = {"dim": 2, "gamma": 0.0, "lam": BKW_LAMBDA[2]}


_KINDS = {
    "bkw2d": _Kind(_run_homogeneous, _MAXWELL_2D, _homogeneous(2)),
    "bkw3d": _Kind(_run_homogeneous, {"dim": 3, "gamma": 0.0, "lam": BKW_LAMBDA[3]},
                   _homogeneous(3)),
    "coulomb2d": _Kind(_run_homogeneous, {"dim": 2, "gamma": -3.0, "lam": 1.0 / 8.0},
                       {**_homogeneous(2), "reference_path": (str, None),
                        "reference_time": (float, None)}),
    "vpl-damping": _Kind(_run_vpl, {"dim": 2, "gamma": -2.0},
                         {**_RUN, "n_particles": (int, REQUIRED), "t_end": (float, REQUIRED),
                          "lam": (float, 0.0), "alpha": (float, REQUIRED),
                          "n_cells": (int, VplConfig.n_cells), "n_iters": (int, VplConfig.n_iters),
                          "dump_field": (bool, False)}),
    "convergence-study": _Kind(_run_convergence, _MAXWELL_2D,
                               {**_density(2), "n_list": ([int], REQUIRED),
                                "n_seeds": (int, 8), "t_eval": (float, 5.0)}),
    "cpu-bench": _Kind(_run_bench, _MAXWELL_2D,
                       {**_RUN, "n_list": ([int], REQUIRED), "bench_steps": (int, 5),
                        "bench_warmup": (int, 2)}),
    "sampler-test": _Kind(_run_sampler_test, {},
                          {"outdir": (str, "."), "seed": (int, 0), "dim": ((2, 3), REQUIRED),
                           "tau": (float, REQUIRED), "samples": (int, 1_000_000)}),
}


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured experiment, write its outputs and its
    manifest.json into cfg.outdir, the manifest atomically (a tmp file, then
    os.replace), and return the manifest; run_seconds is the wall time of the
    whole runner call."""
    os.makedirs(cfg.outdir, exist_ok=True)
    t_start = time.perf_counter()
    outputs, summary = _KINDS[cfg.kind].runner(cfg)
    manifest = {"config": dict(vars(cfg)), "version": __version__,
                "git_revision": _git_revision(), "seed": cfg.seed,
                "run_seconds": time.perf_counter() - t_start,
                "outputs": [os.path.basename(p) for p in outputs], "summary": summary}
    path = os.path.join(cfg.outdir, "manifest.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(manifest, fh, indent=2, default=float)
        fh.write("\n")
    os.replace(path + ".tmp", path)
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(prog="landau",
                                     description="stochastic particle solver for the Landau equation")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", aliases=["convergence", "bench"],
                       help=f"execute a config of any kind: {', '.join(_KINDS)}")
    p.add_argument("config", help="JSON experiment config")
    args = parser.parse_args(argv)
    try:
        run(ExperimentConfig.from_file(args.config))
    except (LandauError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
