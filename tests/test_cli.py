import json
import os
import pathlib
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import landau.cli
import landau.collision
from landau.analytic import bkw_density, bkw_t_min
from landau.cli import ExperimentConfig, _initial_ensemble, _reference_fn, main, run
from landau.collision import SchemeConfig, simulate_homogeneous
from landau.diagnostics import DensityGrid, load_grid_csv, mollified_density, save_grid_csv
from landau.errors import ConfigError, FormatError

from oracles import center_mesh


def write_config(path, **kw):
    path.write_text(json.dumps(kw))
    return str(path)


def small_bkw2d(outdir, **extra):
    cfg = dict(kind="bkw2d", scheme="sbm", n_particles=2000, dt=0.1, t_end=1.0,
               checkpoint_every=0.5, grid_cells=64, seed=3, outdir=str(outdir))
    cfg.update(extra)
    return ExperimentConfig.from_dict(cfg)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="n_particles"):
        ExperimentConfig.from_dict(dict(kind="bkw2d", dt=0.1, t_end=1.0, checkpoint_every=0.5))
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict(dict(kind="nope"))
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict(dict(kind="bkw2d", bogus_field=1))
    with pytest.raises(ConfigError, match="even"):
        ExperimentConfig.from_dict(dict(kind="bkw2d", n_particles=999, dt=0.1,
                                        t_end=1.0, checkpoint_every=0.5))
    with pytest.raises(ConfigError, match="reference_time"):
        ExperimentConfig.from_dict(dict(kind="coulomb2d", n_particles=10, dt=0.1, t_end=1.0,
                                        checkpoint_every=0.5, reference_path="x.bin"))
    # the Crank-Nicolson step runs n_iters sweeps; there is no tolerance to set
    with pytest.raises(ConfigError, match="unknown config field.*vpl-damping.*residual_tol"):
        ExperimentConfig.from_dict(dict(kind="vpl-damping", n_particles=100, dt=0.1,
                                        t_end=1.0, alpha=0.1, residual_tol=1e-10))


def test_config_rejects_sampler_fields():
    # the sphere sampler follows from the dimension, and only the sampler-test
    # kind takes tau and samples
    for name, value in (("sampler", "exact2d"), ("tau", 3), ("samples", 1000)):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict(dict(kind="bkw2d", n_particles=10, dt=0.1, t_end=1.0,
                                            checkpoint_every=0.5, **{name: value}))


# a minimal valid config of each kind
MINIMAL = {
    "bkw2d": dict(n_particles=10, dt=0.1, t_end=1.0, checkpoint_every=0.5),
    "bkw3d": dict(n_particles=10, dt=0.1, t_end=1.0, checkpoint_every=0.5),
    "coulomb2d": dict(n_particles=10, dt=0.1, t_end=1.0, checkpoint_every=0.5),
    "vpl-damping": dict(n_particles=100, dt=0.1, t_end=1.0, alpha=0.1),
    "convergence-study": dict(dt=0.1, n_list=[100, 200]),
    "cpu-bench": dict(dt=0.1, n_list=[100, 200]),
    "sampler-test": dict(dim=2, tau=0.1),
}


def config_of(kind, **extra):
    return ExperimentConfig.from_dict({"kind": kind, **MINIMAL[kind], **extra})


@pytest.mark.parametrize("kind, name, value", [
    ("bkw2d", "alpha", 0.1), ("bkw2d", "reference_path", "/nonexistent"),
    ("bkw2d", "reference_time", 1.0), ("bkw3d", "n_cells", 32),
    ("coulomb2d", "n_list", [100]), ("vpl-damping", "scheme", "em"),
    ("vpl-damping", "grid_cells", 64), ("convergence-study", "n_particles", 100),
    ("convergence-study", "checkpoint_every", 0.5), ("cpu-bench", "scheme", "em"),
    ("cpu-bench", "eps", 0.01), ("sampler-test", "dt", 0.1)])
def test_kind_rejects_fields_of_other_kinds(kind, name, value):
    config_of(kind)
    with pytest.raises(ConfigError, match=f"unknown config field.*{kind}.*{name}"):
        config_of(kind, **{name: value})


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_kind_fixes_its_physics(kind):
    # the closed form (or the preset family) of each kind fixes dim and gamma;
    # lam is settable only for vpl-damping, whose presets use 1 and 0, and dim
    # only for sampler-test, which has no kernel
    settable = {"vpl-damping": {"lam"}, "sampler-test": {"dim"}}.get(kind, set())
    for name, value in (("dim", 3), ("gamma", -3.0), ("lam", 1.0)):
        if name in settable:
            assert getattr(config_of(kind, **{name: value}), name) == value
        else:
            with pytest.raises(ConfigError, match=name):
                config_of(kind, **{name: value})


@pytest.mark.parametrize("kind, name, value", [
    ("bkw2d", "dt", "0.1"), ("bkw2d", "n_particles", 2000.0), ("bkw2d", "seed", True),
    ("bkw2d", "t_end", -1), ("bkw2d", "n_particles", 0), ("bkw2d", "eps", float("nan")),
    ("bkw2d", "scheme", "rk4"), ("bkw2d", "checkpoint_every", 0.3),
    ("bkw2d", "dump_density_at", 1.0), ("bkw2d", "dump_density_at", [0.3]),
    ("vpl-damping", "dump_field", 1),
    ("vpl-damping", "alpha", 1.0), ("vpl-damping", "lam", -1.0),
    ("cpu-bench", "n_list", [100, 301]), ("convergence-study", "n_list", [100.0, 200.0]),
    ("convergence-study", "n_list", [100, 100]), ("cpu-bench", "n_list", []),
    ("vpl-damping", "n_cells", 1),
    # times off the dt grid, by the solver's step rule: dt = 0.3 puts the
    # first time field (t_end 1.0, or t_eval 5.0) off it
    ("bkw2d", "dt", 0.3), ("vpl-damping", "dt", 0.3), ("convergence-study", "dt", 0.3),
    ("bkw2d", "checkpoint_every", 0.25), ("vpl-damping", "t_end", 1.05),
    ("convergence-study", "t_eval", 0.25), ("bkw2d", "dt", 1e-310),  # t_end / dt overflows
    # too few samples for a standard error, a tau that is not a positive time,
    # or a dimension without a sphere sampler
    ("sampler-test", "samples", 1), ("sampler-test", "tau", 0),
    ("sampler-test", "tau", float("nan")), ("sampler-test", "tau", -1),
    ("sampler-test", "dim", 4), ("sampler-test", "dim", 2.0), ("sampler-test", "dim", True)])
def test_bad_values_name_the_field(tmp_path, capsys, kind, name, value):
    with pytest.raises(ConfigError, match=name):
        config_of(kind, **{name: value})
    cfg = {"kind": kind, **MINIMAL[kind], name: value}
    assert main(["run", write_config(tmp_path / "c.json", **cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_dump_times_need_distinct_file_names():
    # 100000 and 100000.5 both format as density_t100000.csv
    with pytest.raises(ConfigError, match="dump_density_at"):
        config_of("bkw2d", dt=0.5, checkpoint_every=0.5, t_end=100000.5,
                  dump_density_at=[100000, 100000.5])
    # one time listed twice writes one file
    assert config_of("bkw2d", dump_density_at=[0.5, 1.0, 1]).dump_density_at == [0.5, 1.0, 1]


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True)


def test_manifest_git_revision_is_the_package_checkout(tmp_path, monkeypatch):
    # git runs in the package's directory: from any working directory the
    # manifest names the checkout the code comes from, with "-dirty" when its
    # tracked files differ from HEAD or an untracked, non-ignored file lies in
    # the package, or None outside one
    package = pathlib.Path(landau.cli.__file__).resolve().parent
    head = git(package, "rev-parse", "HEAD")
    want = None
    if head.returncode == 0:
        dirty = (git(package, "status", "--porcelain", "--untracked-files=no").stdout.strip()
                 or git(package, "ls-files", "--others", "--exclude-standard").stdout.strip())
        want = head.stdout.strip() + ("-dirty" if dirty else "")
    monkeypatch.chdir(tmp_path)
    assert run(small_bkw2d(tmp_path / "out", t_end=0.5))["git_revision"] == want
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["git_revision"] == want


def test_git_revision_marks_a_dirty_checkout(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "cli.py").write_text("a = 1\n")
    git(repo, "init", "-q")
    git(repo, "add", "pkg/cli.py")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    sha = git(repo, "rev-parse", "HEAD").stdout.strip()
    assert len(sha) == 40
    monkeypatch.setattr(landau.cli, "__file__", str(repo / "pkg" / "cli.py"))
    assert landau.cli._git_revision() == sha
    # untracked files outside the package, and ignored ones in it, run no code
    (repo / "out").mkdir()
    (repo / "out" / "manifest.json").write_text("{}\n")
    (repo / "pkg" / ".gitignore").write_text("*.pyc\n.gitignore\n")
    (repo / "pkg" / "cli.pyc").write_text("")
    assert landau.cli._git_revision() == sha
    # an untracked module in the package may be imported by a run
    (repo / "pkg" / "new.py").write_text("b = 1\n")
    assert landau.cli._git_revision() == sha + "-dirty"
    (repo / "pkg" / "new.py").unlink()
    (repo / "pkg" / "cli.py").write_text("a = 2\n")
    assert landau.cli._git_revision() == sha + "-dirty"


def test_manifest_records_kind_physics(tmp_path):
    run(small_bkw2d(tmp_path / "a", t_end=0.5))
    config = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    assert (config["dim"], config["gamma"], config["lam"]) == (2, 0.0, 1.0 / 8.0)
    assert config["grid_cells"] == 64 and "alpha" not in config
    cfg = config_of("bkw3d", outdir=str(tmp_path / "b"), grid_cells=16)
    run(cfg)
    config = json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]
    assert (config["dim"], config["gamma"], config["lam"]) == (3, 0.0, 1.0 / 12.0)


def test_bkw2d_run_outputs(tmp_path):
    cfg = small_bkw2d(tmp_path / "out")
    manifest = run(cfg)
    outdir = tmp_path / "out"
    header, rows = read_csv(outdir / "diagnostics.csv")
    assert header == ["time", "momentum_x", "momentum_y", "kinetic_energy", "entropy", "rel_l2_error"]
    assert len(rows) == 3
    energies = [float(r[3]) for r in rows]
    assert abs(energies[-1] - energies[0]) <= 1e-10 * energies[0]
    rel = [float(r[5]) for r in rows]
    assert all(np.isfinite(rel)) and all(0 <= e < 1 for e in rel)
    data = json.loads((outdir / "manifest.json").read_text())
    assert data["seed"] == 3
    assert "diagnostics.csv" in data["outputs"]
    assert data["run_seconds"] > 0 and "seconds_per_step" not in data
    assert manifest["version"] and manifest == data


def test_rerun_is_bitwise_identical(tmp_path):
    run(small_bkw2d(tmp_path / "a"))
    run(small_bkw2d(tmp_path / "b"))
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == \
           (tmp_path / "b" / "diagnostics.csv").read_bytes()


def test_density_dump(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return mollified_density(*args, **kw)

    # a second KDE pass in the CLI would be counted too
    monkeypatch.setattr(landau.collision, "mollified_density", counted)
    monkeypatch.setattr(landau.cli, "mollified_density", counted, raising=False)
    cfg = small_bkw2d(tmp_path / "out", dump_density_at=[1.0])
    assert run(cfg)["outputs"] == ["diagnostics.csv", "density_t1.csv"]
    assert len(calls) == len(cfg.checkpoint_times())
    grid = load_grid_csv(tmp_path / "out" / "density_t1.csv")
    assert grid.n_grid == 64
    assert np.sum(grid.values) * grid.h**2 == pytest.approx(1.0, abs=0.05)
    # the dump is the KDE of the final velocities, byte for byte
    monkeypatch.undo()
    scheme = SchemeConfig(cfg.dt, cfg.scheme, cfg.kernel(), seed=cfg.seed)
    res = simulate_homogeneous(scheme, _initial_ensemble(cfg, cfg.n_particles, cfg.seed),
                               cfg.t_end, cfg.checkpoint_times(), store_snapshots=True)
    want = DensityGrid(2, -cfg.grid_extent, cfg.grid_extent, cfg.grid_cells)
    save_grid_csv(mollified_density(res[-1].ensemble.velocities, cfg.eps, want),
                  tmp_path / "want.csv")
    assert (tmp_path / "out" / "density_t1.csv").read_bytes() == \
           (tmp_path / "want.csv").read_bytes()


def with_header(path, header):
    """Rewrite the geometry line of a saved grid file."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(f"# {header}\n" + "".join(lines[1:]))
    return path


def test_reference_density_loading(tmp_path):
    grid = DensityGrid(2, -8.0, 8.0, 64, np.random.default_rng(0).random((64, 64)))
    c = tmp_path / "ref.csv"
    save_grid_csv(grid, c)
    back = load_grid_csv(c)
    np.testing.assert_array_equal(back.values, grid.values)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(c.read_bytes()[:1000])
    with pytest.raises(FormatError):
        load_grid_csv(bad)
    neg = DensityGrid(2, -8.0, 8.0, 4, -np.ones((4, 4)))
    nc = tmp_path / "neg.csv"
    save_grid_csv(neg, nc)
    with pytest.raises(FormatError, match="negative"):
        load_grid_csv(nc)
    # every grid file is a density: one negative or non-finite value fails, -0.0 does not
    for value in (-1e-300, np.nan, np.inf, -0.0):
        vals = np.ones((4, 4))
        vals[1, 2] = value
        save_grid_csv(DensityGrid(2, -8.0, 8.0, 4, vals), nc)
        if value == 0:
            np.testing.assert_array_equal(load_grid_csv(nc).values, vals)
            continue
        with pytest.raises(FormatError, match="non-finite or negative"):
            load_grid_csv(nc)
    # grids are CSV only: a binary header (dim, lo, hi, n_grid) and float64 values
    raw = tmp_path / "ref.bin"
    raw.write_bytes(struct.pack("<IddI", 2, -8.0, 8.0, 4) + np.ones(16).tobytes())
    with pytest.raises(FormatError, match="line 1"):
        load_grid_csv(raw)
    # a header whose geometry makes no grid fails at line 1, not in DensityGrid
    ones = tmp_path / "ones.csv"
    for header in ("dim=4 lo=-8.0 hi=8.0 n_grid=2", "dim=2 lo=-8.0 hi=8.0 n_grid=0",
                   "dim=2 lo=1.0 hi=-1.0 n_grid=4", "dim=2 lo=nan hi=8.0 n_grid=4",
                   "dim=2 lo=-8.0 hi=inf n_grid=4"):
        save_grid_csv(DensityGrid(2, -8.0, 8.0, 4, np.ones((4, 4))), ones)
        with pytest.raises(FormatError, match="line 1"):
            load_grid_csv(with_header(ones, header))


@pytest.mark.parametrize("kind, grid_cells", [("bkw2d", 128), ("bkw2d", 24), ("bkw3d", 64),
                                               ("bkw3d", 12)])
def test_bkw_reference_is_the_closed_form_on_the_mesh(kind, grid_cells):
    # the reference holds |v|^2 on the grid instead of the center mesh and
    # reads bitwise the same as the closed form evaluated on the mesh
    cfg = config_of(kind, grid_cells=grid_cells)
    grid = DensityGrid(cfg.dim, -cfg.grid_extent, cfg.grid_extent, cfg.grid_cells)
    reference = _reference_fn(cfg, grid)
    t0 = bkw_t_min(cfg.dim)
    for t in (0.0, 0.5, 7.3):
        np.testing.assert_array_equal(reference(t), bkw_density(cfg.dim, t0 + t, center_mesh(grid)))


def coulomb_config(tmp_path, **extra):
    cfg = dict(kind="coulomb2d", n_particles=1000, dt=0.1, t_end=0.5, checkpoint_every=0.5,
               grid_cells=64, reference_path=str(tmp_path / "ref.csv"), reference_time=0.5,
               outdir=str(tmp_path / "out"))
    cfg.update(extra)
    return cfg


def test_coulomb_reference_comparison(tmp_path, capsys):
    # reference grid mismatching the experiment grid is a config error
    save_grid_csv(DensityGrid(2, -8.0, 8.0, 32, np.ones((32, 32))), tmp_path / "ref.csv")
    with pytest.raises(ConfigError, match="reference_path"):
        run(ExperimentConfig.from_dict(coulomb_config(tmp_path)))
    # a binary grid fails the CSV header check: one error line, exit 1
    raw = tmp_path / "ref.bin"
    raw.write_bytes(struct.pack("<IddI", 2, -8.0, 8.0, 64) + np.ones(64 * 64).tobytes())
    path = write_config(tmp_path / "c.json", **coulomb_config(tmp_path, reference_path=str(raw)))
    assert main(["run", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "line 1" in err[0]
    # so does a header with hi below lo
    flip = tmp_path / "flip.csv"
    save_grid_csv(DensityGrid(2, -8.0, 8.0, 64, np.ones((64, 64))), flip)
    with_header(flip, "dim=2 lo=1.0 hi=-1.0 n_grid=64")
    path = write_config(tmp_path / "c.json", **coulomb_config(tmp_path, reference_path=str(flip)))
    assert main(["run", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "line 1" in err[0]
    # matching grid: the rel-L2 column is populated at the reference time only
    save_grid_csv(DensityGrid(2, -8.0, 8.0, 64, np.ones((64, 64)) / 256.0), tmp_path / "ref.csv")
    run(ExperimentConfig.from_dict(coulomb_config(tmp_path, outdir=str(tmp_path / "out2"))))
    _, rows = read_csv(tmp_path / "out2" / "diagnostics.csv")
    assert rows[0][5] == ""
    assert float(rows[-1][5]) > 0


@pytest.mark.parametrize("reference_time", [0.3, 7.0])
def test_reference_time_must_be_a_checkpoint_time(tmp_path, capsys, reference_time):
    # off the checkpoints 0 and 0.5 the reference would never be compared
    save_grid_csv(DensityGrid(2, -8.0, 8.0, 64, np.ones((64, 64)) / 256.0), tmp_path / "ref.csv")
    cfg = coulomb_config(tmp_path, reference_time=reference_time)
    with pytest.raises(ConfigError, match="reference_time"):
        ExperimentConfig.from_dict(cfg)
    assert main(["run", write_config(tmp_path / "c.json", **cfg)]) == 1
    assert "reference_time" in capsys.readouterr().err
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


def test_vpl_run(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        kind="vpl-damping", n_particles=5000, dt=0.02, t_end=0.2, alpha=0.1,
        n_cells=32, seed=1, dump_field=True, outdir=str(tmp_path / "vpl")))
    run(cfg)
    header, rows = read_csv(tmp_path / "vpl" / "timeseries.csv")
    assert header == ["time", "electric_l2", "E_K", "E_E", "E_total", "momentum_x", "momentum_y"]
    assert len(rows) == 11
    fheader, frows = read_csv(tmp_path / "vpl" / "field_final.csv")
    assert fheader == ["x", "E"] and len(frows) == 32
    data = json.loads((tmp_path / "vpl" / "manifest.json").read_text())
    # the convergence check of the sweeps: 1.4e-16 at the default 5, 2.9e-11 at 2
    assert data["summary"]["relative_energy_drift"] <= 1e-12
    assert "field_final.csv" in data["outputs"]


def test_vpl_energy_drift_is_the_largest_over_the_records(tmp_path, monkeypatch):
    # energy that strays and comes back: the last record alone would read 0
    records = [SimpleNamespace(time=0.1 * k, electric_l2=0.0, kinetic_energy=e,
                               electric_energy=0.0, total_energy=e, momentum=(0.0, 0.0))
               for k, e in enumerate((1.0, 1.5, 1.0))]
    monkeypatch.setattr(landau.cli, "simulate_vpl", lambda vcfg: (records, None))
    cfg = ExperimentConfig.from_dict(dict(kind="vpl-damping", n_particles=100, dt=0.1,
                                          t_end=0.2, alpha=0.1, outdir=str(tmp_path)))
    assert run(cfg)["summary"]["relative_energy_drift"] == 0.5


def test_vpl_run_rejects_t_end_off_the_dt_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", kind="vpl-damping", n_particles=200, dt=0.1,
                       t_end=0.25, alpha=0.1, n_cells=8, outdir=str(tmp_path / "vpl"))
    assert main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "vpl" / "timeseries.csv").exists()


def test_em_blow_up_is_one_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", kind="bkw2d", scheme="em", n_particles=200,
                       dt=1e200, t_end=3e200, checkpoint_every=3e200, grid_cells=16,
                       outdir=str(tmp_path / "em"))
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not finite" in err[0]
    assert not (tmp_path / "em" / "manifest.json").exists()


def test_import_loads_no_scipy():
    # the runtime is numpy and the standard library; scipy serves the tests only
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import sys, landau, landau.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"


def test_bkw3d_run(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        kind="bkw3d", n_particles=2000, dt=0.1, t_end=0.5, checkpoint_every=0.5,
        grid_cells=32, seed=2, outdir=str(tmp_path / "out3d")))
    run(cfg)
    header, rows = read_csv(tmp_path / "out3d" / "diagnostics.csv")
    assert header[:4] == ["time", "momentum_x", "momentum_y", "momentum_z"]
    energies = [float(r[4]) for r in rows]
    assert abs(energies[-1] - energies[0]) <= 1e-10 * energies[0]
    assert all(0 <= float(r[6]) < 1 for r in rows)


def test_convergence_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "conv.json", kind="convergence-study", dt=0.1,
                       t_eval=1.0, n_list=[200, 800], n_seeds=2, grid_cells=64,
                       outdir=str(tmp_path / "out"))
    assert main(["convergence", cfg]) == 0
    out = capsys.readouterr().out
    assert "slope" in out
    data = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert data["summary"]["slope"] < 0
    assert data["run_seconds"] > 0


def test_bench_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "bench.json", kind="cpu-bench", dt=0.1,
                       n_list=[2000, 8000], bench_steps=2, bench_warmup=1,
                       outdir=str(tmp_path / "out"))
    assert main(["bench", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "bench.csv")
    assert header == ["n_particles", "seconds_per_step"]
    assert all(float(r[1]) > 0 for r in rows)
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["run_seconds"] > 0


def test_sampler_test_command(capsys, tmp_path):
    # the sampler check runs as a config kind; its bad inputs are cases of
    # test_bad_values_name_the_field
    for dim, tau in ((2, 0.05), (3, 0.5)):
        path = write_config(tmp_path / "s.json", kind="sampler-test", dim=dim, tau=tau,
                            samples=20000, outdir=str(tmp_path))
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
    assert "sphere3d" in out
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["summary"]["pass"] and data["config"]["tau"] == 0.5
    assert data["config"]["kind"] == "sampler-test" and data["run_seconds"] > 0


def test_shipped_presets_run(tmp_path, capsys):
    # every preset, shrunk, runs end to end through `landau run`: a runner that
    # reads a field its kind does not declare fails here
    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    caps = dict(n_particles=4000, t_end=0.4, checkpoint_every=0.2, t_eval=0.2, n_seeds=2,
                bench_steps=1, bench_warmup=0, samples=20000)
    presets = sorted(here.glob("*.json"))
    assert presets
    for preset in presets:
        raw = json.loads(preset.read_text())
        raw.update({k: min(raw[k], cap) for k, cap in caps.items() if k in raw})
        if "n_list" in raw:
            raw["n_list"] = [400, 800]
        raw["outdir"] = str(tmp_path / preset.stem)
        path = write_config(tmp_path / preset.name, **raw)
        assert main(["run", path]) == 0, preset.name
        assert (tmp_path / preset.stem / "manifest.json").exists()
