import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from landau.cli import ExperimentConfig, load_reference_density, main, run
from landau.diagnostics import DensityGrid, save_grid_csv
from landau.errors import ConfigError, FormatError

from oracles import save_grid_binary

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    with pytest.raises(ConfigError, match="residual_tol"):
        ExperimentConfig.from_dict(dict(kind="vpl-damping", n_particles=100, dt=0.1,
                                        t_end=1.0, alpha=0.1, residual_tol=0))


def test_config_rejects_sampler_fields():
    # the sphere sampler follows from the dimension and sampler-test runs from
    # its command line, so no config kind takes these fields
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
}


COMMAND = {"convergence-study": "convergence", "cpu-bench": "bench"}  # others: "run"


def config_of(kind, **extra):
    return ExperimentConfig.from_dict({"kind": kind, **MINIMAL[kind], **extra})


@pytest.mark.parametrize("kind, name, value", [
    ("bkw2d", "alpha", 0.1), ("bkw2d", "reference_path", "/nonexistent"),
    ("bkw2d", "reference_time", 1.0), ("bkw3d", "n_cells", 32),
    ("coulomb2d", "n_list", [100]), ("vpl-damping", "scheme", "em"),
    ("vpl-damping", "grid_cells", 64), ("convergence-study", "n_particles", 100),
    ("convergence-study", "checkpoint_every", 0.5), ("cpu-bench", "scheme", "em"),
    ("cpu-bench", "eps", 0.01)])
def test_kind_rejects_fields_of_other_kinds(kind, name, value):
    config_of(kind)
    with pytest.raises(ConfigError, match=f"unknown config field.*{kind}.*{name}"):
        config_of(kind, **{name: value})


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_kind_fixes_its_physics(kind):
    # the closed form (or the preset family) of each kind fixes dim and gamma;
    # lam is settable only for vpl-damping, whose presets use 1 and 0
    settable = {"lam"} if kind == "vpl-damping" else set()
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
    ("convergence-study", "n_list", [100, 100]), ("cpu-bench", "n_list", [])])
def test_bad_values_name_the_field(tmp_path, capsys, kind, name, value):
    with pytest.raises(ConfigError, match=name):
        config_of(kind, **{name: value})
    cfg = {"kind": kind, **MINIMAL[kind], name: value}
    assert main([COMMAND.get(kind, "run"), write_config(tmp_path / "c.json", **cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


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
    assert manifest.version


def test_rerun_is_bitwise_identical(tmp_path):
    run(small_bkw2d(tmp_path / "a"))
    run(small_bkw2d(tmp_path / "b"))
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == \
           (tmp_path / "b" / "diagnostics.csv").read_bytes()


def test_density_dump(tmp_path):
    cfg = small_bkw2d(tmp_path / "out", dump_density_at=[1.0])
    run(cfg)
    from landau.diagnostics import load_grid_csv
    grid = load_grid_csv(tmp_path / "out" / "density_t1.csv")
    assert grid.n_grid == 64
    assert np.sum(grid.values) * grid.h**2 == pytest.approx(1.0, abs=0.05)


def test_reference_density_loading(tmp_path):
    grid = DensityGrid(2, -8.0, 8.0, 64, np.random.default_rng(0).random((64, 64)))
    b = tmp_path / "ref.bin"
    c = tmp_path / "ref.csv"
    save_grid_binary(grid, b)
    save_grid_csv(grid, c)
    for p in (b, c):
        back = load_reference_density(p)
        np.testing.assert_array_equal(back.values, grid.values)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b.read_bytes()[:100])
    with pytest.raises(FormatError):
        load_reference_density(bad)
    neg = DensityGrid(2, -8.0, 8.0, 4, -np.ones((4, 4)))
    nb = tmp_path / "neg.bin"
    save_grid_binary(neg, nb)
    with pytest.raises(FormatError, match="negative"):
        load_reference_density(nb)


def test_coulomb_reference_comparison(tmp_path):
    # reference grid mismatching the experiment grid is a config error
    ref = DensityGrid(2, -8.0, 8.0, 32, np.ones((32, 32)))
    rp = tmp_path / "ref.bin"
    save_grid_binary(ref, rp)
    cfg = ExperimentConfig.from_dict(dict(
        kind="coulomb2d", n_particles=1000, dt=0.1, t_end=0.5, checkpoint_every=0.5,
        grid_cells=64, reference_path=str(rp), reference_time=0.5,
        outdir=str(tmp_path / "out")))
    with pytest.raises(ConfigError, match="reference_path"):
        run(cfg)
    # matching grid: the rel-L2 column is populated at the reference time only
    ref2 = DensityGrid(2, -8.0, 8.0, 64, np.ones((64, 64)) / 256.0)
    save_grid_binary(ref2, rp)
    cfg2 = ExperimentConfig.from_dict(dict(
        kind="coulomb2d", n_particles=1000, dt=0.1, t_end=0.5, checkpoint_every=0.5,
        grid_cells=64, reference_path=str(rp), reference_time=0.5,
        outdir=str(tmp_path / "out2")))
    run(cfg2)
    _, rows = read_csv(tmp_path / "out2" / "diagnostics.csv")
    assert rows[0][5] == ""
    assert float(rows[-1][5]) > 0


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
    assert data["summary"]["relative_energy_drift"] < 1e-2
    assert "field_final.csv" in data["outputs"]


def test_vpl_run_rejects_t_end_off_the_dt_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", kind="vpl-damping", n_particles=200, dt=0.1,
                       t_end=0.25, alpha=0.1, n_cells=8, outdir=str(tmp_path / "vpl"))
    assert main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "vpl" / "timeseries.csv").exists()


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


def test_bench_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "bench.json", kind="cpu-bench", dt=0.1,
                       n_list=[2000, 8000], bench_steps=2, bench_warmup=1,
                       outdir=str(tmp_path / "out"))
    assert main(["bench", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "bench.csv")
    assert header == ["n_particles", "seconds_per_step"]
    assert all(float(r[1]) > 0 for r in rows)


def test_sampler_test_command(capsys, tmp_path):
    assert main(["sampler-test", "--dim", "2", "--tau", "0.05",
                 "--samples", "20000", "--outdir", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["sampler-test", "--dim", "3", "--tau", "0.5",
                 "--samples", "20000", "--outdir", str(tmp_path)]) == 0
    assert "sphere3d" in capsys.readouterr().out
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["summary"]["pass"] and data["config"]["tau"] == 0.5
    # too few samples for a standard error, or a tau that is not a positive time
    for flags in (["--tau", "0.1", "--samples", "1"], ["--tau", "0"], ["--tau", "nan"],
                  ["--tau", "-1"]):
        assert main(["sampler-test", "--dim", "2", "--samples", "100", *flags,
                     "--outdir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_subcommand_kind_guard(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", kind="cpu-bench", dt=0.1, n_list=[100, 200])
    assert main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_shipped_presets_run(tmp_path, capsys):
    # every preset, shrunk, runs end to end: a runner that reads a field its
    # kind does not declare fails here
    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    caps = dict(n_particles=4000, t_end=0.4, checkpoint_every=0.2, t_eval=0.2, n_seeds=2,
                bench_steps=1, bench_warmup=0)
    presets = sorted(here.glob("*.json"))
    assert presets
    for preset in presets:
        raw = json.loads(preset.read_text())
        raw.update({k: min(raw[k], cap) for k, cap in caps.items() if k in raw})
        if "n_list" in raw:
            raw["n_list"] = [400, 800]
        raw["outdir"] = str(tmp_path / preset.stem)
        path = write_config(tmp_path / preset.name, **raw)
        assert main([COMMAND.get(raw["kind"], "run"), path]) == 0, preset.name
        assert (tmp_path / preset.stem / "manifest.json").exists()
