import json

import numpy as np
import pytest

from landau.cli import ExperimentConfig, load_reference_density, main, run
from landau.diagnostics import DensityGrid, save_grid_binary, save_grid_csv
from landau.errors import ConfigError, FormatError


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


def test_subcommand_kind_guard(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", kind="cpu-bench", dt=0.1, n_list=[100])
    assert main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_shipped_presets_parse():
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for preset in sorted(here.glob("*.json")):
        ExperimentConfig.from_file(preset)
