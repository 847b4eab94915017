import tracemalloc
import warnings

import numpy as np
import pytest

from landau import diagnostics
from landau.analytic import sample_bkw
from landau.diagnostics import (DensityGrid, entropy, load_grid_csv, moments, mollified_density,
                                relative_l2_error, save_grid_csv)
from landau.errors import EmptyEnsemble, FormatError, GridMismatch
from landau.streams import RngStream

from oracles import (bkw_mollified_density, center_mesh, direct_mollified_density,
                     reference_mollified_density, reference_save_grid_csv)


def maxwellian_2d(v):
    r2 = np.sum(np.asarray(v) ** 2, axis=-1)
    return np.exp(-r2 / 2.0) / (2.0 * np.pi)


def test_kde_single_particle_peak():
    grid = DensityGrid(2, -8.0, 8.0, 128)
    center = grid.centers()[64] * np.ones(2)
    dens = mollified_density(np.array([center]), 0.01, grid)
    assert dens.values[64, 64] == pytest.approx(1.0 / (2 * np.pi * 0.01), rel=1e-12)


def test_kde_mass_close_to_one():
    v = sample_bkw(2, 0.0, 10_000, RngStream(1))
    grid = DensityGrid(2, -8.0, 8.0, 128)
    dens = mollified_density(v, 0.01, grid)
    assert np.sum(dens.values) * dens.h**2 == pytest.approx(1.0, abs=0.01)


def test_kde_consistency_maxwellian():
    gen = RngStream(2).generator()
    v = gen.standard_normal((1_000_000, 2))
    grid = DensityGrid(2, -8.0, 8.0, 128)
    dens = mollified_density(v, 0.01, grid)
    ref = DensityGrid(2, -8.0, 8.0, 128, maxwellian_2d(center_mesh(grid)))
    assert relative_l2_error(ref, dens) < 0.02


def test_kde_3d_mass():
    gen = RngStream(3).generator()
    v = gen.standard_normal((20_000, 3))
    grid = DensityGrid(3, -8.0, 8.0, 64)
    dens = mollified_density(v, 0.01, grid)
    assert np.sum(dens.values) * dens.h**3 == pytest.approx(1.0, abs=0.01)


def test_kde_matches_mollified_reference():
    # with a million samples the KDE sits on the eps-smoothed density (only
    # Monte Carlo noise left, ~1%), clearly closer to it than to the raw one
    from landau.analytic import bkw_density

    v = sample_bkw(2, 0.0, 1_000_000, RngStream(4))
    grid = DensityGrid(2, -8.0, 8.0, 128)
    dens = mollified_density(v, 0.01, grid)
    mesh = center_mesh(grid)
    ref_moll = DensityGrid(2, -8.0, 8.0, 128, bkw_mollified_density(2, 0.0, 0.01, mesh))
    ref_raw = DensityGrid(2, -8.0, 8.0, 128, bkw_density(2, 0.0, mesh))
    err_moll = relative_l2_error(ref_moll, dens)
    assert err_moll < 0.015
    assert err_moll < relative_l2_error(ref_raw, dens)


@pytest.mark.parametrize("dim, n_grid", [(2, 64), (3, 32)])
def test_kde_translation_equivariance(dim, n_grid):
    gen = RngStream(5).generator()
    v = gen.standard_normal((500, dim))
    shift = 0.37
    # the grid type needs the same extent on every axis, so shift all axes alike
    g0 = DensityGrid(dim, -6.0, 6.0, n_grid)
    g1 = DensityGrid(dim, -6.0 + shift, 6.0 + shift, n_grid)
    d0 = mollified_density(v, 0.01, g0)
    d1 = mollified_density(v + shift, 0.01, g1)
    np.testing.assert_allclose(d1.values, d0.values, atol=1e-12 * d0.values.max())


def _edge_case_ensemble(grid, eps, n_total, rng):
    """Velocities on cell edges, straddling each face's reach, off the grid, and inside."""
    d, lo, hi, h, ng = grid.dim, grid.lo, grid.hi, grid.h, grid.n_grid
    r = diagnostics.TRUNCATION_SIGMAS * np.sqrt(eps) / h
    m = int(2.0 * r) + 1
    parts = [lo + h * rng.integers(-m - 2, ng + m + 3, (40, d))]
    # a particle s cells beyond the face has a window meeting the grid iff
    # s < m - R - 1/2 (low face) or s <= R - 1/2 (high face)
    for a in range(d):
        for face, sign, edge in ((lo, -1.0, m - r - 0.5), (hi, 1.0, r - 0.5)):
            p = rng.uniform(lo, hi, (7, d))
            p[:, a] = face + sign * h * np.array([0.0, 0.3, 1.0, edge - 0.25, edge, edge + 0.25,
                                                  edge + 1.5])
            parts.append(p)
    off = h * (m + 3)
    parts.append(np.array([[lo - off] * d, [hi + off] * d, [0.0] * (d - 1) + [hi + off]]))
    used = sum(len(p) for p in parts)
    parts.append(rng.uniform(lo - 0.5, hi + 0.5, (n_total - used, d)))
    return np.concatenate(parts)


@pytest.mark.parametrize("dim, n_grid", [(2, 24), (3, 12)])
def test_kde_matches_direct_sum(dim, n_grid, monkeypatch):
    # Exact truncation and edge semantics, within rounding of the double loop.
    # A window's first cell lies within 6 sigma of its particle, at a weight of
    # at least exp(-18) ~ 1.5e-8 of a peak on that axis, so a window or a reach
    # test one cell short shows; the wider eps has h < sqrt(eps) / 2.
    grid = DensityGrid(dim, -2.0, 2.0, n_grid)
    for eps in (0.01, 0.16 if dim == 2 else 0.5):
        v = _edge_case_ensemble(grid, eps, 211, np.random.default_rng(10 + dim))
        single = np.full((1, dim), grid.lo - 0.3 * grid.h)
        cases = [(ens, direct_mollified_density(ens, eps, -2.0, 2.0, n_grid)) for ens in (v, single)]
        # the default budget holds all 211 particles at eps = 0.01; blocks of
        # 21000 bytes hold 14 particles at eps = 0.01 (windows of 8 cells in
        # 2D, 4 in 3D: 1408 and 1472 bytes per particle), leaving a partial
        # block, and 1 particle at the wider eps
        for block_bytes in (diagnostics._KDE_BLOCK_BYTES, 21000):
            monkeypatch.setattr(diagnostics, "_KDE_BLOCK_BYTES", block_bytes)
            for ens, ref in cases:
                got = mollified_density(ens, eps, grid).values
                assert ref.max() > 0
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * ref.max())


@pytest.mark.parametrize("dim, n_grid", [(2, 24), (3, 12)])
def test_kde_keeps_its_truncation_promise(dim, n_grid):
    # against the untruncated Gaussian sum over every cell, whatever the window
    # rule: what the truncation drops is below exp(-sigmas^2 / 2) of the peak
    grid = DensityGrid(dim, -2.0, 2.0, n_grid)
    bound = np.exp(-diagnostics.TRUNCATION_SIGMAS**2 / 2.0)
    for eps in (0.01, 0.16 if dim == 2 else 0.5):
        v = _edge_case_ensemble(grid, eps, 211, np.random.default_rng(10 + dim))
        wa = np.exp(-(grid.centers() - v[:, :, None]) ** 2 / (2.0 * eps))
        full = np.einsum("ni,nj->ij" if dim == 2 else "ni,nj,nk->ijk", *wa.transpose(1, 0, 2))
        full /= (2.0 * np.pi * eps) ** (dim / 2.0) * len(v)
        got = mollified_density(v, eps, grid).values
        np.testing.assert_allclose(got, full, rtol=0, atol=bound * full.max())


@pytest.mark.parametrize("dim, n_grid, cells", [(3, 64, 125), (2, 128, 100)])
def test_kde_window_spans_the_truncation_radius(dim, n_grid, cells):
    # one particle away from the faces and off every cell-center symmetry:
    # floor(2R) + 1 cells per axis at R = 6 sqrt(0.01) / h, 2.4 cells at 64^3
    # and 4.8 at 128^2, and every cell center within R on each axis among them
    grid = DensityGrid(dim, -8.0, 8.0, n_grid)
    v = np.array([[0.3217, -1.1093, 0.4571][:dim]])
    got = mollified_density(v, 0.01, grid).values
    assert np.count_nonzero(got) == cells
    near = [np.abs(grid.centers() - x) <= diagnostics.TRUNCATION_SIGMAS * 0.1 for x in v[0]]
    assert np.all(got[np.ix_(*near)] > 0)


@pytest.mark.parametrize("dim, n_grid, n", [(3, 64, 50_000), (2, 128, 100_000)])
def test_kde_matches_particle_major_reference(dim, n_grid, n, monkeypatch):
    # the offsets-major stencil sums the same entries in another order, block
    # by block with np.add.at. Blocks of 21000 bytes (7 particles in 3D, 10
    # in 2D) run on the first 2000 particles against reference blocks of 1000
    # entries (8 and 10 particles), since each reference block adds a
    # full-grid bincount
    v = RngStream(12).generator().standard_normal((n, dim))
    grid = DensityGrid(dim, -8.0, 8.0, n_grid)
    for block_bytes, block, ens in ((diagnostics._KDE_BLOCK_BYTES, 1 << 19, v),
                                    (21000, 1000, v[:2000])):
        monkeypatch.setattr(diagnostics, "_KDE_BLOCK_BYTES", block_bytes)
        ref = reference_mollified_density(ens, 0.01, -8.0, 8.0, n_grid, block=block)
        got = mollified_density(ens, 0.01, grid).values
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * ref.max())


# tracemalloc peaks of the KDE with blocks of _KDE_BLOCK_BYTES are 6.08 MB at
# 64^3 (4.4 MB of it the grid with its border and the result) and 2.32 MB at
# 128^2
KDE_PEAK_MB = {3: 6.2, 2: 2.4}


@pytest.mark.parametrize("dim, n_grid, n", [(3, 64, 50_000), (2, 128, 100_000)])
def test_kde_memory_is_bounded(dim, n_grid, n):
    v = RngStream(11).generator().standard_normal((n, dim))
    grid = DensityGrid(dim, -8.0, 8.0, n_grid)
    tracemalloc.start()
    try:
        mollified_density(v, 0.01, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= KDE_PEAK_MB[dim] * 1e6


def test_kde_rejects_non_finite_velocities():
    v = np.array([[0.0, 0.0], [np.nan, 0.1], [0.2, np.inf], [0.3, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="2 of 4 particles"):
            mollified_density(v, 0.01, DensityGrid(2, -8.0, 8.0, 32))


def test_kde_drops_far_off_grid_particles_silently():
    grid = DensityGrid(2, -8.0, 8.0, 32)
    near = np.array([[0.1, -0.2]])
    far = np.array([[1e300, 0.0], [0.0, -1e300], [1.7e308, -1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = mollified_density(near, 0.01, grid).values
        mixed = mollified_density(np.concatenate([far[:2], near, far[2:]]), 0.01, grid).values
    # dropped particles still count in N
    np.testing.assert_allclose(mixed, alone / 4.0, rtol=1e-14, atol=0)


def test_kde_rejects_empty_and_mismatched():
    grid = DensityGrid(2, -8.0, 8.0, 16)
    with pytest.raises(EmptyEnsemble):
        mollified_density(np.zeros((0, 2)), 0.01, grid)
    with pytest.raises(GridMismatch):
        mollified_density(np.zeros((4, 3)), 0.01, grid)
    with pytest.raises(ValueError):
        mollified_density(np.zeros((4, 2)), -1.0, grid)


def test_rel_l2_trivial_cases():
    ref = DensityGrid(2, 0.0, 1.0, 2, np.array([[1.0, 2.0], [2.0, 0.0]]))
    est0 = DensityGrid(2, 0.0, 1.0, 2, np.zeros((2, 2)))
    assert relative_l2_error(ref, ref) == 0.0
    assert relative_l2_error(ref, est0) == 1.0


def test_rel_l2_hand_computed():
    ref = DensityGrid(2, 0.0, 1.0, 2, np.array([[1.0, 2.0], [2.0, 0.0]]))
    est = DensityGrid(2, 0.0, 1.0, 2, np.array([[1.0, 1.0], [3.0, 0.0]]))
    # sqrt(0 + 1 + 1 + 0) / sqrt(1 + 4 + 4 + 0) = sqrt(2)/3, h^d cancels
    assert relative_l2_error(ref, est) == pytest.approx(np.sqrt(2.0) / 3.0, rel=1e-14)


def test_rel_l2_scale_invariance_and_mismatch():
    ref = DensityGrid(2, 0.0, 1.0, 2, np.array([[1.0, 2.0], [2.0, 0.5]]))
    est = DensityGrid(2, 0.0, 1.0, 2, np.array([[1.0, 1.0], [3.0, 0.25]]))
    e1 = relative_l2_error(ref, est)
    ref2 = DensityGrid(2, 0.0, 1.0, 2, 7.0 * ref.values)
    est2 = DensityGrid(2, 0.0, 1.0, 2, 7.0 * est.values)
    assert relative_l2_error(ref2, est2) == pytest.approx(e1, rel=1e-14)
    other = DensityGrid(2, 0.0, 2.0, 2, est.values)
    with pytest.raises(GridMismatch):
        relative_l2_error(ref, other)


def test_entropy_cases():
    single = DensityGrid(2, 0.0, 1.0, 1, np.array([[np.e]]))
    assert entropy(single) == pytest.approx(np.e, rel=1e-15)
    zeros = DensityGrid(2, 0.0, 1.0, 4)
    assert entropy(zeros) == 0.0
    with pytest.raises(ValueError):
        entropy(DensityGrid(2, 0.0, 1.0, 1, np.array([[-0.1]])))


def test_entropy_of_maxwellian_grid():
    grid = DensityGrid(2, -8.0, 8.0, 256)
    vals = maxwellian_2d(center_mesh(grid))
    g = DensityGrid(2, -8.0, 8.0, 256, vals)
    assert entropy(g) == pytest.approx(-(1.0 + np.log(2.0 * np.pi)), abs=1e-3)


def test_moments_examples():
    m = moments(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    np.testing.assert_array_equal(m.momentum, [0.0, 0.0])
    assert m.kinetic_energy == 1.0
    v = np.random.default_rng(6).standard_normal((100, 3))
    anti = np.empty((200, 3))
    anti[0::2], anti[1::2] = v, -v
    np.testing.assert_array_equal(moments(anti).momentum, np.zeros(3))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1001, 20_003, 100_001])
def test_momentum_adds_the_rows_in_order(dim, n):
    # bitwise np.sum(v, axis=0) of a C-ordered array; n is not a multiple of 8
    for seed in range(4):
        v = np.random.default_rng(seed).standard_normal((n, dim)) * 3.0 + 0.5
        np.testing.assert_array_equal(moments(v).momentum, np.sum(v, axis=0))


def test_grid_roundtrip_csv(tmp_path):
    gen = RngStream(8).generator()
    grid = DensityGrid(2, -3.0, 3.0, 8, gen.random((8, 8)))
    p = tmp_path / "grid.csv"
    save_grid_csv(grid, p)
    back = load_grid_csv(p)
    assert back.congruent(grid)
    np.testing.assert_array_equal(back.values, grid.values)


@pytest.mark.parametrize("dim,n_grid", [(2, 160), (3, 6)])
def test_csv_writer_matches_reference_bytes(tmp_path, dim, n_grid):
    # the 160^2 rows span two of the writer's blocks
    g = np.random.default_rng(9)
    shape = (n_grid,) * dim
    vals = g.standard_normal(shape) * 10.0 ** g.integers(-300, 300, shape)
    vals.flat[:4] = [0.0, -0.0, 5e-324, -np.finfo(float).max]
    grid = DensityGrid(dim, -8.0, 8.0 / 3.0, n_grid, vals)
    save_grid_csv(grid, tmp_path / "got.csv")
    reference_save_grid_csv(grid, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_malformed_csv_raises_with_line(tmp_path):
    grid = DensityGrid(2, -3.0, 3.0, 4, np.ones((4, 4)))
    p = tmp_path / "grid.csv"
    save_grid_csv(grid, p)
    lines = p.read_text().splitlines()
    lines[5] = "0.1,0.2,not-a-number"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 6"):
        load_grid_csv(p)
    p.write_text("no header\n")
    with pytest.raises(FormatError, match="line 1"):
        load_grid_csv(p)
