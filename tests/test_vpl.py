import numpy as np
import pytest

from landau.errors import FixedPointNotConverged, InvalidCheckpoint, NonFiniteState
from landau.kernels import KernelParams
from landau.streams import RngStream
from landau.vpl import (PicGrid, VplConfig, VplState, cell_collisions, cn_va_step,
                        deposit_charge, deposit_current, deposit_weighted,
                        initial_state, interpolate_field, simulate_vpl,
                        solve_poisson, vpl_diagnostics)

LENGTH = 4.0 * np.pi
COULOMB = KernelParams(1.0, -2.0, 2)


def make_state(x, v, grid, field=None, q=None):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    f = np.zeros(grid.n0) if field is None else field
    return VplState(x, np.asarray(v, dtype=float), f, grid.length / n if q is None else q)


def test_deposit_single_particle_at_center():
    grid = PicGrid(LENGTH, 16)
    x = np.array([grid.centers()[5]])
    raw = deposit_weighted(x, 1.0, grid)
    expect = np.zeros(16)
    expect[5] = 1.0 / grid.dx
    np.testing.assert_allclose(raw, expect, atol=1e-12)


def test_deposit_single_particle_midway():
    grid = PicGrid(LENGTH, 16)
    c = grid.centers()
    x = np.array([(c[5] + c[6]) / 2.0])
    raw = deposit_weighted(x, 1.0, grid)
    assert raw[5] == pytest.approx(0.5 / grid.dx, rel=1e-12)
    assert raw[6] == pytest.approx(0.5 / grid.dx, rel=1e-12)
    assert np.sum(raw != 0) == 2


def test_deposit_total_charge_and_neutrality():
    grid = PicGrid(LENGTH, 128)
    gen = RngStream(1).generator()
    n = 10_000
    state = make_state(gen.uniform(0, LENGTH, n), gen.standard_normal((n, 2)), grid)
    raw = state.charge * deposit_weighted(state.positions, 1.0, grid)
    assert np.sum(raw) * grid.dx == pytest.approx(n * state.charge, rel=1e-12)
    rho = deposit_charge(state, grid)
    assert abs(np.sum(rho)) <= 1e-12 * np.max(np.abs(rho)) * grid.n0


def test_partition_of_unity_via_constant_field():
    grid = PicGrid(LENGTH, 32)
    gen = RngStream(2).generator()
    x = gen.uniform(0, LENGTH, 10_000)
    ones = interpolate_field(np.ones(32), x, grid)
    np.testing.assert_allclose(ones, 1.0, atol=1e-12)


def test_poisson_cosine_mode():
    grid = PicGrid(LENGTH, 128)
    x = grid.centers()
    phi, e = solve_poisson(np.cos(0.5 * x), grid)
    assert np.max(np.abs(phi - 4.0 * np.cos(0.5 * x))) <= 1e-12
    assert np.max(np.abs(e - 2.0 * np.sin(0.5 * x))) <= 1e-12


def test_poisson_zero_and_linearity():
    grid = PicGrid(LENGTH, 64)
    x = grid.centers()
    _, e0 = solve_poisson(np.zeros(64), grid)
    np.testing.assert_array_equal(e0, np.zeros(64))
    r1 = np.cos(0.5 * x)
    r2 = np.sin(2.0 * x)
    _, ea = solve_poisson(r1, grid)
    _, eb = solve_poisson(r2, grid)
    _, eab = solve_poisson(2.0 * r1 - 3.0 * r2, grid)
    np.testing.assert_allclose(eab, 2.0 * ea - 3.0 * eb, atol=1e-12)


def test_interpolation_cases():
    grid = PicGrid(LENGTH, 32)
    c = grid.centers()
    field = np.arange(32.0)
    assert interpolate_field(field, np.array([c[7]]), grid)[0] == pytest.approx(7.0, abs=1e-12)
    assert interpolate_field(field, np.array([(c[7] + c[8]) / 2]), grid)[0] == pytest.approx(7.5, abs=1e-12)
    # linear fields are reproduced exactly between centers away from the seam
    a, b = 0.7, -2.0
    lin = a * c + b
    xs = np.linspace(c[1], c[-2], 57)
    np.testing.assert_allclose(interpolate_field(lin, xs, grid), a * xs + b, atol=1e-12)


def test_current_deposit():
    grid = PicGrid(LENGTH, 16)
    gen = RngStream(3).generator()
    n = 1000
    x = gen.uniform(0, LENGTH, n)
    v = gen.standard_normal((n, 2))
    q = LENGTH / n
    j, jmean = deposit_current(x, v[:, 0], grid, q)
    assert np.sum(j) * grid.dx == pytest.approx(q * np.sum(v[:, 0]), rel=1e-12)
    assert jmean == pytest.approx(np.mean(j), rel=1e-14)
    j0, _ = deposit_current(x, np.zeros(n), grid, q)
    np.testing.assert_array_equal(j0, np.zeros(16))


def test_cn_step_ballistic_limit():
    # equispaced particles with equal velocities: uniform current, zero field
    grid = PicGrid(LENGTH, 32)
    n = 256
    x = (np.arange(n) + 0.5) * (LENGTH / n)
    v = np.column_stack([np.full(n, 0.7), np.full(n, -0.3)])
    state = make_state(x, v, grid)
    out = cn_va_step(state, 0.05, 5, grid)
    np.testing.assert_allclose(out.positions, (x + 0.7 * 0.05) % LENGTH, atol=1e-13)
    np.testing.assert_array_equal(out.velocities, v)
    np.testing.assert_allclose(out.field, 0.0, atol=1e-14)


def test_cn_step_conserves_energy_and_leaves_vy():
    cfg = VplConfig(n_particles=5000, dt=0.02, t_end=1.0, alpha=0.3,
                    kernel=KernelParams(0.0, -2.0, 2), n_cells=64, seed=4)
    grid = PicGrid(cfg.length, cfg.n_cells)
    state = initial_state(cfg, grid)
    d0 = vpl_diagnostics(state, grid)
    vy0 = state.velocities[:, 1].copy()
    out = cn_va_step(state, 0.02, 50, grid, residual_tol=1e-13)
    d1 = vpl_diagnostics(out, grid)
    assert abs(d1.total_energy - d0.total_energy) <= 1e-10 * abs(d0.total_energy)
    np.testing.assert_array_equal(out.velocities[:, 1], vy0)
    assert np.all((out.positions >= 0) & (out.positions < LENGTH))


def test_cn_step_raises_on_nonfinite():
    grid = PicGrid(LENGTH, 16)
    state = make_state(np.array([1.0, 2.0]), np.array([[1e308, 0.0], [-1e308, 0.0]]), grid)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        cn_va_step(state, 1e6, 5, grid)


def test_cn_step_raises_when_residual_tol_is_not_met():
    grid = PicGrid(LENGTH, 16)
    gen = RngStream(4).generator()
    state = make_state(gen.uniform(0, LENGTH, 50), gen.standard_normal((50, 2)), grid)
    with pytest.raises(FixedPointNotConverged, match=r"t=0\.0.*residual .* after 200 sweeps"):
        cn_va_step(state, 0.05, 5, grid, residual_tol=0.0)


def test_cell_collisions_lambda0_identity():
    grid = PicGrid(LENGTH, 16)
    gen = RngStream(5).generator()
    state = make_state(gen.uniform(0, LENGTH, 100), gen.standard_normal((100, 2)), grid)
    out = cell_collisions(state, 0.1, KernelParams(0.0, -2.0, 2), grid, seed=1, step=1)
    assert out is state


def test_cell_collisions_conserve_per_cell():
    grid = PicGrid(LENGTH, 8)
    gen = RngStream(6).generator()
    n = 505  # odd counts in several cells
    state = make_state(gen.uniform(0, LENGTH, n), gen.standard_normal((n, 2)), grid)
    out = cell_collisions(state, 0.1, COULOMB, grid, seed=2, step=3)
    np.testing.assert_array_equal(out.positions, state.positions)
    cell = np.floor(state.positions / grid.dx).astype(int)
    for k in range(grid.n0):
        sel = cell == k
        p0 = np.sum(state.velocities[sel], axis=0)
        p1 = np.sum(out.velocities[sel], axis=0)
        e0 = np.sum(state.velocities[sel] ** 2)
        e1 = np.sum(out.velocities[sel] ** 2)
        np.testing.assert_allclose(p1, p0, atol=1e-10 * max(1.0, np.abs(p0).max()))
        assert abs(e1 - e0) <= 1e-10 * e0
    assert not np.array_equal(out.velocities, state.velocities)


def test_cell_with_single_particle_unchanged():
    grid = PicGrid(LENGTH, 4)
    dx = grid.dx
    # cell 0 holds one particle, cell 2 holds four
    x = np.array([0.5 * dx, 2.1 * dx, 2.3 * dx, 2.5 * dx, 2.7 * dx])
    v = RngStream(7).generator().standard_normal((5, 2))
    state = make_state(x, v, grid)
    out = cell_collisions(state, 0.5, COULOMB, grid, seed=3, step=1)
    np.testing.assert_array_equal(out.velocities[0], v[0])
    assert not np.array_equal(out.velocities[1:], v[1:])


def test_cell_collisions_degenerate_pair_unchanged():
    grid = PicGrid(LENGTH, 4)
    dx = grid.dx
    # cell 0 holds two particles with equal velocities, cell 2 two distinct ones
    x = np.array([0.2 * dx, 0.6 * dx, 2.2 * dx, 2.6 * dx])
    v = np.array([[0.7, -0.3], [0.7, -0.3], [0.4, 0.2], [-0.1, 0.3]])
    out = cell_collisions(make_state(x, v, grid), 0.5, COULOMB, grid, seed=4, step=1)
    np.testing.assert_array_equal(out.velocities[:2], v[:2])
    assert not np.any(np.all(out.velocities[2:] == v[2:], axis=1))


def test_odd_leftover_collides_half_the_time():
    grid = PicGrid(LENGTH, 4)
    dx = grid.dx
    x = np.array([0.1 * dx, 0.4 * dx, 0.8 * dx])  # one cell, three particles
    changed = 0
    trials = 400
    for s in range(trials):
        v = RngStream(8, stream=s).generator().standard_normal((3, 2))
        state = make_state(x, v, grid)
        out = cell_collisions(state, 0.3, COULOMB, grid, seed=s, step=1)
        # the pair (two of the three) always collides; the leftover joins
        # with probability 1/2. count steps where all three moved
        moved = np.sum(np.any(out.velocities != v, axis=1))
        assert moved in (2, 3)
        changed += moved == 3
    freq = changed / trials
    assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / trials)


def test_vpl_diagnostics_values():
    grid = PicGrid(LENGTH, 128)
    x = grid.centers()
    state = make_state(np.array([1.0, 2.0]), np.zeros((2, 2)), grid,
                       field=2.0 * np.sin(0.5 * x))
    d = vpl_diagnostics(state, grid)
    # integral of 4 sin^2(x/2) over [0, 4 pi] is 4 pi, exact for a band-limited
    # integrand on the uniform grid
    assert d.electric_energy == pytest.approx(4.0 * np.pi, abs=1e-10)
    assert d.electric_l2 == pytest.approx(np.sqrt(8.0 * np.pi), abs=1e-10)
    assert d.kinetic_energy == 0.0
    zero = make_state(np.array([1.0, 2.0]), np.ones((2, 2)), grid)
    assert vpl_diagnostics(zero, grid).electric_energy == 0.0
    assert vpl_diagnostics(zero, grid).electric_l2 == 0.0


def test_simulate_vpl_quiet_start():
    cfg = VplConfig(n_particles=20_000, dt=0.02, t_end=1.0, alpha=0.0,
                    kernel=KernelParams(0.0, -2.0, 2), n_cells=64,
                    residual_tol=1e-12, seed=9)
    recs, final = simulate_vpl(cfg)
    assert len(recs) == 51 and final.time == pytest.approx(1.0)
    e0 = recs[0].total_energy
    drift = max(abs(r.total_energy - e0) for r in recs) / abs(e0)
    assert drift <= 1e-3
    # unperturbed equilibrium: the field stays at the particle-noise floor
    assert max(r.electric_l2 for r in recs) < 0.2


def test_simulate_vpl_determinism():
    cfg = VplConfig(n_particles=2000, dt=0.02, t_end=0.2, alpha=0.1,
                    kernel=COULOMB, n_cells=32, seed=10)
    a, state_a = simulate_vpl(cfg)
    b, state_b = simulate_vpl(cfg)
    assert all(ra.total_energy == rb.total_energy and ra.electric_l2 == rb.electric_l2
               for ra, rb in zip(a, b))
    np.testing.assert_array_equal(state_a.velocities, state_b.velocities)
    np.testing.assert_array_equal(state_a.field, state_b.field)


def test_simulate_vpl_rejects_t_end_off_the_dt_grid():
    cfg = VplConfig(n_particles=200, dt=0.1, t_end=0.25, alpha=0.1,
                    kernel=COULOMB, n_cells=8, seed=11)
    with pytest.raises(InvalidCheckpoint):
        simulate_vpl(cfg)
