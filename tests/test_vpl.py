import tracemalloc

import numpy as np
import pytest

import landau.vpl as vpl
from landau.errors import InvalidCheckpoint, NonFiniteState
from landau.kernels import KernelParams
from landau.streams import RngStream
from landau.vpl import (PicGrid, VplConfig, VplState, _cell_pairs, _wrap, cell_collisions,
                        cn_va_step, deposit_charge, deposit_current, hat_weights,
                        initial_state, interpolate_field, iterate_vpl, simulate_vpl,
                        solve_poisson, vpl_diagnostics)
from oracles import reference_cell_pairs, reference_cn_va_step, reference_hat_weights

LENGTH = 4.0 * np.pi
COULOMB = KernelParams(1.0, -2.0, 2)


def make_state(x, v, grid, field=None, q=None):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    f = np.zeros(grid.n0) if field is None else field
    return VplState(x, np.asarray(v, dtype=float), f, grid.length / n if q is None else q)


def hat_of(x, grid):
    """The hat weights of positions x: hat_weights takes cell units."""
    return hat_weights(np.asarray(x, dtype=float) / grid.dx - 0.5, grid)


def density(x, grid):
    """(1/dx) sum_i S_hat(x_i - x_k): the current of unit velocities and unit charge."""
    return deposit_current(hat_of(x, grid), np.ones(len(x)), grid, 1.0)[0]


def test_deposit_single_particle_at_center():
    grid = PicGrid(LENGTH, 16)
    x = np.array([grid.centers()[5]])
    raw = density(x, grid)
    expect = np.zeros(16)
    expect[5] = 1.0 / grid.dx
    np.testing.assert_allclose(raw, expect, atol=1e-12)


def test_deposit_single_particle_midway():
    grid = PicGrid(LENGTH, 16)
    c = grid.centers()
    x = np.array([(c[5] + c[6]) / 2.0])
    raw = density(x, grid)
    assert raw[5] == pytest.approx(0.5 / grid.dx, rel=1e-12)
    assert raw[6] == pytest.approx(0.5 / grid.dx, rel=1e-12)
    assert np.sum(raw != 0) == 2


def test_deposit_total_charge_and_neutrality():
    grid = PicGrid(LENGTH, 128)
    gen = RngStream(1).generator()
    n = 10_000
    state = make_state(gen.uniform(0, LENGTH, n), gen.standard_normal((n, 2)), grid)
    raw = state.charge * density(state.positions, grid)
    assert np.sum(raw) * grid.dx == pytest.approx(n * state.charge, rel=1e-12)
    rho = deposit_charge(state, grid)
    assert abs(np.sum(rho)) <= 1e-12 * np.max(np.abs(rho)) * grid.n0


def test_partition_of_unity_via_constant_field():
    grid = PicGrid(LENGTH, 32)
    gen = RngStream(2).generator()
    x = gen.uniform(0, LENGTH, 10_000)
    ones = interpolate_field(np.ones(32), hat_of(x, grid))
    np.testing.assert_allclose(ones, 1.0, atol=1e-12)


def test_poisson_cosine_mode():
    grid = PicGrid(LENGTH, 128)
    x = grid.centers()
    e = solve_poisson(np.cos(0.5 * x), grid)
    assert np.max(np.abs(e - 2.0 * np.sin(0.5 * x))) <= 1e-12


def test_poisson_zero_and_linearity():
    grid = PicGrid(LENGTH, 64)
    x = grid.centers()
    e0 = solve_poisson(np.zeros(64), grid)
    np.testing.assert_array_equal(e0, np.zeros(64))
    r1 = np.cos(0.5 * x)
    r2 = np.sin(2.0 * x)
    ea = solve_poisson(r1, grid)
    eb = solve_poisson(r2, grid)
    eab = solve_poisson(2.0 * r1 - 3.0 * r2, grid)
    np.testing.assert_allclose(eab, 2.0 * ea - 3.0 * eb, atol=1e-12)


def test_interpolation_cases():
    grid = PicGrid(LENGTH, 32)
    c = grid.centers()
    field = np.arange(32.0)
    at = interpolate_field(field, hat_of([c[7], (c[7] + c[8]) / 2], grid))
    assert at[0] == pytest.approx(7.0, abs=1e-12)
    assert at[1] == pytest.approx(7.5, abs=1e-12)
    # linear fields are reproduced exactly between centers away from the seam
    a, b = 0.7, -2.0
    lin = a * c + b
    xs = np.linspace(c[1], c[-2], 57)
    np.testing.assert_allclose(interpolate_field(lin, hat_of(xs, grid)), a * xs + b,
                               atol=1e-12)


def test_current_deposit():
    grid = PicGrid(LENGTH, 16)
    gen = RngStream(3).generator()
    n = 1000
    x = gen.uniform(0, LENGTH, n)
    v = gen.standard_normal((n, 2))
    q = LENGTH / n
    hat = hat_of(x, grid)
    j, jmean = deposit_current(hat, v[:, 0], grid, q)
    assert np.sum(j) * grid.dx == pytest.approx(q * np.sum(v[:, 0]), rel=1e-12)
    assert jmean == pytest.approx(np.mean(j), rel=1e-14)
    j0, _ = deposit_current(hat, np.zeros(n), grid, q)
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
    out = cn_va_step(state, 0.02, 50, grid)
    d1 = vpl_diagnostics(out, grid)
    assert abs(d1.total_energy - d0.total_energy) <= 1e-13 * abs(d0.total_energy)
    np.testing.assert_array_equal(out.velocities[:, 1], vy0)
    assert np.all((out.positions >= 0) & (out.positions < LENGTH))


def test_cn_step_raises_on_nonfinite():
    grid = PicGrid(LENGTH, 16)
    state = make_state(np.array([1.0, 2.0]), np.array([[1e308, 0.0], [-1e308, 0.0]]), grid)
    with pytest.raises(NonFiniteState):
        cn_va_step(state, 1e6, 5, grid)


def _cn_blow_up():
    # a field of 1e308 drives every midpoint velocity to 5e307, so the
    # current of a cell overflows and E' = E - dt (J - J_mean) is not finite
    grid = PicGrid(LENGTH, 8)
    x = (np.arange(64) % 8 + 0.5) * grid.dx
    state = make_state(x, np.zeros((64, 2)), grid, field=np.full(8, 1e308))
    cn_va_step(state, 1.0, 1, grid)


@pytest.mark.parametrize("make, error, match", [
    (lambda: PicGrid(0.0, 8), ValueError, "length > 0"),
    (lambda: PicGrid(LENGTH, 1), ValueError, "n0 >= 2"),
    (lambda: VplState(np.zeros(4), np.zeros((4, 3)), np.zeros(8), 1.0), ValueError, r"\(N, 2\)"),
    (lambda: VplState(np.zeros(4), np.zeros((3, 2)), np.zeros(8), 1.0), ValueError, r"\(N, 2\)"),
    (lambda: VplState(np.zeros(4), np.zeros((4, 2)), np.full(8, np.nan), 1.0), NonFiniteState,
     "non-finite entries"),
    (lambda: cn_va_step(make_state(np.ones(4), np.zeros((4, 2)), PicGrid(LENGTH, 8)), 0.1, 0,
                        PicGrid(LENGTH, 8)), ValueError, "n_iters must be >= 1"),
    (_cn_blow_up, NonFiniteState, "non-finite field"),
    (lambda: VplConfig(200, 0.0, 0.2, 0.1, COULOMB), ValueError, "dt must be positive"),
    (lambda: VplConfig(200, -0.1, 0.2, 0.1, COULOMB), ValueError, "dt must be positive"),
    (lambda: VplConfig(200, np.inf, 0.2, 0.1, COULOMB), ValueError, "dt must be positive"),
    (lambda: VplConfig(200, 0.1, -1.0, 0.1, COULOMB), ValueError, "t_end must be >= 0"),
    (lambda: VplConfig(0, 0.1, 0.2, 0.1, COULOMB), ValueError, "n_particles must be >= 1")],
    ids=["length", "n0", "velocity-dim", "velocity-count", "nan-field", "n_iters", "field-overflow",
         "dt-zero", "dt-negative", "dt-inf", "t_end-negative", "n_particles-zero"])
def test_bad_pic_inputs_raise(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_cn_step_raises_on_sweep_divergence():
    # the Euler predictor stays finite; vpl._bounds rejects the first sweep's
    # midpoint cells, which reach past its 2^53 bound
    grid = PicGrid(LENGTH, 16)
    state = make_state(np.array([1.0, 2.0]), np.array([[1e300, 0.0], [-1e300, 0.0]]), grid)
    with pytest.raises(NonFiniteState, match=r"diverged at t=0\.0"):
        cn_va_step(state, 1e3, 5, grid)


def _sweep_state(n=5000, seed=12):
    cfg = VplConfig(n_particles=n, dt=0.05, t_end=1.0, alpha=0.3, kernel=COULOMB,
                    n_cells=64, seed=seed)
    grid = PicGrid(cfg.length, cfg.n_cells)
    state = initial_state(cfg, grid)
    return cell_collisions(state, cfg.dt, COULOMB, grid, seed=seed, step=1), grid


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(vpl, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(vpl, name, counted)
    return calls


def _assert_matches_reference(state, grid, dt, n_iters, deposits):
    """One cn_va_step against reference_cn_va_step: the same iteration, with
    only rounding apart (seen: at most 1.8e-15 on _sweep_state, and 2.2e-14
    in the field across the seam)."""
    x, v, e = reference_cn_va_step(state, dt, n_iters, grid)
    deposits.clear()
    out = cn_va_step(state, dt, n_iters, grid)
    period = grid.length
    np.testing.assert_allclose((out.positions - x + period / 2) % period - period / 2, 0.0,
                               atol=1e-13)
    np.testing.assert_allclose(out.velocities, v, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out.field, e, rtol=0, atol=1e-13)
    assert len(deposits) == n_iters
    return out


# (1, None) pins the Euler predictor: a first sweep whose midpoints move by
# the predicted velocity instead of vx0 puts positions about 1e-7 off. tol is
# None in every case: a sweep count is the only stopping rule
@pytest.mark.parametrize("n_iters, tol", [(5, None), (1, None), (50, None)])
def test_cn_step_matches_reference_to_rounding(monkeypatch, n_iters, tol):
    # chained steps wrap positions across both ends of the domain
    state, grid = _sweep_state()
    deposits = _counting(monkeypatch, "deposit_current")
    for _ in range(3):
        state = _assert_matches_reference(state, grid, 0.05, n_iters, deposits)


@pytest.mark.parametrize("n0", [2, 17, 64])
def test_cn_step_matches_reference_across_the_seam(monkeypatch, n0):
    grid = PicGrid(LENGTH, n0)
    gen = RngStream(18).generator()
    n, dt = 2000, 0.1
    x = gen.uniform(0, LENGTH, n)
    v = gen.standard_normal((n, 2))
    x[:50] = gen.uniform(0, 0.05, 50)  # midpoints below 0
    v[:50, 0] = -np.abs(v[:50, 0]) - 0.2
    x[50:100] = gen.uniform(LENGTH - 0.05, LENGTH, 50)  # and at or above L
    v[50:100, 0] = np.abs(v[50:100, 0]) + 0.2
    x[100], v[100, 0] = LENGTH - 0.01, (3.0 * LENGTH + 1.0) / dt  # 1.5 periods to its midpoint
    # a midpoint cell at or above 2 n0, so the cell wrap takes its np.remainder path
    assert (x[100] + 0.5 * dt * v[100, 0]) / grid.dx - 0.5 >= 2 * n0
    field = gen.standard_normal(n0)
    state = make_state(x, v, grid, field=field - field.mean())
    deposits = _counting(monkeypatch, "deposit_current")
    for n_iters in (5, 50):
        _assert_matches_reference(state, grid, dt, n_iters, deposits)


def test_deposit_and_interpolation_are_adjoint():
    # sum_k E_k J_k dx = q sum_i vx_i E(x_i): the discrete identity behind the
    # CN energy balance. Positive E and vx keep both sums free of cancellation,
    # so a roll the wrong way shows far above rounding
    grid = PicGrid(LENGTH, 16)
    gen = RngStream(19).generator()
    n, q = 10_000, 0.3
    hat = hat_of(gen.uniform(-LENGTH, 2 * LENGTH, n), grid)
    field = gen.uniform(0.5, 1.5, grid.n0)
    vx = gen.uniform(0.5, 1.5, n)
    j, _ = deposit_current(hat, vx, grid, q)
    lhs = np.dot(field, j) * grid.dx
    rhs = q * np.dot(vx, interpolate_field(field, hat))
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


@pytest.mark.parametrize("field, value", [("n_iters", 0)])
def test_vpl_config_rejects_counts_below_one(field, value):
    with pytest.raises(ValueError, match=field):
        VplConfig(n_particles=200, dt=0.1, t_end=0.2, alpha=0.1, kernel=COULOMB,
                  **{field: value})


def test_vpl_config_rejects_a_3d_kernel():
    with pytest.raises(ValueError, match="3D kernel"):
        VplConfig(n_particles=200, dt=0.1, t_end=0.2, alpha=0.1,
                  kernel=KernelParams(1.0, -2.0, 3))


def test_cn_step_calls_each_layer_once_per_sweep(monkeypatch):
    state, grid = _sweep_state(n=500)
    deposits = _counting(monkeypatch, "deposit_current")
    interpolations = _counting(monkeypatch, "interpolate_field")
    cn_va_step(state, 0.05, 5, grid)
    assert len(deposits) == 5
    assert len(interpolations) == 6  # the Euler predictor, then one per sweep


def test_wrap_is_bitwise_remainder():
    period = LENGTH
    tiny = np.nextafter(0.0, 1.0)
    up, down = np.nextafter(period, np.inf), np.nextafter(period, 0.0)
    edges = np.array([0.0, -0.0, tiny, -tiny, -1e-20, period, up, down, -period, -up, -down,
                      2 * period, np.nextafter(2 * period, 0.0), 2.5 * period, -1.5 * period,
                      -7.25 * period])
    gen = RngStream(13).generator()
    # one edge at a time: an array's extreme value picks its path
    for x in (*edges[:, None], gen.uniform(-period, 2 * period, 10_000),
              gen.uniform(-0.01, period + 0.01, 10_000), np.array([])):
        got = _wrap(x.copy(), period)
        want = np.remainder(x, period)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    cells = np.floor(gen.uniform(-3 * LENGTH, 3 * LENGTH, 10_000))
    np.testing.assert_array_equal(_wrap(cells.copy(), 64), cells % 64)


def test_hat_weights_match_reference_bitwise():
    grid = PicGrid(LENGTH, 32)
    gen = RngStream(14).generator()
    c = grid.centers()
    for x in (gen.uniform(0, LENGTH, 10_000), gen.uniform(-2 * LENGTH, 3 * LENGTH, 10_000),
              np.r_[0.0, c, c - 0.5 * grid.dx, LENGTH, np.nextafter(LENGTH, 0.0)]):
        i0, _, _, frac = reference_hat_weights(x, grid)
        for got, want in zip(hat_weights(x / grid.dx - 0.5, grid), (i0, frac)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    # from 2^53 on a float keeps no fraction of a cell
    for bad in (np.inf, -np.inf, np.nan, 2.0**53, -2.0**53 - 2.0):
        with pytest.raises(NonFiniteState):
            hat_weights(np.array([0.5, bad, 3.0]), grid)


def test_cell_collisions_lambda0_identity():
    grid = PicGrid(LENGTH, 16)
    gen = RngStream(5).generator()
    state = make_state(gen.uniform(0, LENGTH, 100), gen.standard_normal((100, 2)), grid)
    out = cell_collisions(state, 0.1, KernelParams(0.0, -2.0, 2), grid, seed=1, step=1)
    assert out is state


def _clustered_cells(n0, gen):
    """Shuffled cell indices whose counts cycle through 0, 1, 2, 3 and 7,
    with the first and the last cell empty and singletons, pairs and triples
    next to empty cells."""
    sizes = np.resize([0, 1, 3, 0, 2, 7, 1, 0, 3, 3, 2], n0)
    sizes[-1] = 0
    return gen.permutation(np.repeat(np.arange(n0), sizes))


@pytest.mark.parametrize("n0", [16, 128, 40_000])
def test_cell_pairs_match_reference_bitwise(n0):
    # 40 000 cells exceed int16, so that case sorts the int64 indices
    gen = RngStream(15).generator()
    uniform = gen.integers(0, n0, 100_000)
    clustered = _clustered_cells(n0, gen)
    # N = 3: a pair and a singleton, then a triple whose leftover may collide
    cases = ((uniform, True), (clustered, True), (np.array([n0 - 1, 0, n0 - 1]), False),
             (np.array([1, 1, 1]), None))
    dtypes = (np.int64, np.int16) if n0 <= np.iinfo(np.int16).max else (np.int64,)
    for cell, leftovers in cases:
        for dtype in dtypes:
            got = _cell_pairs(cell.astype(dtype), n0, RngStream(16).generator())
            want = reference_cell_pairs(cell, RngStream(16).generator())
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            if leftovers is not None:
                assert (got[2].size > 0) == leftovers


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


def test_vpl_diagnostics_momentum_adds_the_rows_in_order():
    grid = PicGrid(LENGTH, 128)
    for seed in range(3):
        g = np.random.default_rng(seed)
        state = make_state(g.uniform(0.0, LENGTH, 20_003), g.standard_normal((20_003, 2)) + 0.5, grid)
        np.testing.assert_array_equal(vpl_diagnostics(state, grid).momentum,
                                      state.charge * np.sum(state.velocities, axis=0))


def test_simulate_vpl_quiet_start():
    cfg = VplConfig(n_particles=20_000, dt=0.02, t_end=1.0, alpha=0.0,
                    kernel=KernelParams(0.0, -2.0, 2), n_cells=64, seed=9)
    recs, final = simulate_vpl(cfg)
    assert len(recs) == 51 and final.time == pytest.approx(1.0)
    e0 = recs[0].total_energy
    drift = max(abs(r.total_energy - e0) for r in recs) / abs(e0)
    assert drift <= 1e-12  # reads 1.4e-16
    # unperturbed equilibrium: the field stays at the particle-noise floor
    assert max(r.electric_l2 for r in recs) < 0.2


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_simulate_vpl_conserves_energy_and_momentum_to_rounding(lam):
    # the discrete CN energy identity holds at the fixed point, which five
    # sweeps at dt = 0.02 reach to rounding; drifts read 3e-16 to 4e-16
    # (energy) and at most 1.6e-15 (q sum v_y), while two sweeps read 1.8e-10
    cfg = VplConfig(n_particles=20_000, dt=0.02, t_end=2.0, alpha=0.1,
                    kernel=KernelParams(lam, -2.0, 2), n_cells=128, n_iters=5, seed=7)
    recs, _ = simulate_vpl(cfg)
    e0, p0 = recs[0].total_energy, recs[0].momentum[1]
    assert max(abs(r.total_energy - e0) for r in recs) <= 1e-13 * abs(e0)
    assert max(abs(r.momentum[1] - p0) for r in recs) <= 1e-13


def test_yielded_states_are_never_written_again():
    cfg = VplConfig(n_particles=2000, dt=0.02, t_end=0.16, alpha=0.1, kernel=COULOMB,
                    n_cells=32, seed=17)
    kept = []
    for step, state in iterate_vpl(cfg):
        if step < 3:
            kept.append((state, state.positions.copy(), state.velocities.copy(),
                         state.field.copy()))
    assert step == 8
    for state, x, v, e in kept:
        np.testing.assert_array_equal(state.positions, x)
        np.testing.assert_array_equal(state.velocities, v)
        np.testing.assert_array_equal(state.field, e)


def _traced_peak_mb(fn):
    fn()  # first call: lazy imports and caches are not the step's memory
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_step_memory_peaks():
    # numpy reports its buffers to tracemalloc; at N = 1e5 one particle array
    # is 0.8 MB, and fewer live at once keeps the peak RSS of a run down
    cfg = VplConfig(n_particles=100_000, dt=0.02, t_end=0.02, alpha=0.1,
                    kernel=KernelParams(1.0, -2.0, 2), n_cells=128, seed=7)
    grid = PicGrid(cfg.length, cfg.n_cells)
    state = list(iterate_vpl(cfg))[-1][1]
    assert _traced_peak_mb(lambda: cn_va_step(state, cfg.dt, 5, grid)) <= 6.5
    assert _traced_peak_mb(lambda: cell_collisions(state, cfg.dt, cfg.kernel, grid,
                                                   seed=7, step=2)) <= 5.25


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
