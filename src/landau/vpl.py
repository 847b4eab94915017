"""1D-2V Vlasov-Poisson-Landau solver.

Particle-in-cell with linear (hat) deposition/interpolation, a spectral
periodic Poisson solve for the initial field, and an energy-conserving
Crank-Nicolson Vlasov-Ampere step (the field advances from the midpoint
current, so the discrete kinetic + electric energy telescopes exactly at
the fixed point of the implicit iteration). Collisions act cell-by-cell: a
pairing is two index arrays (i, j), and the 2D velocities of each pair go
through collision.sbm_pair_update, the one exact spherical-Brownian pair
kernel that also serves the homogeneous solver.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import DAMPING_LENGTH, sample_landau_damping
from .collision import sbm_pair_update, step_count
from .errors import FixedPointNotConverged, NonFiniteState
from .kernels import KernelParams
from .streams import RngStream, DOMAIN_INIT, DOMAIN_CELLS

_MAX_FIXED_POINT_ITERS = 200


@dataclass(frozen=True)
class PicGrid:
    """Periodic spatial grid of n0 cells covering [0, length)."""

    length: float
    n0: int

    def __post_init__(self):
        if self.length <= 0 or self.n0 < 2:
            raise ValueError("need length > 0 and n0 >= 2")

    @property
    def dx(self):
        return self.length / self.n0

    def centers(self):
        return (np.arange(self.n0) + 0.5) * self.dx


@dataclass
class VplState:
    """Particle positions/velocities plus the grid electric field."""

    positions: np.ndarray
    velocities: np.ndarray
    field: np.ndarray
    charge: float
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=float)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=float)
        self.field = np.ascontiguousarray(self.field, dtype=float)
        if self.velocities.shape != (self.positions.shape[0], 2):
            raise ValueError("velocities must be (N, 2)")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.velocities))
                and np.all(np.isfinite(self.field))):
            raise NonFiniteState("non-finite entries in VplState")


def _wrap(x, period):
    """x % period, in place and bitwise equal to numpy's remainder.

    On [-period, 2 period) one shift by the period gives exactly what %
    gives: fmod is exact, x - period is exact there (Sterbenz), and adding
    0.0 turns -0.0 into the +0.0 that % returns. That costs a tenth of
    np.remainder, which serves the inputs outside that range. A shift that
    no entry needs is skipped.
    """
    lo, hi = x.min(initial=np.inf), x.max(initial=-np.inf)
    if lo < -period or hi >= 2 * period:
        return np.remainder(x, period, out=x)
    if hi >= period:
        np.subtract(x, period, out=x, where=x >= period)
    if lo < 0:
        np.add(x, period, out=x, where=x < 0)
    x += 0.0
    return x


def hat_weights(x, grid: PicGrid, out=None):
    """CIC weights (i0, w0, w1) of positions x for the unit hat centered on
    cell centers: x lies between the centers of cell i0 (wrapped
    periodically) and of the next cell, which get the weights w0 and w1.

    The sweep of cn_va_step computes them once and hands the same tuple to
    deposit_current and interpolate_field. out, if given, is such a tuple of
    int64, float and float buffers the size of x that receives the weights;
    x may be its last buffer.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = (np.empty(x.shape, np.int64), np.empty(x.shape), np.empty(x.shape))
    i0, fl, g = out
    np.divide(x, grid.dx, out=g)
    g -= 0.5
    np.floor(g, out=fl)
    g -= fl  # the fraction
    np.copyto(i0, _wrap(fl, grid.n0), casting="unsafe")
    return i0, np.subtract(1.0, g, out=fl), g


def deposit_weighted(hat, w, grid: PicGrid, out=None):
    """(1/dx) sum_i S_hat(x_i - x_k) w_i accumulated on the cell centers, from
    the hat weights of the x_i; out, if given, is a float buffer for the
    weighted terms. The w1 terms are binned by i0 and rolled one cell up: the
    same sums, in the same particle order, as binned by the next cell."""
    i0, w0, w1 = hat
    w = np.broadcast_to(np.asarray(w, dtype=float), i0.shape)
    acc = np.bincount(i0, weights=np.multiply(w0, w, out=out), minlength=grid.n0)
    acc += np.roll(np.bincount(i0, weights=np.multiply(w1, w, out=out), minlength=grid.n0), 1)
    return acc / grid.dx


def deposit_charge(state: VplState, grid: PicGrid):
    """Cell-center charge density with the neutralizing background removed."""
    raw = state.charge * deposit_weighted(hat_weights(state.positions, grid), 1.0, grid)
    return raw - raw.mean()


def solve_poisson(rho, grid: PicGrid):
    """Spectral solve of -phi'' = rho with periodic BC; returns (phi, E).

    The mean mode is projected out (periodic gauge) and E = -phi' is taken
    spectrally, so band-limited sources are reproduced to rounding.
    """
    rho = np.asarray(rho, dtype=float)
    kx = 2.0 * np.pi * np.fft.rfftfreq(grid.n0, d=grid.dx)
    rho_hat = np.fft.rfft(rho)
    phi_hat = np.zeros_like(rho_hat)
    phi_hat[1:] = rho_hat[1:] / kx[1:] ** 2
    e_hat = -1j * kx * phi_hat
    return np.fft.irfft(phi_hat, n=grid.n0), np.fft.irfft(e_hat, n=grid.n0)


def interpolate_field(field, hat, out=None):
    """E(x) = sum_k E_k S_hat(x_k - x): linear interpolation between centers,
    from the hat weights of x (the next cell's E is the field rolled down, at
    i0). out, if given, is a pair of float buffers: E(x) and scratch."""
    i0, w0, w1 = hat
    field = np.asarray(field, dtype=float)
    e, work = out if out is not None else (np.empty(i0.shape), np.empty(i0.shape))
    # every index is in range, so clip gathers unbuffered what raise would copy
    field.take(i0, out=e, mode="clip")
    e *= w0
    np.roll(field, -1).take(i0, out=work, mode="clip")
    work *= w1
    e += work
    return e


def deposit_current(hat, vx, grid: PicGrid, charge, out=None):
    """Midpoint current J_k = (q/dx) sum_i S_hat(x_k - x_i) v_{x,i} and its
    mean, from the hat weights of the x_i (out as in deposit_weighted)."""
    j = charge * deposit_weighted(hat, vx, grid, out=out)
    return j, float(j.mean())


def cn_va_step(state: VplState, dt, n_iters, grid: PicGrid, residual_tol=None) -> VplState:
    """One Crank-Nicolson Vlasov-Ampere step.

    Fixed-point iteration of the implicit midpoint system: Euler predictor,
    then each sweep recomputes midpoints, the midpoint current, the field
    update E' = E - dt (J - J_mean) and the velocity update from the
    averaged field. With residual_tol set, iteration stops once the sweep
    changes field and particles by less than the tolerance, and raises
    FixedPointNotConverged if that takes more than _MAX_FIXED_POINT_ITERS
    sweeps; otherwise exactly n_iters sweeps run.

    The particle-sized arrays are allocated once per step: a contiguous vx0,
    the guesses xg and vg, the hat's i0 and w0 and one scratch buffer. Each
    sweep works in place, with the operands of fresh arrays in their order:
    xg holds in turn the midpoint, its fraction w1 and the new positions, vg
    the midpoint velocities and then the new ones. A tolerance needs the old
    guesses for the residual, so the midpoint and the new velocities get two
    more buffers, which trade places with the old guesses.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    x0 = state.positions
    vx0 = state.velocities[:, 0].copy()  # read three times a sweep: contiguous
    e0 = state.field
    n = x0.size
    hat = (np.empty(n, np.int64), np.empty(n), np.empty(n))
    work = np.empty(n)
    # Euler predictor; positions stay unwrapped until the end of the step
    vg = interpolate_field(e0, hat_weights(x0, grid, out=hat), out=(np.empty(n), work))
    vg *= dt
    vg += vx0
    xg = hat[2] if residual_tol is None else np.empty(n)
    np.multiply(vx0, dt, out=xg)
    xg += x0
    if not (np.all(np.isfinite(vg)) and np.all(np.isfinite(xg))):
        raise NonFiniteState(f"Euler predictor diverged at t={state.time}")
    # the midpoint and the new guesses: in place without a tolerance
    xm = xg if residual_tol is None else hat[2]
    vn = vg if residual_tol is None else np.empty(n)
    eg = e0.copy()
    iters = 0
    while True:
        iters += 1
        np.subtract(xg, x0, out=xm)
        xm *= 0.5
        xm += x0
        hat = hat_weights(_wrap(xm, grid.length), grid, out=hat[:2] + (xm,))
        np.add(vx0, vg, out=vn)
        vn *= 0.5
        j, jmean = deposit_current(hat, vn, grid, state.charge, out=work)
        enew = e0 - dt * (j - jmean)
        interpolate_field(0.5 * (e0 + enew), hat, out=(vn, work))
        vn *= dt
        vn += vx0
        np.add(vx0, vn, out=work)
        work *= 0.5
        work *= dt
        np.add(x0, work, out=xm)  # the new positions, over the spent fraction
        # stop a diverging sweep before the next one wraps and casts it to cells
        if not (np.isfinite(xm).all() and np.isfinite(enew).all()):
            raise NonFiniteState(f"Vlasov-Ampere iteration diverged at t={state.time}")
        if residual_tol is None:
            done = iters >= n_iters
        else:
            res = max(np.max(np.abs(enew - eg)), _max_abs_diff(vn, vg, work),
                      _max_abs_diff(xm, xg, work))
            done = res < residual_tol
            if not done and iters >= _MAX_FIXED_POINT_ITERS:
                raise FixedPointNotConverged(
                    f"Vlasov-Ampere iteration at t={state.time}: residual {res:.3e} still above "
                    f"residual_tol={residual_tol:g} after {iters} sweeps")
        vg, vn = vn, vg
        xg, xm = xm, xg
        eg = enew
        if done:
            break
    # free the sweep's buffers before the velocities are copied
    del hat, work, vn, xm
    v = state.velocities.copy()
    v[:, 0] = vg
    return VplState(_wrap(xg, grid.length), v, eg, state.charge, state.time + dt)


def _max_abs_diff(a, b, work):
    """max |a - b|, with the difference taken in work."""
    return np.abs(np.subtract(a, b, out=work), out=work).max()


def _cell_pairs(cell, n_cells, gen):
    """Random disjoint pairs (i, j) within each cell, plus the leftover pairs.

    cell holds each particle's cell index in [0, n_cells). A shuffle is
    grouped by cell with a stable sort, so each cell keeps a uniformly random
    order, and taken two at a time. The leftover of a cell with an odd count
    of at least 3 is paired, with probability 1/2, with a uniformly chosen
    mate that is already paired: (li, lj).

    The groups follow from the cell counts alone: the occupied cells start,
    in order, at the exclusive cumsum of their sizes, and pair k of the
    whole sort has its head at the start of its cell plus 2 (k - p), where p
    counts the pairs of the cells before it. The stable sort is unique, so
    the pairs do not depend on the dtype of cell; int16 indices make numpy
    sort them by radix.
    """
    order = gen.permutation(cell.size)
    order = order[np.argsort(cell[order], kind="stable")]
    counts = np.bincount(cell, minlength=n_cells)
    sizes = counts[counts > 0]
    starts = np.cumsum(sizes) - sizes
    half = sizes // 2
    first = (np.repeat(starts - 2 * (np.cumsum(half) - half), half)
             + 2 * np.arange(half.sum()))
    odd = (sizes % 2 == 1) & (sizes >= 3)
    l_starts, l_sizes = starts[odd], sizes[odd]
    coins = gen.random(l_starts.size) < 0.5
    partner_off = gen.integers(0, l_sizes - 1)
    li = order[(l_starts + l_sizes - 1)[coins]]
    lj = order[(l_starts + partner_off)[coins]]
    return order[first], order[first + 1], li, lj


def cell_collisions(state: VplState, dt, kernel: KernelParams, grid: PicGrid,
                    seed, step) -> VplState:
    """Landau collisions within each spatial cell; positions never change.

    Each within-cell pair and each colliding leftover pair (see _cell_pairs)
    performs one exact SBM collision through the same pair kernel as the
    homogeneous solver.
    """
    if kernel.lam == 0:
        return state
    cell = np.divide(state.positions, grid.dx)
    cell = _wrap(np.floor(cell, out=cell), grid.n0).astype(
        np.int16 if grid.n0 <= np.iinfo(np.int16).max else np.int64)
    i, j, li, lj = _cell_pairs(cell, grid.n0,
                               RngStream(seed, step=step, domain=DOMAIN_CELLS).generator())
    del cell
    v = state.velocities.copy()
    sbm_pair_update(v, i, j, kernel, dt,
                    RngStream(seed, step=step, stream=1, domain=DOMAIN_CELLS))
    sbm_pair_update(v, li, lj, kernel, dt,
                    RngStream(seed, step=step, stream=2, domain=DOMAIN_CELLS))
    return VplState(state.positions, v, state.field, state.charge, state.time)


@dataclass
class VplDiagnostics:
    time: float
    electric_l2: float
    kinetic_energy: float
    electric_energy: float
    total_energy: float
    momentum: np.ndarray


def vpl_diagnostics(state: VplState, grid: PicGrid) -> VplDiagnostics:
    """Field norm and the q-weighted kinetic / electric / total energies."""
    e2 = float(np.sum(state.field**2) * grid.dx)
    ke = 0.5 * state.charge * float(np.sum(state.velocities**2))
    ee = 0.5 * e2
    mom = state.charge * np.einsum("ij->j", state.velocities)  # np.sum(axis=0), bitwise
    return VplDiagnostics(time=state.time, electric_l2=math.sqrt(e2),
                          kinetic_energy=ke, electric_energy=ee,
                          total_energy=ke + ee, momentum=mom)


@dataclass
class VplConfig:
    """Parameters of the Landau-damping experiment."""

    n_particles: int
    dt: float
    t_end: float
    alpha: float
    kernel: KernelParams
    n_cells: int = 128
    length: float = DAMPING_LENGTH
    n_iters: int = 5
    residual_tol: Optional[float] = None
    seed: int = 0
    record_every: int = 1


def initial_state(config: VplConfig, grid: PicGrid) -> VplState:
    """Sample the perturbed Maxwellian and solve for the initial field."""
    if abs(config.length - DAMPING_LENGTH) > 1e-9:
        raise ValueError("the damping initial condition lives on [0, 4 pi]")
    x, v = sample_landau_damping(config.n_particles, config.alpha,
                                 RngStream(config.seed, domain=DOMAIN_INIT))
    q = config.length / config.n_particles  # total charge Q = |domain|
    state = VplState(x, v, np.zeros(grid.n0), q)
    rho = deposit_charge(state, grid)
    _, e = solve_poisson(rho, grid)
    state.field = e
    return state


def iterate_vpl(config: VplConfig):
    """Yield (step, state) along the run, starting with the initial state."""
    grid = PicGrid(config.length, config.n_cells)
    n_steps = step_count(config.t_end, config.dt)
    state = initial_state(config, grid)
    yield 0, state
    for step in range(1, n_steps + 1):
        state = cell_collisions(state, config.dt, config.kernel, grid, config.seed, step)
        state = cn_va_step(state, config.dt, config.n_iters, grid,
                           residual_tol=config.residual_tol)
        yield step, state


def simulate_vpl(config: VplConfig) -> tuple[list[VplDiagnostics], VplState]:
    """Alternate cell collisions and field steps; return the diagnostics of the
    initial state, of every record_every-th step and of the last step, and
    the final state."""
    grid = PicGrid(config.length, config.n_cells)
    n_steps = step_count(config.t_end, config.dt)
    records = []
    for step, state in iterate_vpl(config):
        if step % config.record_every == 0 or step == n_steps:
            records.append(vpl_diagnostics(state, grid))
    return records, state
