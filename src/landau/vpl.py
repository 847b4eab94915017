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
from typing import ClassVar

import numpy as np

from .analytic import DAMPING_LENGTH, sample_landau_damping
from .collision import sbm_pair_update, step_count
from .diagnostics import moments
from .errors import NonFiniteState
from .kernels import KernelParams
from .streams import RngStream, DOMAIN_INIT, DOMAIN_CELLS


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


def _bounds(x):
    """(min, max) of x. NonFiniteState if x holds a nan, an infinity or a
    magnitude of 2^53 or more, which keeps no fraction of a cell or period."""
    lo, hi = x.min(initial=np.inf), x.max(initial=-np.inf)
    if not (-2.0**53 < lo and hi < 2.0**53):  # a nan fails both
        raise NonFiniteState(f"values from {lo} to {hi} beyond +-2^53")
    return lo, hi


def _wrap(x, period, bounds=None):
    """x % period, in place and bitwise equal to numpy's remainder.

    On [-period, 2 period) one shift by the period gives exactly what %
    gives: fmod is exact, x - period is exact there (Sterbenz), and adding
    0.0 turns -0.0 into the +0.0 that % returns. That costs a tenth of
    np.remainder, which serves the inputs outside that range. A shift that
    no entry needs is skipped. bounds, if given, are the _bounds of x, which
    raise NonFiniteState for a nan, an infinity or |x| >= 2^53.
    """
    lo, hi = _bounds(x) if bounds is None else bounds
    if lo < -period or hi >= 2 * period:
        return np.remainder(x, period, out=x)
    if hi >= period:
        np.subtract(x, period, out=x, where=x >= period)
    if lo < 0:
        np.add(x, period, out=x, where=x < 0)
    x += 0.0
    return x


def hat_weights(u, grid: PicGrid, out=None):
    """CIC weights (i0, g) of points u given in cell units, u = x/dx - 1/2,
    where the cell centers sit at the integers.

    u lies between the centers of cell i0 = floor(u), wrapped periodically,
    and of the next cell, which get the weights 1 - g and g = u - floor(u);
    1 - g is never stored. A u that is not finite, or 2^53 or more away,
    raises NonFiniteState from the min and max of the floor, before anything
    is cast to int. out, if given, is (i0, g, scratch): int64, float and
    float buffers the size of u; u may be the g buffer.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = (np.empty(u.shape, np.int64), np.empty(u.shape), np.empty(u.shape))
    i0, g, fl = out
    np.floor(u, out=fl)
    bounds = _bounds(fl)  # before u - fl could turn an infinity into a nan
    np.subtract(u, fl, out=g)
    np.copyto(i0, _wrap(fl, grid.n0, bounds), casting="unsafe")
    return i0, g


def deposit_charge(state: VplState, grid: PicGrid):
    """Cell-center charge density with the neutralizing background removed:
    the current of unit velocities, less its mean."""
    hat = hat_weights(state.positions / grid.dx - 0.5, grid)
    j, mean = deposit_current(hat, np.ones(len(state.positions)), grid, state.charge)
    return j - mean


def solve_poisson(rho, grid: PicGrid):
    """Spectral solve of -phi'' = rho with periodic BC; returns E = -phi'.

    The mean mode is projected out (periodic gauge) and E is taken
    spectrally, so band-limited sources are reproduced to rounding.
    """
    rho = np.asarray(rho, dtype=float)
    kx = 2.0 * np.pi * np.fft.rfftfreq(grid.n0, d=grid.dx)
    rho_hat = np.fft.rfft(rho)
    phi_hat = np.zeros_like(rho_hat)
    phi_hat[1:] = rho_hat[1:] / kx[1:] ** 2
    return np.fft.irfft(-1j * kx * phi_hat, n=grid.n0)


def interpolate_field(field, hat, out=None):
    """E(x) = sum_k E_k S_hat(x_k - x) = E[i0] + g (E[i0 + 1] - E[i0]): linear
    interpolation between centers, from the hat weights (i0, g) of x. out, if
    given, is a pair of float buffers, E(x) and scratch; E(x) may be the g of
    hat, which is read before it is written."""
    i0, g = hat
    field = np.asarray(field, dtype=float)
    e, work = out if out is not None else (np.empty(i0.shape), np.empty(i0.shape))
    # every index is in range, so clip gathers unbuffered what raise would copy
    (np.roll(field, -1) - field).take(i0, out=work, mode="clip")
    work *= g
    field.take(i0, out=e, mode="clip")
    e += work
    return e


def deposit_current(hat, vx, grid: PicGrid, charge, out=None):
    """Midpoint current J_k = (q/dx) sum_i S_hat(x_k - x_i) v_{x,i} and its
    mean, from the hat weights (i0, g) of the x_i: cell i0 gets vx - g vx, and
    the next cell g vx, binned by i0 and rolled one cell up (the same sums, in
    the same particle order, as binned by the next cell). out, if given, is a
    float buffer for g vx."""
    i0, g = hat
    up = np.bincount(i0, weights=np.multiply(g, vx, out=out), minlength=grid.n0)
    j = np.bincount(i0, weights=vx, minlength=grid.n0) - up + np.roll(up, 1)
    j *= charge / grid.dx
    return j, float(j.mean())


def cn_va_step(state: VplState, dt, n_iters, grid: PicGrid) -> VplState:
    """One Crank-Nicolson Vlasov-Ampere step of exactly n_iters sweeps.

    Fixed-point iteration of the implicit midpoint system on the midpoint
    velocity vm = (vx0 + vx')/2 alone. The Euler predictor sets vm = vx0 +
    (dt/2) E(x0). Each sweep places the midpoints at x0 + (dt/2) p, with
    p = vx0 on the first sweep (the predicted x' = x0 + dt vx0) and p = vm
    after it, deposits the current of vm there, updates the field
    E' = E - dt (J - J_mean) and sets vm = vx0 + (dt/2) Ebar at the
    midpoints, Ebar = (E + E')/2. Then x' = x0 + dt vm and vx' = vx0 + dt Ebar.
    The kinetic + electric energy telescopes only at the fixed point, so the
    energy drift of a run shows sweeps that stop short of it.

    The sweep works in cell units (see hat_weights) from u0 = x0/dx - 1/2.
    The particle-sized arrays are allocated once per step: vx0 (contiguous),
    u0, vm (updated in place), the hat's i0 and g and one scratch buffer. g
    holds in turn the midpoint, its fraction and (dt/2) Ebar there.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    vx0 = state.velocities[:, 0].copy()  # read in every sweep: contiguous
    e0 = state.field
    n = vx0.size
    u0 = np.divide(state.positions, grid.dx)
    u0 -= 0.5
    i0, g, work = np.empty(n, np.int64), np.empty(n), np.empty(n)
    vm = interpolate_field(0.5 * dt * e0, hat_weights(u0, grid, out=(i0, g, work)),
                           out=(np.empty(n), work))
    vm += vx0  # the Euler predictor
    try:
        for sweep in range(n_iters):
            np.multiply(vm if sweep else vx0, 0.5 * dt / grid.dx, out=g)
            g += u0
            hat = hat_weights(g, grid, out=(i0, g, work))
            j, jmean = deposit_current(hat, vm, grid, state.charge, out=work)
            enew = e0 - dt * (j - jmean)
            if not np.isfinite(enew).all():
                raise NonFiniteState("non-finite field")
            eb = interpolate_field(0.25 * dt * (e0 + enew), hat, out=(g, work))
            np.add(vx0, eb, out=vm)
        del u0, i0, hat  # free the sweep's buffers before the velocities are copied
        x = _wrap(np.add(state.positions, np.multiply(vm, dt, out=work), out=work), grid.length)
    except NonFiniteState as err:
        raise NonFiniteState(f"Vlasov-Ampere iteration diverged at t={state.time}: {err}") from err
    eb += eb
    eb += vx0  # vx' = vx0 + dt Ebar
    del vm, vx0
    v = state.velocities.copy()
    v[:, 0] = eb
    return VplState(x, v, enew, state.charge, state.time + dt)


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
    m = moments(state.velocities)
    ke = state.charge * m.kinetic_energy
    ee = 0.5 * e2
    return VplDiagnostics(time=state.time, electric_l2=math.sqrt(e2),
                          kinetic_energy=ke, electric_energy=ee,
                          total_energy=ke + ee, momentum=state.charge * m.momentum)


@dataclass
class VplConfig:
    """Parameters of the Landau-damping experiment."""

    n_particles: int
    dt: float
    t_end: float
    alpha: float
    kernel: KernelParams
    n_cells: int = 128
    n_iters: int = 5
    seed: int = 0

    # the damping initial condition lives on [0, 4 pi]
    length: ClassVar[float] = DAMPING_LENGTH

    def __post_init__(self):
        if self.n_iters < 1:
            raise ValueError(f"n_iters must be >= 1, got {self.n_iters!r}")
        if self.kernel.dim != 2:
            raise ValueError(f"the PIC velocities are 2D, got a {self.kernel.dim}D kernel")


def initial_state(config: VplConfig, grid: PicGrid) -> VplState:
    """Sample the perturbed Maxwellian and solve for the initial field."""
    x, v = sample_landau_damping(config.n_particles, config.alpha,
                                 RngStream(config.seed, domain=DOMAIN_INIT))
    q = config.length / config.n_particles  # total charge Q = |domain|
    state = VplState(x, v, np.zeros(grid.n0), q)
    state.field = solve_poisson(deposit_charge(state, grid), grid)
    return state


def iterate_vpl(config: VplConfig):
    """Yield (step, state) along the run, starting with the initial state."""
    grid = PicGrid(config.length, config.n_cells)
    n_steps = step_count(config.t_end, config.dt)
    state = initial_state(config, grid)
    yield 0, state
    for step in range(1, n_steps + 1):
        state = cell_collisions(state, config.dt, config.kernel, grid, config.seed, step)
        state = cn_va_step(state, config.dt, config.n_iters, grid)
        yield step, state


def simulate_vpl(config: VplConfig) -> tuple[list[VplDiagnostics], VplState]:
    """Alternate cell collisions and field steps; return the diagnostics of the
    initial state and of every step, and the final state."""
    grid = PicGrid(config.length, config.n_cells)
    records = []
    for _, state in iterate_vpl(config):
        records.append(vpl_diagnostics(state, grid))
    return records, state
