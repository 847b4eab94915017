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


def _hat_weights(x, grid: PicGrid):
    """CIC weights of the unit hat centered on cell centers, periodic wrap."""
    g = x / grid.dx - 0.5
    i0 = np.floor(g).astype(np.int64)
    frac = g - i0
    return i0 % grid.n0, (i0 + 1) % grid.n0, 1.0 - frac, frac


def deposit_weighted(x, w, grid: PicGrid):
    """(1/dx) sum_i S_hat(x_i - x_k) w_i accumulated on the cell centers."""
    i0, i1, w0, w1 = _hat_weights(np.asarray(x, dtype=float), grid)
    w = np.broadcast_to(np.asarray(w, dtype=float), i0.shape)
    acc = np.bincount(i0, weights=w0 * w, minlength=grid.n0)
    acc += np.bincount(i1, weights=w1 * w, minlength=grid.n0)
    return acc / grid.dx


def deposit_charge(state: VplState, grid: PicGrid):
    """Cell-center charge density with the neutralizing background removed."""
    raw = state.charge * deposit_weighted(state.positions, 1.0, grid)
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


def interpolate_field(field, x, grid: PicGrid):
    """E(x) = sum_k E_k S_hat(x_k - x): linear interpolation between centers."""
    field = np.asarray(field, dtype=float)
    i0, i1, w0, w1 = _hat_weights(np.asarray(x, dtype=float), grid)
    return w0 * field[i0] + w1 * field[i1]


def deposit_current(positions, vx, grid: PicGrid, charge):
    """Midpoint current J_k = (q/dx) sum_i S_hat(x_k - x_i) v_{x,i} and its mean."""
    j = charge * deposit_weighted(positions, vx, grid)
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
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    x0 = state.positions
    vx0 = state.velocities[:, 0]
    e0 = state.field
    # Euler predictor; positions stay unwrapped until the end of the step
    accel0 = interpolate_field(e0, x0, grid)
    vg = vx0 + accel0 * dt
    xg = x0 + vx0 * dt
    if not (np.all(np.isfinite(vg)) and np.all(np.isfinite(xg))):
        raise NonFiniteState(f"Euler predictor diverged at t={state.time}")
    eg = e0.copy()
    iters = 0
    while True:
        iters += 1
        vmid = 0.5 * (vx0 + vg)
        xmid = (x0 + 0.5 * (xg - x0)) % grid.length
        j, jmean = deposit_current(xmid, vmid, grid, state.charge)
        enew = e0 - dt * (j - jmean)
        accel = interpolate_field(0.5 * (e0 + enew), xmid, grid)
        vnew = vx0 + accel * dt
        xnew = x0 + 0.5 * (vx0 + vnew) * dt
        res = max(np.max(np.abs(enew - eg)), np.max(np.abs(vnew - vg)),
                  np.max(np.abs(xnew - xg)))
        vg, xg, eg = vnew, xnew, enew
        if not np.isfinite(res):
            raise NonFiniteState(f"Vlasov-Ampere iteration diverged at t={state.time}")
        if residual_tol is not None:
            if res < residual_tol:
                break
            if iters >= _MAX_FIXED_POINT_ITERS:
                raise FixedPointNotConverged(
                    f"Vlasov-Ampere iteration at t={state.time}: residual {res:.3e} still above "
                    f"residual_tol={residual_tol:g} after {iters} sweeps")
        elif iters >= n_iters:
            break
    v = state.velocities.copy()
    v[:, 0] = vg
    return VplState(xg % grid.length, v, eg, state.charge, state.time + dt)


def _cell_pairs(cell, gen):
    """Random disjoint pairs (i, j) within each cell, plus the leftover pairs.

    A shuffle is grouped by cell with a stable sort, so each cell keeps a
    uniformly random order, and taken two at a time. The leftover of a cell
    with an odd count of at least 3 is paired, with probability 1/2, with a
    uniformly chosen mate that is already paired: (li, lj).
    """
    n = cell.size
    order = gen.permutation(n)
    order = order[np.argsort(cell[order], kind="stable")]
    csort = cell[order]
    same = csort[1:] == csort[:-1]
    starts = np.flatnonzero(np.r_[True, ~same])
    sizes = np.diff(np.r_[starts, n])
    offset = np.arange(n - 1) - np.repeat(starts, sizes)[:-1]
    first = np.flatnonzero(same & (offset % 2 == 0))
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
    cell = np.floor(state.positions / grid.dx).astype(np.int64) % grid.n0
    i, j, li, lj = _cell_pairs(cell, RngStream(seed, step=step, domain=DOMAIN_CELLS).generator())
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
    mom = state.charge * np.sum(state.velocities, axis=0)
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
    return _iterate(config, PicGrid(config.length, config.n_cells),
                    step_count(config.t_end, config.dt))


def _iterate(config: VplConfig, grid: PicGrid, n_steps):
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
    for step, state in _iterate(config, grid, n_steps):
        if step % config.record_every == 0 or step == n_steps:
            records.append(vpl_diagnostics(state, grid))
    return records, state
