"""Homogeneous Landau particle dynamics.

Each collision window the particles are paired at random; a pair either
performs an exact spherical-Brownian-motion collision (the relative velocity
direction diffuses on the sphere while its magnitude and the pair sum are
frozen) or an Euler-Maruyama step of the same pair SDE. The SBM step
conserves momentum and kinetic energy pathwise; the EM step conserves only
momentum and is kept as the comparison baseline. A run copies the initial
velocities once, and every window updates that one array in place.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, DensityGrid, mollified_density, moments, entropy, relative_l2_error
from .errors import InvalidCheckpoint, InvalidSamplerForDim, NonFiniteState, OddParticleCount
from .kernels import KernelParams, Z_FLOOR, _sq_norm, kernel_K, kernel_sigma, time_scale_k
from .sphere import SamplerKind, _put_rows, default_sampler, sample_sbm_batch
from .streams import RngStream, DOMAIN_PAIRING, DOMAIN_COLLISION

SBM = "sbm"
EM = "em"


@dataclass
class ParticleEnsemble:
    """N velocity vectors; the empirical measure of the particle system."""

    velocities: np.ndarray

    def __post_init__(self):
        self.velocities = np.ascontiguousarray(self.velocities, dtype=float)
        if self.velocities.ndim != 2 or self.velocities.shape[0] < 2:
            raise ValueError("velocities must be an (N, d) array with N >= 2")
        if self.velocities.shape[1] not in (2, 3):
            raise ValueError("only d in {2, 3} is supported")
        if not np.all(np.isfinite(self.velocities)):
            raise ValueError("velocities must be finite")

    @property
    def n(self):
        return self.velocities.shape[0]

    @property
    def dim(self):
        return self.velocities.shape[1]


@dataclass
class SchemeConfig:
    """Time step, scheme choice and kernel of a homogeneous run.

    The sampler follows from the dimension; ``sampler`` may only repeat
    that choice (None or ``default_sampler(kernel.dim)``).
    """

    dt: float
    scheme: str
    kernel: KernelParams
    sampler: Optional[SamplerKind] = None
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in (SBM, EM):
            raise ValueError(f"scheme must be '{SBM}' or '{EM}'")
        if self.sampler not in (None, default_sampler(self.kernel.dim)):
            raise InvalidSamplerForDim(f"{self.sampler} does not sample in dim {self.kernel.dim}")


def random_pairing(n, rng: RngStream):
    """Uniformly random perfect matching as index arrays (i, j): a shuffle taken two at a time."""
    if n < 2 or n % 2 != 0:
        raise OddParticleCount(f"need an even number of particles >= 2, got {n}")
    # contiguous halves: np.take and np.put copy a strided index before use
    i, j = rng.generator().permutation(n).reshape(-1, 2).T.copy()
    return i, j


# Pairs per block of sbm_pair_update: its (block, d) temporaries, under 1 MB
# each, are the same few sizes whatever the batch size.
_PAIR_BLOCK = 1 << 15


def sbm_pair_update(v, i, j, kernel: KernelParams, dt, rng: RngStream):
    """Exact SBM collision of the pairs (i[k], j[k]) of ``v``, in place.

    The relative velocity z = v_i - v_j turns as z' = |z| SBM(z/|z|, k(z) dt)
    and the pair becomes (s +/- z')/2 with s = v_i + v_j, so momentum and
    kinetic energy are conserved per pair to rounding. Pairs with |z| below
    the degeneracy floor keep their velocities bitwise; a zero collision
    strength leaves ``v`` untouched. The pairs must be disjoint.

    The pairs are updated in blocks of _PAIR_BLOCK, in order, all sampled
    from the one generator of ``rng``. A batch of at most _PAIR_BLOCK pairs,
    or a 2D batch with no pair in the uniform band, draws as one unblocked
    batch would.
    """
    if kernel.lam == 0:
        return
    gen = rng.generator()
    for lo in range(0, len(i), _PAIR_BLOCK):
        _sbm_pair_block(v, i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK], kernel, dt, gen)


def _sbm_pair_block(v, i, j, kernel, dt, gen):
    """One block of sbm_pair_update, drawing from the Generator ``gen``; its
    arrays are freed on return, before the next block allocates its own."""
    # np.take gathers whole rows several times faster than v[i] at large n;
    # the gather of v_j then holds the sampler's output. Every product with
    # a per-pair scalar runs one column at a time: an (m, 1) broadcast runs
    # numpy's inner loop over only d elements per row.
    s = np.take(v, i, axis=0)
    zp = np.take(v, j, axis=0)
    z = s - zp
    s += zp
    # |z|^2 by columns is bitwise the einsum in 2D; in 3D the einsum adds (a + c) + b
    r = _sq_norm(z)[1] if v.shape[1] == 2 else np.einsum("ij,ij->i", z, z)
    np.sqrt(r, out=r)
    good = r >= Z_FLOOR
    if not good.all():
        keep = np.flatnonzero(good)
        i, j, z, s, r, zp = i[keep], j[keep], z[keep], s[keep], r[keep], zp[keep]
    tau = time_scale_k(z, kernel)
    tau *= dt
    for col in z.T:
        col /= r
    sample_sbm_batch(z, tau, default_sampler(v.shape[1]), gen, out=zp)
    for col in zp.T:
        col *= r
    half = np.add(s, zp, out=z)
    half /= 2.0
    _put_rows(v, i, half)
    half = np.subtract(s, zp, out=s)
    half /= 2.0
    _put_rows(v, j, half)


def em_pair_update(v, i, j, kernel: KernelParams, dt, rng: RngStream):
    """Euler-Maruyama window of the pairs (i[k], j[k]) of ``v``, in place.

    Dv = K(z) dt + sigma(z) dW, dW one (n_pairs, d) normal draw of ``rng``
    times sqrt(dt), is added to v_i and taken from v_j, so momentum is
    conserved per pair. Pairs with |z| below the degeneracy floor keep their
    velocities. A non-finite Dv raises NonFiniteState before ``v`` is written.
    """
    z = v[i] - v[j]
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises below
        good = np.linalg.norm(z, axis=1) >= Z_FLOOR
        if not np.any(good):
            return
        dw = rng.generator().standard_normal(z.shape) * math.sqrt(dt)
        zg = z[good]
        dv = kernel_K(zg, kernel) * dt
        dv += np.einsum("nab,nb->na", kernel_sigma(zg, kernel), dw[good])
    if not np.isfinite(dv).all():
        raise NonFiniteState(f"Euler-Maruyama increment is not finite (dt={dt:g})")
    v[i[good]] += dv
    v[j[good]] -= dv


def collision_step(v, i, j, cfg: SchemeConfig, step: int):
    """Collision window ``step`` of the pairs (i, j) of ``v``, in place, by
    the scheme of ``cfg`` with the window's collision stream."""
    update = sbm_pair_update if cfg.scheme == SBM else em_pair_update
    update(v, i, j, cfg.kernel, cfg.dt, RngStream(cfg.seed, step=step, domain=DOMAIN_COLLISION))


@dataclass
class DiagnosticsPlan:
    """What to evaluate at each checkpoint of a homogeneous run. The density
    grids of the checkpoints at ``keep_density_at`` stay on their records."""

    grid: Optional[DensityGrid] = None
    eps: float = 0.01
    reference: Optional[Callable[[float], np.ndarray]] = None  # t -> values on grid
    keep_density_at: frozenset = frozenset()


@dataclass
class Checkpoint:
    time: float
    ensemble: Optional[ParticleEnsemble]
    record: DiagnosticsRecord


def step_count(t, dt):
    """Number of dt steps from 0 to t; t must lie on the dt grid."""
    k = round(t / dt)
    if abs(t - k * dt) > 1e-9 * max(1.0, abs(t)):
        raise InvalidCheckpoint(f"time {t} is not a step multiple of dt={dt}")
    return k


def _record(ens, t, plan: DiagnosticsPlan):
    mom = moments(ens)
    dens = ent = rel = None
    if plan.grid is not None:
        dens = mollified_density(ens, plan.eps, plan.grid)
        ent = entropy(dens)
        ref_values = plan.reference(t) if plan.reference is not None else None
        if ref_values is not None:
            ref = DensityGrid(plan.grid.dim, plan.grid.lo, plan.grid.hi,
                              plan.grid.n_grid, ref_values)
            rel = relative_l2_error(ref, dens)
    return DiagnosticsRecord(time=t, momentum=mom.momentum,
                             kinetic_energy=mom.kinetic_energy,
                             entropy=ent, rel_l2_error=rel,
                             density=dens if t in plan.keep_density_at else None)


def simulate_homogeneous(cfg: SchemeConfig, init: ParticleEnsemble, t_end, checkpoints,
                         plan: Optional[DiagnosticsPlan] = None,
                         store_snapshots=False) -> list[Checkpoint]:
    """Run the collisional particle system to t_end, re-pairing each window.

    The velocities of ``init`` are copied once, and each window updates the
    copy in place; ``init`` is never written. ``checkpoints`` are times
    (multiples of dt) at which diagnostics are recorded; velocity snapshots
    are copied and kept only when requested.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if init.n % 2 != 0:
        raise OddParticleCount(f"homogeneous stepper needs even N, got {init.n}")
    if cfg.kernel.dim != init.dim:
        raise ValueError(f"a {cfg.kernel.dim}D kernel cannot step {init.dim}D velocities")
    plan = plan or DiagnosticsPlan()
    n_steps = step_count(t_end, cfg.dt)
    marks = {step_count(t, cfg.dt): t for t in checkpoints}
    if not all(0 <= k <= n_steps for k in marks):
        raise InvalidCheckpoint(f"checkpoints {list(checkpoints)} reach outside [0, {t_end}]")
    out = []
    v = init.velocities.copy()
    for step in range(n_steps + 1):
        if step:
            i, j = random_pairing(len(v), RngStream(cfg.seed, step=step, domain=DOMAIN_PAIRING))
            collision_step(v, i, j, cfg, step)
        if step in marks:
            t = marks[step]
            record = _record(v, t, plan)  # before the copy: it would sit beside the KDE's buffers
            out.append(Checkpoint(t, ParticleEnsemble(v.copy()) if store_snapshots else None, record))
    return out
