"""Homogeneous Landau particle dynamics.

Each collision window the particles are paired at random; a pair either
performs an exact spherical-Brownian-motion collision (the relative velocity
direction diffuses on the sphere while its magnitude and the pair sum are
frozen) or an Euler-Maruyama step of the same pair SDE. The SBM step
conserves momentum and kinetic energy pathwise; the EM step conserves only
momentum and is kept as the comparison baseline.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, DensityGrid, mollified_density, moments, entropy, relative_l2_error
from .errors import InvalidCheckpoint, InvalidSamplerForDim, OddParticleCount
from .kernels import KernelParams, Z_FLOOR, kernel_K, kernel_sigma, time_scale_k
from .sphere import SamplerKind, default_sampler, sample_sbm_batch
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
    perm = rng.generator().permutation(n)
    return perm[0::2], perm[1::2]


def _put_rows(v, idx, rows):
    """v[idx] = rows, through a view with one item per row when v is
    C-contiguous: several times faster than row fancy indexing at large n."""
    if not v.flags.c_contiguous:
        v[idx] = rows
        return
    row = np.dtype((np.void, v.itemsize * v.shape[1]))
    np.put(v.view(row).ravel(), idx, np.ascontiguousarray(rows, v.dtype).view(row).ravel())


def sbm_pair_update(v, i, j, kernel: KernelParams, dt, rng: RngStream):
    """Exact SBM collision of the pairs (i[k], j[k]) of ``v``, in place.

    The relative velocity z = v_i - v_j turns as z' = |z| SBM(z/|z|, k(z) dt)
    and the pair becomes (s +/- z')/2 with s = v_i + v_j, so momentum and
    kinetic energy are conserved per pair to rounding. Pairs with |z| below
    the degeneracy floor keep their velocities bitwise; a zero collision
    strength leaves ``v`` untouched. The pairs must be disjoint.
    """
    if kernel.lam == 0:
        return
    # np.take gathers whole rows several times faster than v[i] at large n
    vi = np.take(v, i, axis=0)
    vj = np.take(v, j, axis=0)
    z = vi - vj
    s = np.add(vi, vj, out=vi)
    r = np.sqrt(np.einsum("ij,ij->i", z, z))
    good = r >= Z_FLOOR
    if not good.all():
        keep = np.flatnonzero(good)
        i, j, z, s, r = i[keep], j[keep], z[keep], s[keep], r[keep]
    tau = time_scale_k(z, kernel) * dt
    zp = sample_sbm_batch(np.divide(z, r[:, None], out=z), tau,
                          default_sampler(v.shape[1]), rng)
    zp *= r[:, None]
    _put_rows(v, i, (s + zp) / 2.0)
    _put_rows(v, j, (s - zp) / 2.0)


def sbm_collision_step(ens: ParticleEnsemble, pairing, cfg: SchemeConfig,
                       step: int) -> ParticleEnsemble:
    """One SBM collision window of the pairs ``pairing`` = (i, j)."""
    v = ens.velocities.copy()
    sbm_pair_update(v, *pairing, cfg.kernel, cfg.dt,
                    RngStream(cfg.seed, step=step, domain=DOMAIN_COLLISION))
    return ParticleEnsemble(v)


def em_collision_step(ens: ParticleEnsemble, pairing, cfg: SchemeConfig,
                      step: int, noise=None) -> ParticleEnsemble:
    """One Euler-Maruyama window: Dv = K(z) dt + sigma(z) dW, dW ~ N(0, dt I).

    ``pairing`` is the index-array pair (i, j); ``noise`` injects the dW
    array (pair-ordered, shape (n_pairs, d)).
    """
    v = ens.velocities.copy()
    i, j = pairing
    z = v[i] - v[j]
    good = np.linalg.norm(z, axis=1) >= Z_FLOOR
    if not np.any(good):
        return ParticleEnsemble(v)
    if noise is None:
        gen = RngStream(cfg.seed, step=step, domain=DOMAIN_COLLISION).generator()
        dw = gen.standard_normal((z.shape[0], ens.dim)) * math.sqrt(cfg.dt)
    else:
        dw = np.asarray(noise, dtype=float)
    zg = z[good]
    dv = kernel_K(zg, cfg.kernel) * cfg.dt
    dv += np.einsum("nab,nb->na", kernel_sigma(zg, cfg.kernel), dw[good])
    v[i[good]] += dv
    v[j[good]] -= dv
    return ParticleEnsemble(v)


_STEPPERS: dict[str, Callable] = {SBM: sbm_collision_step, EM: em_collision_step}


@dataclass
class DiagnosticsPlan:
    """What to evaluate at each checkpoint of a homogeneous run."""

    grid: Optional[DensityGrid] = None
    eps: float = 0.01
    reference: Optional[Callable[[float], np.ndarray]] = None  # t -> values on grid


@dataclass
class Checkpoint:
    time: float
    ensemble: Optional[ParticleEnsemble]
    record: DiagnosticsRecord


def _checkpoint_steps(checkpoints, dt, n_steps):
    out = {}
    for t in checkpoints:
        k = round(t / dt)
        if abs(t - k * dt) > 1e-9 * max(1.0, abs(t)) or k < 0 or k > n_steps:
            raise InvalidCheckpoint(f"checkpoint {t} is not a step multiple of dt={dt} within the run")
        out[int(k)] = t
    return out


def _record(ens, t, plan: DiagnosticsPlan):
    mom = moments(ens)
    ent = None
    rel = None
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
                             entropy=ent, rel_l2_error=rel)


def simulate_homogeneous(cfg: SchemeConfig, init: ParticleEnsemble, t_end, checkpoints,
                         plan: Optional[DiagnosticsPlan] = None,
                         store_snapshots=False) -> list[Checkpoint]:
    """Run the collisional particle system to t_end, re-pairing each window.

    ``checkpoints`` are times (multiples of dt) at which diagnostics are
    recorded; full velocity snapshots are kept only when requested.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if init.n % 2 != 0:
        raise OddParticleCount(f"homogeneous stepper needs even N, got {init.n}")
    plan = plan or DiagnosticsPlan()
    n_steps = math.ceil(round(t_end / cfg.dt, 9))
    marks = _checkpoint_steps(checkpoints, cfg.dt, n_steps)
    stepper = _STEPPERS[cfg.scheme]
    out = []
    ens = ParticleEnsemble(init.velocities.copy())
    if 0 in marks:
        out.append(Checkpoint(marks[0], ens if store_snapshots else None, _record(ens, marks[0], plan)))
    for step in range(1, n_steps + 1):
        pairing = random_pairing(ens.n, RngStream(cfg.seed, step=step, domain=DOMAIN_PAIRING))
        ens = stepper(ens, pairing, cfg, step)
        if step in marks:
            t = marks[step]
            out.append(Checkpoint(t, ens if store_snapshots else None, _record(ens, t, plan)))
    return out
