"""Homogeneous Landau particle dynamics.

Each collision window the particles are paired at random; a pair either
performs an exact spherical-Brownian-motion collision (the relative velocity
direction diffuses on the sphere while its magnitude and the pair sum are
frozen) or an Euler-Maruyama step of the same sphere SDE, through the same
pair block. The SBM step conserves momentum and kinetic energy pathwise; the
EM step conserves only momentum and is kept as the comparison baseline. A
run copies the initial velocities once, and every window updates that one
array in place.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, DensityGrid, mollified_density, moments, entropy, relative_l2_error
from .errors import InvalidCheckpoint, InvalidSamplerForDim, NonFiniteState, OddParticleCount
from .kernels import KernelParams, _R2_FLOOR, _sq_norm, time_scale_k
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
    """Uniformly random perfect matching as contiguous index arrays (i, j):
    i a uniformly random ordered sample of n/2 of 0..n-1, j its complement
    in ascending order, so only n/2 bounded draws are made.

    Each matching comes from 2^(n/2) ordered samples of probability (n/2)!/n!
    (which end of each pair is in i; j's order fixes i's), so 1/(n-1)!! each.
    """
    if n < 2 or n % 2 != 0:
        raise OddParticleCount(f"need an even number of particles >= 2, got {n}")
    i = rng.generator().choice(n, n // 2, replace=False)
    rest = np.ones(n, dtype=bool)
    rest[i] = False
    return i, np.flatnonzero(rest)


# Pairs per block of a pair update: its (block, d) temporaries, under 1 MB
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
    or any 2D batch, draws as one unblocked batch would. A block whose new
    velocities are not all finite raises NonFiniteState, with no
    RuntimeWarning, before it writes any pair; earlier blocks keep their
    update, so a batch of at most _PAIR_BLOCK pairs leaves ``v`` untouched.
    """
    _pair_update(v, i, j, kernel, dt, rng, _sbm_sphere_step)


def em_pair_update(v, i, j, kernel: KernelParams, dt, rng: RngStream):
    """Euler-Maruyama window of the pairs (i[k], j[k]) of ``v``, in place.

    In the time tau = k(z) t the pair SDE is z = |z| Y, Y the sphere SDE
    dY = -(d-1)/2 Y dtau + (I - Y Y^T) dB whose exact law sbm_pair_update
    draws. This takes one Euler-Maruyama step of Y, in the same blocks, with
    the same floor and non-finite rule; each block draws one (m, d) normal
    block for its m kept pairs. Momentum is conserved per pair, kinetic
    energy is not.
    """
    _pair_update(v, i, j, kernel, dt, rng, _em_sphere_step)


def _sbm_sphere_step(y, tau, gen, out):
    """The exact SBM end points of the rows y (unit in 3D) after the times tau, into out."""
    sample_sbm_batch(y, tau, default_sampler(y.shape[1]), gen, out=out)


def _em_sphere_step(y, tau, gen, out):
    """One Euler-Maruyama step of the sphere SDE from the unit rows y over the
    times tau, into out: y (1 - (d-1) tau/2) + sqrt(tau) (xi - y (y . xi)),
    xi one standard normal draw of out's shape, one column at a time."""
    xi = gen.standard_normal(out=out)
    y_xi = y[:, 0] * xi[:, 0]
    for a in range(1, y.shape[1]):
        y_xi += y[:, a] * xi[:, a]
    drift = 1.0 - (y.shape[1] - 1) / 2.0 * tau
    noise = np.sqrt(tau)
    for y_a, xi_a in zip(y.T, xi.T):
        xi_a -= y_a * y_xi
        xi_a *= noise
        xi_a += y_a * drift


@np.errstate(over="ignore", invalid="ignore")  # whatever is not finite raises NonFiniteState
def _pair_update(v, i, j, kernel, dt, rng, sphere_step):
    if kernel.lam == 0:
        return
    gen = rng.generator()
    for lo in range(0, len(i), _PAIR_BLOCK):
        _pair_block(v, i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK], kernel, dt, gen, sphere_step)


def _pair_block(v, i, j, kernel, dt, gen, sphere_step):
    """One block of a pair update, taking z (2D SBM) or z/|z| to its
    ``sphere_step`` end point with draws from the Generator ``gen``; its
    arrays are freed on return, before the next block allocates its own."""
    # np.take gathers whole rows several times faster than v[i] at large n;
    # the gather of v_j then holds the sphere step's output. Every product
    # with a per-pair scalar runs one column at a time: an (m, 1) broadcast
    # runs numpy's inner loop over only d elements per row.
    s = np.take(v, i, axis=0)
    zp = np.take(v, j, axis=0)
    z = s - zp
    s += zp
    r2 = _sq_norm(z)  # one per pair: the floor, the time scale and the rescale
    good = r2 >= _R2_FLOOR
    if not good.all():
        keep = np.flatnonzero(good)
        i, j, z, s, r2, zp = i[keep], j[keep], z[keep], s[keep], r2[keep], zp[keep]
    tau = time_scale_k(r2, kernel)
    tau *= dt
    # a turn of the circle keeps |z|, so the 2D SBM step turns z itself; the
    # S^2 formula and the EM step take z/|z|, and their end point is scaled back
    em = sphere_step is _em_sphere_step
    unit = em or z.shape[1] == 3
    if unit:
        r = np.sqrt(r2, out=r2)
        for col in z.T:
            col /= r
    sphere_step(z, tau, gen, zp)
    if unit:
        for col in zp.T:
            col *= r
    vi = np.add(s, zp, out=z)
    vi /= 2.0
    vj = np.subtract(s, zp, out=s)
    vj /= 2.0
    if not (np.isfinite(vi).all() and np.isfinite(vj).all()):
        raise NonFiniteState(f"{'Euler-Maruyama' if em else 'SBM'} step is not finite "
                             f"(dt={dt:g}): a velocity overflows")
    _put_rows(v, i, vi)
    _put_rows(v, j, vj)


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
    if abs(t - k * dt) > 1e-9 * max(dt, abs(t)):
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
    return DiagnosticsRecord(momentum=mom.momentum,
                             kinetic_energy=mom.kinetic_energy,
                             entropy=ent, rel_l2_error=rel,
                             density=dens if t in plan.keep_density_at else None)


def simulate_homogeneous(cfg: SchemeConfig, init: ParticleEnsemble, t_end, checkpoints,
                         plan: Optional[DiagnosticsPlan] = None,
                         store_snapshots=False) -> list[Checkpoint]:
    """Run the collisional particle system to t_end, re-pairing each window.

    The velocities of ``init`` are copied once, and each window updates the
    copy in place; ``init`` is never written. ``checkpoints`` are times
    (multiples of dt, one per step) at which diagnostics are recorded;
    velocity snapshots are copied and kept only when requested.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if init.n % 2 != 0:
        raise OddParticleCount(f"homogeneous stepper needs even N, got {init.n}")
    if cfg.kernel.dim != init.dim:
        raise ValueError(f"a {cfg.kernel.dim}D kernel cannot step {init.dim}D velocities")
    plan = plan or DiagnosticsPlan()
    n_steps = step_count(t_end, cfg.dt)
    checkpoints = list(checkpoints)
    marks = {step_count(t, cfg.dt): t for t in checkpoints}
    if len(marks) < len(checkpoints):
        raise InvalidCheckpoint(f"two of the checkpoints {checkpoints} fall on one step of dt={cfg.dt}")
    if not all(0 <= k <= n_steps for k in marks):
        raise InvalidCheckpoint(f"checkpoints {checkpoints} reach outside [0, {t_end}]")
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
