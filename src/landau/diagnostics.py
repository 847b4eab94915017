"""Mollified density, relative L2 error, entropy and moment diagnostics.

The mollified empirical density is the Gaussian-kernel smoothing of the
particle measure evaluated at the centers of a uniform velocity grid. The
mollifier variance `eps` is a post-processing parameter only; 0.01 is the
default used by all shipped experiments.
"""

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyEnsemble, FormatError, GridMismatch

# KDE tails are truncated at this many mollifier standard deviations; the
# dropped mass is < 1e-8 of each kernel.
TRUNCATION_SIGMAS = 6.0

# Stencil entries (particles x cells) summed per bincount in mollified_density;
# it bounds the block temporaries at a few MB whatever N and the grid are.
_STENCIL_BLOCK = 1 << 19

DEFAULT_GRID_EXTENT = 8.0
DEFAULT_GRID_CELLS = {2: 128, 3: 64}


@dataclass
class DensityGrid:
    """Uniform velocity-space grid holding density values at cell centers."""

    dim: int
    lo: float
    hi: float
    n_grid: int
    values: np.ndarray = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")
        if self.n_grid < 1:
            raise ValueError("need n_grid >= 1")
        shape = (self.n_grid,) * self.dim
        if self.values is None:
            self.values = np.zeros(shape)
        else:
            self.values = np.asarray(self.values, dtype=float).reshape(shape)

    @property
    def h(self):
        return (self.hi - self.lo) / self.n_grid

    def centers(self):
        """Cell-center coordinates along one axis."""
        return self.lo + (np.arange(self.n_grid) + 0.5) * self.h

    def center_mesh(self):
        """Stacked meshgrid of centers, shape (n, ..., n, dim)."""
        axes = np.meshgrid(*([self.centers()] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    def congruent(self, other):
        return (self.dim == other.dim and self.n_grid == other.n_grid
                and self.lo == other.lo and self.hi == other.hi)


def _velocities(ens):
    v = ens.velocities if hasattr(ens, "velocities") else np.asarray(ens, dtype=float)
    return np.atleast_2d(v)


def mollified_density(ens, eps, grid: DensityGrid) -> DensityGrid:
    """Gaussian-mollified empirical density on the grid centers.

    values[l] = (1/N) sum_i psi_eps(c_l - v_i), psi_eps the centered Gaussian
    with covariance eps*I, over the (2w+1)^d cells around each particle's own
    cell, w = ceil(TRUNCATION_SIGMAS * sqrt(eps) / h) + 1. For each block of
    _STENCIL_BLOCK stencil entries, the per-axis weights and cell indices,
    (m, B) for the m = 2w+1 offsets and the block's B particles, are combined
    by outer products offsets-major, (m, B) -> (m^2, B) -> ..., so that every
    broadcast runs over the whole block; the last product is written into two
    buffers reused by every block. One weighted bincount sums them into a
    grid with a one-cell border; the border collects the stencil cells off
    the grid and is cropped. Particles whose stencil misses the grid still
    count in N. Non-finite velocities raise ValueError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = _velocities(ens)
    n, d = v.shape
    if n == 0:
        raise EmptyEnsemble("mollified_density needs at least one particle")
    if d != grid.dim:
        raise GridMismatch(f"ensemble dim {d} != grid dim {grid.dim}")
    bad = n - np.count_nonzero(np.isfinite(v).all(axis=1))
    if bad:
        raise ValueError(f"mollified_density: {bad} of {n} particles have non-finite velocities")
    ng, h, lo = grid.n_grid, grid.h, grid.lo
    w = int(np.ceil(TRUNCATION_SIGMAS * np.sqrt(eps) / h)) + 1
    offs = np.arange(-w, w + 1)
    size = ng + 2
    strides = size ** np.arange(d - 1, -1, -1)
    acc = np.zeros(size**d)
    block = max(1, _STENCIL_BLOCK // offs.size**d)
    # each block's stencil goes into these buffers: fresh multi-MB arrays per
    # block are page-faulted in anew whenever the allocator has released them
    flat = np.empty(min(n, block) * offs.size**d, np.intp)
    wgt = np.empty(flat.size)
    for s in range(0, n, block):
        vb = v[s:s + block]
        with np.errstate(over="ignore"):
            xb = (vb - lo) / h
        # the stencil of cell floor(x) meets the grid iff -w <= x < ng + w
        reach = np.all((xb >= -w) & (xb < ng + w), axis=1)
        xb, vb = xb[reach].T, vb[reach].T
        nb = vb.shape[1]
        cell = np.floor(xb).astype(np.intp)[:, None, :] + offs[:, None]
        wa = -((lo + (cell + 0.5) * h - vb[:, None, :]) ** 2) / (2.0 * eps)
        np.exp(wa, out=wa)
        ia = np.clip(cell, -1, ng, out=cell)
        ia += 1
        ia *= strides[:, None, None]
        fa, wt = ia[0], wa[0]
        for a in range(1, d - 1):
            fa = (fa[:, None, :] + ia[a]).reshape(offs.size ** (a + 1), nb)
            wt = (wt[:, None, :] * wa[a]).reshape(fa.shape)
        k = fa.size * offs.size
        np.add(fa[:, None, :], ia[-1], out=flat[:k].reshape(len(fa), offs.size, nb))
        np.multiply(wt[:, None, :], wa[-1], out=wgt[:k].reshape(len(fa), offs.size, nb))
        del cell, ia, wa, fa, wt  # before the next block builds its own
        acc += np.bincount(flat[:k], weights=wgt[:k], minlength=acc.size)
    inner = acc.reshape((size,) * d)[(slice(1, -1),) * d]
    norm = (2.0 * np.pi * eps) ** (-d / 2.0) / n
    return DensityGrid(grid.dim, grid.lo, grid.hi, ng, inner * norm)


def relative_l2_error(reference: DensityGrid, estimate: DensityGrid) -> float:
    """|| f_ref - f_est ||_2 / || f_ref ||_2 on congruent grids."""
    if not reference.congruent(estimate):
        raise GridMismatch("grids are not congruent")
    hd = reference.h ** reference.dim
    diff = reference.values - estimate.values
    num = np.sqrt(np.sum(hd * diff * diff))
    den = np.sqrt(np.sum(hd * reference.values**2))
    if den == 0:
        raise ValueError("reference density is identically zero")
    return float(num / den)


def entropy(grid: DensityGrid) -> float:
    """sum_l h^d f_l log f_l with 0 log 0 = 0."""
    vals = grid.values
    if np.any(vals < 0):
        raise ValueError("entropy needs nonnegative values")
    hd = grid.h ** grid.dim
    pos = vals > 0
    return float(hd * np.sum(vals[pos] * np.log(vals[pos])))


@dataclass
class Moments:
    momentum: np.ndarray
    kinetic_energy: float
    energy_per_particle: float


def moments(ens) -> Moments:
    """Total momentum sum_i v_i and kinetic energy (1/2) sum_i |v_i|^2.

    numpy's pairwise summation keeps the accumulation error at the
    compensated-summation level needed by the conservation checks.
    """
    v = _velocities(ens)
    p = np.sum(v, axis=0)
    e = 0.5 * float(np.sum(v * v))
    n = v.shape[0]
    return Moments(momentum=p, kinetic_energy=e, energy_per_particle=e / n)


@dataclass
class DiagnosticsRecord:
    """Per-checkpoint summary of a homogeneous run.

    entropy and rel_l2_error are None when the run has no density grid or no
    reference applies at that checkpoint.
    """

    time: float
    momentum: np.ndarray
    kinetic_energy: float
    entropy: Optional[float] = None
    rel_l2_error: Optional[float] = None


# --- DensityGrid serialization -------------------------------------------

_BIN_HEADER = struct.Struct("<IddI")


def load_grid_binary(path) -> DensityGrid:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _BIN_HEADER.size:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    dim, lo, hi, ng = _BIN_HEADER.unpack_from(raw)
    if dim not in (2, 3) or ng < 1 or not hi > lo:
        raise FormatError(f"{path}: invalid header (dim={dim}, lo={lo}, hi={hi}, n={ng})")
    need = _BIN_HEADER.size + 8 * ng**dim
    if len(raw) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(raw)} (truncated at byte {len(raw)})")
    vals = np.frombuffer(raw, dtype="<f8", offset=_BIN_HEADER.size).reshape((ng,) * dim)
    if not np.all(np.isfinite(vals)):
        raise FormatError(f"{path}: non-finite density values")
    return DensityGrid(dim, lo, hi, ng, vals.copy())


def save_grid_csv(grid: DensityGrid, path):
    """Center coordinates and value per row, with a geometry header comment."""
    mesh = grid.center_mesh().reshape(-1, grid.dim)
    vals = grid.values.reshape(-1)
    cols = [f"v{a}" for a in range(grid.dim)]
    with open(path, "w") as fh:
        fh.write(f"# dim={grid.dim} lo={grid.lo!r} hi={grid.hi!r} n_grid={grid.n_grid}\n")
        fh.write(",".join(cols + ["value"]) + "\n")
        for row, val in zip(mesh, vals):
            fh.write(",".join(f"{x:.17g}" for x in row) + f",{val:.17g}\n")


def load_grid_csv(path) -> DensityGrid:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# dim="):
        raise FormatError(f"{path}: line 1: missing grid geometry header")
    try:
        meta = dict(kv.split("=") for kv in lines[0][2:].split())
        dim, ng = int(meta["dim"]), int(meta["n_grid"])
        lo, hi = float(meta["lo"]), float(meta["hi"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: line 1: bad header ({exc})") from exc
    expect = ng**dim
    body = lines[2:]
    if len(body) != expect:
        raise FormatError(f"{path}: expected {expect} data rows, found {len(body)}")
    vals = np.empty(expect)
    for ln, line in enumerate(body, start=3):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise FormatError(f"{path}: line {ln}: expected {dim + 1} columns")
        try:
            vals[ln - 3] = float(parts[-1])
        except ValueError as exc:
            raise FormatError(f"{path}: line {ln}: bad value ({exc})") from exc
    if not np.all(np.isfinite(vals)):
        raise FormatError(f"{path}: non-finite density values")
    return DensityGrid(dim, lo, hi, ng, vals)
