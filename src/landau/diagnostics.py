"""Mollified density, relative L2 error, entropy and moment diagnostics.

The mollified empirical density is the Gaussian-kernel smoothing of the
particle measure evaluated at the centers of a uniform velocity grid. The
mollifier variance `eps` is a post-processing parameter only; 0.01 is the
default used by all shipped experiments.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyEnsemble, FormatError, GridMismatch

# KDE tails are truncated at this many mollifier standard deviations per axis;
# the mass dropped outside the box is < 1e-8 of each kernel (about 6e-9 in 3D).
TRUNCATION_SIGMAS = 6.0

# Bytes of all per-block arrays of mollified_density together: the block's
# stencil entries, partial products and window cells. It bounds the KDE's
# temporaries whatever N and the grid are; each block also costs a fixed
# ~30 us of numpy calls, 100 blocks for N = 1e5 at 128^2.
_KDE_BLOCK_BYTES = 1 << 21

DEFAULT_GRID_EXTENT = 8.0
DEFAULT_GRID_CELLS = {2: 128, 3: 64}


def _check_geometry(dim, lo, hi, n_grid):
    """ValueError unless dim is 2 or 3, lo < hi are finite and n_grid >= 1."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not -np.inf < lo < hi < np.inf:  # a nan fails too
        raise ValueError(f"need finite lo < hi, got lo={lo}, hi={hi}")
    if n_grid < 1:
        raise ValueError(f"need n_grid >= 1, got {n_grid}")


@dataclass
class DensityGrid:
    """Uniform velocity-space grid holding density values at cell centers."""

    dim: int
    lo: float
    hi: float
    n_grid: int
    values: np.ndarray = None

    def __post_init__(self):
        _check_geometry(self.dim, self.lo, self.hi, self.n_grid)
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

    def congruent(self, other):
        return (self.dim == other.dim and self.n_grid == other.n_grid
                and self.lo == other.lo and self.hi == other.hi)


def _velocities(ens):
    return np.atleast_2d(np.asarray(ens, dtype=float))


def mollified_density(ens, eps, grid: DensityGrid) -> DensityGrid:
    """Gaussian-mollified empirical density on the grid centers.

    values[l] = (1/N) sum_i psi_eps(c_l - v_i), psi_eps the centered Gaussian
    with covariance eps*I, truncated at R = TRUNCATION_SIGMAS * sqrt(eps) / h
    cells per axis. With x = (v - lo) / h, a particle's window on each axis is
    the m = floor(2R) + 1 cells from first = ceil(x - 1/2 - R), the first cell
    whose center is at least x - R: it holds every cell center within R of
    the particle, and any extra cell lies less than one cell beyond R. The
    particles go in blocks of B, sized so that the block's arrays (an index
    and a weight for each of its m^d stencil entries, m^(d-1) partial
    products and d*m window cells per particle) take _KDE_BLOCK_BYTES. The
    per-axis weights and cell indices, (m, B), are combined by outer
    products offsets-major, (m, B) -> (m^2, B) -> ..., so that every
    broadcast runs over the whole block; the last product is written into
    two buffers reused by every block. np.add.at adds them into a grid with
    a one-cell border, which collects the window cells off the grid and is
    cropped. Particles whose window misses the grid still count in N.
    Non-finite velocities raise ValueError.
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
    r = TRUNCATION_SIGMAS * np.sqrt(eps) / h
    offs = np.arange(int(2.0 * r) + 1)
    m = offs.size
    size = ng + 2
    strides = size ** np.arange(d - 1, -1, -1)
    acc = np.zeros(size**d)
    block = max(1, _KDE_BLOCK_BYTES // (16 * (m**d + m ** (d - 1) + d * m)))
    # each block's stencil goes into these buffers, not into fresh arrays
    flat = np.empty(min(n, block) * m**d, np.intp)
    wgt = np.empty(flat.size)
    for s in range(0, n, block):
        vb = v[s:s + block]
        with np.errstate(over="ignore"):
            first = np.ceil((vb - lo) / h - 0.5 - r)
        # the window first .. first + m - 1 meets the grid iff it starts at or
        # before cell ng - 1 and ends at or after cell 0; the row test and
        # its copies run only for a block in which some window may miss
        if first.min() < 1 - m or first.max() > ng - 1:
            reach = np.all((first <= ng - 1) & (first >= 1 - m), axis=1)
            first, vb = first[reach], vb[reach]
        first, vb = first.T, vb.T
        nb = vb.shape[1]
        cell = first.astype(np.intp)[:, None, :] + offs[:, None]
        wa = -((lo + (cell + 0.5) * h - vb[:, None, :]) ** 2) / (2.0 * eps)
        np.exp(wa, out=wa)
        ia = np.clip(cell, -1, ng, out=cell)
        ia += 1
        ia *= strides[:, None, None]
        fa, wt = ia[0], wa[0]
        for a in range(1, d - 1):
            fa = (fa[:, None, :] + ia[a]).reshape(m ** (a + 1), nb)
            wt = (wt[:, None, :] * wa[a]).reshape(fa.shape)
        k = fa.size * m
        np.add(fa[:, None, :], ia[-1], out=flat[:k].reshape(len(fa), m, nb))
        np.multiply(wt[:, None, :], wa[-1], out=wgt[:k].reshape(len(fa), m, nb))
        del cell, ia, wa, fa, wt  # before the next block builds its own
        # not a bincount: that would add a grid-sized array per block
        np.add.at(acc, flat[:k], wgt[:k])
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


def moments(ens) -> Moments:
    """Total momentum sum_i v_i and kinetic energy (1/2) sum_i |v_i|^2.

    The energy takes numpy's pairwise summation. The momentum adds the rows
    in order, as np.sum(v, axis=0) does on a C-ordered array; einsum does it
    bitwise the same without looping over the length-d axis.
    """
    v = _velocities(ens)
    p = np.einsum("ij->j", v)
    return Moments(momentum=p, kinetic_energy=0.5 * float(np.sum(v * v)))


@dataclass
class DiagnosticsRecord:
    """Per-checkpoint summary of a homogeneous run.

    entropy and rel_l2_error are None when the run has no density grid or no
    reference applies at that checkpoint; density holds the grid only at the
    times the plan keeps.
    """

    momentum: np.ndarray
    kinetic_energy: float
    entropy: Optional[float] = None
    rel_l2_error: Optional[float] = None
    density: Optional[DensityGrid] = None


# --- DensityGrid serialization -------------------------------------------

# Rows per formatted string of save_grid_csv: a block's coordinates, string
# and Python floats take a few MB, and no array of the whole grid's
# coordinates is built.
_CSV_BLOCK = 1 << 14


def save_grid_csv(grid: DensityGrid, path):
    """Center coordinates and value per row, row-major, with a geometry header comment."""
    centers = grid.centers()
    vals = grid.values.reshape(-1)
    cols = [f"v{a}" for a in range(grid.dim)]
    with open(path, "w") as fh:
        fh.write(f"# dim={grid.dim} lo={grid.lo!r} hi={grid.hi!r} n_grid={grid.n_grid}\n")
        fh.write(",".join(cols + ["value"]) + "\n")
        line = ",".join(["%.17g"] * (grid.dim + 1)) + "\n"
        for lo in range(0, len(vals), _CSV_BLOCK):
            rows = np.arange(lo, min(lo + _CSV_BLOCK, len(vals)))
            cells = np.unravel_index(rows, grid.values.shape)
            block = np.column_stack([centers[k] for k in cells] + [vals[rows]])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def load_grid_csv(path) -> DensityGrid:
    # bytes that are not text fail the line checks below, with their line number
    with open(path, errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# dim="):
        raise FormatError(f"{path}: line 1: missing grid geometry header")
    try:
        meta = dict(kv.split("=") for kv in lines[0][2:].split())
        dim, ng = int(meta["dim"]), int(meta["n_grid"])
        lo, hi = float(meta["lo"]), float(meta["hi"])
        _check_geometry(dim, lo, hi, ng)
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
    if not np.all(np.isfinite(vals) & (vals >= 0)):  # every grid file is a density
        raise FormatError(f"{path}: non-finite or negative density values")
    return DensityGrid(dim, lo, hi, ng, vals)
