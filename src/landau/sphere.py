"""Spherical Brownian motion increments on S^1 and S^2.

One sampler per dimension; within it the time tau alone picks the method,
and every method is exact in law:

* ``EXACT_2D``: on the circle the increment is exact, the start point
  rotated by a Brownian angle increment, or by a uniform angle once tau is
  past ``_uniform_time(2)``.
* ``SPHERE_3D``, by band: below ``_MIXTURE_MIN_TAU`` the SO(3) lift rotates
  the start point by a draw of the SO(3) heat kernel, an isotropic Gaussian
  in exponential coordinates reweighted by sin(psi/2) / (psi/2) through
  rejection (Nikolayev & Savyolova 1997). Up to ``_uniform_time(3)`` the
  polar-angle cosine is 1 - 2 Beta(1, 1 + M), M from the death-process law
  of the Wright-Fisher radial diffusion (Jenkins & Spano 2017), with a
  uniform azimuth, rotated back to the start point; past it the cosine is
  uniform (M = 0).

The 3D sampler renormalizes to unit length and the 2D rotation keeps the
length of the start point, so downstream energy conservation is exact up to
rounding.
"""

import enum
import math

import numpy as np

from .errors import FixedPointNotConverged, InvalidSamplerForDim, SeriesTruncated
from .streams import RngStream

# Beyond this time the heat kernel on S^{d-1} is uniform to ~1e-20 in total
# variation (first spectral gap d-1), so sampling the uniform law is exact
# at machine precision.
def _uniform_time(dim):
    return 92.0 / (dim - 1)


# The alternating death-process series is numerically clean down to here;
# smaller times take the SO(3) lift.
_MIXTURE_MIN_TAU = 0.15
# Redraw rounds of the SO(3) lift: a row is rejected with probability
# 1 - exp(-tau/8) < 0.019 per round, so all 64 reject with probability
# below 1e-100.
_LIFT_MAX_ROUNDS = 64

# Terms m, k < _SERIES_TERMS of the death-process series: at tau = 0.15 every
# dropped term is below 1e-85 (the largest kept one is about 1.6e3).
_SERIES_TERMS = 64
# Pairs per block of the mixture draw: each block temporary is at most
# 2048 x 64 doubles, 1 MB, whatever the batch size.
_SERIES_BLOCK = 2048


def _death_series_matrix(K):
    # S[m, k] = (-1)^(k-m) (2k+1) C(k+m, k-m) Cat(m) for k >= m, Cat(m) the
    # Catalan number C(2m, m) / (m+1); exact integers, rounded once to float
    return np.array([[(-1) ** (k - m) * (2 * k + 1) * math.comb(k + m, k - m)
                      * (math.comb(2 * m, m) // (m + 1)) if k >= m else 0
                      for k in range(K)] for m in range(K)], dtype=float)


_DEATH_SERIES = _death_series_matrix(_SERIES_TERMS)
_DEATH_RATES = np.arange(_SERIES_TERMS) * (np.arange(_SERIES_TERMS) + 1) / 2.0


class SamplerKind(enum.Enum):
    EXACT_2D = "exact2d"
    SPHERE_3D = "sphere3d"


def default_sampler(dim):
    return SamplerKind.EXACT_2D if dim == 2 else SamplerKind.SPHERE_3D


def unit(v):
    """Normalize the last axis to unit length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n == 0):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _check_kind(kind, dim):
    if dim not in (2, 3):
        raise InvalidSamplerForDim(f"unsupported dimension {dim}")
    if kind is not default_sampler(dim):
        raise InvalidSamplerForDim(f"{kind} does not sample S^{dim - 1}")


def _so3_lift(y0, t, gen):
    """Spherical Brownian motion on S^2 from y0 for times t, exactly.

    Rotates y0 by omega, a draw of the SO(3) heat kernel at time t in
    exponential coordinates: a Gaussian of variance t per axis accepted with
    probability sin(psi/2) / (psi/2), psi = |omega|, so each row is kept with
    probability exp(-t/8). The two Laplacians share the eigenvalues
    l(l+1), so E[P_l(y0 . y)] = exp(-l(l+1) t / 2). The law drops only the
    negative-weight shell 2 pi < psi < 4 pi, of mass below 1e-50 for
    t < _MIXTURE_MIN_TAU.
    """
    sq = np.sqrt(t)[:, None]
    omega = gen.standard_normal((t.size, 3)) * sq
    psi = np.sqrt(np.einsum("ij,ij->i", omega, omega))
    half = np.sinc(psi / (2.0 * np.pi))
    todo = np.flatnonzero(gen.random(t.size) >= half)
    for _ in range(_LIFT_MAX_ROUNDS - 1):
        if todo.size == 0:
            break
        w = gen.standard_normal((todo.size, 3)) * sq[todo]
        p = np.sqrt(np.einsum("ij,ij->i", w, w))
        hp = np.sinc(p / (2.0 * np.pi))
        keep = gen.random(todo.size) < hp
        rows = todo[keep]
        omega[rows], psi[rows], half[rows] = w[keep], p[keep], hp[keep]
        todo = todo[~keep]
    if todo.size:
        raise FixedPointNotConverged(
            f"SO(3) lift: {todo.size} rows still rejected after {_LIFT_MAX_ROUNDS} rounds")
    return _rodrigues(omega, psi, half, y0)


def _rodrigues(omega, psi, half, y):
    """Rotate the rows of y by the rotation vectors omega of lengths psi, then
    renormalize: cos psi y + sinc(psi) omega x y + half^2 / 2 (omega . y) omega,
    half = sinc(psi/2), sinc(x) = sin(x) / x from np.sinc, so psi = 0 needs no
    division; the cross product is np.cross's, written out by columns."""
    (o0, o1, o2), (y0, y1, y2) = omega.T, y.T
    s = np.sinc(psi / np.pi)
    out = np.cos(psi)[:, None] * y
    out[:, 0] += s * (o1 * y2 - o2 * y1)
    out[:, 1] += s * (o2 * y0 - o0 * y2)
    out[:, 2] += s * (o0 * y1 - o1 * y0)
    out += (0.5 * half * half * np.einsum("ij,ij->i", omega, y))[:, None] * omega
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


def _death_process_probs(ts):
    """Rows P(A_t = m), m < _SERIES_TERMS, of the Kingman death process with
    mutation rate theta = 2, one row per time t in ``ts`` (each t >= 0.15).

    This is the mixture index of the Wright-Fisher transition law that
    governs the S^2 polar angle; the alternating series over k is summed
    as one product with the fixed coefficient matrix.
    """
    q = np.einsum("tk,mk->tm", np.exp(np.multiply.outer(ts, -_DEATH_RATES)), _DEATH_SERIES)
    np.maximum(q, 0.0, out=q)
    total = q.sum(axis=1)
    worst = np.max(np.abs(total - 1.0))
    if worst > 1e-9:
        raise SeriesTruncated(f"death-process series: retained mass is off by {worst:.3g}")
    return q / total[:, None]


def _death_process_draws(t, gen):
    """One draw of A_t per entry of ``t``, by inverse CDF in blocks of pairs."""
    u = gen.random(t.size)
    out = np.empty(t.size, dtype=np.int64)
    for lo in range(0, t.size, _SERIES_BLOCK):
        blk = slice(lo, lo + _SERIES_BLOCK)
        ts, inv = np.unique(t[blk], return_inverse=True)
        cdf = np.cumsum(_death_process_probs(ts), axis=1)
        out[blk] = np.count_nonzero(cdf[inv, :-1] <= u[blk, None], axis=1)
    return out


def _sample_s2(y0, t, gen):
    small = t < _MIXTURE_MIN_TAU
    if small.all():
        return _so3_lift(y0, t, gen)
    res = np.empty_like(y0)
    big = np.flatnonzero(~small)
    tb = t[big]
    mix = tb < _uniform_time(3)
    # started at the pole the Beta mixture collapses to Beta(1, 1+M); the
    # uniform law is M = 0
    m = np.zeros(tb.size, dtype=np.int64)
    m[mix] = _death_process_draws(tb[mix], gen)
    x = 1.0 - 2.0 * gen.beta(1.0, 1.0 + m)
    phi = gen.uniform(0.0, 2.0 * np.pi, tb.size)
    sin_th = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    local = np.column_stack([sin_th * np.cos(phi), sin_th * np.sin(phi), x])
    res[big] = rotate_from_pole(y0[big], local)
    if small.any():
        res[small] = _so3_lift(y0[small], t[small], gen)
    return res


def rotate_from_pole(start, local):
    """Apply the rotation taking the north pole e_d to `start` to `local`.

    Both arguments are unit vectors (batched over leading axes). The map is
    an isometry, so polar angles measured from the pole are preserved.
    """
    start = np.atleast_2d(np.asarray(start, dtype=float))
    local = np.atleast_2d(np.asarray(local, dtype=float))
    start, local = np.broadcast_arrays(start, local)
    d = start.shape[-1]
    ps = start[..., -1]
    px = local[..., -1]
    w = start.copy()
    w[..., -1] += 1.0
    denom = 1.0 + ps
    ok = denom > 1e-12
    dsafe = np.where(ok, denom, 1.0)
    out = (
        local
        - (np.sum(w * local, axis=-1) / dsafe)[..., None] * w
        + 2.0 * px[..., None] * start
    )
    if np.any(~ok):
        # antipodal start: rotate by pi about the first axis
        flipped = local[~ok].copy()
        flipped[..., 1:] *= -1.0
        if d == 2:
            flipped = -local[~ok]
        out[~ok] = flipped
    return unit(out)


def sample_sbm_batch(starts, taus, kind, rng: RngStream):
    """Sample SBM increments for a batch of start points and times.

    ``kind`` must be ``default_sampler(dim)``. Every tau must be >= 0: rows
    with tau = 0 keep their start point and tau = inf samples the uniform
    law. Returns a new array aligned with ``starts``.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (n,))
    if not np.all(taus >= 0):
        raise ValueError("tau must be >= 0 and not NaN")
    _check_kind(kind, dim)
    active = taus > 0
    # with every tau > 0 (the usual case) the batch is sampled without copies
    idx = None if active.all() else np.flatnonzero(active)
    y0, t = (starts, taus) if idx is None else (starts[idx], taus[idx])
    gen = rng.generator()

    if dim == 3:
        res = _sample_s2(y0, t, gen)
    else:
        a = np.sqrt(t) * gen.standard_normal(t.size)
        unif = t >= _uniform_time(2)
        if unif.any():
            a[unif] = gen.uniform(0.0, 2.0 * np.pi, int(np.count_nonzero(unif)))
        c = np.cos(a)
        sn = np.sin(a, out=a)
        res = np.empty_like(y0)
        res[:, 0] = c * y0[:, 0] - sn * y0[:, 1]
        res[:, 1] = sn * y0[:, 0] + c * y0[:, 1]
    if idx is None:
        return res
    out = starts.copy()
    out[idx] = res
    return out
