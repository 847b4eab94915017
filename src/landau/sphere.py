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
  cosine of the angle to the start point is 1 - 2 Beta(1, 1 + M), M from
  the death-process law of the Wright-Fisher radial diffusion (Jenkins &
  Spano 2017); past it the cosine is uniform (M = 0). The end point leaves
  the start point along a uniform unit tangent, one closed form for both
  bands with no singular start point.

The 3D sampler renormalizes to unit length and the 2D rotation keeps the
length of the start point, so downstream energy conservation is exact up to
rounding.
"""

import enum
import math

import numpy as np

from .errors import FixedPointNotConverged, InvalidSamplerForDim, SeriesTruncated

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


def _check_kind(kind, dim):
    if dim not in (2, 3):
        raise InvalidSamplerForDim(f"unsupported dimension {dim}")
    if kind is not default_sampler(dim):
        raise InvalidSamplerForDim(f"{kind} does not sample S^{dim - 1}")


def _sinc(x):
    """np.sinc(x) = sin(pi x) / (pi x), bitwise, computed in the buffer of x."""
    y = np.multiply(x, np.pi, out=x)
    y[y == 0] = np.finfo(float).eps
    return np.divide(np.sin(y), y, out=y)


def _so3_lift(y0, t, gen, out=None):
    """Spherical Brownian motion on S^2 from y0 for times t, exactly.

    Rotates y0 by omega, a draw of the SO(3) heat kernel at time t in
    exponential coordinates: a Gaussian of variance t per axis accepted with
    probability sin(psi/2) / (psi/2), psi = |omega|, so each row is kept with
    probability exp(-t/8). The two Laplacians share the eigenvalues
    l(l+1), so E[P_l(y0 . y)] = exp(-l(l+1) t / 2). The law drops only the
    negative-weight shell 2 pi < psi < 4 pi, of mass below 1e-50 for
    t < _MIXTURE_MIN_TAU. The rotated rows go to ``out`` when given.
    """
    omega = gen.standard_normal((t.size, 3))
    sq = np.sqrt(t)
    for col in omega.T:
        col *= sq
    del sq
    psi = np.sqrt(np.einsum("ij,ij->i", omega, omega))
    half = _sinc(psi / (2.0 * np.pi))
    todo = np.flatnonzero(gen.random(t.size) >= half)
    for _ in range(_LIFT_MAX_ROUNDS - 1):
        if todo.size == 0:
            break
        w = gen.standard_normal((todo.size, 3)) * np.sqrt(t[todo])[:, None]
        p = np.sqrt(np.einsum("ij,ij->i", w, w))
        hp = _sinc(p / (2.0 * np.pi))
        keep = gen.random(todo.size) < hp
        rows = todo[keep]
        omega[rows], psi[rows], half[rows] = w[keep], p[keep], hp[keep]
        todo = todo[~keep]
    if todo.size:
        raise FixedPointNotConverged(
            f"SO(3) lift: {todo.size} rows still rejected after {_LIFT_MAX_ROUNDS} rounds")
    return _rodrigues(omega, psi, half, y0, out)


def _rodrigues(omega, psi, half, y, out=None):
    """Rotate the rows of y into ``out`` by the rotation vectors omega of
    lengths psi, then renormalize: cos psi y + sinc(psi) omega x y
    + half^2 / 2 (omega . y) omega, half = sinc(psi/2), sinc(x) = sin(x) / x,
    so psi = 0 needs no division. One column at a time, with np.cross's
    products and np.linalg.norm's sum order; psi and half are overwritten."""
    out = np.empty_like(omega) if out is None else out
    (o0, o1, o2), (y0, y1, y2), (r0, r1, r2) = omega.T, y.T, out.T
    c = np.cos(psi)
    for r, yc in zip(out.T, y.T):
        np.multiply(c, yc, out=r)
    s = _sinc(np.divide(psi, np.pi, out=psi))
    r0 += s * (o1 * y2 - o2 * y1)
    r1 += s * (o2 * y0 - o0 * y2)
    r2 += s * (o0 * y1 - o1 * y0)
    w = np.multiply(half, 0.5, out=s)
    w *= half
    w *= np.einsum("ij,ij->i", omega, y)
    for r, oc in zip(out.T, omega.T):
        r += np.multiply(w, oc, out=half)
    norm = np.multiply(r0, r0, out=c)
    norm += np.multiply(r1, r1, out=half)
    norm += np.multiply(r2, r2, out=half)
    np.sqrt(norm, out=norm)
    for r in out.T:
        r /= norm
    return out


def _death_process_probs(ts):
    """Rows P(A_t = m), m < _SERIES_TERMS, of the Kingman death process with
    mutation rate theta = 2, one row per time t in ``ts`` (each t >= 0.15).

    This is the mixture index of the Wright-Fisher transition law that
    governs the S^2 polar angle. The alternating series over k is summed as
    one BLAS product of the table exp(-k(k+1) t / 2) with the fixed
    coefficient matrix. The table is exponentiated only where the argument
    is above -746: below it exp is exactly 0, and numpy's exp is about 20
    times slower on lanes that underflow, which are half the table.
    """
    arg = np.multiply.outer(ts, -_DEATH_RATES)
    e = np.zeros_like(arg)
    np.exp(arg, out=e, where=arg > -746.0)
    q = e @ _DEATH_SERIES.T
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


def _sample_s2(y0, t, gen, res):
    """End points of SBM on S^2 from the rows of y0 for times t, into res.

    Rows below ``_MIXTURE_MIN_TAU`` take the SO(3) lift. The others end at
    (1 - 2B) y0 + 2 sqrt(B (1 - B)) e, renormalized, so that y0 . end = 1 - 2B:
    B ~ Beta(1, 1 + M) by inverse CDF, with M the death-process draw, or
    M = 0 (the uniform law) past ``_uniform_time(3)``; e is a standard normal
    vector less its y0 component, normalized: a uniform unit tangent at y0.
    The bands are split by index arrays: the mixture and uniform rows are
    gathered and drawn first, then the lift rows, and each band's rows are
    written into res once.
    """
    small = t < _MIXTURE_MIN_TAU
    if small.all():
        return _so3_lift(y0, t, gen, res)
    big = np.flatnonzero(~small)
    tb, y = np.take(t, big), np.take(y0, big, axis=0)
    mix = tb < _uniform_time(3)
    m = np.zeros(tb.size, dtype=np.int64)
    m[mix] = _death_process_draws(tb[mix], gen)
    # 1 - (1 - u)^(1/(1+M)); log1p keeps u = 0 free of log(0)
    b = -np.expm1(np.log1p(-gen.random(tb.size)) / (1 + m))
    e = gen.standard_normal((tb.size, 3))
    # the y component is taken out twice: one pass leaves a residue of order
    # eps |e|, which the normalization magnifies where e is close to +-y
    for _ in range(2):
        e -= np.einsum("ij,ij->i", e, y)[:, None] * y
    e /= np.linalg.norm(e, axis=1)[:, None]
    e *= (2.0 * np.sqrt(b * (1.0 - b)))[:, None]
    e += (1.0 - 2.0 * b)[:, None] * y
    e /= np.linalg.norm(e, axis=1)[:, None]
    _put_rows(res, big, e)
    if big.size < t.size:
        lift = np.flatnonzero(small)
        _put_rows(res, lift, _so3_lift(np.take(y0, lift, axis=0), np.take(t, lift), gen))
    return res


def _put_rows(v, idx, rows):
    """v[idx] = rows, through a view with one item per row when v is
    C-contiguous: several times faster than row fancy indexing at large n."""
    if not v.flags.c_contiguous:
        v[idx] = rows
        return
    row = np.dtype((np.void, v.itemsize * v.shape[1]))
    np.put(v.view(row).ravel(), idx, np.ascontiguousarray(rows, v.dtype).view(row).ravel())


def sample_sbm_batch(starts, taus, kind, rng, out=None):
    """Sample SBM increments for a batch of start points and times.

    ``kind`` must be ``default_sampler(dim)``. ``rng`` is an RngStream, or a
    numpy Generator that is drawn from where it stands. Every tau must be
    >= 0: rows with tau = 0 keep their start point and tau = inf samples the
    uniform law. Returns the end points aligned with ``starts``, in ``out`` when
    given (an (n, dim) float array that does not overlap ``starts``, which
    is never written).
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (n,))
    if not np.all(taus >= 0):
        raise ValueError("tau must be >= 0 and not NaN")
    _check_kind(kind, dim)
    if out is None:
        out = np.empty((n, dim))
    active = taus > 0
    # with every tau > 0 (the usual case) the batch is sampled into out without copies
    idx = None if active.all() else np.flatnonzero(active)
    y0, t = (starts, taus) if idx is None else (starts[idx], taus[idx])
    res = out if idx is None else np.empty_like(y0)
    gen = rng if isinstance(rng, np.random.Generator) else rng.generator()

    if dim == 3:
        _sample_s2(y0, t, gen, res)
    else:
        a = np.sqrt(t) * gen.standard_normal(t.size)
        unif = t >= _uniform_time(2)
        if unif.any():
            a[unif] = gen.uniform(0.0, 2.0 * np.pi, int(np.count_nonzero(unif)))
        c = np.cos(a)
        sn = np.sin(a, out=a)
        # res = (c x0 - sn x1, sn x0 + c x1), one column at a time, with
        # r1 and then sn as the scratch for the second product
        (x0, x1), (r0, r1) = y0.T, res.T
        np.multiply(sn, x1, out=r1)
        np.multiply(c, x0, out=r0)
        r0 -= r1
        np.multiply(sn, x0, out=r1)
        r1 += np.multiply(c, x1, out=sn)
    if idx is not None:
        out[...] = starts
        out[idx] = res
    return out
