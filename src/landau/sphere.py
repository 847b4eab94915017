"""Spherical Brownian motion increments on S^1 and S^2.

One sampler per dimension; within it the time tau alone picks the method,
and every method is exact in law. Each sampler draws the law at min(tau,
``_uniform_time(d)``), past which the law no longer moves at machine
precision, so tau = inf samples the uniform law:

* ``EXACT_2D``: on the circle the increment is exact, the start point
  rotated by a Brownian angle increment; the rotation takes its cosine and
  sine from one tangent of the half angle.
* ``SPHERE_3D``: every end point is (1 - 2B) y0 + 2 sqrt(B (1 - B)) e, for
  e a unit tangent at the start point y0, uniform and independent of B, so
  that the cosine of the angle to y0 is 1 - 2B. From ``_MIXTURE_MIN_TAU``
  on, B ~ Beta(1, 1 + M), M from the death-process law of the Wright-Fisher
  radial diffusion (Jenkins & Spano 2017). Below it B comes from the SO(3)
  lift: omega, a draw of the SO(3) heat kernel (Nikolayev & Savyolova
  1997), gives B = sin^2(psi/2) sin^2(angle of omega to y0), psi = |omega|,
  the B of the rotated point R(omega) y0. No start point is singular.

3D starts are unit vectors, and the 3D sampler renormalizes its end points
to unit length. A 2D start may have any nonzero length: the rotation keeps
that length, so a pair update can turn z itself. Either way downstream energy
conservation is exact up to rounding.
"""

import enum
import math

import numpy as np

from .errors import FixedPointNotConverged, InvalidSamplerForDim, SeriesTruncated
from .kernels import _sq_norm

# Beyond this time the heat kernel on S^{d-1} is uniform to ~1e-20 in total
# variation (first spectral gap d-1): the laws at any two later times differ
# by less than 2e-20, so the samplers cap tau here.
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


def _so3_lift(t, gen):
    """omega, a draw of the SO(3) heat kernel at each time t in exponential
    coordinates, and half = sinc(psi/2) = sin(psi/2) / (psi/2), psi = |omega|.

    omega is a Gaussian of variance t per axis accepted with probability
    half, so each row is kept with probability exp(-t/8). The two Laplacians
    share the eigenvalues l(l+1), so R(omega) y0 is SBM on S^2 from y0 at
    time t. The law drops only the negative-weight shell 2 pi < psi < 4 pi,
    of mass below 1e-50 for t < _MIXTURE_MIN_TAU.
    """
    omega = gen.standard_normal((t.size, 3))
    sq = np.sqrt(t)
    for col in omega.T:
        col *= sq
    del sq
    half = _sinc(np.sqrt(np.einsum("ij,ij->i", omega, omega)) / (2.0 * np.pi))
    todo = np.flatnonzero(gen.random(t.size) >= half)
    for _ in range(_LIFT_MAX_ROUNDS - 1):
        if todo.size == 0:
            break
        w = gen.standard_normal((todo.size, 3)) * np.sqrt(t[todo])[:, None]
        hp = _sinc(np.sqrt(np.einsum("ij,ij->i", w, w)) / (2.0 * np.pi))
        keep = gen.random(todo.size) < hp
        rows = todo[keep]
        omega[rows], half[rows] = w[keep], hp[keep]
        todo = todo[~keep]
    if todo.size:
        raise FixedPointNotConverged(
            f"SO(3) lift: {todo.size} rows still rejected after {_LIFT_MAX_ROUNDS} rounds")
    return omega, half


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

    Each row draws B and a vector g and ends at (1 - 2B) y0 + 2 sqrt(B (1 - B)) e,
    renormalized, for e = g less its y0 component, normalized. Mixture rows
    draw M at min(t, ``_uniform_time(3)``), B ~ Beta(1, 1 + M) by inverse CDF
    and a standard normal g. Lift rows take g = omega and B = sinc^2(psi/2)
    |e|^2 / 4 for the unnormalized e; the law of omega is invariant under
    rotations about y0, so the direction of e is uniform and independent of
    B. Each band writes its g into res, the lift last, and one pass makes
    every row of res its end point.
    """
    small = t < _MIXTURE_MIN_TAU
    lift = np.flatnonzero(small)
    b = np.empty(t.size)
    if lift.size < t.size:
        big = np.flatnonzero(~small)
        tb = np.take(t, big)
        m = _death_process_draws(np.minimum(tb, _uniform_time(3), out=tb), gen)
        # 1 - (1 - u)^(1/(1+M)); log1p keeps u = 0 free of log(0)
        b[big] = -np.expm1(np.log1p(-gen.random(tb.size)) / (1 + m))
        _put_rows(res, big, gen.standard_normal((tb.size, 3)))
    if lift.size:
        omega, half = _so3_lift(np.take(t, lift), gen)
        _put_rows(res, lift, omega)
        del omega
    # one column at a time: an (n, 1) broadcast runs numpy's inner loop over
    # 3 elements per row. The y0 component is taken out twice, as one pass
    # leaves a residue of order eps |g| that the normalization magnifies
    # where g is close to +-y0; the dot adds (0 + 2) + 1, np.einsum's order.
    (g0, g1, g2), (x0, x1, x2), w = res.T, y0.T, np.empty(t.size)
    for _ in range(2):
        d = g0 * x0
        d += np.multiply(g2, x2, out=w)
        d += np.multiply(g1, x1, out=w)
        for g, x in zip(res.T, y0.T):
            g -= np.multiply(d, x, out=w)
    norm = _sq_norm(res)
    if lift.size:
        half *= 0.5
        half *= half
        b[lift] = np.multiply(half, np.take(norm, lift), out=half)
    # a lift row whose tangent part underflows to 0 has B = 0: its e is unused
    np.maximum(np.sqrt(norm, out=norm), np.finfo(float).tiny, out=norm)
    s = np.sqrt(np.multiply(b, np.subtract(1.0, b, out=d), out=d), out=d)
    s *= 2.0
    c = np.subtract(1.0, np.multiply(b, 2.0, out=b), out=b)
    for g, x in zip(res.T, y0.T):
        g /= norm
        g *= s
        g += np.multiply(c, x, out=w)
    np.sqrt(_sq_norm(res), out=norm)
    for g in res.T:
        g /= norm
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

    3D starts must be unit vectors; 2D starts may have any nonzero length,
    which the end point keeps. ``kind`` must be ``default_sampler(dim)``.
    ``rng`` is an RngStream, or a numpy Generator that is drawn from where it
    stands. Every tau must be >= 0, and tau is capped at
    ``_uniform_time(dim)``, so tau = inf samples the uniform law. A row with
    tau = 0 draws like any other and ends at its start: bitwise in 2D (it
    turns by tan 0 = 0), renormalized in 3D (the lift at zero time has B = 0).
    Returns the end points aligned with ``starts``, in ``out`` when given (an
    (n, dim) float array that does not overlap ``starts``, which is never
    written).
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (n,))
    if not np.all(taus >= 0):
        raise ValueError("tau must be >= 0 and not NaN")
    _check_kind(kind, dim)
    if out is None:
        out = np.empty((n, dim))
    gen = rng if isinstance(rng, np.random.Generator) else rng.generator()
    if dim == 3:
        return _sample_s2(starts, taus, gen, out)
    a = np.minimum(taus, _uniform_time(2))
    np.sqrt(a, out=a)
    a *= gen.standard_normal(n)
    # cos a = c - 1 and sin a = h c for h = tan(a/2), c = 2/(1 + h^2). No
    # double is an odd multiple of pi/2, so h is finite (below 2e18 for
    # |a| < 190; the cap keeps |a| <= 9.6 |normal|) and h^2 cannot overflow.
    a *= 0.5
    h = np.tan(a, out=a)
    c = np.multiply(h, h)
    c += 1.0
    np.divide(2.0, c, out=c)
    sn = np.multiply(h, c, out=a)
    c -= 1.0
    # out = (c x0 - sn x1, sn x0 + c x1), one column at a time, with
    # r1 and then sn as the scratch for the second product
    (x0, x1), (r0, r1) = starts.T, out.T
    np.multiply(sn, x1, out=r1)
    np.multiply(c, x0, out=r0)
    r0 -= r1
    np.multiply(sn, x0, out=r1)
    r1 += np.multiply(c, x1, out=sn)
    return out
