"""Spherical Brownian motion increments on S^1 and S^2.

Three samplers are provided behind one interface:

* ``EXACT_2D``: on the circle the increment is exact, the start point
  rotated by a Brownian angle increment.
* ``TANGENT_SUBSTEP``: a geodesic random walk with substeps of at most
  ``TANGENT_TAU0``. The step angle is ``c(delta) * |xi|`` with ``xi`` a
  tangent Gaussian and ``c`` calibrated so the first Legendre moment
  ``E[Y_tau . Y_0] = exp(-(d-1) tau / 2)`` is matched exactly per substep;
  higher moments are matched to second order in the substep size.
* ``RADIAL_ANGULAR_3D``: polar angle from the Wright-Fisher radial law via
  the death-process Beta mixture (exact up to series truncation), azimuth
  uniform, rotated back to the start point.

The 3D samplers renormalize to unit length after every update and the 2D
rotation keeps the length of the start point, so downstream energy
conservation is exact up to rounding.
"""

import enum
import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import InvalidSamplerForDim
from .streams import RngStream

TANGENT_TAU0 = 0.01

# Beyond this time the heat kernel on S^{d-1} is uniform to ~1e-20 in total
# variation (first spectral gap d-1), so sampling the uniform law is exact
# at machine precision and avoids thousands of pointless substeps.
def _uniform_time(dim):
    return 92.0 / (dim - 1)


# The alternating death-process series is numerically clean down to here;
# smaller times fall back to the fine-substep walk.
_MIXTURE_MIN_TAU = 0.15
_RADIAL_FALLBACK_SUBSTEP = 0.002


class SamplerKind(enum.Enum):
    EXACT_2D = "exact2d"
    RADIAL_ANGULAR_3D = "radial-angular-3d"
    TANGENT_SUBSTEP = "tangent-substep"


def default_sampler(dim):
    return SamplerKind.EXACT_2D if dim == 2 else SamplerKind.TANGENT_SUBSTEP


def unit(v):
    """Normalize the last axis to unit length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n == 0):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _check_kind(kind, dim):
    if kind is SamplerKind.EXACT_2D and dim != 2:
        raise InvalidSamplerForDim("EXACT_2D requires dim=2")
    if kind is SamplerKind.RADIAL_ANGULAR_3D and dim != 3:
        raise InvalidSamplerForDim("RADIAL_ANGULAR_3D requires dim=3")
    if dim not in (2, 3):
        raise InvalidSamplerForDim(f"unsupported dimension {dim}")


@lru_cache(maxsize=None)
def _chi2_moments(nu, terms):
    # E[W^k] for W ~ chi^2_nu: nu (nu+2) ... (nu+2k-2)
    m = [1.0]
    for k in range(1, terms):
        m.append(m[-1] * (nu + 2 * (k - 1)))
    return tuple(m)


def _calibrated_c2(delta, dim, terms=24):
    """Squared angle scaling of the geodesic substep.

    Solves E[cos(c |xi|)] = exp(-(d-1) delta / 2) for c^2, where
    |xi|^2 ~ delta * chi^2_{d-1}. On the circle the solution is exactly 1.
    """
    delta = np.asarray(delta, dtype=float)
    if dim == 2:
        return np.ones_like(delta)
    mom = np.array(_chi2_moments(dim - 1, terms))
    ks = np.arange(terms)
    log_fact = gammaln(2 * ks + 1)
    coef = (-1.0) ** ks * mom / np.exp(log_fact)
    target = np.exp(-(dim - 1) * delta / 2.0)
    s = np.ones_like(delta)
    for _ in range(30):
        w = s[..., None] * delta[..., None]
        pw = w ** ks
        f = np.sum(coef * pw, axis=-1) - target
        df = np.sum(coef[1:] * ks[1:] * pw[..., :-1] * delta[..., None], axis=-1)
        snew = s - f / df
        if np.max(np.abs(snew - s)) < 1e-15:
            s = snew
            break
        s = snew
    return s


def _uniform_sphere(gen, n, dim):
    v = gen.standard_normal((n, dim))
    return unit(v)


def _tangent_walk(y, taus, gen, substep):
    """Advance unit vectors y by their individual times via geodesic substeps."""
    y = np.array(y, dtype=float)
    taus = np.asarray(taus, dtype=float)
    m_all = np.maximum(1, np.ceil(taus / substep).astype(int))
    dim = y.shape[-1]
    for m in np.unique(m_all):
        sel = m_all == m
        g = int(np.count_nonzero(sel))
        delta = taus[sel] / m
        c = np.sqrt(_calibrated_c2(delta, dim))
        yy = y[sel]
        sq = np.sqrt(delta)[:, None]
        for _ in range(m):
            eta = gen.standard_normal((g, dim)) * sq
            xi = eta - np.sum(eta * yy, axis=1)[:, None] * yy
            r = np.linalg.norm(xi, axis=1)
            phi = c * r
            rsafe = np.where(r > 0, r, 1.0)
            u = xi / rsafe[:, None]
            yy = np.cos(phi)[:, None] * yy + np.sin(phi)[:, None] * u
            yy /= np.linalg.norm(yy, axis=1)[:, None]
        y[sel] = yy
    return y


@lru_cache(maxsize=256)
def _death_process_probs(t):
    """P(A_t = m) of the Kingman death process with mutation rate theta=2.

    This is the mixture index of the Wright-Fisher transition law that
    governs the S^2 polar angle. Alternating-series evaluation, truncated
    once the retained mass reaches 1 - 1e-12.
    """
    qs = []
    total = 0.0
    for m in range(0, 5000):
        s = 0.0
        k = m
        while True:
            lt = (
                math.log(2 * k + 1)
                + gammaln(m + k + 1)
                - gammaln(m + 2)
                - gammaln(m + 1)
                - gammaln(k - m + 1)
                - k * (k + 1) * t / 2.0
            )
            mag = math.exp(min(lt, 700.0))
            s += mag if (k - m) % 2 == 0 else -mag
            k += 1
            if k - m > 2 and mag < 1e-17:
                break
            if k - m > 3000:
                break
        qs.append(max(s, 0.0))
        total += qs[-1]
        if total >= 1.0 - 1e-12:
            break
    q = np.array(qs)
    return q / q.sum()


def _radial_cos_batch(taus, gen, substep=_RADIAL_FALLBACK_SUBSTEP):
    taus = np.asarray(taus, dtype=float)
    out = np.ones_like(taus)
    unif = taus >= _uniform_time(3)
    if np.any(unif):
        out[unif] = gen.uniform(-1.0, 1.0, int(np.count_nonzero(unif)))
    mix = (taus >= _MIXTURE_MIN_TAU) & ~unif
    for t in np.unique(taus[mix]):
        sel = taus == t
        g = int(np.count_nonzero(sel))
        q = _death_process_probs(float(t))
        m = gen.choice(len(q), size=g, p=q)
        # started at the pole the Beta mixture collapses to Beta(1, 1+m)
        x = gen.beta(1.0, 1.0 + m)
        out[sel] = 1.0 - 2.0 * x
    small = (taus > 0) & (taus < _MIXTURE_MIN_TAU)
    if np.any(small):
        g = int(np.count_nonzero(small))
        pole = np.zeros((g, 3))
        pole[:, 2] = 1.0
        y = _tangent_walk(pole, taus[small], gen, substep)
        out[small] = y[:, 2]
    return out


def sample_radial_cos(tau, rng: RngStream, size=None):
    """Cosine of the S^2 polar angle after time tau, started at the pole."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    gen = rng.generator()
    n = 1 if size is None else int(size)
    vals = _radial_cos_batch(np.full(n, float(tau)), gen)
    return float(vals[0]) if size is None else vals


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


def sample_sbm_batch(starts, taus, kind, rng: RngStream, substep=TANGENT_TAU0, normals=None):
    """Sample SBM increments for a batch of start points and times.

    Returns a new array aligned with ``starts``; rows with tau = 0 keep their
    start point. ``normals``, accepted by the EXACT_2D sampler only, injects
    the standard normal angle increments (used by equivariance tests); by
    default they are drawn from ``rng``.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (n,))
    if np.any(taus < 0):
        raise ValueError("tau must be >= 0")
    _check_kind(kind, dim)
    if normals is not None and kind is not SamplerKind.EXACT_2D:
        raise ValueError("normals injection is only supported for EXACT_2D")
    active = taus > 0
    # with every tau > 0 (the usual case) the batch is sampled without copies
    idx = None if active.all() else np.flatnonzero(active)
    if idx is None:
        y0, t = starts, taus
    else:
        y0, t = starts[idx], taus[idx]
        normals = None if normals is None else np.asarray(normals, dtype=float)[idx]
    gen = rng.generator()

    if kind is SamplerKind.EXACT_2D:
        b = gen.standard_normal(t.size) if normals is None else np.asarray(normals, dtype=float)
        a = np.sqrt(t) * b
        c = np.cos(a)
        sn = np.sin(a, out=a)
        res = np.empty_like(y0)
        res[:, 0] = c * y0[:, 0] - sn * y0[:, 1]
        res[:, 1] = sn * y0[:, 0] + c * y0[:, 1]
    elif kind is SamplerKind.TANGENT_SUBSTEP:
        res = np.empty_like(y0)
        unif = t >= _uniform_time(dim)
        if np.any(unif):
            res[unif] = _uniform_sphere(gen, int(np.count_nonzero(unif)), dim)
        if np.any(~unif):
            res[~unif] = _tangent_walk(y0[~unif], t[~unif], gen, substep)
    else:  # RADIAL_ANGULAR_3D
        x = _radial_cos_batch(t, gen)
        phi = gen.uniform(0.0, 2.0 * np.pi, t.size)
        sin_th = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        local = np.column_stack([sin_th * np.cos(phi), sin_th * np.sin(phi), x])
        res = rotate_from_pole(y0, local)
    if idx is None:
        return res
    out = starts.copy()
    out[idx] = res
    return out


def sample_sbm(start, tau, kind, rng: RngStream, substep=TANGENT_TAU0):
    """Single SBM increment: the point of S^{d-1} reached at time tau from `start`."""
    start = np.asarray(start, dtype=float)
    if abs(np.linalg.norm(start) - 1.0) > 1e-12:
        start = unit(start)
    res = sample_sbm_batch(start[None, :], np.array([tau]), kind, rng, substep=substep)
    return res[0]
