"""Closed-form reference solutions and initial-condition samplers.

The BKW solutions are the explicit self-similar solutions for Maxwell
molecules (gamma = 0) in 2D (Lambda = 1/8) and 3D (Lambda = 1/12); both are
two-component Gaussian mixtures, which gives an exact sampler. The
bi-Maxwellian is the anisotropic 2D initial condition of the singular-kernel
runs, and the perturbed Maxwellian drives the Landau-damping experiment.
"""

import math

import numpy as np

from .errors import FixedPointNotConverged, InvalidTime
from .streams import RngStream

BKW_LAMBDA = {2: 1.0 / 8.0, 3: 1.0 / 12.0}

BIMAX_U1 = np.array([-2.0, 1.0])
BIMAX_U2 = np.array([1.0, -1.0])

DAMPING_LENGTH = 4.0 * np.pi
DAMPING_WAVENUMBER = 0.5
# Newton sweeps of the damping inverse CDF: alpha = 0.1 needs 4, and
# alpha = 1 - 1e-6 needs 20.
_DAMPING_MAX_SWEEPS = 40


def bkw_t_min(dim):
    """Earliest time at which both BKW mixture weights are nonnegative."""
    return 0.0 if dim == 2 else -6.0 * math.log(0.4)


def bkw_scale(dim, t):
    """The variance-like scale K(t) of the BKW solution."""
    t = np.asarray(t, dtype=float)
    if np.any(t < bkw_t_min(dim) - 1e-12):
        raise InvalidTime(f"BKW in {dim}D needs t >= {bkw_t_min(dim)}")
    if dim == 2:
        return 1.0 - 0.5 * np.exp(-t / 8.0)
    return 1.0 - np.exp(-t / 6.0)


def _bkw_coeffs(dim, k):
    # f = (c0 + c2 |v|^2) (2 pi K)^(-d/2) exp(-|v|^2 / (2K))
    c2 = (1.0 - k) / (2.0 * k * k)
    c0 = 2.0 - 1.0 / k if dim == 2 else 2.5 - 1.5 / k
    return c0, c2


def _bkw_radial(dim, t, r2):
    """BKW density at time t as a function of r2 = |v|^2."""
    k = float(bkw_scale(dim, t))
    c0, c2 = _bkw_coeffs(dim, k)
    return (c0 + c2 * r2) * np.exp(-r2 / (2.0 * k)) / (2.0 * np.pi * k) ** (dim / 2.0)


def bkw_density(dim, t, v):
    """BKW density at time t, evaluated at velocities v of shape (..., dim)."""
    v = np.asarray(v, dtype=float)
    return _bkw_radial(dim, t, np.sum(v * v, axis=-1))


def _uniform_directions(gen, n, dim):
    v = gen.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


def sample_bkw(dim, t, n, rng: RngStream):
    """Exact BKW sample: Gaussian component with probability 2 - 1/K
    (2.5 - 1.5/K in 3D), else the |v|^2-weighted Gaussian whose squared
    radius is Gamma(d/2 + 1, 2K)."""
    k = float(bkw_scale(dim, t))
    w1 = _bkw_coeffs(dim, k)[0]
    gen = rng.generator()
    pick = gen.random(n) < w1
    out = np.empty((n, dim))
    n1 = int(np.count_nonzero(pick))
    if n1:
        out[pick] = gen.standard_normal((n1, dim)) * math.sqrt(k)
    n2 = n - n1
    if n2:
        r = np.sqrt(gen.gamma(dim / 2.0 + 1.0, 2.0 * k, size=n2))
        out[~pick] = r[:, None] * _uniform_directions(gen, n2, dim)
    return out


def sample_bimaxwellian(n, rng: RngStream):
    gen = rng.generator()
    pick = gen.random(n) < 0.2
    out = gen.standard_normal((n, 2))
    out[pick] += BIMAX_U1
    out[~pick] += BIMAX_U2
    return out


def sample_landau_damping(n, alpha, rng: RngStream):
    """Positions by inverse CDF of 1 + alpha cos(x/2), velocities standard 2D
    Gaussian. Returns (x, v).

    With x = 2 pi + d and target u = 2 pi + e, the CDF equation
    x + 2 alpha sin(x/2) = u reads d - 2 alpha sin(d/2) = e: odd in d, with
    slope at least 1 - alpha > 0, convex for d in [0, 2 pi]. Newton on |d|
    from |e| + 2 alpha, right of the root, therefore falls monotonically onto
    it; the sweeps stop once no step exceeds 1e-12.
    """
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    gen = rng.generator()
    half = 0.5 * DAMPING_LENGTH
    e = gen.random(n) * DAMPING_LENGTH - half
    target = np.abs(e)
    d = np.minimum(target + 2.0 * alpha, half)
    for _ in range(_DAMPING_MAX_SWEEPS):
        k_d = DAMPING_WAVENUMBER * d
        step = (d - 2.0 * alpha * np.sin(k_d) - target) / (1.0 - alpha * np.cos(k_d))
        d -= step
        if np.max(np.abs(step)) < 1e-12:
            break
    else:
        raise FixedPointNotConverged(f"damping inverse CDF: a Newton step of "
                                     f"{np.max(np.abs(step)):.3g} after {_DAMPING_MAX_SWEEPS} sweeps")
    x = half + np.copysign(d, e)
    v = gen.standard_normal((n, 2))
    return x, v
