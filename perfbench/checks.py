"""Closed forms and output checks of the benchmark.

Everything here is written from the formulas, not from the solver: it imports
numpy only, so a fault in the solver's own analytic or diagnostic code cannot
hide in the reference it is checked against.

Each check returns a ``Check``. A check on a sample mean allows ``Z_MAX``
standard errors, which a correct solver misses by chance about once in 1.7
million checks, so a benchmark run practically never fails one spuriously.
"""

import math
from typing import NamedTuple

import numpy as np

Z_MAX = 5.0

# Relative tolerance of "conserved to rounding". Sums are taken with
# math.fsum, so the check's own rounding is far below it.
CONSERVATION_TOL = 1e-12

# Acceptance criterion 6 (2D BKW relative L2 error) and criteria 7 and 10
# (entropy rise between checkpoints, PIC total-energy drift with fixed sweeps).
BKW2D_MAX_REL_L2 = 0.05
MAX_ENTROPY_RISE = 5e-3
MAX_VPL_ENERGY_DRIFT = 1e-2

# BKW-3D needs t >= 6 ln(5/2) for both mixture weights to be nonnegative.
BKW3D_T_MIN = 6.0 * math.log(2.5)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


# ------------------------------------------------------------ closed forms

def bkw_k(dim, t):
    """BKW scale K(t): 1 - exp(-t/8)/2 in 2D (Lambda=1/8), 1 - exp(-t/6) in 3D (Lambda=1/12)."""
    return 1.0 - 0.5 * math.exp(-t / 8.0) if dim == 2 else 1.0 - math.exp(-t / 6.0)


def bkw_density(dim, t, v):
    """BKW solution at absolute time t on velocities v of shape (..., dim).

    2D: f = (2 pi K^2)^-1 (2K - 1 + (1-K)|v|^2 / (2K)) exp(-|v|^2 / 2K).
    3D: f = (2 pi K)^-3/2 ((5K - 3) / 2K + (1-K)|v|^2 / 2K^2) exp(-|v|^2 / 2K).
    """
    k = bkw_k(dim, t)
    r2 = np.sum(np.asarray(v, dtype=float) ** 2, axis=-1)
    gauss = np.exp(-r2 / (2.0 * k))
    if dim == 2:
        return (2.0 * k - 1.0 + (1.0 - k) * r2 / (2.0 * k)) * gauss / (2.0 * math.pi * k * k)
    return ((5.0 * k - 3.0) / (2.0 * k) + (1.0 - k) * r2 / (2.0 * k * k)) * gauss \
        / (2.0 * math.pi * k) ** 1.5


def bkw_fourth_moment(dim, t):
    """<|v|^4> of BKW: 16K - 8K^2 in 2D, 30K - 15K^2 in 3D.

    With f = (c0 + c2|v|^2) N(0, K I) and the Gaussian moments
    E|v|^4 = d(d+2)K^2, E|v|^6 = d(d+2)(d+4)K^3.
    """
    k = bkw_k(dim, t)
    return 16.0 * k - 8.0 * k * k if dim == 2 else 30.0 * k - 15.0 * k * k


def grid_mesh(dim, lo, hi, n):
    """Cell-center mesh of the uniform grid [lo, hi)^dim, shape (n, ..., n, dim)."""
    c = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return np.stack(np.meshgrid(*([c] * dim), indexing="ij"), axis=-1)


# ------------------------------------------------------------ checks

def _fsum_columns(a):
    a = np.asarray(a, dtype=float)
    return np.array([math.fsum(col) for col in a.T])


def check_conservation(v0, v1, tol=CONSERVATION_TOL):
    """Total momentum and kinetic energy of v1 equal those of v0 to rounding.

    Momentum is compared on the scale sqrt(sum |v|^2), energy relative to itself.
    """
    e0 = math.fsum(np.square(v0).ravel())
    e1 = math.fsum(np.square(v1).ravel())
    dp = float(np.linalg.norm(_fsum_columns(v1) - _fsum_columns(v0))) / math.sqrt(e0)
    de = abs(e1 - e0) / e0
    return [Check("momentum conserved", dp <= tol, f"rel dev {dp:.2e} (tol {tol:g})"),
            Check("energy conserved", de <= tol, f"rel dev {de:.2e} (tol {tol:g})")]


def check_component_conserved(name, a0, a1, tol=CONSERVATION_TOL):
    """sum(a1) equals sum(a0) to rounding, on the scale sqrt(sum a0^2)."""
    d = abs(math.fsum(a1) - math.fsum(a0)) / math.sqrt(math.fsum(np.square(a0)))
    return Check(name, d <= tol, f"rel dev {d:.2e} (tol {tol:g})")


def check_fourth_moment(v, dim, t):
    """Sample <|v|^4> matches the BKW closed form within Z_MAX standard errors."""
    x = np.sum(np.square(v), axis=1) ** 2
    se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    exact = bkw_fourth_moment(dim, t)
    z = (float(np.mean(x)) - exact) / se
    return Check(f"<|v|^4> at t={t:.4g}", abs(z) <= Z_MAX,
                 f"{np.mean(x):.5f} vs {exact:.5f}, z={z:+.2f}")


def kurtosis(v):
    """kappa = <|v|^4> / <|v|^2>^2 and its delta-method standard error."""
    x2 = np.sum(np.square(v), axis=1)
    x4 = x2 * x2
    m2, m4 = float(np.mean(x2)), float(np.mean(x4))
    grad = np.array([-2.0 * m4 / m2**3, 1.0 / m2**2])
    cov = np.cov(np.vstack([x2, x4]))
    return m4 / m2**2, math.sqrt(float(grad @ cov @ grad) / x2.size)


def check_kurtosis_relaxes(v0, v1, target):
    """kappa(v1) is no farther from its equilibrium value than kappa(v0), up to sampling error."""
    k0, _ = kurtosis(v0)
    k1, se1 = kurtosis(v1)
    excess = (abs(k1 - target) - abs(k0 - target)) / se1
    return Check("kappa does not move away from equilibrium", excess <= Z_MAX,
                 f"|kappa-{target:.4f}| {abs(k0 - target):.5f} -> {abs(k1 - target):.5f} "
                 f"({excess:+.2f} SE)")


def check_entropy_non_increasing(entropies, tol=MAX_ENTROPY_RISE):
    rise = float(np.max(np.diff(entropies)))
    return Check("entropy does not rise", rise <= tol, f"max rise {rise:.2e} (tol {tol:g})")


def check_below(name, value, bound):
    return Check(name, value < bound, f"{value:.5f} (< {bound:g})")


def relative_l2(ref, est):
    """||ref - est||_2 / ||ref||_2 over grid values."""
    ref = np.asarray(ref, dtype=float)
    return float(np.linalg.norm(np.asarray(est) - ref) / np.linalg.norm(ref))


def field_mode(field, length, k):
    """Amplitude A of A sin(k x) in a periodic cell-centered field on [0, length)."""
    n = len(field)
    x = (np.arange(n) + 0.5) * length / n
    return 2.0 / n * float(np.dot(field, np.sin(k * x)))


def check_damping_mode(field, length, k, alpha, n_particles):
    """The initial field's k-mode equals alpha/k within its sampling error.

    For positions with density (1 + alpha cos kx)/L, the charge mode estimate
    (2/N) sum cos(k x_i) has variance 4 (1/2 - alpha^2/4) / N, and Gauss's law
    divides it by k.
    """
    amp = field_mode(field, length, k)
    se = 2.0 / k * math.sqrt((0.5 - alpha * alpha / 4.0) / n_particles)
    z = (amp - alpha / k) / se
    return Check(f"field k={k:g} mode = alpha/k", abs(z) <= Z_MAX,
                 f"{amp:.5f} vs {alpha / k:.5f} (SE {se:.4f}), z={z:+.2f}")


def check_energy_drift(e0, e1, tol=MAX_VPL_ENERGY_DRIFT):
    d = abs(e1 - e0) / abs(e0)
    return Check("total energy drift", d <= tol, f"{d:.2e} (tol {tol:g})")


def pic_total_energy(velocities, field, charge, length):
    """Kinetic q/2 sum |v|^2 plus electric (1/2) sum E^2 dx."""
    dx = length / len(field)
    return 0.5 * charge * math.fsum(np.square(velocities).ravel()) \
        + 0.5 * dx * math.fsum(np.square(field))


# Legendre moments of spherical Brownian motion on S^2: with c the cosine of
# the turn, E[P_l(c)] = exp(-l(l+1) tau / 2). The variances follow from the
# products P1^2 = (2 P2 + 1)/3 and P2^2 = (18 P4 + 10 P2 + 7)/35.

def legendre_sums(starts, ends, taus):
    """Sums over samples of P_l(c) - E[P_l] and of Var[P_l], l = 1, 2."""
    c = np.sum(starts * ends, axis=1)
    m1, m3, m10 = np.exp(-taus), np.exp(-3.0 * taus), np.exp(-10.0 * taus)
    p2 = 1.5 * c * c - 0.5
    var1 = (2.0 * m3 + 1.0) / 3.0 - m1 * m1
    var2 = (18.0 * m10 + 10.0 * m3 + 7.0) / 35.0 - m3 * m3
    return np.array([np.sum(c - m1), np.sum(var1), np.sum(p2 - m3), np.sum(var2)])


def check_legendre(sums):
    out = []
    for l, (dev, var) in enumerate((sums[0:2], sums[2:4]), start=1):
        z = float(dev / math.sqrt(var)) if var > 0 else 0.0
        out.append(Check(f"sphere turns: Legendre P{l} mean", abs(z) <= Z_MAX, f"z={z:+.2f}"))
    return out
