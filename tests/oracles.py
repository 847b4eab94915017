"""Independent reference computations used by the tests.

Everything here is derived from first principles (series expansions,
quadrature, finite differences, root finding) without touching the sampler
or stepper code paths it is used to check.
"""

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.optimize import fsolve
from scipy.special import eval_legendre, wofz


def heat_kernel_cos_cdf(x, tau, lmax=400, tol=1e-18):
    """CDF of cos(polar angle) of spherical Brownian motion on S^2.

    Density p(u) = sum_l (2l+1)/2 exp(-l(l+1) tau/2) P_l(u); integrated term
    by term with int_{-1}^{x} P_l = (P_{l+1}(x) - P_{l-1}(x)) / (2l+1).
    """
    x = np.asarray(x, dtype=float)
    c = (x + 1.0) / 2.0
    for l in range(1, lmax + 1):
        w = np.exp(-l * (l + 1) * tau / 2.0)
        if w < tol:
            break
        c = c + 0.5 * w * (eval_legendre(l + 1, x) - eval_legendre(l - 1, x))
    return np.clip(c, 0.0, 1.0)


def death_process_probs(t, m_max=64):
    """P(A_t = m), m < m_max, of the Kingman death process with mutation rate 2.

    Term-by-term alternating series (Griffiths / Tavare), each summed
    until its terms fall below 1e-17.
    """
    out = []
    for m in range(m_max):
        total, k = 0.0, m
        while True:
            mag = math.exp(math.log(2 * k + 1) + math.lgamma(m + k + 1) - math.lgamma(m + 2)
                           - math.lgamma(m + 1) - math.lgamma(k - m + 1) - k * (k + 1) * t / 2.0)
            total += mag if (k - m) % 2 == 0 else -mag
            k += 1
            if k - m > 2 and mag < 1e-17:
                break
        out.append(total)
    return np.array(out)


def direct_mollified_density(v, eps, lo, hi, n_grid, sigmas=6.0):
    """Gaussian KDE on the cell centres of [lo, hi]^d by a plain double loop.

    Each particle adds exp(-|c - v|^2 / 2 eps) / (2 pi eps)^(d/2) / N to every
    in-grid cell c whose index differs from the particle's own cell
    floor((v - lo) / h) by at most w = ceil(sigmas sqrt(eps) / h) + 1 per axis.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n, d = v.shape
    h = (hi - lo) / n_grid
    w = math.ceil(sigmas * math.sqrt(eps) / h) + 1
    out = np.zeros((n_grid,) * d)
    for p in v:
        own = [math.floor((p[a] - lo) / h) for a in range(d)]
        ranges = [range(max(c - w, 0), min(c + w, n_grid - 1) + 1) for c in own]
        for cell in itertools.product(*ranges):
            r2 = sum((lo + (c + 0.5) * h - p[a]) ** 2 for a, c in enumerate(cell))
            out[cell] += math.exp(-r2 / (2.0 * eps))
    return out / ((2.0 * math.pi * eps) ** (d / 2.0) * n)


def radial_entropy(f_of_r2, dim, r_max=40.0):
    """int f log f dv for a radial density given as a function of |v|^2."""
    surf = 2.0 * np.pi if dim == 2 else 4.0 * np.pi

    def g(r):
        val = f_of_r2(r * r)
        if val <= 0:
            return 0.0
        return surf * r ** (dim - 1) * val * np.log(val)

    val, _ = integrate.quad(g, 0.0, r_max, limit=400)
    return val


def radial_moment(f_of_r2, dim, power=0, r_max=40.0):
    """int |v|^power f dv for a radial density given as a function of |v|^2."""
    surf = 2.0 * np.pi if dim == 2 else 4.0 * np.pi
    val, _ = integrate.quad(lambda r: surf * r ** (dim - 1 + power) * f_of_r2(r * r),
                            0.0, r_max, limit=400)
    return val


def landau_damping_rate(k=0.5):
    """Decay rate from the kinetic dispersion relation 1 + (1 + z Z(z))/k^2 = 0.

    Z is the plasma dispersion function, Z(z) = i sqrt(pi) w(z), with
    z = omega / (k sqrt(2)) for a unit-thermal-velocity Maxwellian.
    Returns (omega_real, decay_rate).
    """

    def dielectric(om_vec):
        om = om_vec[0] + 1j * om_vec[1]
        z = om / (k * np.sqrt(2.0))
        val = 1.0 + (1.0 + z * 1j * np.sqrt(np.pi) * wofz(z)) / k**2
        return [val.real, val.imag]

    (om_r, om_i), info, ok, _ = fsolve(dielectric, [1.4, -0.15], full_output=True)
    assert ok == 1, "dispersion root-finding failed"
    return om_r, -om_i


def divergence_of_matrix_field(fn, z, h=1e-5):
    """Central-difference divergence (row-wise) of a matrix field at z."""
    z = np.asarray(z, dtype=float)
    d = z.size
    out = np.zeros(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out += (fn(z + e)[:, j] - fn(z - e)[:, j]) / (2.0 * h)
    return out


def gauss_legendre_cell_masses(density, lo, hi, nbins, order=8):
    """Expected probability mass of each cell of a [lo,hi]^2 grid by tensor
    Gauss-Legendre quadrature of `density` (callable on (..., 2) arrays)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = (hi - lo) / nbins
    edges = lo + h * np.arange(nbins)
    pts = edges[:, None] + (nodes + 1.0) * (h / 2.0)  # (nbins, order)
    w = weights * (h / 2.0)
    xx = pts[:, None, :, None]  # bin_x, bin_y, node_x, node_y
    yy = pts[None, :, None, :]
    grid = np.stack(np.broadcast_arrays(xx, yy), axis=-1)
    vals = density(grid)
    return np.einsum("abij,i,j->ab", vals, w, w)
