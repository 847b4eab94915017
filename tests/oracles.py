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

from landau.analytic import BIMAX_U1, BIMAX_U2, DAMPING_WAVENUMBER, bkw_scale
from landau.collision import (SBM, Checkpoint, DiagnosticsPlan, ParticleEnsemble, _record,
                              random_pairing, step_count)
from landau.kernels import Z_FLOOR, KernelParams, _check_floor, _sq_norm
from landau.errors import SeriesTruncated
from landau.sphere import (_DEATH_RATES, _DEATH_SERIES, _MIXTURE_MIN_TAU, _death_process_draws,
                           _uniform_time)
from landau.streams import DOMAIN_COLLISION, DOMAIN_PAIRING, RngStream


def unit(v):
    """Normalize the last axis to unit length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n == 0):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _with_sq_norm(z):
    """z as a float array and its squared norms |z|^2."""
    z = np.asarray(z, dtype=float)
    return z, _sq_norm(z)


# The matrix form of the pair SDE's coefficients, the reference of the
# closed-form steps: no pair update builds a matrix.
def kernel_A(z, p: KernelParams):
    """Collision kernel A(z) = lam |z|^gamma (|z|^2 I - z (x) z)."""
    z, r2 = _with_sq_norm(z)
    if p.gamma < 0:
        _check_floor(r2, "kernel_A")
    pref = p.lam * np.power(r2, p.gamma / 2.0)
    eye = np.eye(z.shape[-1])
    outer = z[..., :, None] * z[..., None, :]
    return pref[..., None, None] * (r2[..., None, None] * eye - outer)


def kernel_K(z, p: KernelParams):
    """Drift K(z) = div A = (1 - d) lam |z|^gamma z."""
    z, r2 = _with_sq_norm(z)
    if p.gamma < 0:
        _check_floor(r2, "kernel_K")
    pref = (1 - p.dim) * p.lam * np.power(r2, p.gamma / 2.0)
    return pref[..., None] * z


def kernel_sigma(z, p: KernelParams):
    """Diffusion factor sigma(z) = sqrt(lam) |z|^(gamma/2+1) (I - z(x)z/|z|^2).

    Satisfies sigma(z) sigma(z)^T = kernel_A(z) and sigma(z) z = 0.
    """
    z, r2 = _with_sq_norm(z)
    _check_floor(r2, "kernel_sigma")
    pref = np.sqrt(p.lam) * np.power(r2, p.gamma / 4.0 + 0.5)
    eye = np.eye(z.shape[-1])
    outer = z[..., :, None] * z[..., None, :] / r2[..., None, None]
    return pref[..., None, None] * (eye - outer)


def projection(z):
    """Orthogonal projection Pi(z) = I - z(x)z/|z|^2 onto the plane normal to z."""
    z, r2 = _with_sq_norm(z)
    _check_floor(r2, "projection")
    eye = np.eye(z.shape[-1])
    return eye - z[..., :, None] * z[..., None, :] / r2[..., None, None]


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


def so3_lift_legendre_moment(l, tau, weighted=True):
    """E[P_l(y0 . R(omega) y0)] for omega = sqrt(tau) g, g standard normal in
    R^3, accepted with probability sin(psi/2) / (psi/2), psi = |omega|
    (plain Gaussian when ``weighted`` is False).

    With n = omega / psi uniform on S^2 and mu = n . y0 uniform on [-1, 1],
    Rodrigues gives y0 . R y0 = 1 - 2 sin^2(psi/2) (1 - mu^2). The inner mu
    average is a polynomial of degree 2l, exact by 24-node Gauss-Legendre
    for l <= 23; psi = sqrt(tau) r is integrated by adaptive quadrature up
    to the first zero of the weight, r = 2 pi / sqrt(tau), or to r = 12,
    past which the Gaussian mass is below 1e-30.
    """
    mu, wmu = np.polynomial.legendre.leggauss(24)
    s = math.sqrt(tau)

    def density(r):
        psi = s * r
        w = math.sin(psi / 2.0) / (psi / 2.0) if weighted and psi > 0 else 1.0
        return r * r * math.exp(-r * r / 2.0) * w

    def moment(r):
        c = 1.0 - 2.0 * math.sin(s * r / 2.0) ** 2 * (1.0 - mu * mu)
        return density(r) * 0.5 * float(np.dot(wmu, eval_legendre(l, c)))

    top = min(12.0, 2.0 * math.pi / s)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
    return integrate.quad(moment, 0.0, top, **opts)[0] / integrate.quad(density, 0.0, top, **opts)[0]


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


def einsum_death_process_probs(ts):
    """The death-process rows of the sampler with the series summed by one
    np.einsum over the full exponential table, as before the BLAS product."""
    q = np.einsum("tk,mk->tm", np.exp(np.multiply.outer(ts, -_DEATH_RATES)), _DEATH_SERIES)
    np.maximum(q, 0.0, out=q)
    total = q.sum(axis=1)
    worst = np.max(np.abs(total - 1.0))
    if worst > 1e-9:
        raise SeriesTruncated(f"death-process series: retained mass is off by {worst:.3g}")
    return q / total[:, None]


def reference_death_process_draws(t, gen, block=2048):
    """Inverse-CDF draws of A_t from the einsum rows, in blocks of ``block``
    times with the sampler's order of draws."""
    u = gen.random(t.size)
    out = np.empty(t.size, dtype=np.int64)
    for lo in range(0, t.size, block):
        blk = slice(lo, lo + block)
        ts, inv = np.unique(t[blk], return_inverse=True)
        cdf = np.cumsum(einsum_death_process_probs(ts), axis=1)
        out[blk] = np.count_nonzero(cdf[inv, :-1] <= u[blk, None], axis=1)
    return out


def direct_mollified_density(v, eps, lo, hi, n_grid, sigmas=6.0):
    """Gaussian KDE on the cell centres of [lo, hi]^d by a plain double loop.

    Each particle adds exp(-|c - v|^2 / 2 eps) / (2 pi eps)^(d/2) / N to every
    in-grid cell c whose index lies, on each axis, among the m = floor(2R) + 1
    cells from first = ceil(x - 1/2 - R), with x = (v - lo) / h and
    R = sigmas sqrt(eps) / h.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n, d = v.shape
    h = (hi - lo) / n_grid
    r = sigmas * math.sqrt(eps) / h
    m = math.floor(2.0 * r) + 1
    out = np.zeros((n_grid,) * d)
    for p in v:
        firsts = [math.ceil((p[a] - lo) / h - 0.5 - r) for a in range(d)]
        ranges = [range(max(c, 0), min(c + m - 1, n_grid - 1) + 1) for c in firsts]
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


def reference_hat_weights(x, grid):
    """CIC weights of the unit hat on cell centers, both indices wrapped by %."""
    g = x / grid.dx - 0.5
    i0 = np.floor(g).astype(np.int64)
    frac = g - i0
    return i0 % grid.n0, (i0 + 1) % grid.n0, 1.0 - frac, frac


def reference_cn_va_step(state, dt, n_iters, grid):
    """Crank-Nicolson Vlasov-Ampere step of n_iters sweeps on the guesses of
    x' and vx' (not on the midpoint velocity alone), with the hat weights
    computed apart for the deposit and the interpolation.

    Returns (positions, velocities, field).
    """
    x0 = state.positions
    vx0 = state.velocities[:, 0]
    e0 = state.field

    def interpolate(field, x):
        i0, i1, w0, w1 = reference_hat_weights(x, grid)
        return w0 * field[i0] + w1 * field[i1]

    def deposit(x, w):
        i0, i1, w0, w1 = reference_hat_weights(x, grid)
        acc = np.bincount(i0, weights=w0 * w, minlength=grid.n0)
        acc += np.bincount(i1, weights=w1 * w, minlength=grid.n0)
        return acc / grid.dx

    vg = vx0 + interpolate(e0, x0) * dt
    xg = x0 + vx0 * dt
    for _ in range(n_iters):
        vmid = 0.5 * (vx0 + vg)
        xmid = (x0 + 0.5 * (xg - x0)) % grid.length
        j = state.charge * deposit(xmid, vmid)
        eg = e0 - dt * (j - float(j.mean()))
        vg = vx0 + interpolate(0.5 * (e0 + eg), xmid) * dt
        xg = x0 + 0.5 * (vx0 + vg) * dt
    v = state.velocities.copy()
    v[:, 0] = vg
    return xg % grid.length, v, eg


def reference_cell_pairs(cell, gen):
    """Random disjoint within-cell pairs and leftover pairs, grouped by a
    stable sort of the int64 cell indices."""
    n = cell.size
    order = gen.permutation(n)
    order = order[np.argsort(cell[order], kind="stable")]
    csort = cell[order]
    same = csort[1:] == csort[:-1]
    starts = np.flatnonzero(np.r_[True, ~same])
    sizes = np.diff(np.r_[starts, n])
    offset = np.arange(n - 1) - np.repeat(starts, sizes)[:-1]
    first = np.flatnonzero(same & (offset % 2 == 0))
    odd = (sizes % 2 == 1) & (sizes >= 3)
    l_starts, l_sizes = starts[odd], sizes[odd]
    coins = gen.random(l_starts.size) < 0.5
    partner_off = gen.integers(0, l_sizes - 1)
    li = order[(l_starts + l_sizes - 1)[coins]]
    lj = order[(l_starts + partner_off)[coins]]
    return order[first], order[first + 1], li, lj


def reference_mollified_density(v, eps, lo, hi, n_grid, block=1 << 19, sigmas=6.0):
    """Blocked separable Gaussian KDE over the windows of
    direct_mollified_density, with the stencil built particle-major,
    (B, m) -> (B, m^2) -> ..., one weighted bincount per block of ``block``
    stencil entries into a grid with a one-cell clipped border.
    Returns the (n_grid,)^d array of values."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n, d = v.shape
    h = (hi - lo) / n_grid
    r = sigmas * np.sqrt(eps) / h
    offs = np.arange(int(2.0 * r) + 1)
    size = n_grid + 2
    strides = size ** np.arange(d - 1, -1, -1)
    acc = np.zeros(size**d)
    step = max(1, block // offs.size**d)
    for s in range(0, n, step):
        vb = v[s:s + step]
        first = np.ceil((vb - lo) / h - 0.5 - r)
        reach = np.all((first <= n_grid - 1) & (first + offs.size - 1 >= 0), axis=1)
        first, vb = first[reach], vb[reach]
        cell = first.astype(np.intp)[:, :, None] + offs
        flat, wgt = np.zeros((len(vb), 1), np.intp), np.ones((len(vb), 1))
        for a in range(d):
            wa = np.exp(-((lo + (cell[:, a] + 0.5) * h - vb[:, a, None]) ** 2) / (2.0 * eps))
            ia = (np.clip(cell[:, a], -1, n_grid) + 1) * strides[a]
            flat = (flat[:, :, None] + ia[:, None, :]).reshape(len(vb), offs.size ** (a + 1))
            wgt = (wgt[:, :, None] * wa[:, None, :]).reshape(flat.shape)
        acc += np.bincount(flat.ravel(), weights=wgt.ravel(), minlength=acc.size)
    inner = acc.reshape((size,) * d)[(slice(1, -1),) * d]
    return inner * ((2.0 * np.pi * eps) ** (-d / 2.0) / n)


def reference_so3_draw(t, gen, max_rounds=64):
    """SO(3)-lift draws omega and sinc(psi/2), psi = |omega|, with every
    round's candidates kept apart."""
    omega = np.empty((t.size, 3))
    todo = np.arange(t.size)
    sq = np.sqrt(t)[:, None]
    for _ in range(max_rounds):
        w = gen.standard_normal((todo.size, 3)) * sq[todo]
        psi = np.sqrt(np.einsum("ij,ij->i", w, w))
        keep = gen.random(todo.size) < np.sinc(psi / (2.0 * np.pi))
        omega[todo[keep]] = w[keep]
        todo = todo[~keep]
        if todo.size == 0:
            break
    assert todo.size == 0, "reference lift hit its round cap"
    return omega, np.sinc(np.sqrt(np.einsum("ij,ij->i", omega, omega)) / (2.0 * np.pi))


def reference_tangent(g, y0):
    """g less its y0 component, taken out twice, in broadcast form."""
    e = g - np.einsum("ij,ij->i", g, y0)[:, None] * y0
    return e - np.einsum("ij,ij->i", e, y0)[:, None] * y0


def reference_tangent_end(y0, b, e):
    """(1 - 2B) y0 + 2 sqrt(B (1 - B)) e / |e|, renormalized."""
    b = b[:, None]
    return unit((1.0 - 2.0 * b) * y0 + 2.0 * np.sqrt(b * (1.0 - b)) * unit(e))


def reference_lift_end(y0, omega, half):
    """End points of the lift draws omega from y0 by the tangent-plane formula,
    with B = sinc^2(psi/2) |omega_perp|^2 / 4 = sin^2(psi/2) sin^2(angle of
    omega to y0), which makes 1 - 2B = y0 . R(omega) y0."""
    e = reference_tangent(omega, y0)
    return reference_tangent_end(y0, (0.5 * half) ** 2 * np.sum(e * e, axis=1), e)


def reference_so3_lift(y0, t, gen, max_rounds=64):
    """SO(3)-lift end points: the reference draws, then the tangent-plane formula."""
    return reference_lift_end(y0, *reference_so3_draw(t, gen, max_rounds))


def reference_rodrigues(omega, psi, half, y):
    """Rodrigues rotation of the rows of y by omega with every per-row scalar
    broadcast over the columns and the norm taken by np.linalg.norm."""
    (o0, o1, o2), (y0, y1, y2) = omega.T, y.T
    s = np.sinc(psi / np.pi)
    out = np.cos(psi)[:, None] * y
    out[:, 0] += s * (o1 * y2 - o2 * y1)
    out[:, 1] += s * (o2 * y0 - o0 * y2)
    out[:, 2] += s * (o0 * y1 - o1 * y0)
    out += (0.5 * half * half * np.einsum("ij,ij->i", omega, y))[:, None] * omega
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


def _reference_sample_s2(y0, t, gen):
    small = t < _MIXTURE_MIN_TAU
    if small.all():
        return reference_so3_lift(y0, t, gen)
    res = np.empty_like(y0)
    big = np.flatnonzero(~small)
    tb, y = t[big], y0[big]
    mix = tb < _uniform_time(3)
    m = np.zeros(tb.size, dtype=np.int64)
    m[mix] = _death_process_draws(tb[mix], gen)
    b = -np.expm1(np.log1p(-gen.random(tb.size)) / (1 + m))
    res[big] = reference_tangent_end(y, b, reference_tangent(gen.standard_normal((tb.size, 3)), y))
    if small.any():
        res[small] = reference_so3_lift(y0[small], t[small], gen)
    return res


def reference_sample_sbm_batch(starts, taus, rng):
    """SBM end points in a fresh array: the circle rotation with both columns
    formed at once, and on S^2 the band split with the reference lift (the
    death-process draws are the solver's own)."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (n,))
    active = taus > 0
    y0, t = starts[active], taus[active]
    gen = rng.generator()
    if dim == 3:
        res = _reference_sample_s2(y0, t, gen)
    else:
        a = np.sqrt(t) * gen.standard_normal(t.size)
        unif = t >= _uniform_time(2)
        if unif.any():
            a[unif] = gen.uniform(0.0, 2.0 * np.pi, int(np.count_nonzero(unif)))
        c, sn = np.cos(a), np.sin(a)
        res = np.empty_like(y0)
        res[:, 0] = c * y0[:, 0] - sn * y0[:, 1]
        res[:, 1] = sn * y0[:, 0] + c * y0[:, 1]
    out = starts.copy()
    out[active] = res
    return out


def reference_sbm_pair_update(v, i, j, kernel, dt, rng):
    """SBM pair collisions of (i[k], j[k]) in v, in place, with fresh arrays
    for z, s, the sampler's end points and both halves, (m, 1) broadcasts
    for |z|, and |z| and the time scale 4 lam |z|^gamma both from one
    np.sum(z * z, axis=-1)."""
    if kernel.lam == 0:
        return
    vi, vj = v[i], v[j]
    z = vi - vj
    s = vi + vj
    r2 = np.sum(z * z, axis=-1)
    r = np.sqrt(r2)
    good = r >= Z_FLOOR
    i, j, z, s, r, r2 = i[good], j[good], z[good], s[good], r[good], r2[good]
    if kernel.gamma == 0:
        k = np.full(r.shape, 4.0 * kernel.lam)
    else:
        k = 4.0 * kernel.lam * np.power(r2, kernel.gamma / 2.0)
    zp = reference_sample_sbm_batch(z / r[:, None], k * dt, rng)
    zp *= r[:, None]
    v[i] = (s + zp) / 2.0
    v[j] = (s - zp) / 2.0


def center_mesh(grid):
    """Stacked meshgrid of the cell centers of a DensityGrid, shape (n, ..., n, dim)."""
    axes = np.meshgrid(*([grid.centers()] * grid.dim), indexing="ij")
    return np.stack(axes, axis=-1)


def bkw_mollified_density(dim, t, eps, v):
    """BKW density convolved with the Gaussian mollifier of variance eps.

    The convolution stays in the quadratic-times-Gaussian family: the scale
    becomes K + eps while the quadratic coefficient keeps its 1-K numerator.
    It is the smoothing-consistent reference of a KDE of BKW particles.
    """
    k = float(bkw_scale(dim, t))
    kt = k + eps
    v = np.asarray(v, dtype=float)
    r2 = np.sum(v * v, axis=-1)
    c2 = (1.0 - k) / (2.0 * kt * kt)
    c0 = 1.0 - dim * kt * c2
    return (c0 + c2 * r2) * np.exp(-r2 / (2.0 * kt)) / (2.0 * np.pi * kt) ** (dim / 2.0)


def reference_save_grid_csv(grid, path):
    """The CSV grid writer that formats one row at a time."""
    mesh = center_mesh(grid).reshape(-1, grid.dim)
    vals = grid.values.reshape(-1)
    cols = [f"v{a}" for a in range(grid.dim)]
    with open(path, "w") as fh:
        fh.write(f"# dim={grid.dim} lo={grid.lo!r} hi={grid.hi!r} n_grid={grid.n_grid}\n")
        fh.write(",".join(cols + ["value"]) + "\n")
        for row, val in zip(mesh, vals):
            fh.write(",".join(f"{x:.17g}" for x in row) + f",{val:.17g}\n")


def bimaxwellian_density(v):
    """Anisotropic 2D initial condition: (0.4, 1.6)/(4 pi) Gaussian mixture."""
    v = np.asarray(v, dtype=float)
    d1 = np.sum((v - BIMAX_U1) ** 2, axis=-1)
    d2 = np.sum((v - BIMAX_U2) ** 2, axis=-1)
    return (0.4 * np.exp(-d1 / 2.0) + 1.6 * np.exp(-d2 / 2.0)) / (4.0 * np.pi)


def landau_damping_density(x, v, alpha):
    """Perturbed Maxwellian f(x, v) = (1 + alpha cos(x/2)) N(0, I_2) on [0, 4 pi]."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r2 = np.sum(v * v, axis=-1)
    return (1.0 + alpha * np.cos(DAMPING_WAVENUMBER * x)) / (2.0 * np.pi) * np.exp(-r2 / 2.0)


def _reference_sbm_step(ens, pairing, cfg, step):
    v = ens.velocities.copy()
    reference_sbm_pair_update(v, *pairing, cfg.kernel, cfg.dt,
                              RngStream(cfg.seed, step=step, domain=DOMAIN_COLLISION))
    return ParticleEnsemble(v)


def reference_em_pair_update(v, i, j, kernel, dt, rng):
    """Euler-Maruyama window of the pairs (i[k], j[k]) of v, in place, in the
    matrix form Dv = K(z) dt + sigma(z) dW added to v_i and taken from v_j,
    with dW drawn for the pairs with |z| >= Z_FLOOR only, as one draw."""
    if kernel.lam == 0:
        return
    z = v[i] - v[j]
    good = np.linalg.norm(z, axis=1) >= Z_FLOOR
    zg = z[good]
    dw = rng.generator().standard_normal(zg.shape) * math.sqrt(dt)
    dv = kernel_K(zg, kernel) * dt
    dv += np.einsum("nab,nb->na", kernel_sigma(zg, kernel), dw)
    v[i[good]] += dv
    v[j[good]] -= dv


def _reference_em_step(ens, pairing, cfg, step):
    v = ens.velocities.copy()
    reference_em_pair_update(v, *pairing, cfg.kernel, cfg.dt,
                             RngStream(cfg.seed, step=step, domain=DOMAIN_COLLISION))
    return ParticleEnsemble(v)


def reference_simulate_homogeneous(cfg, init, t_end, checkpoints, plan=None):
    """Homogeneous run in which every window copies the velocities into a new
    ParticleEnsemble; returns checkpoints that all keep their snapshot."""
    plan = plan or DiagnosticsPlan()
    n_steps = step_count(t_end, cfg.dt)
    marks = {step_count(t, cfg.dt): t for t in checkpoints}
    stepper = _reference_sbm_step if cfg.scheme == SBM else _reference_em_step
    out = []
    ens = ParticleEnsemble(init.velocities.copy())
    if 0 in marks:
        out.append(Checkpoint(marks[0], ens, _record(ens.velocities, marks[0], plan)))
    for step in range(1, n_steps + 1):
        pairing = random_pairing(ens.n, RngStream(cfg.seed, step=step, domain=DOMAIN_PAIRING))
        ens = stepper(ens, pairing, cfg, step)
        if step in marks:
            out.append(Checkpoint(marks[step], ens, _record(ens.velocities, marks[step], plan)))
    return out
