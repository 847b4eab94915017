"""Landau collision kernel A, drift K, diffusion factor sigma and friends.

All functions broadcast over leading axes: a relative velocity argument of
shape (..., d) yields (..., d, d) for matrices and (...,) for scalars.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRelativeVelocity

# Relative velocities below this magnitude are treated as degenerate;
# collision steps skip such pairs unchanged instead of evaluating the
# (singular, for gamma<0) kernel.
Z_FLOOR = 1e-14


@dataclass(frozen=True)
class KernelParams:
    """Collision strength, velocity exponent and dimension of the kernel."""

    lam: float
    gamma: float
    dim: int

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"collision strength must be >= 0, got {self.lam}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")


def _sq_norm(z):
    z = np.asarray(z, dtype=float)
    if z.shape[-1] not in (2, 3):
        raise ValueError(f"expected velocity vectors of length 2 or 3, got {z.shape}")
    # a sum of columns, (a + b) + c: np.sum(z * z, axis=-1)'s order, without an (..., d) square
    r2 = z[..., 0] * z[..., 0]
    for a in range(1, z.shape[-1]):
        r2 += z[..., a] * z[..., a]
    return z, r2


def _check_floor(r2, what):
    if np.any(r2 < Z_FLOOR * Z_FLOOR):
        raise DegenerateRelativeVelocity(f"|z| < {Z_FLOOR} in {what}")


def kernel_A(z, p: KernelParams):
    """Collision kernel A(z) = lam |z|^gamma (|z|^2 I - z (x) z)."""
    z, r2 = _sq_norm(z)
    if p.gamma < 0:
        _check_floor(r2, "kernel_A")
    pref = p.lam * np.power(r2, p.gamma / 2.0)
    eye = np.eye(z.shape[-1])
    outer = z[..., :, None] * z[..., None, :]
    return pref[..., None, None] * (r2[..., None, None] * eye - outer)


def kernel_K(z, p: KernelParams):
    """Drift K(z) = div A = (1 - d) lam |z|^gamma z."""
    z, r2 = _sq_norm(z)
    if p.gamma < 0:
        _check_floor(r2, "kernel_K")
    pref = (1 - p.dim) * p.lam * np.power(r2, p.gamma / 2.0)
    return pref[..., None] * z


def kernel_sigma(z, p: KernelParams):
    """Diffusion factor sigma(z) = sqrt(lam) |z|^(gamma/2+1) (I - z(x)z/|z|^2).

    Satisfies sigma(z) sigma(z)^T = kernel_A(z) and sigma(z) z = 0.
    """
    z, r2 = _sq_norm(z)
    _check_floor(r2, "kernel_sigma")
    pref = np.sqrt(p.lam) * np.power(r2, p.gamma / 4.0 + 0.5)
    eye = np.eye(z.shape[-1])
    outer = z[..., :, None] * z[..., None, :] / r2[..., None, None]
    return pref[..., None, None] * (eye - outer)


def projection(z):
    """Orthogonal projection Pi(z) = I - z(x)z/|z|^2 onto the plane normal to z."""
    z, r2 = _sq_norm(z)
    _check_floor(r2, "projection")
    eye = np.eye(z.shape[-1])
    return eye - z[..., :, None] * z[..., None, :] / r2[..., None, None]


def time_scale_k(z, p: KernelParams):
    """Time-scaling coefficient k = 4 lam |z|^gamma of the rescaled sphere diffusion."""
    if p.gamma == 0 and np.shape(z)[-1] in (2, 3):  # the constant 4 lam, without a pass over z
        return np.full(np.shape(z)[:-1], 4.0 * p.lam)
    z, r2 = _sq_norm(z)
    if p.gamma < 0:
        _check_floor(r2, "time_scale_k")
    return 4.0 * p.lam * np.power(r2, p.gamma / 2.0)
