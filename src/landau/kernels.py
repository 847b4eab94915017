"""Kernel parameters and the sphere time-scaling coefficient of a pair.

The pair updates need only k(z) = 4 lam |z|^gamma, which broadcasts over
leading axes: a relative velocity argument of shape (..., d) yields (...,).
The matrix kernel A, its drift K and its factor sigma are test oracles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRelativeVelocity

# Relative velocities below this magnitude are treated as degenerate;
# collision steps skip such pairs unchanged instead of evaluating the
# (singular, for gamma<0) kernel.
Z_FLOOR = 1e-14
# The smallest double whose root reaches Z_FLOOR (one below Z_FLOOR**2):
# |z| < Z_FLOOR exactly when |z|^2 < _R2_FLOOR, so the kernels reject just
# the pairs that a pair block skips by sqrt(|z|^2) < Z_FLOOR.
_R2_FLOOR = float(np.nextafter(Z_FLOOR * Z_FLOOR, 0.0))


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
    if np.any(r2 < _R2_FLOOR):
        raise DegenerateRelativeVelocity(f"|z| < {Z_FLOOR} in {what}")


def time_scale_k(z, p: KernelParams):
    """Time-scaling coefficient k = 4 lam |z|^gamma of the rescaled sphere diffusion."""
    if p.gamma == 0 and np.shape(z)[-1] in (2, 3):  # the constant 4 lam, without a pass over z
        return np.full(np.shape(z)[:-1], 4.0 * p.lam)
    z, r2 = _sq_norm(z)
    if p.gamma < 0:
        _check_floor(r2, "time_scale_k")
    return 4.0 * p.lam * np.power(r2, p.gamma / 2.0)
