"""Kernel parameters and the sphere time-scaling coefficient of a pair.

The pair updates need only k(z) = 4 lam |z|^gamma, from the squared norms
that a pair block computes once per pair: r2 = |z|^2 of shape (...,) yields
(...,). The matrix kernel A, its drift K and its factor sigma are test oracles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRelativeVelocity

# Relative velocities below this magnitude are treated as degenerate;
# collision steps skip such pairs unchanged instead of evaluating the
# (singular, for gamma<0) kernel.
Z_FLOOR = 1e-14
# The smallest double whose root reaches Z_FLOOR (one below Z_FLOOR**2):
# |z| < Z_FLOOR exactly when |z|^2 < _R2_FLOOR. A pair block skips by this
# |z|^2 and hands it to time_scale_k, so the kernel rejects no pair it keeps.
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
    # a sum of columns, (a + b) + c: np.sum(z * z, axis=-1)'s order, without an (..., d) square
    r2 = z[..., 0] * z[..., 0]
    for a in range(1, z.shape[-1]):
        r2 += z[..., a] * z[..., a]
    return r2


def _check_floor(r2, what):
    if np.any(r2 < _R2_FLOOR):
        raise DegenerateRelativeVelocity(f"|z| < {Z_FLOOR} in {what}")


def time_scale_k(r2, p: KernelParams):
    """Time-scaling coefficient k = 4 lam |z|^gamma of the sphere diffusion, from r2 = |z|^2."""
    if p.gamma == 0:  # the constant 4 lam, without a pass over r2
        return np.full(np.shape(r2), 4.0 * p.lam)
    if p.gamma < 0:
        _check_floor(r2, "time_scale_k")
    return 4.0 * p.lam * np.power(r2, p.gamma / 2.0)
