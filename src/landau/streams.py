"""Counter-based random streams.

Every random draw in the package comes from an RngStream, a Philox generator
keyed on a (seed, step, stream) triple. Distinct triples give statistically
independent streams and the same triple reproduces the same sequence no
matter in which order streams are instantiated, which is what makes runs
bitwise reproducible and safe to parallelize.
"""

from dataclasses import dataclass

import numpy as np

# Consumers key their draws with a domain tag so that e.g. the pairing
# shuffle and the collision noise of the same step never share a stream.
DOMAIN_GENERIC = 0
DOMAIN_INIT = 1
DOMAIN_PAIRING = 2
DOMAIN_COLLISION = 3
DOMAIN_CELLS = 4

_STEP_BITS = 28
_STREAM_BITS = 28


@dataclass(frozen=True)
class RngStream:
    """A reproducible, order-independent random stream."""

    seed: int
    step: int = 0
    stream: int = 0
    domain: int = DOMAIN_GENERIC

    def generator(self) -> np.random.Generator:
        for name, bits in (("seed", 64), ("step", _STEP_BITS), ("stream", _STREAM_BITS),
                           ("domain", 8)):
            if not 0 <= getattr(self, name) < (1 << bits):
                raise ValueError(f"{name} {getattr(self, name)} out of range [0, 2^{bits})")
        word = (self.domain << (_STEP_BITS + _STREAM_BITS)) | (self.step << _STREAM_BITS) | self.stream
        key = np.array([self.seed, word], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
