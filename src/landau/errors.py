"""Exception types shared across the package."""


class LandauError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateRelativeVelocity(LandauError):
    """A kernel evaluation was requested at |z| below the degeneracy floor."""


class OddParticleCount(LandauError):
    """The homogeneous stepper requires an even number of particles."""


class InvalidCheckpoint(LandauError):
    """A checkpoint time is not a multiple of the collision window."""


class InvalidSamplerForDim(LandauError):
    """The requested sphere sampler does not support this dimension."""


class InvalidTime(LandauError):
    """A BKW evaluation time lies below the admissible minimum."""


class EmptyEnsemble(LandauError):
    """An operation received an ensemble with no particles."""


class GridMismatch(LandauError):
    """Two density grids are not congruent."""


class NonFiniteState(LandauError):
    """A simulation state picked up non-finite entries."""


class FixedPointNotConverged(LandauError):
    """An implicit iteration hit its sweep cap with the residual above tolerance."""


class ConfigError(LandauError):
    """An experiment configuration is invalid; the message names the field."""


class FormatError(LandauError):
    """A density-grid file is malformed; the message locates the defect."""
