"""Structure-preserving stochastic particle solver for the Landau equation."""

__version__ = "0.1.0"

from .collision import (EM, SBM, Checkpoint, DiagnosticsPlan, ParticleEnsemble,
                        SchemeConfig, collision_step, em_pair_update, random_pairing,
                        sbm_pair_update, simulate_homogeneous)
from .diagnostics import (DensityGrid, DiagnosticsRecord, entropy, mollified_density,
                          moments, relative_l2_error)
from .kernels import KernelParams, Z_FLOOR, kernel_A, kernel_K, kernel_sigma, projection, time_scale_k
from .sphere import SamplerKind, default_sampler, sample_sbm_batch
from .streams import RngStream
from .vpl import (PicGrid, VplConfig, VplState, cell_collisions, cn_va_step,
                  deposit_charge, deposit_current, hat_weights, interpolate_field,
                  simulate_vpl, solve_poisson, vpl_diagnostics)
