"""The benchmark's workloads and run protocol, as plain data.

A run of one workload repeats whole rounds until its time is up. Every round
is a fresh Python process (perfbench/worker.py) that imports the solver,
samples the seed's inputs, runs the same fixed simulation and checks it, so
the number of operations per round never depends on the seed or the clock.
"""

WORKLOADS = {
    # 2D Maxwell BKW: the collision step dominates, KDE only at start and end.
    "bkw2d": dict(kind="homogeneous", dim=2, lam=1.0 / 8.0, gamma=0.0, n=100_000,
                  dt=0.1, t_end=10.0, checkpoints=[0.0, 10.0], density=True),
    # 3D Maxwell BKW: 64^3 KDE every 20 steps dominates, single-tau sphere sampling.
    "bkw3d": dict(kind="homogeneous", dim=3, lam=1.0 / 12.0, gamma=0.0, n=50_000,
                  dt=0.1, t_end=2.0, checkpoints=[0.0, 2.0], density=True),
    # 3D gamma=-3 from BKW-3D data: per-pair tau over ~6 decades, moments only.
    "coulomb3d": dict(kind="homogeneous", dim=3, lam=1.0 / 12.0, gamma=-3.0, n=20_000,
                      dt=0.1, t_end=1.0, checkpoints=[0.0, 0.5, 1.0], density=False),
    # 1D-2V PIC Landau damping: cell collisions and Crank-Nicolson sweeps only.
    "vpl-damping": dict(kind="vpl", n=100_000, dt=0.02, t_end=1.0, alpha=0.1, lam=1.0,
                        gamma=-2.0, n_cells=128, n_iters=5),
}

# The shared host's speed drifts by 10-60% over minutes, moving every wall
# time of a run together. setup_s and run_s are therefore wall seconds scaled
# by CAL_REF_S / calibration_s, where calibration_s is the time of a fixed
# numpy kernel (worker.calibration_s) taken right before and right after the
# round's run: seconds at the speed at which that kernel takes CAL_REF_S, the
# median it took on the reference machine (README, Reference figures).
CAL_REF_S = 0.19

# Mollifier variance and velocity grid of the density diagnostic (the CLI defaults).
EPS = 0.01
GRID_EXTENT = 8.0
GRID_CELLS = {2: 128, 3: 64}

# The initial charge density of vpl-damping is compared with its closed form
# on this many cells: enough for its error to average over many independent
# cells, so that it varies little from seed to seed.
FINE_CELLS = 4096
