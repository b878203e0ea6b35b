"""noetherdyn: a numerical laboratory for the symmetry content of learning rules.

Measures kinetic asymmetry and charge dynamics along optimizer
trajectories and verifies, at desk scale, that the implicit adaptive
learning rate induced by scale symmetry matches the explicit adaptive
factor of the recursive gradient-norm rule.
"""

import os

# Every matrix here is at most 10x10, so BLAS worker threads only add
# wake-up latency: on a loaded host that turns each scipy expm call into
# milliseconds.  Set before numpy first loads; a value the caller set wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .closedform import (
    GradNormHistory,
    bn_rmsprop_map,
    g_schedule,
    r2_schedule,
    steady_angular_speed,
    steady_radius,
)
from .continuous import (
    SecondOrderSystem,
    Trajectory,
    eom_bregman,
    eom_bregman_euclidean,
    eom_modified,
    eom_noether_radial,
    integrate_rk4,
    rk4_solve,
)
from .discrete import (
    OptimizerState,
    centered_velocities,
    simulate,
    step_gd_momentum_wd,
    step_nesterov,
    step_rmsprop,
)
from .errors import DomainError, IntegrationError, SingularLossError
from .geometry import (
    BregmanSchedule,
    Euclidean,
    Metric,
    NegativeEntropy,
    QuadraticForm,
    bregman_divergence,
    kinetic_energy,
    natural_schedule,
    nesterov_schedule,
)
from .losses import (
    Loss,
    Quadratic,
    RadialWell,
    RayleighQuotient,
    TwoLayerChain,
)
from .symmetry import (
    NoetherObservables,
    Rescale,
    Rotation,
    Scale,
    SymmetryTransform,
    Translation,
    delta_h,
    kinetic_asymmetry,
    noether_residual,
    table2_report,
)

__version__ = "0.1.0"
