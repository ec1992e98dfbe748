"""Finite-element simulation kit for the coupled Hasegawa-Mima system.

The drift-wave equation is split into a hyperbolic transport equation for
w and the elliptic constraint w = u - lap(u), discretized with periodic P1
elements and implicit Euler.  Each timestep's nonlinear system is solved by
Newton, chord, or modified Newton iterations, or by the cheap semilinear
one-solve scheme.
"""

from .assembly import (
    FemOperators,
    assemble_B,
    assemble_mass,
    assemble_operators,
    assemble_R,
    assemble_S,
    assemble_stiffness,
)
from .errors import (
    ConfigurationError,
    EvaluationError,
    InvalidDomainError,
    InvalidPartitionError,
    NonFiniteError,
    NotSpdError,
    OracleSizeError,
    ShapeError,
    SingularMatrixError,
)
from .grid import DofGrid, build_grid, dof_of_node
from .integrate import (
    AprioriReport,
    Diagnostics,
    RunResult,
    apriori_check,
    init_w0,
    run,
)
from .problems import ProblemSpec, preset, sample_nodes
from .solvers import (
    SolverConfig,
    State,
    StepReport,
    jacobian,
    residual,
    step,
    step_chord,
    step_modified,
    step_newton,
    step_semilinear,
    tau_bound_report,
)
from .sparse import CsrMatrix, block2x2, m_norm, matvec

__version__ = "0.1.0"
