"""Splitting solvers for monotone variational inclusions ``0 in A(u) + B(u)``.

The package centers on an inertial forward-backward contraction method
whose Armijo-backtracked step size removes every Lipschitz or cocoercivity
requirement on the single-valued operator, together with the classical
splitting baselines, reproducible benchmark problem generators and a
trace-everything benchmark harness.
"""

from .spaces import InnerProductSpace, euclidean, trapezoid_unit_interval
from .operators import (
    ForwardOperator,
    ForwardSplit,
    ResolventOperator,
    soft_threshold,
    quartic_fidelity_gradient,
    lpa_gradient,
    log_operator,
    zero_forward,
    identity_forward,
    cubic_forward,
    log_forward,
    quartic_forward,
    lpa_forward,
    linear_forward,
    identity_resolvent,
    l1_resolvent,
    box_resolvent,
    shifted_l1_resolvent,
)
from .linesearch import (
    LineSearchParams,
    LineSearchOutcome,
    BacktrackExhausted,
    NonFiniteIterate,
    backtrack,
)
from .solver import (
    InertiaSchedule,
    StoppingRule,
    SolverConfig,
    TerminalStatus,
    IterationRecord,
    IterationTrace,
    StepOutcome,
    DivergenceError,
    InsufficientTrace,
    analysis_constants,
    contraction_update,
    solve,
    rate_estimate,
)
from .baselines import (
    BaselineConfig,
    run_baseline,
)
from .problems import (
    Problem,
    gen_cs,
    gen_lpa,
    gen_l2,
    table_initials,
    assemble,
    cubic_problem,
    strongly_monotone_problem,
    planted,
)

__version__ = "0.1.0"
