"""Bistochastic quantum channel toolkit.

Builds the depolarizing, phase damping and Weyl-covariant mixture channels,
computes entropy functionals, optimizes output entropy over pure states, and
numerically verifies the decomposition, monotonicity and additivity claims
about these channels at small Hilbert-space dimension.
"""

__version__ = "0.1.0"

from .channels import (
    DepolarizingParams,
    KrausChannel,
    PhaseDampingParams,
    choi_distance,
    depolarizing,
    eq9_decomposition,
    eq12_multiplier,
    identity_channel,
    kraus_channel,
    pauli_qubit,
    phase_damping,
    schur_matrix,
    structural_checks,
)
from .entropy import (
    holevo_chi,
    subnormalized_entropy,
)
from .errors import (
    CapacityError,
    NotCompletelyPositiveError,
    NotPositiveError,
    NumericalError,
    QchanError,
    StructureError,
    UsageError,
    ValidationError,
)
from .linalg import (
    HermitianEigen,
    hermitian_eig,
    partial_trace,
)
from .optimize import (
    OptimizationResult,
    entropy_gradient,
    max_output_purity,
    min_output_entropy,
)
from .states import (
    DensityMatrix,
    PureState,
    StateEnsemble,
    density_from_matrix,
    pure_to_density,
)
from .verify import (
    check_additivity,
    check_eq3,
    check_eq5,
    check_eq9,
    check_eq12,
    check_multiplicativity,
    entropy_increase_suite,
    gradient_suite,
    monotonicity_suite,
    verify_prop1,
    verify_prop2,
    verify_prop3,
    verify_prop4,
    verify_theorem,
)
from .weyl import (
    SubgroupFamily,
    WeylSystem,
    all_order_l_subgroups,
    covering_counts,
    diagonal_subgroup,
    fixed_point_resolution,
    phase_subgroup,
    weyl_system,
)
