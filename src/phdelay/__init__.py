"""Passivity certificates for linear port-Hamiltonian systems with delay.

The package revolves around one algebraic object: for a delay
port-Hamiltonian system

    H x'(t) = (J - R) x(t) - Z x(t - tau) + G u(t),      y = G^T x(t),

a symmetric positive semidefinite matrix Theta certifies delay-independent
passivity exactly when the block matrix

    [[R - Theta, Z/2], [Z^T/2, Theta]]

is positive semidefinite.  Everything else here either produces such a
Theta (``construct_theta``), checks one (``certify_delay_ph``), transports
the condition to general coordinates as the block KYP test
(``kyp_delay_check``), preserves it under interconnection and delayed
feedback (``interconnect``, ``close_delayed_feedback``), or observes it
numerically along trajectories (``simulate_delay_ph``,
``monitor_dissipation``).
"""

from .certificates import CERTIFIED, INCONCLUSIVE, REFUTED, Certificate
from .certify import (
    AlphaInterval,
    NecessaryConditions,
    ScalarThetaInterval,
    ThetaConstruction,
    certify_delay_ph,
    check_necessary,
    construct_theta,
    exists_certifying_theta_grid,
    kyp_delay_check,
    ph_condition_matrix,
    scalar_theta_interval,
)
from .composition import (
    DISSIPATIVE,
    GENERAL,
    POWER_CONSERVING,
    FeedbackConditions,
    certify_interconnection,
    check_feedback_conditions,
    classify_feedback,
    close_delayed_feedback,
    feedback_gain_bound,
    interconnect,
)
from .linalg import (
    DEFAULT_TOL,
    PsdReport,
    Tolerance,
    image_basis,
    is_psd,
    kernel_basis,
    numerical_rank,
    skew_part,
    spectral_norm,
    sym_part,
    whitening_basis,
)
from .simulation import (
    BlowUpError,
    EnergyRecord,
    Trajectory,
    evaluate_hamiltonian,
    export_trajectory_csv,
    hamiltonian_series,
    integrate_dde,
    monitor_dissipation,
    simulate_delay_ph,
)
from .standard import (
    MINIMAL,
    NOT_CONTROLLABLE,
    NOT_OBSERVABLE,
    SigmaDecomposition,
    StandardPHCertificate,
    certify_ph,
    check_minimality,
    hamiltonian,
    kyp_matrix,
    weighted_system_matrix,
)
from .systems import (
    DelayPHSystem,
    GeneralDelaySystem,
    HistoryFunction,
    OutputMismatchError,
    StandardLTISystem,
    StandardPHSystem,
    SystemFormatError,
    SystemValidationError,
    delay_ph_to_general,
    general_to_delay_ph,
    read_system,
    save_system,
    validate,
    write_system,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaInterval",
    "BlowUpError",
    "CERTIFIED",
    "Certificate",
    "DEFAULT_TOL",
    "DISSIPATIVE",
    "DelayPHSystem",
    "EnergyRecord",
    "FeedbackConditions",
    "GENERAL",
    "GeneralDelaySystem",
    "HistoryFunction",
    "INCONCLUSIVE",
    "MINIMAL",
    "NOT_CONTROLLABLE",
    "NOT_OBSERVABLE",
    "NecessaryConditions",
    "OutputMismatchError",
    "POWER_CONSERVING",
    "PsdReport",
    "REFUTED",
    "ScalarThetaInterval",
    "SigmaDecomposition",
    "StandardLTISystem",
    "StandardPHCertificate",
    "StandardPHSystem",
    "SystemFormatError",
    "SystemValidationError",
    "ThetaConstruction",
    "Tolerance",
    "Trajectory",
    "certify_delay_ph",
    "certify_interconnection",
    "certify_ph",
    "check_feedback_conditions",
    "check_minimality",
    "check_necessary",
    "classify_feedback",
    "close_delayed_feedback",
    "construct_theta",
    "delay_ph_to_general",
    "evaluate_hamiltonian",
    "exists_certifying_theta_grid",
    "export_trajectory_csv",
    "feedback_gain_bound",
    "general_to_delay_ph",
    "hamiltonian",
    "hamiltonian_series",
    "image_basis",
    "integrate_dde",
    "interconnect",
    "is_psd",
    "kernel_basis",
    "kyp_delay_check",
    "kyp_matrix",
    "monitor_dissipation",
    "numerical_rank",
    "ph_condition_matrix",
    "read_system",
    "save_system",
    "scalar_theta_interval",
    "simulate_delay_ph",
    "skew_part",
    "spectral_norm",
    "sym_part",
    "validate",
    "weighted_system_matrix",
    "whitening_basis",
    "write_system",
]
