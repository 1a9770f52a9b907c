"""Passivity certificates for linear port-Hamiltonian systems with delay.

The package revolves around one algebraic object: for a delay
port-Hamiltonian system

    H x'(t) = (J - R) x(t) - Z x(t - tau) + G u(t),      y = G^T x(t),

a symmetric positive semidefinite matrix Theta certifies delay-independent
passivity exactly when the block matrix

    [[R - Theta, Z/2], [Z^T/2, Theta]]

is positive semidefinite.  Everything else here either produces such a
Theta (``construct_theta``), checks one (``certify_delay_ph``), preserves
it under interconnection and delayed feedback (``interconnect``,
``close_delayed_feedback``), or observes it numerically along trajectories
(``simulate_delay_ph``, ``simulation.monitor_dissipation``).

The top-level namespace holds what the command line, the demos and the
README use; every other public name lives in its submodule.
"""

from .certificates import CERTIFIED, INCONCLUSIVE, REFUTED, Certificate
from .certify import (
    certify_delay_ph,
    check_necessary,
    construct_theta,
    exists_certifying_theta_grid,
    ph_condition_matrix,
    scalar_theta_interval,
)
from .composition import (
    DISSIPATIVE,
    GENERAL,
    POWER_CONSERVING,
    certify_interconnection,
    check_feedback_conditions,
    classify_feedback,
    close_delayed_feedback,
    feedback_gain_bound,
    interconnect,
)
from .linalg import Tolerance, is_psd
from .simulation import (
    BlowUpError,
    export_trajectory_csv,
    hamiltonian_series,
    integrate_dde,
    simulate_delay_ph,
)
from .standard import (
    MINIMAL,
    NOT_CONTROLLABLE,
    NOT_OBSERVABLE,
    certify_ph,
    check_minimality,
)
from .systems import (
    DelayPHSystem,
    GeneralDelaySystem,
    HistoryFunction,
    StandardLTISystem,
    StandardPHSystem,
    SystemFormatError,
    SystemValidationError,
    delay_ph_to_general,
    read_system,
    save_system,
    validate,
    write_system,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CERTIFIED",
    "Certificate",
    "DISSIPATIVE",
    "DelayPHSystem",
    "GENERAL",
    "GeneralDelaySystem",
    "HistoryFunction",
    "INCONCLUSIVE",
    "MINIMAL",
    "NOT_CONTROLLABLE",
    "NOT_OBSERVABLE",
    "POWER_CONSERVING",
    "REFUTED",
    "StandardLTISystem",
    "StandardPHSystem",
    "SystemFormatError",
    "SystemValidationError",
    "Tolerance",
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
    "exists_certifying_theta_grid",
    "export_trajectory_csv",
    "feedback_gain_bound",
    "hamiltonian_series",
    "integrate_dde",
    "interconnect",
    "is_psd",
    "ph_condition_matrix",
    "read_system",
    "save_system",
    "scalar_theta_interval",
    "simulate_delay_ph",
    "validate",
    "write_system",
]
