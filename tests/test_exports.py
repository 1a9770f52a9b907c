import importlib
import pathlib

import pytest

import phdelay

#: the names the command line, the demos, the README and the benchmark use,
#: SystemValidationError, and the strings classify_feedback and
#: check_minimality return; everything else lives in its submodule
TOP_LEVEL = {
    "BlowUpError", "CERTIFIED", "Certificate", "DISSIPATIVE", "DelayPHSystem",
    "GENERAL", "GeneralDelaySystem", "HistoryFunction", "INCONCLUSIVE",
    "MINIMAL", "NOT_CONTROLLABLE", "NOT_OBSERVABLE", "POWER_CONSERVING",
    "REFUTED", "StandardLTISystem", "StandardPHSystem", "SystemFormatError",
    "SystemValidationError", "Tolerance", "certify_delay_ph",
    "certify_interconnection", "certify_ph", "check_feedback_conditions",
    "check_minimality", "check_necessary", "classify_feedback",
    "close_delayed_feedback", "construct_theta", "delay_ph_to_general",
    "exists_certifying_theta_grid", "export_trajectory_csv",
    "feedback_gain_bound", "hamiltonian_series", "integrate_dde",
    "interconnect", "is_psd", "ph_condition_matrix", "read_system",
    "save_system", "scalar_theta_interval", "simulate_delay_ph", "validate",
    "write_system",
}


def test_every_export_is_bound_once():
    names = phdelay.__all__
    assert len(names) == len(set(names))
    unbound = [name for name in names if not hasattr(phdelay, name)]
    assert unbound == []


def test_namespace_is_exactly_the_top_level_set():
    assert len(TOP_LEVEL) == 43
    assert set(phdelay.__all__) == TOP_LEVEL


#: each submodule's public names; a name added to or removed from one of
#: them fails here until it is declared
SUBMODULES = {
    "certificates": {"CERTIFIED", "Certificate", "INCONCLUSIVE", "REFUTED"},
    "certify": {
        "AlphaInterval", "NecessaryConditions", "ScalarThetaInterval",
        "ThetaConstruction", "certify_delay_ph", "check_necessary",
        "construct_theta", "exists_certifying_theta_grid",
        "ph_condition_matrix", "scalar_theta_interval",
    },
    "cli": {"main"},
    "composition": {
        "DISSIPATIVE", "FeedbackConditions", "GENERAL", "POWER_CONSERVING",
        "certify_interconnection", "check_feedback_conditions",
        "classify_feedback", "close_delayed_feedback", "feedback_gain_bound",
        "interconnect",
    },
    "linalg": {
        "DEFAULT_TOL", "PsdReport", "Tolerance", "as_matrix", "is_psd",
        "numerical_rank", "output_residual", "require_symmetric", "skew_part",
        "spectral_norm", "sym_part",
    },
    "simulation": {
        "BlowUpError", "EnergyRecord", "Trajectory", "export_trajectory_csv",
        "hamiltonian_series", "integrate_dde", "monitor_dissipation",
        "simulate_delay_ph",
    },
    "standard": {
        "MINIMAL", "NOT_CONTROLLABLE", "NOT_OBSERVABLE", "SigmaDecomposition",
        "StandardPHCertificate", "certify_ph", "check_minimality",
        "weighted_system_matrix",
    },
    "systems": {
        "DelayPHSystem", "GeneralDelaySystem", "HistoryFunction",
        "StandardLTISystem", "StandardPHSystem", "SystemFormatError",
        "SystemValidationError", "delay_ph_to_general", "read_system",
        "save_system", "validate", "write_system",
    },
}


@pytest.mark.parametrize("name", sorted(SUBMODULES))
def test_submodule_namespace_is_exactly_its_set(name):
    module = importlib.import_module(f"phdelay.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == SUBMODULES[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_submodule_is_pinned():
    modules = {p.stem for p in pathlib.Path(phdelay.__file__).parent.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(SUBMODULES)
