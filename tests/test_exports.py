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
