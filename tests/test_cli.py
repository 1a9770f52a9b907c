import contextlib
import hashlib
import io
import json
import math
import pathlib
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phdelay import (
    DelayPHSystem,
    HistoryFunction,
    certify_interconnection,
    check_feedback_conditions,
    feedback_gain_bound,
    hamiltonian_series,
    read_system,
    simulate_delay_ph,
    validate,
    write_system,
)
from phdelay.cli import main
from helpers import decompositions

DATA = pathlib.Path(__file__).parent / "data"


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_doc(a0=2.0, a1=1.0, theta=None, tau=1.0):
    doc = {"kind": "delay_ph", "n": 1, "m": 1, "tau": tau,
           "H": [[1.0]], "J": [[0.0]], "R": [[a0]], "Z": [[a1]],
           "G": [[1.0]]}
    if theta is not None:
        doc["theta"] = [[theta]]
    return doc


def run(capsys, *argv):
    code = main(list(argv))
    report = json.loads(capsys.readouterr().out)
    return code, report


@pytest.fixture
def scalar_file(tmp_path):
    return write_doc(tmp_path / "scalar.json", scalar_doc(theta=1.0))


# ---------------------------------------------------------------------------
# certify


def test_certify_embedded_theta(capsys, scalar_file):
    code, report = run(capsys, "certify", scalar_file)
    assert code == 0
    assert report["exit_code"] == 0
    assert report["command"] == "certify"
    assert report["theta_source"] == "embedded"
    cert = report["certificate"]
    assert cert["verdict"] == "CERTIFIED"
    assert cert["min_eigenvalue"] == pytest.approx(0.5)
    digest = "sha256:" + hashlib.sha256(
        pathlib.Path(scalar_file).read_bytes()
    ).hexdigest()
    assert report["inputs"][scalar_file] == digest


def test_certify_reports_the_granted_slack(capsys, scalar_file):
    # condition matrix [[1, 1/2], [1/2, 1]], eigenvalues 1/2 and 3/2
    code, report = run(capsys, "certify", scalar_file)
    assert code == 0
    assert report["certificate"]["slack"] == pytest.approx(1.5e-9)
    code, report = run(capsys, "certify", scalar_file, "--psd-tol", "1e-3")
    assert report["certificate"]["slack"] == 1e-3


def test_certify_theta_flag_overrides(capsys, tmp_path):
    system = write_doc(tmp_path / "sys.json", scalar_doc(theta=0.05))
    code, report = run(capsys, "certify", system)
    assert code == 1
    assert report["certificate"]["verdict"] == "REFUTED"

    theta = write_doc(tmp_path / "theta.json", [[1.0]])
    code, report = run(capsys, "certify", system, "--theta", theta)
    assert code == 0
    assert report["theta_source"] == "flag"
    assert theta in report["inputs"] and system in report["inputs"]


def test_certify_witness_only_refutes(capsys, tmp_path):
    """A CERTIFIED report prints a null witness, a REFUTED one a vector."""
    certified = write_doc(tmp_path / "ok.json", scalar_doc(theta=1.0))
    code, report = run(capsys, "certify", certified)
    assert code == 0 and report["certificate"]["witness"] is None
    refuted = write_doc(tmp_path / "bad.json", scalar_doc(theta=0.05))
    code, report = run(capsys, "certify", refuted)
    assert code == 1
    witness = report["certificate"]["witness"]
    assert isinstance(witness, list) and len(witness) == 2
    assert np.linalg.norm(witness) == pytest.approx(1.0)


def test_certify_constructs_when_no_theta(capsys, tmp_path):
    system = write_doc(tmp_path / "sys.json", scalar_doc())
    code, report = run(capsys, "certify", system)
    assert code == 0
    assert report["theta_source"] == "constructed"
    assert report["construction"]["success"] is True
    assert report["construction"]["sigma"] == pytest.approx(0.5)
    assert report["certificate"]["verdict"] == "CERTIFIED"


def test_certify_inconclusive_when_construction_fails(capsys, tmp_path):
    system = write_doc(tmp_path / "sys.json", scalar_doc(a0=1.0, a1=2.0))
    code, report = run(capsys, "certify", system)
    assert code == 2
    assert report["verdict"] == "INCONCLUSIVE"
    assert report["construction"]["success"] is False
    assert report["construction"]["alpha_interval"] is None
    assert "certificate" not in report


def test_certify_standard_ph_fixture(capsys):
    code, report = run(capsys, "certify", "tests/data/mass_spring_damper.json")
    assert code == 0
    decomp = report["decomposition"]
    j = np.array(decomp["J"])
    np.testing.assert_allclose(j, -j.T, atol=1e-12)
    assert np.array(decomp["R"]).shape == (2, 2)


def test_certify_standard_ph_decomposes_its_energy_matrix_once(capsys):
    """validate's test of H and certify_ph's read one eigvalsh of sym(H),
    stored on the system's H: one spectrum each of H, R and the
    dissipation."""
    path = "tests/data/mass_spring_damper.json"
    with decompositions() as calls:
        code, _ = run(capsys, "certify", path)
    spectra = [a for name, a in calls if name == "eigvalsh"]
    assert code == 0 and len(spectra) == 3
    assert sum(np.array_equal(a, read_system(path).H) for a in spectra) == 1


def test_certify_refuted_fixture_prints_its_witness(capsys):
    """The scalar mode R = 1, Z = 2, Theta = 1/2: its condition matrix
    [[1/2, 1], [1, 1/2]] has the eigenvalue -1/2, and the printed witness
    is a unit vector with a negative quadratic form on it."""
    code, report = run(capsys, "certify", str(DATA / "scalar_refuted.json"))
    cert = report["certificate"]
    assert code == 1 and cert["verdict"] == "REFUTED"
    assert cert["reason"] == "condition_indefinite"
    assert cert["min_eigenvalue"] == pytest.approx(-0.5)
    w = np.array(cert["witness"])
    m = np.array([[0.5, 1.0], [1.0, 0.5]])
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert w @ m @ w == pytest.approx(-0.5)


def test_certify_standard_lti_needs_energy_matrix(capsys, tmp_path):
    doc = {"kind": "standard_lti", "n": 1, "m": 1,
           "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
    system = write_doc(tmp_path / "lti.json", doc)
    code, report = run(capsys, "certify", system)
    assert code == 3
    assert "--h-matrix" in report["error"]
    h = write_doc(tmp_path / "h.json", [[1.0]])
    code, report = run(capsys, "certify", system, "--h-matrix", h)
    assert code == 0
    assert report["certificate"]["verdict"] == "CERTIFIED"


def test_certify_standard_lti_needs_a_psd_symmetric_energy_matrix(capsys, tmp_path):
    """x' = x + u, y = -x meets the dissipation and output conditions for
    H = -1; that H is refuted (exit 1), an asymmetric one rejected (exit 3)."""
    doc = {"kind": "standard_lti", "n": 1, "m": 1,
           "A": [[1.0]], "B": [[1.0]], "C": [[-1.0]]}
    system = write_doc(tmp_path / "lti.json", doc)
    h = write_doc(tmp_path / "h.json", [[-1.0]])
    code, report = run(capsys, "certify", system, "--h-matrix", h)
    assert code == 1
    cert = report["certificate"]
    assert (cert["verdict"], cert["reason"]) == ("REFUTED", "storage_not_psd")
    assert "decomposition" not in report
    doc = {"kind": "standard_lti", "n": 2, "m": 1, "A": [[-1.0, 0.0], [0.0, -1.0]],
           "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]}
    system = write_doc(tmp_path / "lti2.json", doc)
    h = write_doc(tmp_path / "h2.json", [[1.0, 1.0], [0.0, 1.0]])
    code, report = run(capsys, "certify", system, "--h-matrix", h)
    assert code == 3
    assert report["error"].startswith("H is not symmetric")


def test_certify_rejects_general_delay(capsys, tmp_path):
    doc = {"kind": "general_delay", "n": 1, "m": 1, "tau": 1.0,
           "A0": [[-1.0]], "A1": [[0.0]], "B": [[1.0]], "C": [[1.0]]}
    system = write_doc(tmp_path / "gen.json", doc)
    code, report = run(capsys, "certify", system)
    assert code == 3
    assert "delay_ph" in report["error"]


# ---------------------------------------------------------------------------
# construct-theta


def test_construct_theta_command(capsys, tmp_path):
    system = write_doc(tmp_path / "sys.json", scalar_doc())
    code, report = run(capsys, "construct-theta", system)
    assert code == 0
    construction = report["construction"]
    assert construction["theta"] == [[1.0]]
    lo, hi = construction["alpha_interval"]
    assert lo < 0.5 < hi

    hard = write_doc(tmp_path / "hard.json", scalar_doc(a0=1.0, a1=2.0))
    code, report = run(capsys, "construct-theta", hard)
    assert code == 2
    assert report["verdict"] == "INCONCLUSIVE"
    assert report["construction"]["sigma"] == pytest.approx(2.0)


def test_construct_theta_wrong_kind(capsys, tmp_path):
    system = write_doc(tmp_path / "ph.json",
                       {"kind": "standard_ph", "n": 1, "m": 1, "H": [[1.0]],
                        "J": [[0.0]], "R": [[2.0]], "G": [[1.0]]})
    code, report = run(capsys, "construct-theta", system)
    assert code == 3


# ---------------------------------------------------------------------------
# interconnect


def test_interconnect_writes_certified_loop(capsys, tmp_path):
    s1 = write_doc(tmp_path / "s1.json", scalar_doc(theta=1.0))
    s2 = write_doc(tmp_path / "s2.json", scalar_doc(theta=1.0))
    f = write_doc(tmp_path / "f.json", [[0.0, 1.0], [-1.0, 0.0]])
    out = tmp_path / "closed.json"
    code, report = run(capsys, "interconnect", s1, s2, f,
                       "--certify", "--out", str(out))
    assert code == 0
    assert report["classification"] == "power_conserving"
    assert report["certificate"]["verdict"] == "CERTIFIED"
    assert report["certificate"]["min_eigenvalue"] == pytest.approx(0.5)
    assert report["system"]["n"] == 2 and report["system"]["m"] == 2
    closed = read_system(out)
    np.testing.assert_array_equal(closed.theta, np.eye(2))


def test_interconnect_energy_injection_refuted(capsys, tmp_path):
    s1 = write_doc(tmp_path / "s1.json", scalar_doc(theta=1.0))
    s2 = write_doc(tmp_path / "s2.json", scalar_doc(theta=1.0))
    f = write_doc(tmp_path / "f.json", [[1.0, 0.0], [0.0, 1.0]])
    code, report = run(capsys, "interconnect", s1, s2, f, "--certify")
    assert code == 1
    assert report["classification"] == "general"
    assert report["certificate"]["verdict"] == "REFUTED"
    # without --certify the composition itself is still fine
    code, report = run(capsys, "interconnect", s1, s2, f)
    assert code == 0
    assert "certificate" not in report


def test_interconnect_mismatched_delays(capsys, tmp_path):
    s1 = write_doc(tmp_path / "s1.json", scalar_doc(theta=1.0))
    s2 = write_doc(tmp_path / "s2.json", scalar_doc(theta=1.0, tau=2.0))
    f = write_doc(tmp_path / "f.json", [[0.0, 0.0], [0.0, 0.0]])
    code, report = run(capsys, "interconnect", s1, s2, f)
    assert code == 3
    assert "delays differ" in report["error"]


@pytest.mark.parametrize("f", [[[0.0, 1.0], [-1.0, 0.0]], [[-1.0, 1.0], [-1.0, -1.0]]],
                         ids=["skew", "dissipative"])
def test_interconnect_certify_builds_the_loop_once(capsys, monkeypatch, tmp_path, f):
    import phdelay.cli
    import phdelay.composition

    calls = []
    build = phdelay.composition.interconnect

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(phdelay.composition, "interconnect", counted)
    monkeypatch.setattr(phdelay.cli, "interconnect", counted)
    s1 = write_doc(tmp_path / "s1.json", scalar_doc(theta=1.0))
    f = write_doc(tmp_path / "f.json", f)
    code, report = run(capsys, "interconnect", s1, s1, f, "--certify")
    assert code == 0
    assert report["certificate"]["verdict"] == "CERTIFIED"
    assert len(calls) == 1


@pytest.mark.parametrize("f, spectra", [([[0.0, 1.0], [-1.0, 0.0]], 6),
                                       ([[-1.0, 1.0], [-1.0, -1.0]], 7)],
                         ids=["skew", "dissipative"])
def test_interconnect_certify_validates_each_part_once(capsys, monkeypatch,
                                                       tmp_path, f, spectra):
    import phdelay.cli
    import phdelay.composition
    import phdelay.systems

    validations = []
    check = phdelay.systems.validate

    def counted_validate(*args):
        validations.append(1)
        return check(*args)

    for module in (phdelay.systems, phdelay.composition, phdelay.cli):
        monkeypatch.setattr(module, "validate", counted_validate)
    s1 = write_doc(tmp_path / "s1.json", scalar_doc(theta=1.0))
    s2 = write_doc(tmp_path / "s2.json", scalar_doc(theta=1.0))
    f = write_doc(tmp_path / "f.json", f)
    out = tmp_path / "closed.json"
    with decompositions() as calls:
        code, report = run(capsys, "interconnect", s1, s2, f, "--certify",
                           "--out", str(out))
    # read_system validates each part and the certificate validates nothing
    # again: one eigvalsh each for the parts' H and theta, then the two
    # parts' condition matrices (skew F), or the closed loop's and
    # classify_feedback's eigh of -sym(F) and eigvalsh of F's Gram matrix,
    # for ||F||_2; no SVD
    assert "svd" not in [name for name, _ in calls]
    assert (len(validations), len(calls)) == (2, spectra)
    assert code == 0
    assert report["certificate"]["verdict"] == "CERTIFIED"
    assert read_system(out).n == 2


def test_interconnect_certify_needs_both_thetas(capsys, tmp_path):
    s1 = write_doc(tmp_path / "s1.json", scalar_doc(theta=1.0))
    s2 = write_doc(tmp_path / "s2.json", scalar_doc())
    f = write_doc(tmp_path / "f.json", [[0.0, 1.0], [-1.0, 0.0]])
    code, report = run(capsys, "interconnect", s1, s2, f, "--certify")
    assert code == 3
    assert report["error"] == "both subsystems must carry a theta to certify"
    code, report = run(capsys, "interconnect", s1, s2, f)
    assert code == 0


# ---------------------------------------------------------------------------
# feedback


def ph_doc(r=2.0, g=1.0):
    return {"kind": "standard_ph", "n": 1, "m": 1, "H": [[1.0]],
            "J": [[0.0]], "R": [[r]], "G": [[g]]}


def test_feedback_reports_gain_bound(capsys, tmp_path):
    plant = write_doc(tmp_path / "plant.json", ph_doc())
    f = write_doc(tmp_path / "f.json", [[1.0]])
    out = tmp_path / "closed.json"
    code, report = run(capsys, "feedback", plant, f, "--tau", "1.0",
                       "--certify", "--out", str(out))
    assert code == 0
    assert report["gain_bound"] == pytest.approx(2.0)
    assert report["gain_unbounded"] is False
    assert all(report["feedback_conditions"].values())
    assert report["certificate"]["verdict"] == "CERTIFIED"
    closed = read_system(out)
    assert closed.tau == 1.0
    np.testing.assert_array_equal(closed.Z, [[1.0]])
    assert closed.theta is not None  # constructed theta travels with the file


def test_feedback_beyond_bound_is_inconclusive(capsys, tmp_path):
    plant = write_doc(tmp_path / "plant.json", ph_doc())
    f = write_doc(tmp_path / "f.json", [[2.02]])  # just past beta = 2
    code, report = run(capsys, "feedback", plant, f, "--tau", "1.0",
                       "--certify")
    assert code == 2
    assert report["verdict"] == "INCONCLUSIVE"
    assert report["construction"]["sigma"] == pytest.approx(1.01)


def test_feedback_without_port_is_unbounded(capsys, tmp_path):
    plant = write_doc(tmp_path / "plant.json", ph_doc(g=0.0))
    f = write_doc(tmp_path / "f.json", [[1.0]])
    code, report = run(capsys, "feedback", plant, f, "--tau", "1.0")
    assert code == 0
    assert report["gain_bound"] is None
    assert report["gain_unbounded"] is True


#: ker(R) = span(e2) meets image(G) = span(e2)
KERNEL_VIOLATION = {"kind": "standard_ph", "n": 2, "m": 1, "H": [[1.0, 0.0], [0.0, 1.0]],
                    "J": [[0.0, 0.0], [0.0, 0.0]], "R": [[1.0, 0.0], [0.0, 0.0]],
                    "G": [[0.0], [1.0]]}


def test_feedback_kernel_violation_reported(capsys, tmp_path):
    plant = write_doc(tmp_path / "plant.json", KERNEL_VIOLATION)
    f = write_doc(tmp_path / "f.json", [[0.1]])
    code, report = run(capsys, "feedback", plant, f, "--tau", "1.0")
    assert code == 0
    assert report["gain_bound"] is None
    assert report["gain_unbounded"] is False
    assert report["gain_bound_reason"] == "kernel hypotheses violated"
    assert report["feedback_conditions"]["kernel_r_in_kernel_gt"] is False


@pytest.mark.parametrize("doc", [ph_doc(), ph_doc(g=0.0), KERNEL_VIOLATION],
                         ids=["bounded", "no-port", "kernel-violation"])
def test_feedback_reports_what_the_library_returns(capsys, tmp_path, doc):
    """The conditions and the gain bound of ``phdelay feedback`` are those of
    ``check_feedback_conditions`` and ``feedback_gain_bound``; the bound is
    None when the library refuses it for a failed kernel hypothesis."""
    path = write_doc(tmp_path / "plant.json", doc)
    plant = read_system(path)
    conditions = check_feedback_conditions(plant.R, plant.G)
    try:
        beta = feedback_gain_bound(plant.R, plant.G)
    except ValueError:
        beta = None
    assert (beta is None) is (not conditions.kernel_r_in_kernel_gt)
    code, report = run(capsys, "feedback", path, write_doc(tmp_path / "f.json", [[0.1]]),
                       "--tau", "1.0")
    assert code == 0
    assert report["feedback_conditions"] == asdict(conditions)
    assert report["gain_unbounded"] is (beta == math.inf)
    assert report["gain_bound"] == (None if beta == math.inf else beta)


def test_feedback_tests_the_kernel_hypotheses_once(capsys, tmp_path):
    f = write_doc(tmp_path / "f.json", [[1.0]])
    path = "tests/data/mass_spring_damper.json"
    with decompositions() as calls:
        code, report = run(capsys, "feedback", path, f, "--tau", "1.0")
    eighs = [a for name, a in calls if name == "eigh"]
    assert code == 0
    conditions = report["feedback_conditions"]
    assert conditions == {"output_kernel_trivial": False,
                          "kernel_r_in_kernel_gt": True}
    assert report["gain_bound"] == pytest.approx(0.5)
    # no SVD: G has one column and two rows, so rank G < n without one;
    # G^T K = [[0]] is contained by its Frobenius norm; ||V1^T G||_2 is one
    # eigvalsh of its 1x1 Gram matrix, after validation's of H and R
    system = read_system(path)
    assert "svd" not in [name for name, _ in calls]
    assert [a.shape for name, a in calls if name == "eigvalsh"] == [(2, 2), (2, 2), (1, 1)]
    # one eigh of R gives ker(R) and its whitening
    assert len(eighs) == 1 and np.array_equal(eighs[0], system.R)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_monitor_reports_an_energy_beyond_the_float_range(capsys, tmp_path):
    """H = R = 1e308, Theta = 1e307: the energy overflows, so the audit is
    an input error in strict JSON, and no trajectory is written."""
    doc = scalar_doc(a0=1e308, a1=0.0, theta=1e307)
    doc["H"] = [[1e308]]
    out = tmp_path / "r.csv"
    code = main(["simulate", write_doc(tmp_path / "huge.json", doc), "--history",
                 "const:5", "--T", "1", "--h", "0.5", "--monitor", "--out", str(out)])
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == report["exit_code"] == 3
    assert "energy leaves the float range" in report["error"]
    assert not out.exists()


def test_simulate_reports_an_energy_beyond_the_float_range(capsys, tmp_path):
    """Without --monitor the CSV's energy column overflows just the same:
    an input error in strict JSON, and no trajectory is written."""
    doc = scalar_doc(a0=1e308, a1=0.0, theta=1e307)
    doc["H"] = [[1e308]]
    out = tmp_path / "r.csv"
    code = main(["simulate", write_doc(tmp_path / "huge.json", doc), "--history",
                 "const:5", "--T", "1", "--h", "0.5", "--out", str(out)])
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == report["exit_code"] == 3
    assert "energy leaves the float range" in report["error"]
    assert not out.exists()


def test_simulate_with_monitor(capsys, tmp_path, scalar_file):
    out = tmp_path / "traj.csv"
    code, report = run(capsys, "simulate", scalar_file,
                       "--history", "const:0.5", "--input", "sine:1.0,2.0",
                       "--T", "2.0", "--h", "0.01", "--monitor",
                       "--out", str(out))
    assert code == 0
    assert report["monitor"]["violations"] == []
    assert report["trajectory"]["samples"] == 201
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (201, 5)
    assert np.any(data[:, 4] != 0.0)  # energy column is populated
    assert report["trajectory"]["final_state"] == [data[-1, 1]]
    assert report["trajectory"]["max_state_norm"] >= abs(data[-1, 1])


def test_simulate_energy_column_sources(capsys, tmp_path, scalar_file):
    """H is the monitor's record with --monitor and the energy series without."""
    system = read_system(scalar_file)
    hist = HistoryFunction.constant([0.5], 1.0)
    steps = np.ones((1, 201))
    out = tmp_path / "traj.csv"
    argv = ["simulate", scalar_file, "--history", "const:0.5",
            "--input", "step:1.0", "--T", "2.0", "--h", "0.01",
            "--out", str(out)]

    code, _ = run(capsys, *argv, "--monitor")
    assert code == 0
    _, record = simulate_delay_ph(system, hist, steps, 2.0, 0.01)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 4], record.hamiltonians)

    code, _ = run(capsys, *argv)
    assert code == 0
    traj, _ = simulate_delay_ph(system, hist, steps, 2.0, 0.01, monitor=False)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(
        data[:, 4], hamiltonian_series(traj, system.H, system.theta)
    )


@pytest.mark.parametrize("monitor", [[], ["--monitor"]])
def test_simulate_validates_under_psd_tol(capsys, tmp_path, monitor):
    """A document that validates under --psd-tol simulates under it too."""
    path = write_doc(tmp_path / "near.json", scalar_doc(theta=-1e-6))
    out = tmp_path / "traj.csv"
    argv = ["simulate", path, "--history", "const:0.5", "--T", "1", "--h", "0.1",
            "--out", str(out), *monitor]
    code, report = run(capsys, *argv)
    assert code == 3
    assert "theta is not positive semidefinite" in report["error"]
    code, report = run(capsys, *argv, "--psd-tol", "1e-3")
    assert code == 0
    assert report["trajectory"]["samples"] == 11
    assert ("monitor" in report) == bool(monitor)


def test_simulate_general_delay(capsys, tmp_path):
    doc = {"kind": "general_delay", "n": 1, "m": 1, "tau": 1.0,
           "A0": [[0.0]], "A1": [[-1.0]], "B": [[0.0]], "C": [[0.0]]}
    system = write_doc(tmp_path / "gen.json", doc)
    out = tmp_path / "traj.csv"
    code, report = run(capsys, "simulate", system, "--history", "const:1.0",
                       "--T", "2.0", "--h", "0.1", "--out", str(out))
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data[10, 1] == pytest.approx(0.0, abs=1e-12)
    assert data[20, 1] == pytest.approx(-0.5, abs=1e-12)
    assert np.all(data[:, 4] == 0.0)  # no energy matrix for this kind

    code, report = run(capsys, "simulate", system, "--history", "const:1.0",
                       "--T", "1.0", "--h", "0.1", "--monitor",
                       "--out", str(out))
    assert code == 3
    assert "monitor" in report["error"]


def test_simulate_csv_input_and_history_file(capsys, tmp_path):
    doc = scalar_doc(theta=1.0)
    system = write_doc(tmp_path / "sys.json", doc)
    hist = write_doc(tmp_path / "hist.json",
                     {"grid": [-1.0, 0.0], "values": [[0.5, 0.5]]})
    u = tmp_path / "input.csv"
    u.write_text("\n".join("1.0" for _ in range(11)) + "\n")
    out = tmp_path / "traj.csv"
    code, report = run(capsys, "simulate", system, "--history", hist,
                       "--input", f"csv:{u}", "--T", "1.0", "--h", "0.1",
                       "--out", str(out))
    assert code == 0
    assert hist in report["inputs"] and str(u) in report["inputs"]
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(data[:, 2] == 1.0)


def test_simulate_input_spec_errors(capsys, tmp_path, scalar_file):
    out = tmp_path / "traj.csv"
    code, report = run(capsys, "simulate", scalar_file,
                       "--history", "const:0.5", "--input", "ramp:1.0",
                       "--T", "1.0", "--h", "0.1", "--out", str(out))
    assert code == 3 and "unknown input spec" in report["error"]
    code, report = run(capsys, "simulate", scalar_file,
                       "--history", "const:0.5",
                       "--T", "1.0", "--h", "0.3", "--out", str(out))
    assert code == 3 and "integer multiple" in report["error"]


@pytest.mark.parametrize("flag, value", [
    ("--h", "0"), ("--h", "-0.1"), ("--h", "nan"), ("--h", "inf"), ("--T", "inf"),
])
def test_simulate_rejects_non_positive_or_non_finite_steps(capsys, tmp_path,
                                                            scalar_file, flag, value):
    args = {"--T": "1.0", "--h": "0.1", flag: value}
    code, report = run(capsys, "simulate", scalar_file, "--history", "const:0.1",
                       "--T", args["--T"], "--h", args["--h"],
                       "--out", str(tmp_path / "r.csv"))
    assert code == 3 and report["exit_code"] == 3
    assert report["error"].startswith(flag + " must be")


@pytest.mark.parametrize("argv, needle", [
    (["certify", "{system}", "--psd-tol", "-1"], "psd_tol"),
    (["certify", "{system}", "--rank-tol", "nan"], "rank_tol"),
    # T / h overflows to inf
    (["simulate", "{system}", "--history", "const:0.5", "--T", "1e308",
      "--h", "1e-300", "--out", "{out}"], "--T / --h"),
    # 1e14 + 1 samples, 728 TiB: more than a 128 TiB user address space,
    # so the allocation fails before any page is touched
    (["simulate", "{system}", "--history", "const:0.5", "--T", "100000",
      "--h", "1e-9", "--out", "{out}"], "allocate"),
    # more samples, or tau / h = 1e20 more delay steps, than numpy can index
    (["simulate", "{system}", "--history", "const:1", "--T", "1", "--h", "1e-300",
      "--out", "{out}"], "--T / --h = 1.0 / 1e-300 = 1e+300 steps, too many to hold"),
    (["simulate", "{system}", "--history", "const:1", "--T", "1e-20", "--h", "1e-20",
      "--out", "{out}"], "tau / h = 100000000000000000000 and T / h = 1 steps: the "
                         "work array is too large to hold"),
], ids=["negative-psd-tol", "nan-rank-tol", "overflowing-step-count",
        "unallocatable-step-count", "unindexable-step-count", "unindexable-delay-steps"])
def test_input_errors_end_in_json_error(capsys, tmp_path, scalar_file, argv, needle):
    out = str(tmp_path / "traj.csv")
    argv = [a.format(system=scalar_file, out=out) for a in argv]
    code, report = run(capsys, *argv)
    assert code == 3 and report["exit_code"] == 3
    assert needle in report["error"]
    assert not (tmp_path / "traj.csv").exists()


def test_a_forgiven_negative_eigenvalue_is_kernel_in_every_command(capsys, tmp_path):
    """R = diag(1, -5e-10) passes the PSD slack, so e2 is in ker(R): Z =
    e2 e2^T and G = (1, 1)^T meet it, and no command offers Theta = R/2,
    which the condition matrix would refute, or a gain bound."""
    r = [[1.0, 0.0], [0.0, -5e-10]]
    delay = write_doc(tmp_path / "delay.json", {
        "kind": "delay_ph", "n": 2, "m": 2, "tau": 1.0, "H": np.eye(2).tolist(),
        "J": np.zeros((2, 2)).tolist(), "R": r, "Z": [[0.0, 0.0], [0.0, 1.0]],
        "G": np.eye(2).tolist()})
    for command in ("construct-theta", "certify"):
        code, report = run(capsys, command, delay)
        assert code == 2 and report["verdict"] == "INCONCLUSIVE"
        assert report["construction"]["reason"].startswith("kernel_condition")
    code, report = run(capsys, "check", delay)
    assert code == 1
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["feedback_conditions", "theta_construction"]
    plant = write_doc(tmp_path / "plant.json", {
        "kind": "standard_ph", "n": 2, "m": 1, "H": np.eye(2).tolist(),
        "J": np.zeros((2, 2)).tolist(), "R": r, "G": [[1.0], [1.0]]})
    f = write_doc(tmp_path / "f.json", [[1.0]])
    code, report = run(capsys, "feedback", plant, f, "--tau", "1.0", "--certify")
    assert code == 2 and "certificate" not in report
    assert report["gain_bound"] is None
    assert report["gain_bound_reason"] == "kernel hypotheses violated"


# ---------------------------------------------------------------------------
# check


def test_check_clean_system(capsys, scalar_file):
    code, report = run(capsys, "check", scalar_file)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["validate", "feedback_conditions",
                     "necessary_conditions", "theta_construction"]
    assert all(c["passed"] for c in report["checks"])


def test_check_flags_invalid_energy_matrix(capsys, tmp_path):
    doc = scalar_doc(theta=1.0)
    doc["H"] = [[-1.0]]
    system = write_doc(tmp_path / "bad.json", doc)
    code, report = run(capsys, "check", system)
    assert code == 1
    validate_check = report["checks"][0]
    assert validate_check["name"] == "validate"
    assert not validate_check["passed"]
    assert any("positive definite" in msg for msg in validate_check["detail"])


def test_check_standard_ph_includes_minimality(capsys):
    # the single-port oscillator is minimal but its G has a nontrivial
    # output kernel, so the aggregate exit code is 1
    code, report = run(capsys, "check", "tests/data/mass_spring_damper.json")
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["minimality"]["passed"]
    assert by_name["minimality"]["detail"] == "minimal"
    assert not by_name["feedback_conditions"]["passed"]
    assert by_name["feedback_conditions"]["detail"]["output_kernel_trivial"] is False


def test_check_reports_failed_construction(capsys, tmp_path):
    system = write_doc(tmp_path / "hard.json",
                       scalar_doc(a0=1.0, a1=2.0, theta=0.5))
    code, report = run(capsys, "check", system)
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["validate"]["passed"]
    assert not by_name["theta_construction"]["passed"]


def test_check_reports_a_check_that_raised(capsys, tmp_path):
    # an asymmetric R fails validation, and the checks that need a
    # symmetric R fail with the reason instead of ending the run
    doc = scalar_doc(theta=1.0)
    doc.update(n=2, m=1, H=np.eye(2).tolist(), J=np.zeros((2, 2)).tolist(),
               R=[[2.0, 0.5], [0.0, 2.0]], Z=np.eye(2).tolist(),
               G=[[1.0], [0.0]], theta=np.eye(2).tolist())
    code, report = run(capsys, "check", write_doc(tmp_path / "asym.json", doc))
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert list(by_name) == ["validate", "feedback_conditions",
                             "necessary_conditions", "theta_construction"]
    assert not any(c["passed"] for c in report["checks"])
    for name in ("feedback_conditions", "necessary_conditions", "theta_construction"):
        assert by_name[name]["detail"].startswith("R is not symmetric")


def test_indefinite_r_is_not_an_input_error(capsys, tmp_path):
    system = write_doc(tmp_path / "indefinite.json", scalar_doc(a0=-1.0, a1=0.5))
    reason = "R is not positive semidefinite (min eigenvalue -1.000e+00)"
    for command, want in (("certify", 2), ("construct-theta", 2), ("check", 1)):
        code, report = run(capsys, command, system)
        assert code == want, command
        if command == "check":
            by_name = {c["name"]: c for c in report["checks"]}
            assert by_name["validate"]["passed"]
            assert by_name["theta_construction"]["detail"]["reason"] == reason
        else:
            assert report["construction"] == {"success": False, "reason": reason}


@st.composite
def delay_ph_systems(draw):
    """Valid-looking delay_ph systems: R PSD, rank-deficient or indefinite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    c = 10.0 ** draw(st.floats(-8.0, 4.0))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = c * rng.uniform(0.5, 2.0, n)
    kind = draw(st.sampled_from(["psd", "deficient", "indefinite"]))
    if kind == "deficient":
        lam[rng.permutation(n)[: draw(st.integers(1, n))]] = 0.0
    elif kind == "indefinite":
        lam[rng.permutation(n)[: draw(st.integers(1, n))]] *= -1.0
    r = (q * lam) @ q.T
    a = rng.standard_normal((n, n))
    theta = None
    if draw(st.booleans()):
        b = rng.standard_normal((n, n))
        theta = c * (b @ b.T)
    return DelayPHSystem(
        H=np.eye(n) + 0.1 * (a @ a.T), J=a - a.T, R=0.5 * (r + r.T),
        Z=c * draw(st.sampled_from([0.0, 0.5, 3.0])) * rng.standard_normal((n, n)),
        G=rng.standard_normal((n, m)), tau=1.0, theta=theta,
    )


def test_valid_documents_never_end_in_input_errors(tmp_path):
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(delay_ph_systems())
    def check(system):
        assert validate(system) == []
        path = tmp_path / "system.json"
        path.write_text(write_system(system))
        for command in ("certify", "construct-theta", "check"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, str(path)])
            assert code in (0, 1, 2), (command, out.getvalue())

    check()


@pytest.mark.parametrize("f", [[[0.0, 1.0], [-1.0, 0.0]], [[-1.0, 1.0], [-1.0, -1.0]]],
                         ids=["skew", "dissipative"])
def test_interconnect_verdict_is_the_librarys(capsys, tmp_path, f):
    # blkdiag(H1, H2) fails validate's conditioning guard, each part passes
    docs = [scalar_doc(theta=1.0) for _ in range(2)]
    docs[0]["H"], docs[1]["H"] = [[1e6]], [[1e-4]]
    paths = [write_doc(tmp_path / f"s{i}.json", d) for i, d in enumerate(docs)]
    parts = [read_system(p) for p in paths]
    cert = certify_interconnection(parts[0], parts[1], f)
    code, report = run(capsys, "interconnect", *paths,
                       write_doc(tmp_path / "f.json", f), "--certify")
    assert cert.verdict == report["certificate"]["verdict"] == "CERTIFIED"
    assert code == 0
    assert report["certificate"] == cert.to_dict()


# ---------------------------------------------------------------------------
# error paths


def test_missing_file_is_input_error(capsys):
    code, report = run(capsys, "certify", "/nonexistent/system.json")
    assert code == 3
    assert report["exit_code"] == 3


def test_malformed_document_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report = run(capsys, "certify", str(path))
    assert code == 3
    assert "error" in report


def test_an_empty_matrix_of_a_huge_document_is_a_shape_error(capsys, tmp_path):
    """numpy cannot hold the (0, 2**62) array that [] stands for here; the
    error names the shape mismatch, not the row lengths."""
    doc = {"kind": "delay_ph", "n": 2**62, "m": 1, "tau": 1.0,
           **dict.fromkeys(("H", "J", "R", "Z", "G"), [])}
    code, report = run(capsys, "certify", write_doc(tmp_path / "huge.json", doc))
    assert code == 3
    assert report["error"].startswith('"H" has shape')


def test_an_empty_matrix_too_large_to_hold_names_its_field(capsys, tmp_path):
    """n = 0 makes G = [] the expected (0, 2**62) shape, which numpy cannot
    hold: the error names "G", not numpy's array size."""
    doc = {"kind": "delay_ph", "n": 0, "m": 2**62, "tau": 1.0,
           **dict.fromkeys(("H", "J", "R", "Z", "G"), [])}
    code, report = run(capsys, "certify", write_doc(tmp_path / "huge.json", doc))
    assert code == 3
    assert report["error"] == '"G" has shape (0, 4611686018427387904), too large to hold'


def test_non_finite_tau_is_input_error(capsys, tmp_path):
    path = write_doc(tmp_path / "sys.json", scalar_doc(theta=1.0, tau=float("inf")))
    code, report = run(capsys, "certify", path)
    assert code == 3
    assert '"tau" must be finite' in report["error"]


SIMULATE = ["--T", "1.0", "--h", "0.1", "--out", "{out}"]


@pytest.mark.parametrize("argv, needle", [
    (["certify", "{scalar}", "--theta", "{broken}"], "--theta: malformed JSON"),
    (["certify", "{scalar}", "--h-matrix", "{one}"], "--h-matrix only applies"),
    (["certify", "{plant}", "--theta", "{one}"], "--theta only applies"),
    (["interconnect", "{plant}", "{scalar}", "{one}"], "requires two delay_ph"),
    (["feedback", "{scalar}", "{one}", "--tau", "1.0"], "requires a standard_ph"),
    (["simulate", "{scalar}", "--history", "{broken}", *SIMULATE],
     "history: malformed JSON"),
    (["simulate", "{scalar}", "--history", "{one}", *SIMULATE], '"grid" and "values"'),
    (["simulate", "{scalar}", "--history", "{no_values}", *SIMULATE],
     '"grid" and "values"'),
    (["simulate", "{scalar}", "--history", "{scalar_grid}", *SIMULATE],
     '"grid" must be an array of numbers'),
    (["simulate", "{scalar}", "--history", "const:0.5", "--input", "sine:1.0",
      *SIMULATE], "amplitude,frequency"),
    (["simulate", "{scalar}", "--history", "const:0.5", "--input", "csv:{csv}",
      *SIMULATE], "must have 11 rows and 1 columns, got (3, 1)"),
    (["simulate", "{plant}", "--history", "const:0.5", *SIMULATE],
     "requires a delay system"),
    (["simulate", "{bare}", "--history", "const:0.5", "--monitor", *SIMULATE],
     "--monitor requires a theta"),
], ids=["malformed-theta-file", "h-matrix-on-delay-ph", "theta-on-standard-ph",
        "interconnect-standard-ph", "feedback-on-delay-ph", "malformed-history",
        "history-not-an-object", "history-without-values", "history-scalar-grid",
        "one-sine-value", "misshapen-csv-input", "simulate-standard-ph",
        "monitor-without-theta"])
def test_misused_inputs_end_in_json_error(capsys, tmp_path, scalar_file, argv, needle):
    (tmp_path / "broken.json").write_text("[[1.0,")
    (tmp_path / "input.csv").write_text("1.0\n1.0\n1.0\n")
    files = {
        "scalar": scalar_file,
        "bare": write_doc(tmp_path / "bare.json", scalar_doc()),
        "plant": str(DATA / "mass_spring_damper.json"),
        "one": write_doc(tmp_path / "one.json", [[1.0]]),
        "no_values": write_doc(tmp_path / "grid.json", {"grid": [-1.0, 0.0]}),
        "scalar_grid": write_doc(tmp_path / "scalar_grid.json",
                                 {"grid": 5, "values": [[1.0, 1.0]]}),
        "broken": str(tmp_path / "broken.json"),
        "csv": str(tmp_path / "input.csv"),
        "out": str(tmp_path / "traj.csv"),
    }
    code, report = run(capsys, *(a.format(**files) for a in argv))
    assert code == 3 and report["exit_code"] == 3
    assert needle in report["error"]
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("argv, label", [
    (["certify", "{nested}"], ""),
    (["certify", "{scalar}", "--theta", "{nested}"], "--theta: "),
    (["interconnect", "{scalar}", "{scalar}", "{nested}"], "F: "),
    (["simulate", "{scalar}", "--history", "{nested}", *SIMULATE], "history: "),
], ids=["system", "theta", "interconnect-F", "history"])
def test_too_deeply_nested_json_is_input_error(capsys, tmp_path, scalar_file,
                                               argv, label):
    """Each JSON input nested beyond the parser's recursion limit ends in
    one JSON error report and exit code 3, not a traceback."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    files = {"scalar": scalar_file, "nested": str(nested),
             "out": str(tmp_path / "traj.csv")}
    code = main([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    report = json.loads(captured.out)
    assert report["exit_code"] == 3
    assert report["error"].startswith(f"{label}malformed JSON: ")


@pytest.mark.parametrize("history, key", [
    ({"grid": ["-1", 0.0], "values": [[1.0, 1.0]]}, "grid"),
    ({"grid": [-1.0, False], "values": [[1.0, 1.0]]}, "grid"),
    ({"grid": [-1.0, 0.0], "values": [[1.0, "2"]]}, "values"),
    ({"grid": [-1.0, 0.0], "values": [[True, 1.0]]}, "values"),
    ({"grid": ["-1", False], "values": [[True, "2"]]}, "grid"),
], ids=["grid-string", "grid-bool", "values-string", "values-bool", "both"])
def test_history_file_entries_must_be_numbers(capsys, tmp_path, scalar_file,
                                              history, key):
    """A history file gets the numeric checks of a system document."""
    hist = write_doc(tmp_path / "history.json", history)
    code, report = run(capsys, "simulate", scalar_file, "--history", hist,
                       *(a.format(out=tmp_path / "traj.csv") for a in SIMULATE))
    assert code == 3
    assert report["error"].startswith(f'"{key}" has non-numeric entries: ')
    assert not (tmp_path / "traj.csv").exists()


def test_invalid_system_is_input_error(capsys, tmp_path):
    doc = scalar_doc(theta=1.0)
    doc["H"] = [[-1.0]]
    system = write_doc(tmp_path / "bad.json", doc)
    code, report = run(capsys, "certify", system)
    assert code == 3
    assert "positive definite" in report["error"]


@pytest.mark.parametrize("source", ["embedded", "flag", "constructed", "inconclusive"])
def test_invalid_system_fails_alike_for_every_theta_source(capsys, tmp_path, source):
    doc = scalar_doc(a0=1.0, a1=2.0) if source == "inconclusive" else scalar_doc()
    if source == "embedded":
        doc["theta"] = [[1.0]]
    doc["H"] = [[-1.0]]
    argv = ["certify", write_doc(tmp_path / "bad.json", doc)]
    if source == "flag":
        argv += ["--theta", write_doc(tmp_path / "theta.json", [[1.0]])]
    code, report = run(capsys, *argv)
    assert code == 3
    assert report == {
        "command": "certify",
        "error": "H is not positive definite (min eigenvalue -1)",
        "exit_code": 3,
    }


def test_certify_validates_the_document_once(capsys, monkeypatch, scalar_file):
    """The invariants are computed once; a second ``validate`` of the same
    system and tolerance is answered by the memo on the system."""
    import phdelay.systems

    calls = []
    violations = phdelay.systems._violations

    def counted(system, tol):
        calls.append(type(system).__name__)
        return violations(system, tol)

    monkeypatch.setattr(phdelay.systems, "_violations", counted)
    code, _ = run(capsys, "certify", scalar_file)
    assert code == 0
    assert calls == ["DelayPHSystem"]


def test_unknown_subcommand_is_usage_error(capsys):
    code, report = run(capsys, "frobnicate")
    assert code == 3
    assert "error" in report


def test_tolerance_flags_are_threaded(capsys, tmp_path):
    # min eigenvalue at theta = 0.134 is about -3.5e-4: a huge psd slack
    # flips the verdict, which proves the flag reaches the solver
    system = write_doc(tmp_path / "sys.json", scalar_doc(theta=0.1339))
    code, report = run(capsys, "certify", system)
    assert code == 1
    code, report = run(capsys, "certify", system, "--psd-tol", "1e-3")
    assert code == 0
    assert report["tolerances"]["psd_tol"] == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# input files: each read once, each digest that of the bytes parsed

#: the lists of paths being recorded by open ``opened_paths`` blocks; the
#: "open" audit event fires for every open, whichever alias of ``open`` a
#: library calls, and an audit hook cannot be removed once added
_recorders = []


def _audit(event, args):
    if event == "open" and _recorders:
        _recorders[-1].append(args[0])


sys.addaudithook(_audit)


@contextlib.contextmanager
def opened_paths():
    opened = []
    _recorders.append(opened)
    try:
        yield opened
    finally:
        _recorders.pop()


def digest_of(path):
    return "sha256:" + hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", [
    ["certify", "{s1}", "--theta", "{theta}"],
    ["certify", "{lti}", "--h-matrix", "{theta}"],
    ["construct-theta", "{s1}"],
    ["interconnect", "{s1}", "{s2}", "{f}", "--certify", "--out", "{out}"],
    ["feedback", "{plant}", "{theta}", "--tau", "1.0", "--certify", "--out", "{out}"],
    ["simulate", "{s1}", "--history", "{hist}", "--input", "csv:{csv}",
     "--T", "1.0", "--h", "0.1", "--monitor", "--out", "{out}"],
    ["check", "{s1}"],
], ids=["certify-theta", "certify-h-matrix", "construct-theta",
        "interconnect-certify", "feedback-certify", "simulate-history-csv", "check"])
def test_each_input_file_is_read_once(capsys, tmp_path, argv):
    inputs = {
        "s1": write_doc(tmp_path / "s1.json", scalar_doc(theta=1.0)),
        "s2": write_doc(tmp_path / "s2.json", scalar_doc(theta=1.0)),
        "theta": write_doc(tmp_path / "theta.json", [[1.0]]),
        "lti": write_doc(tmp_path / "lti.json", {
            "kind": "standard_lti", "n": 1, "m": 1,
            "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}),
        "f": write_doc(tmp_path / "f.json", [[0.0, 1.0], [-1.0, 0.0]]),
        "plant": write_doc(tmp_path / "plant.json", ph_doc()),
        "hist": write_doc(tmp_path / "hist.json",
                          {"grid": [-1.0, 0.0], "values": [[0.5, 0.5]]}),
        "csv": str(tmp_path / "input.csv"),
    }
    pathlib.Path(inputs["csv"]).write_text("1.0\n" * 11)
    argv = [a.format(out=tmp_path / "out", **inputs) for a in argv]
    with opened_paths() as opened:
        code, report = run(capsys, *argv)
    assert code == 0
    read = [path for path in inputs.values() if path in argv or "csv:" + path in argv]
    assert sorted(report["inputs"]) == sorted(read)
    for path in read:
        assert opened.count(path) == 1, path
        assert report["inputs"][path] == digest_of(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_malformed_document_error_does_not_depend_on_line_endings(
        capsys, tmp_path, newline):
    lines = ["{", '  "kind": "delay_ph",', '  "n": 1,', "  oops", "}", ""]
    errors = []
    for sep in ("\n", newline):
        path = tmp_path / "broken.json"
        path.write_bytes(sep.join(lines).encode())
        code, report = run(capsys, "certify", str(path))
        assert code == 3
        errors.append(report["error"])
    assert errors[0] == errors[1]
    assert errors[0].endswith("line 4 column 3 (char 36)")


def test_feedback_on_a_vanishing_port_is_unbounded(capsys, tmp_path):
    """||G||^2 underflows to 0: the bound exceeds the float range."""
    plant = write_doc(tmp_path / "plant.json", ph_doc(r=1.0, g=1e-170))
    f = write_doc(tmp_path / "f.json", [[1.0]])
    code = main(["feedback", plant, f, "--tau", "1.0"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert report["gain_bound"] is None
    assert report["gain_unbounded"] is True


@pytest.mark.parametrize("spec, horizon", [("sine:1,inf", "1.0"), ("sine:1,1e308", "10")],
                         ids=["infinite-frequency", "overflowing-phase"])
def test_non_finite_sine_input_is_input_error(capsys, tmp_path, scalar_file,
                                              spec, horizon):
    out = tmp_path / "traj.csv"
    code = main(["simulate", scalar_file, "--history", "const:0.5", "--input", spec,
                 "--T", horizon, "--h", "0.1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    assert "non-finite" in json.loads(captured.out)["error"]
    assert not out.exists()


def test_empty_csv_input_is_input_error(capsys, tmp_path, scalar_file):
    empty = tmp_path / "input.csv"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", scalar_file, "--history", "const:0.5",
                     "--input", f"csv:{empty}", "--T", "1.0", "--h", "0.1",
                     "--out", str(tmp_path / "traj.csv")])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    assert "must have 11 rows and 1 columns" in json.loads(captured.out)["error"]


# ---------------------------------------------------------------------------
# fuzzing: every argv ends in one JSON object and a documented exit code

MALFORMED = ["0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "abc", ""]


def _text(valid, malformed=MALFORMED):
    return st.sampled_from(valid) | st.sampled_from(malformed)


@st.composite
def _steps(draw):
    """--T and --h, with T/h either at most 1e4 or at least 1e14.

    The documents have tau = 1, so h also stays either at least 1e-4 or at
    most 1e-14: a count in between could really allocate gigabytes, while
    1e14 samples ask for more than a 128 TiB address space and fail at once.
    """
    h = draw(st.sampled_from([0.1, 0.25, 0.5, 1e-3]) | st.floats(1e-4, 2.0)
             | st.floats(1e-300, 1e-14))
    ratio = draw(st.integers(-2, 10**4) | st.floats(-1e4, 1e4) | st.floats(1e14, 1e300))
    h_text = draw(_text([repr(h)]))
    big_t = ratio * h if h_text == repr(h) else 1.0
    return ["--T", draw(_text([repr(big_t)], ["nan", "inf", "abc"])), "--h", h_text]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    general = {"kind": "general_delay", "n": 1, "m": 1, "tau": 1.0,
               "A0": [[-2.0]], "A1": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
    (root / "broken.json").write_text('{"grid": [')
    return {
        "scalar": write_doc(root / "scalar.json", scalar_doc(theta=1.0)),
        "bare": write_doc(root / "bare.json", scalar_doc(a0=1.0, a1=2.0)),
        "general": write_doc(root / "general.json", general),
        "plant": str(DATA / "mass_spring_damper.json"),
        "F1": write_doc(root / "f1.json", [[1.0]]),
        "F2": write_doc(root / "f2.json", [[0.0, 1.0], [-1.0, 0.0]]),
        "history": write_doc(root / "history.json",
                             {"grid": [-1.0, 0.0], "values": [[0.5, 1.0]]}),
        "short": write_doc(root / "short.json",
                           {"grid": [-0.5, 0.0], "values": [[0.5, 1.0]]}),
        "broken": str(root / "broken.json"),
        "missing": str(root / "missing.json"),
        "out": str(root / "out.csv"),
    }


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(
        ["certify", "construct-theta", "check", "interconnect", "feedback", "simulate"]
    ))
    scalar = draw(st.sampled_from([files["scalar"], files["bare"]]))
    argv = {
        "certify": ["certify", scalar],
        "construct-theta": ["construct-theta", scalar],
        "check": ["check", draw(st.sampled_from([scalar, files["plant"]]))],
        "interconnect": ["interconnect", scalar, scalar, files["F2"], "--certify"],
        "feedback": ["feedback", files["plant"], files["F1"], "--certify",
                     "--tau", draw(_text(["1.0", "0.5", "1e-300"]))],
        "simulate": ["simulate", draw(st.sampled_from([scalar, files["general"]])),
                     "--out", files["out"]],
    }[command]
    if command == "simulate":
        argv += draw(_steps())
        argv += ["--history", draw(_text(
            ["const:0.5", "const:1e300", files["history"]],
            ["const:nan", "const:abc", files["short"], files["broken"], files["missing"]],
        ))]
        argv += ["--input", draw(_text(
            ["zero", "step:1.0", "sine:1.0,2.0"],
            ["step:nan", "sine:1.0", "csv:" + files["missing"],
             "csv:" + files["broken"], "ramp:1.0"],
        ))]
        if draw(st.booleans()):
            argv.append("--monitor")
    if draw(st.booleans()):
        argv += ["--psd-tol", draw(_text(["1e-9", "1e-3"]))]
    if draw(st.booleans()):
        argv += ["--rank-tol", draw(_text(["1e-10", "1e-6"]))]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_fuzzed_argv_ends_in_one_json_object(fuzz_files):
    simulate = ["simulate", "--T", "2.0", "--h", "0.01", "--history", "const:0.5",
                "--input", "sine:1.0,2.0", "--out", fuzz_files["out"]]

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(_argv(fuzz_files))
    @example(simulate + [fuzz_files["scalar"], "--monitor"])
    @example(simulate + [fuzz_files["general"], "--rank-tol", "1e-6"])
    def check(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        # strict JSON: NaN and Infinity are refused
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert isinstance(report, dict)
        assert report["exit_code"] == code
        if code == 3:
            assert "error" in report

    check()
