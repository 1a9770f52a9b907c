import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from phdelay import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    Certificate,
    StandardLTISystem,
    StandardPHSystem,
    certify_delay_ph,
    certify_interconnection,
    certify_ph,
    interconnect,
    is_psd,
)
from phdelay.linalg import PsdReport
from helpers import decompositions, eager_pair_certificate, rand_coupled_pair


def test_verdict_constants():
    assert CERTIFIED == "CERTIFIED"
    assert REFUTED == "REFUTED"
    assert INCONCLUSIVE == "INCONCLUSIVE"


def test_certified_property():
    assert Certificate(verdict=CERTIFIED).certified
    assert not Certificate(verdict=REFUTED).certified
    assert not Certificate(verdict=INCONCLUSIVE).certified


def test_to_dict_is_json_ready():
    cert = Certificate(
        verdict=CERTIFIED,
        condition_matrix=np.eye(2),
        min_eigenvalue=0.25,
        witness=np.array([1.0, 0.0]),
        theta_used=np.array([[0.5, 0.0], [0.0, 0.25]]),
        reason="",
        slack=1e-9,
    )
    d = cert.to_dict()
    assert d == {
        "verdict": "CERTIFIED",
        "min_eigenvalue": 0.25,
        "witness": [1.0, 0.0],
        "theta": [[0.5, 0.0], [0.0, 0.25]],
        "reason": "",
        "slack": 1e-9,
    }
    # plain python containers only
    assert all(isinstance(w, float) for w in d["witness"])


def test_to_dict_handles_missing_evidence():
    d = Certificate(verdict=INCONCLUSIVE, reason="whitened coupling > 1").to_dict()
    assert d["witness"] is None and d["theta"] is None
    assert d["min_eigenvalue"] is None and d["slack"] is None
    assert "coupling" in d["reason"]


def test_certificate_is_frozen():
    cert = Certificate(verdict=REFUTED)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.verdict = CERTIFIED


def test_output_mismatch_certificates_carry_no_witness():
    """C = 1 against B^T H = 1/2: the output test refutes without a witness."""
    cert = certify_ph(StandardLTISystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]]),
                      [[0.5]]).certificate
    assert cert.verdict == REFUTED
    assert cert.reason.startswith("output_mismatch")
    assert cert.witness is None
    assert np.isfinite(cert.min_eigenvalue)
    assert cert.to_dict()["witness"] is None


EVIDENCE = {Certificate: ("witness", "condition_matrix", "theta_used"),
            PsdReport: ("witness",)}


@pytest.mark.parametrize("clone, reads", [
    (lambda obj: pickle.loads(pickle.dumps(obj)), False),
    (copy.deepcopy, False),
    (dataclasses.replace, True),
], ids=["pickle", "deepcopy", "replace"])
def test_unread_evidence_survives_copies(clone, reads):
    """A copy of a certificate or report whose evidence is unread reads the
    same evidence as the original, bit for bit: the witness and arrays of
    a refutation, and the least eigenvalue and slack that a Cholesky
    verdict defers.  A pickle or a deep copy computes nothing;
    ``dataclasses.replace`` reads every field."""
    rng = np.random.default_rng(37)
    refuted, partner, f = rand_coupled_pair(rng, 20.0)
    certified, other, g = rand_coupled_pair(rng, 1.0)
    originals = [certify_interconnection(refuted, partner, f),
                 is_psd(np.diag([1.0, -2.0])),
                 certify_interconnection(certified, other, g),
                 is_psd(np.diag([1.0, 2.0, 3.0, 4.0]))]
    assert [x.verdict for x in originals] == ["REFUTED", "NOT_PSD", "CERTIFIED", "PSD"]
    with decompositions() as calls:
        copies = [clone(obj) for obj in originals]
    assert bool(calls) == reads
    for original, copied in zip(originals, copies):
        assert copied.verdict == original.verdict
        for name in EVIDENCE[type(original)] + ("min_eigenvalue", "slack"):
            want = getattr(original, name)
            got = getattr(copied, name)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("coupling, verdict", [(20.0, REFUTED), (1.0, CERTIFIED)])
def test_to_dict_of_unread_evidence_matches_eager_evidence(coupling, verdict):
    s, partner, f = rand_coupled_pair(np.random.default_rng(41), coupling)
    cert = certify_interconnection(s, partner, f)
    assert cert.verdict == verdict
    eager = eager_pair_certificate(s, partner, f, verdict, cert.min_eigenvalue,
                                   cert.reason, cert.slack)
    assert json.dumps(cert.to_dict()) == json.dumps(eager.to_dict())


def system_matrices(*systems):
    return [getattr(s, field.name) for s in systems for field in dataclasses.fields(s)
            if isinstance(getattr(s, field.name), np.ndarray)]


def test_every_certificate_exposes_its_own_writable_arrays():
    """Stored, explicit PSD and not-PSD Theta, skew-F parts, a closed loop,
    and certify_ph: each array a certificate exposes is writable and
    shares no memory with a system matrix."""
    rng = np.random.default_rng(43)
    s, partner, f = rand_coupled_pair(rng, 1.0)
    refuted = dataclasses.replace(s, Z=20.0 * s.Z)
    other = rand_coupled_pair(rng, 1.0)[0]
    negated = dataclasses.replace(other, theta=-other.theta)  # never validated
    closed = interconnect(s, partner, f - 0.25 * np.eye(3))
    plant = StandardPHSystem(s.H, s.J, s.R, s.G)
    lti = StandardLTISystem(np.linalg.solve(plant.H, plant.J - plant.R),
                            np.linalg.solve(plant.H, plant.G), plant.G.T)
    unstable = StandardLTISystem(-lti.A, lti.B, lti.C)
    certs = {
        "stored": certify_delay_ph(s),
        "stored, refuted": certify_delay_ph(refuted),
        "explicit": certify_delay_ph(s, other.theta),
        "theta_not_psd": certify_delay_ph(s, negated.theta),
        "skew-F parts": certify_interconnection(refuted, partner, f),
        "closed loop": certify_interconnection(s, partner, f - 0.25 * np.eye(3)),
        "closed loop, stored": certify_delay_ph(closed),
        "certify_ph": certify_ph(lti, plant.H).certificate,
        "certify_ph, refuted": certify_ph(unstable, plant.H).certificate,
        "certify_ph, storage": certify_ph(lti, negated.theta).certificate,
    }
    assert [c.reason for c in certs.values()] == [
        "", "condition_indefinite", "", "theta_not_psd", "condition_indefinite", "", "",
        "", "dissipation_indefinite", "storage_not_psd"]
    matrices = system_matrices(s, partner, refuted, other, negated, closed, plant, lti,
                               unstable)
    for kind, cert in certs.items():
        for name in EVIDENCE[Certificate]:
            array = getattr(cert, name)
            if array is None:
                continue
            assert array.flags.writeable, (kind, name)
            assert not any(np.shares_memory(array, m) for m in matrices), (kind, name)
