import numpy as np
import pytest

from phdelay import (
    MINIMAL,
    NOT_CONTROLLABLE,
    NOT_OBSERVABLE,
    REFUTED,
    StandardLTISystem,
    certify_ph,
    check_minimality,
)
from phdelay.standard import weighted_system_matrix
from helpers import kyp_matrix, rand_antisym, rand_spd


def example_ph_lti():
    """A = [[-1,2],[-2,-1]], B = [1,0]^T, C = [1,0], H = I.

    Hand split of H A: sym part -I (so R = I), skew part [[0,2],[-2,0]].
    """
    return StandardLTISystem(
        A=np.array([[-1.0, 2.0], [-2.0, -1.0]]),
        B=np.array([[1.0], [0.0]]),
        C=np.array([[1.0, 0.0]]),
    )


def random_ph_lti(rng, n, m=1):
    """Generate (A, B, C, H) from known port-Hamiltonian data."""
    h = rand_spd(rng, n)
    j = rand_antisym(rng, n)
    r = rand_spd(rng, n, (0.1, 1.0))
    g = rng.standard_normal((n, m))
    a = np.linalg.solve(h, j - r)
    b = np.linalg.solve(h, g)
    return StandardLTISystem(a, b, g.T.copy()), h, j, r, g


def test_certify_ph_hand_example():
    result = certify_ph(example_ph_lti(), np.eye(2))
    assert result.certified
    assert result.certificate.verdict == "CERTIFIED"
    np.testing.assert_allclose(result.decomposition.J,
                               [[0.0, 2.0], [-2.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(result.decomposition.R, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(result.decomposition.G,
                               [[1.0], [0.0]], atol=1e-14)


def test_certify_ph_recovers_random_structure():
    rng = np.random.default_rng(21)
    for _ in range(20):
        sys1, h, j, r, g = random_ph_lti(rng, 4, m=2)
        result = certify_ph(sys1, h)
        assert result.certified
        np.testing.assert_allclose(result.decomposition.J, j, atol=1e-10)
        np.testing.assert_allclose(result.decomposition.R, r, atol=1e-10)
        np.testing.assert_allclose(result.decomposition.G, g, atol=1e-10)


def test_certify_ph_output_mismatch():
    sys1 = StandardLTISystem(A=[[-1.0]], B=[[1.0]], C=[[2.0]])
    result = certify_ph(sys1, [[1.0]])  # H B = 1 but C^T = 2
    assert not result.certified
    assert result.certificate.reason.startswith("output_mismatch")
    assert result.decomposition is None


@pytest.mark.parametrize("c", [1.0, 1e-6])
def test_certify_ph_output_mismatch_is_unit_free(c):
    """A relative output mismatch of 1e-5 refutes at every scale of B, C."""
    b, cc = [[c]], [[c * (1.0 + 1e-5)]]
    result = certify_ph(StandardLTISystem(A=[[-1.0]], B=b, C=cc), [[1.0]])
    assert result.certificate.verdict == REFUTED
    assert result.certificate.reason.startswith("output_mismatch")


def test_certify_ph_dissipation_indefinite():
    # negative damping: A = +1 with H = 1 makes sym(H A) positive
    sys1 = StandardLTISystem(A=[[1.0]], B=[[1.0]], C=[[1.0]])
    result = certify_ph(sys1, [[1.0]])
    assert not result.certified
    assert result.certificate.reason == "dissipation_indefinite"
    w = result.certificate.witness
    assert float(w @ result.certificate.condition_matrix @ w) < 0.0


def test_certify_ph_refutes_an_energy_matrix_that_is_not_psd():
    """x' = x + u, y = -x is unstable, yet for H = -1 it meets the
    dissipation and output conditions: the storage -x^2/2 refutes, on H."""
    result = certify_ph(StandardLTISystem(A=[[1.0]], B=[[1.0]], C=[[-1.0]]), [[-1.0]])
    cert = result.certificate
    assert (cert.verdict, cert.reason) == (REFUTED, "storage_not_psd")
    assert cert.min_eigenvalue == -1.0
    assert abs(cert.witness[0]) == 1.0  # a unit vector with w^T H w < 0
    assert result.decomposition is None


def test_certify_ph_rejects_an_asymmetric_energy_matrix():
    with pytest.raises(ValueError, match=r"^H is not symmetric"):
        certify_ph(example_ph_lti(), [[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("build", [certify_ph, weighted_system_matrix])
def test_misshapen_energy_matrix_is_named(build):
    with pytest.raises(ValueError, match=r"^H has shape \(1, 2\), expected \(2, 2\)"):
        build(example_ph_lti(), [[1.0, 0.0]])


def test_weighted_system_matrix_hand_value():
    sys1 = example_ph_lti()
    sigma = weighted_system_matrix(sys1, np.eye(2))
    np.testing.assert_array_equal(sigma, [[-1.0, 2.0, 1.0],
                                          [-2.0, -1.0, 0.0],
                                          [-1.0, 0.0, 0.0]])


def test_kyp_matrix_hand_value():
    """-2 sym(Sigma) is the hand value of W(I) for the hand example."""
    sigma = weighted_system_matrix(example_ph_lti(), np.eye(2))
    np.testing.assert_array_equal(-(sigma + sigma.T), [[2.0, 0.0, 0.0],
                                                       [0.0, 2.0, 0.0],
                                                       [0.0, 0.0, 0.0]])


def test_kyp_equals_minus_twice_sym_sigma():
    """The KYP matrix is exactly -2 * sym(weighted system matrix)."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        sys1 = StandardLTISystem(A=rng.standard_normal((n, n)),
                                 B=rng.standard_normal((n, m)),
                                 C=rng.standard_normal((m, n)))
        h = rand_spd(rng, n)
        sigma = weighted_system_matrix(sys1, h)
        np.testing.assert_allclose(kyp_matrix(sys1, h),
                                   -(sigma + sigma.T), atol=1e-12)


def test_check_minimality_hand_example():
    sys1 = StandardLTISystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                             C=[[1.0, 0.0]])
    assert check_minimality(sys1) == MINIMAL


def test_check_minimality_not_controllable():
    sys1 = StandardLTISystem(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                             C=[[1.0, 1.0]])
    assert check_minimality(sys1) == NOT_CONTROLLABLE


def test_check_minimality_not_observable():
    sys1 = StandardLTISystem(A=np.diag([-1.0, -2.0]), B=[[1.0], [1.0]],
                             C=[[1.0, 0.0]])
    assert check_minimality(sys1) == NOT_OBSERVABLE


def test_check_minimality_controllability_reported_first():
    sys1 = StandardLTISystem(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                             C=[[1.0, 0.0]])
    assert check_minimality(sys1) == NOT_CONTROLLABLE
