import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phdelay import (
    CERTIFIED,
    REFUTED,
    DelayPHSystem,
    StandardLTISystem,
    StandardPHSystem,
    SystemValidationError,
    certify_delay_ph,
    certify_interconnection,
    certify_ph,
    check_necessary,
    close_delayed_feedback,
    construct_theta,
    delay_ph_to_general,
    exists_certifying_theta_grid,
    feedback_gain_bound,
    is_psd,
    ph_condition_matrix,
    scalar_theta_interval,
)
from phdelay.certify import FEASIBILITY_SLACK
from helpers import (
    check_necessary_svd,
    construction_oracle,
    exact_psd,
    exact_quadratic_form,
    integer_rows,
    integer_symmetric,
    kyp_delay_oracle,
    power_of_two_diagonal,
    rand_certified_delay_ph,
    rand_orth,
    rand_spd,
)

SQ3 = math.sqrt(3.0)


def scalar_system(alpha0=2.0, alpha1=1.0, theta=None):
    return DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[alpha0]], Z=[[alpha1]],
                         G=[[1.0]], tau=1.0, theta=theta)


def counterexample_rz():
    """R = I, Z = [[0, 1/sqrt 3], [2/sqrt 3, 0]]: whitened coupling 2/sqrt 3."""
    return np.eye(2), np.array([[0.0, 1.0 / SQ3], [2.0 / SQ3, 0.0]])


# ---------------------------------------------------------------------------
# condition matrix and scalar certification


def test_condition_matrix_hand_value():
    cond = ph_condition_matrix([[2.0]], [[1.0]], [[1.0]])
    np.testing.assert_array_equal(cond, [[1.0, 0.5], [0.5, 1.0]])


def test_condition_matrix_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        ph_condition_matrix(np.eye(2), np.eye(2), np.eye(3))


def test_scalar_certificate_at_the_largest_scale():
    """H = 1, R = 2, Z = 1, theta = 1 scaled by 7.5e307: 2R overflows, but
    the condition matrix 7.5e307 [[1, 1/2], [1/2, 1]] does not."""
    c = 7.5e307
    cert = certify_delay_ph(scalar_system(2.0 * c, c, theta=[[c]]))
    assert cert.verdict == CERTIFIED
    assert np.isfinite(cert.condition_matrix).all()
    assert cert.min_eigenvalue == pytest.approx(3.75e307, rel=1e-12)
    assert cert.slack == pytest.approx(1e-9 * 1.5 * c)


def test_scalar_certify_eigenvalues():
    cert = certify_delay_ph(scalar_system(), [[1.0]])
    assert cert.verdict == CERTIFIED
    evals = np.linalg.eigvalsh(cert.condition_matrix)
    np.testing.assert_allclose(evals, [0.5, 1.5], atol=1e-14)
    assert cert.min_eigenvalue == pytest.approx(0.5)


@pytest.mark.parametrize("c", [1.0, 1e-8, 1e-9, 1e-10])
def test_scalar_refutation_does_not_depend_on_units(c):
    # R = Z = Theta = c: the least eigenvalue is (1 - sqrt(2)) c / 2 < 0
    system = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[c]], Z=[[c]], G=[[1.0]],
                           tau=1.0, theta=[[c]])
    cert = certify_delay_ph(system)
    assert cert.verdict == REFUTED
    assert cert.min_eigenvalue == pytest.approx((1.0 - math.sqrt(2.0)) * c / 2.0)


def test_scalar_eigenvalue_law():
    """lambda = a0/2 +- sqrt(a0^2/4 + th^2 - a0 th + a1^2/4)."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        a0 = rng.uniform(0.1, 3.0)
        a1 = rng.uniform(-2.0, 2.0)
        th = rng.uniform(0.01, 3.0)
        root = math.sqrt(a0 * a0 / 4 + th * th - a0 * th + a1 * a1 / 4)
        expected = np.sort([a0 / 2 - root, a0 / 2 + root])
        got = np.linalg.eigvalsh(ph_condition_matrix([[a0]], [[a1]], [[th]]))
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_scalar_certify_tracks_interval():
    interval = scalar_theta_interval(2.0, 1.0)
    for th, expect in [
        (interval.lo - 1e-3, REFUTED),
        (interval.lo + 1e-3, CERTIFIED),
        (1.0, CERTIFIED),
        (interval.hi - 1e-3, CERTIFIED),
        (interval.hi + 1e-3, REFUTED),
    ]:
        cert = certify_delay_ph(scalar_system(), [[th]])
        assert cert.verdict == expect, th


def test_scalar_interval_worked_example():
    interval = scalar_theta_interval(2.0, 1.0)
    assert interval.feasible
    assert interval.lo == pytest.approx(1.0 - SQ3 / 2.0, abs=1e-15)
    assert interval.hi == pytest.approx(1.0 + SQ3 / 2.0, abs=1e-15)


def test_scalar_interval_infeasible_and_degenerate():
    assert not scalar_theta_interval(1.0, 2.0).feasible
    assert not scalar_theta_interval(-1.0, 0.0).feasible
    tight = scalar_theta_interval(1.5, 1.5)
    assert tight.feasible
    assert tight.lo == tight.hi == pytest.approx(0.75)


@pytest.mark.parametrize("alpha0, alpha1", [
    (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf),
])
def test_scalar_interval_rejects_non_finite_arguments(alpha0, alpha1):
    with pytest.raises(ValueError, match="must be finite"):
        scalar_theta_interval(alpha0, alpha1)


@pytest.mark.parametrize("c", [1e-300, 1e200, 1e307])
def test_scalar_interval_does_not_depend_on_units(c):
    interval = scalar_theta_interval(2.0 * c, c)
    assert interval.feasible
    assert interval.lo == pytest.approx(c * (1.0 - SQ3 / 2.0), rel=1e-15)
    assert interval.hi == pytest.approx(c * (1.0 + SQ3 / 2.0), rel=1e-15)


def test_certify_theta_priority_argument_wins():
    sys1 = scalar_system(theta=[[0.05]])  # stored theta refutes
    assert certify_delay_ph(sys1).verdict == REFUTED
    assert certify_delay_ph(sys1, [[1.0]]).verdict == CERTIFIED


def test_certify_requires_some_theta():
    with pytest.raises(ValueError, match="no Theta available"):
        certify_delay_ph(scalar_system())


def test_certify_rejects_bad_theta():
    cert = certify_delay_ph(scalar_system(), [[-0.5]])
    assert cert.verdict == REFUTED
    assert cert.reason == "theta_not_psd"
    with pytest.raises(ValueError, match="shape"):
        certify_delay_ph(scalar_system(), np.eye(2))


def test_certify_validates_system_first():
    bad = DelayPHSystem(H=[[-1.0]], J=[[0.0]], R=[[1.0]], Z=[[0.0]],
                        G=[[1.0]], tau=1.0)
    with pytest.raises(SystemValidationError):
        certify_delay_ph(bad, [[0.5]])


def test_refuted_witness_exhibits_negativity():
    cert = certify_delay_ph(scalar_system(), [[0.05]])
    assert cert.verdict == REFUTED
    w = cert.witness
    assert float(w @ cert.condition_matrix @ w) == pytest.approx(
        cert.min_eigenvalue, abs=1e-12
    )
    assert cert.min_eigenvalue < 0


@st.composite
def stored_theta_systems(draw):
    """A random system with (R, Z, Theta) scaled by c; Theta = R refutes it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    part = rand_certified_delay_ph(rng, draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    c = 10.0 ** draw(st.floats(-6.0, 4.0))
    theta = part.R if draw(st.booleans()) else part.theta
    return DelayPHSystem(H=part.H, J=part.J, R=c * part.R, Z=c * part.Z,
                         G=part.G, tau=part.tau, theta=c * theta)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(stored_theta_systems())
def test_stored_theta_certifies_like_the_same_theta_passed_in(system):
    """The stored Theta and an equal Theta passed in take different routes
    through certify_delay_ph and give the same certificate."""
    stored = certify_delay_ph(system)
    passed = certify_delay_ph(system, np.array(system.theta))
    assert (stored.verdict, stored.reason) == (passed.verdict, passed.reason)
    assert stored.min_eigenvalue == passed.min_eigenvalue
    assert stored.slack == passed.slack
    if passed.witness is None:
        assert stored.witness is None and passed.verdict == CERTIFIED
    else:
        assert stored.witness.tobytes() == passed.witness.tobytes()
    assert stored.condition_matrix.tobytes() == passed.condition_matrix.tobytes()
    assert stored.theta_used.tobytes() == passed.theta_used.tobytes()


def test_certify_random_certified_instances():
    rng = np.random.default_rng(33)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            sys1 = rand_certified_delay_ph(rng, n)
            cert = certify_delay_ph(sys1)
            assert cert.verdict == CERTIFIED
            assert cert.min_eigenvalue >= 0.02  # generator guarantees margin


# ---------------------------------------------------------------------------
# necessary conditions


@pytest.mark.parametrize("theta, z, name", [
    (np.eye(3), np.eye(2), "theta"), (np.eye(2), np.eye(3), "Z"),
], ids=["theta", "Z"])
def test_necessary_rejects_misshapen_arguments(theta, z, name):
    with pytest.raises(ValueError, match=rf"^{name} has shape .*expected \(2, 2\)"):
        check_necessary(np.eye(2), theta, z)


def test_necessary_all_hold_on_certified():
    rng = np.random.default_rng(35)
    for _ in range(25):
        sys1 = rand_certified_delay_ph(rng, 4)
        conditions = check_necessary(sys1.R, sys1.theta, sys1.Z)
        assert conditions.all_hold


@st.composite
def necessary_triples(draw):
    """(R, Theta, Z) with R of any rank and Theta, Z in or out of its image."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rand_orth(rng, n)
    lam = np.zeros(n)
    lam[: draw(st.integers(0, n))] = rng.uniform(0.5, 2.0)
    r = (q * lam) @ q.T
    root = (q * np.sqrt(lam)) @ q.T
    theta = {
        "half_r": 0.5 * r,
        "inside": root @ rand_spd(rng, n, (0.1, 1.0)) @ root,
        "full": rand_spd(rng, n, (0.1, 1.0)),
    }[draw(st.sampled_from(["half_r", "inside", "full"]))]
    w = rng.standard_normal((n, n))
    w *= rng.uniform(0.2, 1.5) / np.linalg.norm(w, 2)
    z = {
        "inside": root @ w @ root,
        "left": root @ w,
        "right": w @ root,
        "any": w,
    }[draw(st.sampled_from(["inside", "left", "right", "any"]))]
    c = 10.0 ** draw(st.integers(-8, 4))
    return c * r, c * theta, c * z


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(necessary_triples())
def test_necessary_containments_imply_the_svd_conditions(triple):
    """The three containments imply the SVD oracle's chain and intersections,
    and every certified triple satisfies them."""
    r, theta, z = triple
    holds = check_necessary(r, theta, z).all_hold
    if holds:
        assert check_necessary_svd(r, theta, z)
    if is_psd(ph_condition_matrix(r, z, theta)).is_psd:
        assert holds


def test_necessary_detects_kernel_chain_break():
    # ker(R) = span(e2) but Theta e2 != 0
    conditions = check_necessary(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]),
                                 np.zeros((2, 2)))
    assert not conditions.kernel_r_in_kernel_theta
    assert conditions.kernel_theta_in_kernel_z and conditions.kernel_r_in_kernel_zt
    assert not conditions.all_hold
    # ker(Theta) = span(e2) but Z e2 != 0
    conditions = check_necessary(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]),
                                 np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not conditions.kernel_theta_in_kernel_z
    assert conditions.kernel_r_in_kernel_theta and conditions.kernel_r_in_kernel_zt


def test_necessary_detects_z_image_meeting_kernel():
    # image(Z) = span(e2) = ker(R), so Z^T e2 != 0
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    conditions = check_necessary(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]), z)
    assert not conditions.kernel_r_in_kernel_zt
    assert conditions.kernel_r_in_kernel_theta and conditions.kernel_theta_in_kernel_z


def test_necessary_holds_on_degenerate_but_consistent_triple():
    conditions = check_necessary(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]),
                                 np.diag([0.4, 0.0]))
    assert conditions.all_hold


# ---------------------------------------------------------------------------
# theta construction


def test_construct_scalar_worked_example():
    out = construct_theta([[2.0]], [[1.0]])
    assert out.success
    np.testing.assert_allclose(out.theta, [[1.0]])
    assert out.interval.sigma == pytest.approx(0.5)
    assert out.interval.lo == pytest.approx(0.5 - SQ3 / 4.0)
    assert out.interval.hi == pytest.approx(0.5 + SQ3 / 4.0)


def test_alpha_interval_matches_scalar_interval():
    """Theta(alpha) = alpha * a0 must reproduce the closed-form interval."""
    rng = np.random.default_rng(37)
    for _ in range(100):
        a0 = rng.uniform(0.1, 3.0)
        a1 = a0 * rng.uniform(1e-3, 1.0) * rng.choice([-1.0, 1.0])
        out = construct_theta([[a0]], [[a1]])
        ref = scalar_theta_interval(a0, a1)
        assert out.success and ref.feasible
        assert out.interval.lo * a0 == pytest.approx(ref.lo, abs=1e-10)
        assert out.interval.hi * a0 == pytest.approx(ref.hi, abs=1e-10)


def test_construct_endpoints_are_tight():
    rng = np.random.default_rng(39)
    for n in (1, 2, 4):
        for _ in range(10):
            r = rand_spd(rng, n, (0.4, 2.0))
            z = rng.standard_normal((n, n))
            # ||Z|| <= lam_min(R) keeps the whitened coupling below one
            z *= rng.uniform(0.1, 0.95) * np.linalg.eigvalsh(r)[0] / np.linalg.norm(z, 2)
            out = construct_theta(r, z)
            assert out.success
            norm_r = np.linalg.norm(r, 2)
            for alpha in (out.interval.lo, out.interval.hi):
                cond = ph_condition_matrix(r, z, alpha * r)
                lam = np.linalg.eigvalsh(cond)[0]
                assert -1e-9 * (1 + norm_r) <= lam <= 1e-5 * norm_r


def test_construct_interior_certifies_with_margin():
    rng = np.random.default_rng(41)
    for _ in range(20):
        r = rand_spd(rng, 3, (0.4, 2.0))
        z = rng.standard_normal((3, 3))
        z *= 0.8 * np.linalg.eigvalsh(r)[0] / np.linalg.norm(z, 2)
        out = construct_theta(r, z)
        assert out.success
        report = is_psd(ph_condition_matrix(r, z, out.theta))
        assert report.is_psd


@st.composite
def near_unit_couplings(draw):
    """(R, Z): R positive definite of order 1-6, Z = R^(1/2) W R^(1/2) with
    ||W||_2 = 1 + t, so the whitened coupling is 1 + t up to rounding, t
    at, near or far from the slack; W general or orthogonal (its singular
    values all equal), and both scaled by 2^k."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.sampled_from([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 5e-10, 2e-9, 1e-6])
             | st.floats(-0.9, 1.5))
    q = rand_orth(rng, n)
    lam = rng.uniform(0.5, 2.0, n)
    root = (q * np.sqrt(lam)) @ q.T
    w = rand_orth(rng, n) if draw(st.booleans()) else rng.standard_normal((n, n))
    w *= (1.0 + t) / np.linalg.norm(w, 2)
    k = draw(st.sampled_from([-200, 0, 200]))
    r = (q * lam) @ q.T
    return np.ldexp(0.5 * (r + r.T), k), np.ldexp(root @ w @ root, k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_unit_couplings())
def test_construction_follows_the_rule_near_a_unit_coupling(case):
    """Success, reason and interval are those of the rule with s by SVD
    (``helpers.construction_oracle``), wherever the two 2-norms, equal to
    within about 1e-15, fall on the same side of 1 + slack."""
    r, z = case
    success, sigma, lo, hi = construction_oracle(r, z)
    assume(abs(sigma - (1.0 + FEASIBILITY_SLACK)) > 1e-13)
    out = construct_theta(r, z)
    assert out.success is success
    assert out.interval.sigma == pytest.approx(sigma, rel=1e-13)
    assert out.interval.feasible is success
    if success:
        assert out.reason == ""
        # at s = 1 - d the interval moves by about 1e-15 / sqrt(2 d) per
        # 1e-15 of s
        assert (out.interval.lo, out.interval.hi) == pytest.approx((lo, hi), abs=1e-7)
    else:
        assert out.reason == (
            f"sufficient_condition: whitened coupling {out.interval.sigma:.12g} > 1")


def test_construct_kernel_guard_z_kernel():
    out = construct_theta(np.diag([1.0, 0.0]),
                          np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not out.success
    assert "ker(R) is not contained in ker(Z)" in out.reason


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9])
def test_construct_kernel_guard_is_unit_free(c):
    # Z e2 = (1e-6, 0) with ker(R) = span(e2): refused at every scale
    out = construct_theta(c * np.diag([1.0, 0.0]),
                          c * np.array([[0.5, 1e-6], [0.0, 0.0]]))
    assert not out.success
    assert "ker(R) is not contained in ker(Z)" in out.reason


def test_construct_kernel_guard_image_meets_kernel():
    # image(Z) = ker(R) = span(e2): the image containment refuses it
    out = construct_theta(np.diag([1.0, 0.0]),
                          np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert not out.success
    assert "image(Z) is not contained in image(R)" in out.reason


def test_construct_kernel_guard_image_escape():
    """Z pushing outside image(R) breaks the whitened reduction.

    For R = diag(1, 0), Z = [[1/2, 0], [1/2, 0]] the first two kernel
    checks pass, yet Theta = R/2 does NOT certify: the construction must
    refuse rather than return an unsound Theta.
    """
    r = np.diag([1.0, 0.0])
    z = np.array([[0.5, 0.0], [0.5, 0.0]])
    naive = is_psd(ph_condition_matrix(r, z, 0.5 * r))
    assert not naive.is_psd  # the would-be certificate is genuinely wrong
    out = construct_theta(r, z)
    assert not out.success
    assert "image(Z) is not contained in image(R)" in out.reason


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("lam, reason", [
    (-5e-11, "kernel_condition"), (-2e-10, "kernel_condition"),
    (-9e-10, "kernel_condition"), (-2e-9, "R is not positive semidefinite"),
])
def test_construct_counts_a_forgiven_negative_eigenvalue_as_kernel(lam, reason, c):
    """R = c diag(1, lam), Z = c e2 e2^T.  An eigenvalue in [-slack, 0) is
    in ker(R), so Z e2 != 0 breaks the kernel hypothesis; one below the
    slack makes R not PSD.  Theta = R/2 would not certify any of them."""
    out = construct_theta(c * np.diag([1.0, lam]), c * np.diag([0.0, 1.0]))
    assert not out.success and out.theta is None
    assert out.reason.startswith(reason)


def test_construct_counterexample_is_inconclusive_not_refuted():
    r, z = counterexample_rz()
    out = construct_theta(r, z)
    assert not out.success
    assert out.reason.startswith("sufficient_condition")
    assert out.interval is not None and not out.interval.feasible
    assert out.interval.sigma == pytest.approx(2.0 / SQ3, abs=1e-12)
    # ... and yet an explicit certificate exists: sufficiency is not necessity
    explicit = np.diag([0.5, 0.25])
    report = is_psd(ph_condition_matrix(r, z, explicit))
    assert report.is_psd
    assert report.min_eigenvalue >= -1e-9


def test_construct_requires_psd_r():
    # an indefinite R is a failed construction, not an input error
    out = construct_theta(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    assert not out.success and out.theta is None and out.interval is None
    assert out.reason == "R is not positive semidefinite (min eigenvalue -1.000e+00)"
    with pytest.raises(ValueError, match="not symmetric"):
        construct_theta([[1.0, 1.0], [0.0, 1.0]], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        construct_theta(np.eye(2), np.eye(3))


def test_construct_zero_matrices():
    out = construct_theta(np.zeros((2, 2)), np.zeros((2, 2)))
    assert out.success
    np.testing.assert_array_equal(out.theta, np.zeros((2, 2)))
    cert = certify_delay_ph(
        DelayPHSystem(H=np.eye(2), J=np.zeros((2, 2)), R=np.zeros((2, 2)),
                      Z=np.zeros((2, 2)), G=np.zeros((2, 1)), tau=1.0),
        out.theta,
    )
    assert cert.verdict == CERTIFIED


@st.composite
def split_spectra(draw):
    """(R, Z, G, F direction) over one eigenbasis of R, scaled by 10^k.

    R has range eigenvalues in [0.1, 1], exact zeros, and eigenvalues
    strictly inside the band [-slack, -rank_tol * scale) that the PSD
    slack forgives.  Z and G each reach the range and a drawn subset of
    the other eigenvectors; ||Z||_2 spreads the whitened coupling around 1.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["range"] + draw(st.lists(st.sampled_from(["range", "zero", "band"]),
                                      max_size=4))
    n, m = len(kinds), draw(st.integers(1, 3))
    lam = np.array([rng.uniform(0.1, 1.0) if k == "range" else 0.0 for k in kinds])
    band = np.array([k == "band" for k in kinds])
    lam[band] = -rng.uniform(1.1e-10, 0.9e-9, band.sum()) * lam.max()
    q = rand_orth(rng, n)

    def reaching():
        keep = np.array([k == "range" or draw(st.booleans()) for k in kinds])
        return q[:, keep]

    qz = reaching()
    w = rng.standard_normal((qz.shape[1], qz.shape[1]))
    w *= rng.uniform(0.2, 1.5) * lam[lam > 0].min() / np.linalg.norm(w, 2)
    qg = reaching()
    c = 10.0 ** draw(st.integers(-6, 6))
    f = rng.standard_normal((m, m))
    return (c * ((q * lam) @ q.T), c * (qz @ w @ qz.T),
            qg @ rng.standard_normal((qg.shape[1], m)), f / np.linalg.norm(f, 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(split_spectra())
def test_constructions_and_gain_bounds_certify(case):
    """A construction that succeeds certifies, and so does the closed loop
    of delayed feedback at half the gain bound: the kernel, the whitening
    and the PSD verdicts all come from one split of each spectrum."""
    r, z, g, f = case
    n = g.shape[0]
    built = construct_theta(r, z)
    if built.success:
        system = DelayPHSystem(H=np.eye(n), J=np.zeros((n, n)), R=r, Z=z,
                               G=np.ones((n, 1)), tau=1.0)
        assert certify_delay_ph(system, built.theta).verdict == CERTIFIED
    try:
        beta = feedback_gain_bound(r, g)
    except ValueError:  # ker(R) meets image(G)
        return
    if math.isinf(beta):
        return
    plant = StandardPHSystem(H=np.eye(n), J=np.zeros((n, n)), R=r, G=g)
    closed = close_delayed_feedback(plant, 0.5 * beta * f, 1.0)
    built = construct_theta(closed.R, closed.Z)
    assert built.success
    assert certify_delay_ph(closed, built.theta).verdict == CERTIFIED


# ---------------------------------------------------------------------------
# block KYP route in general coordinates, against the test-side oracle


def test_kyp_block_equals_condition_matrix_at_half_h():
    """With Q11 = H/2, Q22 = Theta the KYP block IS the condition matrix.

    The inequality verdicts therefore coincide; the classical output
    condition C = B^T Q11, however, sees G^T/2 against G^T, so the full
    verdict only matches when G = 0 (next test) or when the doubled
    storage (H, 2 Theta) is used instead.
    """
    rng = np.random.default_rng(45)
    for _ in range(15):
        sys1 = rand_certified_delay_ph(rng, 3)
        gen = delay_ph_to_general(sys1)
        block, _, block_psd, output_holds = kyp_delay_oracle(gen, 0.5 * sys1.H, sys1.theta)
        cond = ph_condition_matrix(sys1.R, sys1.Z, sys1.theta)
        np.testing.assert_allclose(block, cond, atol=1e-10)
        assert block_psd == is_psd(cond).is_psd
        assert not output_holds  # output residual ||G^T/2||


def test_kyp_full_verdict_matches_for_zero_port():
    rng = np.random.default_rng(47)
    for _ in range(10):
        sys1 = rand_certified_delay_ph(rng, 3)
        sys0 = DelayPHSystem(sys1.H, sys1.J, sys1.R, sys1.Z,
                             np.zeros((3, 1)), sys1.tau, sys1.theta)
        _, *holds = kyp_delay_oracle(delay_ph_to_general(sys0), 0.5 * sys0.H, sys0.theta)
        assert all(holds) and certify_delay_ph(sys0).verdict == CERTIFIED


def test_kyp_doubled_storage_matches_verdict_with_output():
    """(Q11, Q22) = (H, 2 Theta) doubles the block and fixes the output."""
    rng = np.random.default_rng(49)
    for _ in range(15):
        sys1 = rand_certified_delay_ph(rng, 3)
        gen = delay_ph_to_general(sys1)
        block, *holds = kyp_delay_oracle(gen, sys1.H, 2.0 * sys1.theta)
        assert all(holds) and certify_delay_ph(sys1).verdict == CERTIFIED
        cond = ph_condition_matrix(sys1.R, sys1.Z, sys1.theta)
        np.testing.assert_allclose(block, 2.0 * cond, atol=1e-10)


# ---------------------------------------------------------------------------
# brute-force grid oracle


def test_grid_oracle_scalar():
    found, theta = exists_certifying_theta_grid([[2.0]], [[1.0]])
    assert found
    assert is_psd(ph_condition_matrix([[2.0]], [[1.0]], theta)).is_psd
    found, theta = exists_certifying_theta_grid([[1.0]], [[2.0]])
    assert not found and theta is None


def test_grid_oracle_finds_counterexample_theta():
    r, z = counterexample_rz()
    found, theta = exists_certifying_theta_grid(r, z)
    assert found
    report = is_psd(ph_condition_matrix(r, z, theta))
    assert report.is_psd


def test_grid_oracle_zero_edge_cases():
    found, theta = exists_certifying_theta_grid(np.zeros((2, 2)),
                                                np.zeros((2, 2)))
    assert found
    np.testing.assert_array_equal(theta, np.zeros((2, 2)))
    found, _ = exists_certifying_theta_grid(np.zeros((2, 2)), np.eye(2))
    assert not found


@pytest.mark.parametrize("r, z", [
    (np.diag([1.0, 0.0]), np.diag([0.9, 0.0])),  # det = 0 on part of the grid
    (np.eye(2), 1.5 * np.eye(2)),
], ids=["rank_deficient_r", "infeasible"])
def test_grid_oracle_emits_no_warnings(r, z):
    """Singular Theta candidates are skipped without dividing by zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exists_certifying_theta_grid(r, z) == (False, None)


@pytest.mark.parametrize("r, z", [
    ([[2.0]], [[1.0]]), counterexample_rz(), (np.eye(2), 1.5 * np.eye(2)),
], ids=["scalar", "counterexample", "infeasible"])
def test_grid_oracle_is_decided_at_unit_scale(r, z):
    """(*) is homogeneous in (R, Z, Theta): R and Z scaled by c give the same
    answer with Theta scaled by c, up to the largest floats, with no
    overflow warning."""
    r, z = np.asarray(r), np.asarray(z)
    found, theta = exists_certifying_theta_grid(r, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-300, 1.0, 1e150, 1e300, 2e300, 8e307):
            got, scaled = exists_certifying_theta_grid(c * r, c * z)
            assert got == found
            if found:
                # the same grid point; off-diagonal zeros carry arange's residue
                np.testing.assert_allclose(scaled / c, theta, rtol=1e-12,
                                           atol=1e-12 * np.abs(theta).max())
            else:
                assert scaled is None


def test_grid_oracle_rejects_large_systems():
    with pytest.raises(ValueError, match="n = 1 and n = 2"):
        exists_certifying_theta_grid(np.eye(3), np.zeros((3, 3)))


def test_grid_oracle_agrees_with_construction():
    rng = np.random.default_rng(51)
    for _ in range(10):
        r = rand_spd(rng, 2, (0.5, 1.5))
        z = rng.standard_normal((2, 2))
        z *= rng.uniform(0.1, 0.85) * np.linalg.eigvalsh(r)[0] / np.linalg.norm(z, 2)
        out = construct_theta(r, z)
        assert out.success and out.interval.sigma <= 1.0
        found, theta = exists_certifying_theta_grid(r, z)
        assert found
        assert is_psd(ph_condition_matrix(r, z, theta)).is_psd


# ---------------------------------------------------------------------------
# exact soundness of PSD verdicts: integer-valued instances, congruently
# scaled by powers of two, decided in rational arithmetic


@st.composite
def scaled_integer_symmetric(draw, max_order=6):
    k = draw(st.integers(1, max_order))
    d = draw(power_of_two_diagonal(k))
    return d[:, None] * draw(integer_symmetric(k)) * d


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(scaled_integer_symmetric())
def test_is_psd_is_exactly_sound(m):
    """is_psd never refutes an exactly PSD matrix, and each NOT_PSD
    witness w has w^T M w < 0 in rational arithmetic."""
    report = is_psd(m)
    if not report.is_psd:
        assert not exact_psd(m)
        assert exact_quadratic_form(report.witness, m) < 0


@st.composite
def integer_delay_ph(draw, stored=False):
    """(system, Theta) with integer R, Z and Theta of order n <= 3, each
    scaled by one D = diag(2^e), so the condition matrix is a congruence
    of the unscaled one; H = I, J = 0.  With ``stored`` n <= 2, Theta is
    PSD and stored on the system, and G has 1 or 2 integer columns."""
    n = draw(st.integers(1, 2 if stored else 3))
    d = draw(power_of_two_diagonal(n))
    dd = d[:, None] * d
    r = dd * draw(integer_symmetric(n))
    theta = dd * (draw(integer_rows(n, 1, n).map(lambda b: b.T @ b)) if stored
                  else draw(integer_symmetric(n)))
    z = dd * draw(integer_rows(n, n, n))
    g = (draw(integer_rows(n, n, n)).T[:, : draw(st.integers(1, 2))] if stored
         else np.ones((n, 1)))
    system = DelayPHSystem(H=np.eye(n), J=np.zeros((n, n)), R=r, Z=z, G=g, tau=1.0,
                           theta=theta if stored else None)
    return system, theta


@st.composite
def integer_certificate_case(draw):
    """``(produce, args, named)``: a certificate producer of phdelay, its
    integer-valued arguments, and the matrix that each reason other than
    a refuted condition matrix names.  Four in seven cases certify a delay
    system, the rest spread over the other producers."""
    kind = draw(st.sampled_from(["delay"] * 4 + ["ph", "skew", "coupled"]))
    if kind == "delay":
        system, theta = draw(integer_delay_ph())
        return certify_delay_ph, (system, theta), {"theta_not_psd": theta}
    n = draw(st.integers(1, 3))
    h = draw(integer_symmetric(n))
    b = draw(integer_rows(n, n, n)).T[:, : draw(st.integers(1, 2))]
    # C = B^T H, so the output condition holds and a PSD test decides
    if kind == "ph":
        a = draw(integer_rows(n, n, n))
        return certify_ph, (StandardLTISystem(a, b, b.T @ h), h), {"storage_not_psd": h}
    (sys1, _), (sys2, _) = draw(integer_delay_ph(stored=True)), draw(integer_delay_ph(stored=True))
    f = draw(integer_rows(sys1.m + sys2.m, sys1.m + sys2.m, sys1.m + sys2.m))
    return certify_interconnection, (sys1, sys2, f - f.T if kind == "skew" else f), {}


@settings(max_examples=700, deadline=None, derandomize=True, database=None)
@given(integer_certificate_case())
def test_every_refutation_witness_is_exact(case):
    """A REFUTED certificate's witness w has w^T M w < 0 in rational
    arithmetic, M the matrix its verdict tested: H or Theta where the
    reason names it, the certificate's condition matrix otherwise."""
    produce, args, named = case
    cert = produce(*args)
    cert = getattr(cert, "certificate", cert)  # certify_ph wraps its certificate
    if cert.verdict == REFUTED:
        m = named.get(cert.reason, cert.condition_matrix)
        assert exact_quadratic_form(cert.witness, m) < 0
