import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phdelay import (
    CERTIFIED,
    DISSIPATIVE,
    GENERAL,
    POWER_CONSERVING,
    REFUTED,
    DelayPHSystem,
    StandardPHSystem,
    SystemValidationError,
    certify_delay_ph,
    certify_interconnection,
    check_feedback_conditions,
    classify_feedback,
    close_delayed_feedback,
    construct_theta,
    feedback_gain_bound,
    interconnect,
)
from helpers import (
    check_feedback_conditions_svd,
    construction_oracle,
    decompositions,
    feedback_gain_bound_svd,
    rand_antisym,
    rand_certified_delay_ph,
    rand_orth,
)


def scalar_system(a0=2.0, a1=1.0, theta=1.0):
    return DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[a0]], Z=[[a1]],
                         G=[[1.0]], tau=1.0, theta=[[theta]])


# ---------------------------------------------------------------------------
# feedback classification


def test_classify_feedback():
    assert classify_feedback([[0.0, 1.0], [-1.0, 0.0]]) == POWER_CONSERVING
    assert classify_feedback(np.zeros((2, 2))) == POWER_CONSERVING
    assert classify_feedback([[-1.0, 2.0], [0.0, -1.0]]) == DISSIPATIVE
    assert classify_feedback(np.eye(2)) == GENERAL
    with pytest.raises(ValueError, match="square"):
        classify_feedback(np.ones((2, 3)))


def test_classify_feedback_decomposes_minus_sym_f_once():
    """One split of -sym(F) gives its norm and its sign: a general F needs
    no second decomposition of it, and ||F||_2 is one eigvalsh of its Gram
    matrix, no SVD."""
    with decompositions() as calls:
        assert classify_feedback(np.eye(2)) == GENERAL
    assert [name for name, _ in calls] == ["eigh", "eigvalsh"]
    assert [name for name, a in calls if np.array_equal(a, -np.eye(2))] == ["eigh"]


def test_classify_feedback_nearly_skew_is_power_conserving():
    """F + F^T = 1e-14 diag(1, 0) is nonzero, but ||sym(F)|| is below
    1e-12 ||F||."""
    f = np.array([[1e-14, 1.0], [-1.0, 0.0]])
    assert np.any(f + f.T)
    assert classify_feedback(f) == POWER_CONSERVING
    assert classify_feedback(1e300 * f) == POWER_CONSERVING


def test_classify_feedback_at_the_largest_floats():
    big = np.finfo(float).max
    assert classify_feedback([[0.0, big], [-big, 0.0]]) == POWER_CONSERVING
    # sym(F) = F, with eigenvalues 0 and -big
    assert classify_feedback(0.5 * big * np.array([[-1.0, 1.0], [1.0, -1.0]])) == DISSIPATIVE
    assert classify_feedback([[big, 0.0], [0.0, -big]]) == GENERAL


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
def test_classify_feedback_is_unit_free(c):
    assert classify_feedback(c * np.array([[0.0, 1.0], [-1.0, 0.0]])) == POWER_CONSERVING
    # sym(F) = diag(1, 0) and diag(1, -1) inject energy at every scale
    assert classify_feedback(c * np.array([[1.0, 1.0], [-1.0, 0.0]])) == GENERAL
    assert classify_feedback(c * np.diag([1.0, -1.0])) == GENERAL


# ---------------------------------------------------------------------------
# interconnection structure


def test_interconnect_skew_coupling_hand_values():
    f = np.array([[0.0, 1.0], [-1.0, 0.0]])
    closed = interconnect(scalar_system(), scalar_system(), f)
    np.testing.assert_array_equal(closed.H, np.eye(2))
    np.testing.assert_array_equal(closed.J, f)  # G = I so J picks up skew(F)
    np.testing.assert_array_equal(closed.R, np.diag([2.0, 2.0]))
    np.testing.assert_array_equal(closed.Z, np.eye(2))
    np.testing.assert_array_equal(closed.theta, np.eye(2))
    assert closed.tau == 1.0 and closed.n == 2 and closed.m == 2


def test_interconnect_skew_coupling_certifies():
    f = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cert = certify_interconnection(scalar_system(), scalar_system(), f)
    assert cert.verdict == CERTIFIED
    evals = np.linalg.eigvalsh(cert.condition_matrix)
    np.testing.assert_allclose(evals, [0.5, 0.5, 1.5, 1.5], atol=1e-14)


def test_interconnect_symmetric_coupling_threshold():
    """u = c I y injects energy; the pair stays certifiable up to c = 3/4."""
    for c, expect in [(0.5, CERTIFIED), (0.75, CERTIFIED), (1.0, REFUTED)]:
        cert = certify_interconnection(scalar_system(), scalar_system(),
                                       c * np.eye(2))
        assert cert.verdict == expect, c
    refuted = certify_interconnection(scalar_system(), scalar_system(),
                                      np.eye(2))
    assert refuted.reason == "condition_indefinite"
    assert refuted.min_eigenvalue == pytest.approx((1.0 - math.sqrt(2.0)) / 2.0)


def test_interconnect_skew_coupling_keeps_r_block_diagonal():
    """A skew F adds nothing to R: no rounding noise in the coupling blocks."""
    rng = np.random.default_rng(67)
    sys1 = rand_certified_delay_ph(rng, 16, m=3)
    sys2 = rand_certified_delay_ph(rng, 16, m=2)
    f = rand_antisym(rng, 5)
    closed = interconnect(sys1, sys2, f)
    blkdiag = np.zeros((32, 32))
    blkdiag[:16, :16] = sys1.R
    blkdiag[16:, 16:] = sys2.R
    assert closed.R.tobytes() == blkdiag.tobytes()
    g = closed.G
    np.testing.assert_allclose(closed.J[:16, 16:], (g @ f @ g.T)[:16, 16:],
                               atol=1e-12)


def test_certify_interconnection_eigh_stays_subsystem_sized():
    """Power-conserving coupling: every eigh or eigvalsh is at most 2n, never 4n."""
    rng = np.random.default_rng(71)
    n = 128
    sys1 = rand_certified_delay_ph(rng, n, m=2)
    sys2 = rand_certified_delay_ph(rng, n, m=2)
    with decompositions() as calls:
        cert = certify_interconnection(sys1, sys2, rand_antisym(rng, 4))
    orders = [a.shape[-1] for name, a in calls if name != "svd"]
    assert cert.verdict == CERTIFIED
    assert orders and max(orders) <= 2 * n


def test_interconnect_rejects_mismatched_delay():
    other = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                          G=[[1.0]], tau=2.0, theta=[[1.0]])
    with pytest.raises(ValueError, match="delays differ"):
        interconnect(scalar_system(), other, np.zeros((2, 2)))


def test_interconnect_accepts_delays_equal_up_to_rounding():
    def with_tau(tau):
        return DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                             G=[[1.0]], tau=tau, theta=[[1.0]])

    assert 0.1 + 0.2 != 0.3
    closed = interconnect(with_tau(0.1 + 0.2), with_tau(0.3), np.zeros((2, 2)))
    assert closed.tau == 0.1 + 0.2
    assert interconnect(with_tau(0.3), with_tau(0.1 + 0.2),
                        np.zeros((2, 2))).tau == 0.3
    with pytest.raises(ValueError, match="delays differ"):
        interconnect(with_tau(0.3), with_tau(0.31), np.zeros((2, 2)))


def test_interconnect_rejects_wrong_f_shape():
    with pytest.raises(ValueError, match="expected"):
        interconnect(scalar_system(), scalar_system(), np.zeros((3, 3)))


def test_interconnect_theta_requires_both():
    bare = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                         G=[[1.0]], tau=1.0)
    closed = interconnect(scalar_system(), bare, np.zeros((2, 2)))
    assert closed.theta is None
    with pytest.raises(ValueError, match="theta"):
        certify_interconnection(scalar_system(), bare, np.zeros((2, 2)))


def test_certify_interconnection_matches_direct_certificate():
    rng = np.random.default_rng(61)
    for _ in range(15):
        sys1 = rand_certified_delay_ph(rng, 2, m=2)
        sys2 = rand_certified_delay_ph(rng, 3, m=1)
        f = rand_antisym(rng, 3)
        via_pair = certify_interconnection(sys1, sys2, f)
        direct = certify_delay_ph(interconnect(sys1, sys2, f))
        assert via_pair.verdict == direct.verdict == CERTIFIED
        np.testing.assert_allclose(via_pair.condition_matrix,
                                   direct.condition_matrix, atol=1e-12)
    # u = y injects energy past the c = 3/4 threshold: both refute alike
    via_pair = certify_interconnection(scalar_system(), scalar_system(), np.eye(2))
    direct = certify_delay_ph(interconnect(scalar_system(), scalar_system(), np.eye(2)))
    assert via_pair.verdict == direct.verdict == REFUTED
    assert via_pair.reason == direct.reason == "condition_indefinite"
    assert via_pair.min_eigenvalue == direct.min_eigenvalue < 0.0
    np.testing.assert_array_equal(via_pair.witness, direct.witness)


def _scaled_part(rng, n, m, c, refuted):
    """A random part with (R, Z, Theta) scaled by c; Theta = R refutes it."""
    part = rand_certified_delay_ph(rng, n, m)
    theta = part.R if refuted else part.theta
    return DelayPHSystem(H=part.H, J=part.J, R=c * part.R, Z=c * part.Z,
                         G=part.G, tau=part.tau, theta=c * theta)


@st.composite
def skew_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = 10.0 ** draw(st.floats(-6.0, 4.0))
    m1, m2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = [
        _scaled_part(rng, draw(st.integers(1, 6)), m, c, draw(st.booleans()))
        for m in (m1, m2)
    ]
    a = rng.standard_normal((m1 + m2, m1 + m2))
    f = draw(st.sampled_from([0.0, 1.0, 1e3])) * (a - a.T)  # exactly skew
    return parts[0], parts[1], f


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(skew_pairs())
def test_skew_interconnection_from_parts_matches_closed_loop(pair):
    """Deciding the two parts reproduces the closed loop's certificate."""
    sys1, sys2, f = pair
    via_parts = certify_interconnection(sys1, sys2, f)
    direct = certify_delay_ph(interconnect(sys1, sys2, f))
    assert via_parts.verdict == direct.verdict
    assert via_parts.reason == direct.reason
    cond = direct.condition_matrix
    assert via_parts.condition_matrix.tobytes() == cond.tobytes()
    assert via_parts.theta_used.tobytes() == direct.theta_used.tobytes()
    scale = float(np.max(np.abs(np.linalg.eigvalsh(cond))))
    assert abs(via_parts.min_eigenvalue - direct.min_eigenvalue) <= 1e-12 * scale
    assert via_parts.slack == pytest.approx(direct.slack, rel=1e-12)
    w = via_parts.witness
    if via_parts.verdict == CERTIFIED:
        assert w is None
    else:
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(w @ cond @ w) - via_parts.min_eigenvalue) <= 1e-12 * scale


def test_skew_interconnection_names_the_invalid_part():
    bad = DelayPHSystem(H=[[-1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                        G=[[1.0]], tau=1.0, theta=[[-1.0]])
    with pytest.raises(SystemValidationError) as info:
        certify_interconnection(scalar_system(), bad, [[0.0, 1.0], [-1.0, 0.0]])
    assert info.value.violations == [
        "system 2: H is not positive definite (min eigenvalue -1)",
        "system 2: theta is not positive semidefinite (min eigenvalue -1)",
    ]


def test_dissipative_coupling_never_hurts():
    """-sym(F) PSD only adds dissipation, so certificates survive."""
    rng = np.random.default_rng(63)
    for _ in range(15):
        sys1 = rand_certified_delay_ph(rng, 2, m=1)
        sys2 = rand_certified_delay_ph(rng, 2, m=1)
        f = rand_antisym(rng, 2) - np.diag(rng.uniform(0.0, 1.0, 2))
        assert classify_feedback(f) == DISSIPATIVE
        assert certify_interconnection(sys1, sys2, f).verdict == CERTIFIED


# ---------------------------------------------------------------------------
# delayed output feedback


def test_close_delayed_feedback_structure():
    plant = StandardPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], G=[[1.0]])
    closed = close_delayed_feedback(plant, [[1.0]], tau=0.5)
    np.testing.assert_array_equal(closed.Z, [[1.0]])
    np.testing.assert_array_equal(closed.R, [[2.0]])
    assert closed.tau == 0.5
    assert closed.theta is None
    out = construct_theta(closed.R, closed.Z)
    assert out.success
    assert out.interval.sigma == pytest.approx(0.5)


def test_close_delayed_feedback_input_checks():
    plant = StandardPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], G=[[1.0]])
    with pytest.raises(ValueError, match="tau"):
        close_delayed_feedback(plant, [[1.0]], tau=0.0)
    with pytest.raises(ValueError, match="expected"):
        close_delayed_feedback(plant, np.eye(2), tau=1.0)


def test_feedback_conditions_cases():
    ok = check_feedback_conditions(np.eye(2), np.eye(2))
    assert ok.all_hold
    wide = check_feedback_conditions(np.eye(2), [[1.0], [0.0]])
    assert not wide.output_kernel_trivial
    assert wide.kernel_r_in_kernel_gt
    broken = check_feedback_conditions(np.diag([1.0, 0.0]), [[0.0], [1.0]])
    assert not broken.kernel_r_in_kernel_gt
    assert not broken.all_hold


def test_feedback_gain_bound_scalar():
    assert feedback_gain_bound([[2.0]], [[1.0]]) == pytest.approx(2.0)


def test_feedback_gain_bound_is_tight():
    """At the bound the construction interval degenerates to {1/2}."""
    beta = feedback_gain_bound([[2.0]], [[1.0]])
    plant = StandardPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], G=[[1.0]])

    at_bound = close_delayed_feedback(plant, [[beta]], tau=1.0)
    out = construct_theta(at_bound.R, at_bound.Z)
    assert out.success
    assert out.interval.sigma == pytest.approx(1.0)
    assert out.interval.lo == pytest.approx(0.5)
    assert out.interval.hi == pytest.approx(0.5)

    beyond = close_delayed_feedback(plant, [[1.01 * beta]], tau=1.0)
    assert not construct_theta(beyond.R, beyond.Z).success

    inside = close_delayed_feedback(plant, [[0.99 * beta]], tau=1.0)
    assert construct_theta(inside.R, inside.Z).success


@pytest.mark.parametrize("gain, steps", [
    (1 - 1e-12, ["cholesky"]),
    (1 + 1e-12, ["cholesky"]),
    (1 + 2e-9, ["cholesky", "eigvalsh"]),
])
def test_delayed_feedback_near_the_gain_bound_follows_the_rule(gain, steps):
    """Feedback F = gain * beta * I on a 3-state plant whose whitened G has
    singular values in ratio 1 : 0.95 : 0.9, so the whitened coupling is
    gain and its Frobenius norm alone decides nothing.  Within the slack a
    Cholesky decides; beyond it the failed Cholesky is followed by the
    2-norm.  Success, reason and interval are the rule's, with s by SVD."""
    rng = np.random.default_rng(53)
    g = rand_orth(rng, 3) @ np.diag([1.0, 0.95, 0.9]) @ rand_orth(rng, 3)
    plant = StandardPHSystem(H=np.eye(3), J=np.zeros((3, 3)), R=2.0 * np.eye(3), G=g)
    beta = feedback_gain_bound(plant.R, plant.G)
    closed = close_delayed_feedback(plant, gain * beta * np.eye(3), tau=1.0)
    with decompositions() as calls:  # R's eigh is stored from the gain bound
        out = construct_theta(closed.R, closed.Z)
    assert [name for name, _ in calls] == steps
    success, sigma, lo, hi = construction_oracle(closed.R, closed.Z)
    assert out.success is success is (gain < 1 + 1e-9)
    assert out.interval.sigma == pytest.approx(sigma, rel=1e-14)
    assert sigma == pytest.approx(gain, rel=1e-14)
    if success:
        assert out.reason == ""
        assert (out.interval.lo, out.interval.hi) == pytest.approx((lo, hi), abs=1e-7)
    else:
        assert out.reason == (
            f"sufficient_condition: whitened coupling {out.interval.sigma:.12g} > 1")


def test_feedback_gain_bound_guarantee_random():
    """Any ||F|| <= beta keeps the whitened coupling of G F G^T below one."""
    rng = np.random.default_rng(65)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r = q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ q.T
        r = 0.5 * (r + r.T)
        g = rng.standard_normal((3, 2))
        beta = feedback_gain_bound(r, g)
        f = rng.standard_normal((2, 2))
        f *= rng.uniform(0.05, 1.0) * beta / np.linalg.norm(f, 2)
        out = construct_theta(r, g @ f @ g.T)
        assert out.success
        assert out.interval.sigma <= 1.0 + 1e-12


def test_feedback_gain_bound_unbounded_without_port():
    assert feedback_gain_bound([[2.0]], [[0.0]]) == math.inf


@pytest.mark.parametrize("g", [1e-170, 1e-160], ids=["square-underflows", "bound-overflows"])
def test_feedback_gain_bound_beyond_the_float_range_is_unbounded(g):
    assert feedback_gain_bound([[1.0]], [[g]]) == math.inf


def test_feedback_gain_bound_keeps_small_finite_bounds():
    assert feedback_gain_bound([[1.0]], [[1e-150]]) == 1.0 / (1e-150 * 1e-150)


def test_feedback_gain_bound_rejects_broken_kernel():
    with pytest.raises(ValueError, match="ker"):
        feedback_gain_bound(np.diag([1.0, 0.0]), [[0.0], [1.0]])


def test_feedback_hypotheses_count_a_forgiven_negative_eigenvalue_as_kernel():
    """-5e-10 passes the PSD slack of diag(1, -5e-10), so e2 is in ker(R),
    and G = (1, 1)^T does not vanish on it."""
    r, g = np.diag([1.0, -5e-10]), [[1.0], [1.0]]
    assert not check_feedback_conditions(r, g).kernel_r_in_kernel_gt
    with pytest.raises(ValueError, match="hypothesis violated"):
        feedback_gain_bound(r, g)


@st.composite
def feedback_pairs(draw):
    """(R, G) with R PSD of any rank and G of any rank, m <= n, at any scale.

    G either lies in image(R), so ker(R) <= ker(G^T), or is generic.  Zero
    eigenvalues and lost ranks are exact, so every decision stays far from
    the rank_tol cutoff.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rank_r = n - draw(st.integers(0, n))
    lam = np.zeros(n)
    lam[:rank_r] = rng.uniform(0.5, 2.0, rank_r)
    r = 10.0 ** draw(st.floats(-8.0, 4.0)) * (q * lam) @ q.T
    rank_g = m - draw(st.integers(0, m))
    basis = q[:, :rank_r] if draw(st.booleans()) else rng.standard_normal((n, n))
    w = rng.standard_normal((basis.shape[1], rank_g)) @ rng.standard_normal((rank_g, m))
    g = 10.0 ** draw(st.floats(-8.0, 4.0)) * basis @ w
    return 0.5 * (r + r.T), g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(feedback_pairs())
def test_feedback_hypotheses_match_the_svd_oracles(pair):
    r, g = pair
    conditions = check_feedback_conditions(r, g)
    assert conditions == check_feedback_conditions_svd(r, g)
    if not conditions.kernel_r_in_kernel_gt:
        for bound in (feedback_gain_bound, feedback_gain_bound_svd):
            with pytest.raises(ValueError, match="hypothesis violated"):
                bound(r, g)
        return
    beta = feedback_gain_bound(r, g)
    want = feedback_gain_bound_svd(r, g)
    assert beta == want or beta == pytest.approx(want, rel=1e-9)


def test_feedback_hypotheses_need_a_symmetric_r_of_fitting_shape():
    with pytest.raises(ValueError, match="R is not symmetric"):
        check_feedback_conditions([[1.0, 1.0], [0.0, 1.0]], np.eye(2))
    with pytest.raises(ValueError, match="rows"):
        check_feedback_conditions(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="R is not positive semidefinite"):
        feedback_gain_bound(np.diag([1.0, -1.0]), np.eye(2))
    # an indefinite R still has kernel hypotheses to report
    assert check_feedback_conditions(np.diag([1.0, -1.0]), np.eye(2)).all_hold
