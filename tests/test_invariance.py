"""Verdicts do not depend on units or state coordinates.

Scaling (H, J, R, Z, G, Theta) by c > 0 scales the condition matrix by c,
and an orthogonal change of state coordinates x = T x' (M -> T^T M T,
G -> T^T G) is a congruence of it; a state permutation is one exactly.
None of these may change a verdict, and neither may swapping the two
subsystems of an interconnection.  Every instance decides with margin, so a mismatch is a
defect rather than rounding at a boundary.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phdelay import (
    CERTIFIED,
    REFUTED,
    DelayPHSystem,
    HistoryFunction,
    SystemValidationError,
    certify_delay_ph,
    certify_interconnection,
    check_necessary,
    construct_theta,
    simulate_delay_ph,
    validate,
)
from helpers import rand_antisym, rand_certified_delay_ph, rand_orth, rand_spd

INVARIANCE = settings(max_examples=60, deadline=None, derandomize=True,
                      database=None)

#: kind -> (validate finds nothing, certify_delay_ph verdict,
#: construct_theta succeeds, the necessary conditions hold)
EXPECTED = {
    "certified": (True, CERTIFIED, True, True),
    "coupled": (True, REFUTED, False, True),
    "singular": (True, REFUTED, False, False),
    "indefinite_theta": (False, "SystemValidationError", True, True),
}


def instance(kind, n, m, seed):
    """A delay system of ``kind`` that decides as ``EXPECTED[kind]`` with
    margin.

    certified         ``rand_certified_delay_ph``: the stored Theta
                      certifies, and the whitened coupling is <= 0.9.
    coupled           R = S + Theta with S, Theta spd, and ||Z|| at least
                      3 sqrt(||S|| ||Theta||), so ||S^-1/2 Z Theta^-1/2||
                      >= 3 > 2 and no Theta of any kind certifies.
    singular          R and Theta vanish on a unit vector v that Z^T does
                      not: ker R is not inside ker Z^T.
    indefinite_theta  a certified system whose Theta has its least
                      eigenvalue replaced by -0.3.
    """
    rng = np.random.default_rng(seed)
    base = rand_certified_delay_ph(rng, n, m)
    theta, r, z = base.theta, base.R, base.Z
    v = rand_orth(rng, n)[:, 0]
    if kind == "coupled":
        s_mat = rand_spd(rng, n, (0.3, 1.0))
        theta = rand_spd(rng, n, (0.3, 1.0))
        r = s_mat + theta
        z = rng.standard_normal((n, n))
        z *= rng.uniform(3.0, 6.0) * math.sqrt(
            np.linalg.norm(s_mat, 2) * np.linalg.norm(theta, 2)
        ) / np.linalg.norm(z, 2)
    elif kind == "singular":
        p = np.eye(n) - np.outer(v, v)
        r, theta = p @ r @ p, p @ theta @ p
        z = z + np.outer(v, rng.standard_normal(n) + 2.0 * v)
    elif kind == "indefinite_theta":
        evals, evecs = np.linalg.eigh(theta)
        evals[0] = -0.3
        theta = (evecs * evals) @ evecs.T
    return DelayPHSystem(H=base.H, J=base.J, R=0.5 * (r + r.T), Z=z, G=base.G,
                         tau=base.tau, theta=0.5 * (theta + theta.T))


@st.composite
def instances(draw, m=None):
    kind = draw(st.sampled_from(tuple(EXPECTED)))
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 2)) if m is None else m
    return kind, instance(kind, n, m, draw(st.integers(0, 2**32 - 1)))


def verdict(certify, *args):
    """The verdict of ``certify(*args)``, or the name of what it raised."""
    try:
        return certify(*args).verdict
    except SystemValidationError:
        return "SystemValidationError"


def outcomes(s):
    """Every decision on one system, in the order of ``EXPECTED``."""
    return (
        validate(s) == [],
        verdict(certify_delay_ph, s),
        construct_theta(s.R, s.Z).success,
        check_necessary(s.R, s.theta, s.Z).all_hold,
    )


def scaled(s, c):
    return DelayPHSystem(H=c * s.H, J=c * s.J, R=c * s.R, Z=c * s.Z,
                         G=c * s.G, tau=s.tau, theta=c * s.theta)


def congruent(s, t):
    """The system in coordinates x = T x'."""
    return DelayPHSystem(H=t.T @ s.H @ t, J=t.T @ s.J @ t, R=t.T @ s.R @ t,
                         Z=t.T @ s.Z @ t, G=t.T @ s.G, tau=s.tau,
                         theta=t.T @ s.theta @ t)


def permuted(s, perm):
    """The system with its states reordered by ``perm``: no rounding."""
    ix = np.ix_(perm, perm)
    return DelayPHSystem(H=s.H[ix], J=s.J[ix], R=s.R[ix], Z=s.Z[ix],
                         G=s.G[perm], tau=s.tau, theta=s.theta[ix])


@INVARIANCE
@given(instances(), st.floats(-12.0, 12.0), st.integers(0, 2**32 - 1))
def test_system_verdicts_are_invariant(case, exponent, seed):
    kind, s = case
    rng = np.random.default_rng(seed)
    base = outcomes(s)
    assert base == EXPECTED[kind]
    assert outcomes(scaled(s, 10.0 ** exponent)) == base
    assert outcomes(congruent(s, rand_orth(rng, s.n))) == base
    assert outcomes(permuted(s, rng.permutation(s.n))) == base


@st.composite
def pairs(draw):
    """Two systems and a feedback F: skew, plus a dissipative part
    -D D^T when both systems certify, so every loop decides with margin."""
    (kind1, s1), (kind2, s2) = draw(instances(m=1)), draw(instances(m=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rand_antisym(rng, 3, scale=draw(st.sampled_from([0.0, 1.0])))
    if "indefinite_theta" in (kind1, kind2):
        expected = "SystemValidationError"
    elif kind1 == kind2 == "certified":
        expected = CERTIFIED
        d = rng.standard_normal((3, 3))
        f = f - rng.uniform(0.0, 2.0) * d @ d.T
    else:  # a skew F decides each part on its own
        expected = REFUTED
    return s1, s2, f, expected, draw(st.integers(0, 2**32 - 1))


@INVARIANCE
@given(pairs(), st.floats(-12.0, 12.0))
def test_interconnection_verdicts_are_invariant(pair, exponent):
    """Units (F scales by 1/c, so G F G^T scales with the rest), each
    subsystem's coordinates, and which subsystem comes first."""
    s1, s2, f, base, seed = pair
    rng = np.random.default_rng(seed)

    def loop(a, b, g):
        return verdict(certify_interconnection, a, b, g)

    assert loop(s1, s2, f) == base
    c = 10.0 ** exponent
    assert loop(scaled(s1, c), scaled(s2, c), f / c) == base
    t1, t2 = rand_orth(rng, s1.n), rand_orth(rng, s2.n)
    assert loop(congruent(s1, t1), congruent(s2, t2), f) == base
    p1, p2 = rng.permutation(s1.n), rng.permutation(s2.n)
    assert loop(permuted(s1, p1), permuted(s2, p2), f) == base
    swap = [1, 2, 0]  # the ports (y1; y2) reordered as (y2; y1)
    assert loop(s2, s1, f[np.ix_(swap, swap)]) == base


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 3.0])
def test_energy_audit_flags_the_same_steps_in_any_units(omega):
    """The uncertifiable system of demo 05 under a sine input: its energy
    audit flags the same steps however its energy is scaled."""
    bad = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[1.0]], Z=[[2.0]],
                        G=[[1.0]], tau=1.0, theta=[[0.5]])
    s = np.linspace(-1.0, 0.0, 201)
    wavy = HistoryFunction(s, np.cos(omega * s).reshape(1, -1))

    def flagged(c):
        _, record = simulate_delay_ph(scaled(bad, c), wavy, math.sin,
                                      T=4.0, h=2e-3)
        return [k for k, _ in record.violations]

    steps = flagged(1.0)
    assert steps
    for c in (1e-12, 1e-6, 3.7e3, 1e6, 1e12):
        assert flagged(c) == steps
