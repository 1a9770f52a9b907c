"""Feedback interconnection of delay port-Hamiltonian systems.

Two systems sharing one delay tau are coupled through their ports by
``u = F y + w`` (w is the new external input).  Stacking states and ports
gives another delay port-Hamiltonian system with

    H = blkdiag(H1, H2), J = blkdiag(J1, J2) + skew(G F G^T),
    R = blkdiag(R1, R2) - sym(G F G^T),  Z = blkdiag(Z1, Z2),
    G = blkdiag(G1, G2),

so the stored closed loop reproduces the subsystem trajectories exactly.
The dissipation coupling is computed as G sym(F) G^T, which equals
sym(G F G^T): an exactly skew F then leaves R exactly blkdiag(R1, R2), with
no rounding noise in the off-diagonal blocks.  The closed loop's condition
matrix is then the parts' condition matrices side by side, so
``certify_interconnection`` hands the two parts, or for any other F the
closed loop, to the one routine in ``certify`` that decides (*) for
systems with a stored Theta.
The coupled pair stays certifiable whenever both parts are certified and
the feedback does not generate energy, i.e. -sym(F) is PSD
(power-conserving feedback, sym(F) = 0, in particular).  Delayed output
feedback u = -F y(t - tau) + v applied to a delay-free port-Hamiltonian
system produces the delay structure Z = G F G^T; a norm bound on F
guarantees that the Theta construction succeeds for the closed loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import Certificate
from .certify import _certify_stored
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _blkdiag,
    _contained,
    _require_shape,
    _square,
    _symmetric_eigh,
    as_matrix,
    numerical_rank,
    require_symmetric,
    skew_part,
    spectral_norm,
    sym_part,
)
from .systems import (
    DelayPHSystem,
    StandardPHSystem,
    SystemValidationError,
    validate,
)

__all__ = [
    "DISSIPATIVE",
    "GENERAL",
    "POWER_CONSERVING",
    "FeedbackConditions",
    "certify_interconnection",
    "check_feedback_conditions",
    "classify_feedback",
    "close_delayed_feedback",
    "feedback_gain_bound",
    "interconnect",
]

POWER_CONSERVING = "power_conserving"
DISSIPATIVE = "dissipative"
GENERAL = "general"

#: relative difference up to which two delays count as one shared delay
TAU_RTOL = 1e-12


def classify_feedback(F, tol: Tolerance = DEFAULT_TOL) -> str:
    """Classify a port coupling matrix by its symmetric part.

    "power_conserving" when F is exactly skew or ||sym(F)||_2 <=
    1e-12 ||F||_2 (relative to F, so scaling F does not change it),
    "dissipative" when -sym(F) is PSD, "general" otherwise.  One
    ``_symmetric_eigh`` split of -sym(F) gives both its norm and its sign.
    """
    f = _square(F, "F")
    if _exactly_skew(f):
        return POWER_CONSERVING
    split = _symmetric_eigh(-sym_part(f), tol)
    if split.scale <= 1e-12 * spectral_norm(f):
        return POWER_CONSERVING
    return GENERAL if split.lo else DISSIPATIVE


def interconnect(
    sys1: DelayPHSystem, sys2: DelayPHSystem, F
) -> DelayPHSystem:
    """Close the loop u = F y + w around the stacked pair.

    Both systems must share one delay, equal within the relative
    ``TAU_RTOL``; the closed loop keeps ``sys1.tau``.  F must be
    (m1 + m2) x (m1 + m2).  The combined theta blkdiag(theta1, theta2) is
    attached when both subsystems carry one.
    """
    f = _pair_feedback(sys1, sys2, F)
    g = _blkdiag(sys1.G, sys2.G)
    gfg = g @ f @ g.T
    # G sym(F) G^T, not sym(G F G^T): zero for a skew F, so R keeps the
    # exact zeros of blkdiag(R1, R2)
    gsg = g @ sym_part(f) @ g.T
    theta = None
    if sys1.theta is not None and sys2.theta is not None:
        theta = _blkdiag(sys1.theta, sys2.theta)
    return DelayPHSystem(
        H=_blkdiag(sys1.H, sys2.H),
        J=_blkdiag(sys1.J, sys2.J) + skew_part(gfg),
        R=_blkdiag(sys1.R, sys2.R) - sym_part(gsg),
        Z=_blkdiag(sys1.Z, sys2.Z),
        G=g,
        tau=sys1.tau,
        theta=theta,
    )


def _pair_feedback(sys1: DelayPHSystem, sys2: DelayPHSystem, F) -> np.ndarray:
    """F as an array, once the pair shares one delay and F fits its ports."""
    if abs(sys1.tau - sys2.tau) > TAU_RTOL * max(sys1.tau, sys2.tau):
        raise ValueError(
            f"delays differ: {sys1.tau} vs {sys2.tau}; interconnection "
            "requires one shared delay"
        )
    m = sys1.m + sys2.m
    return _require_shape(as_matrix(F, "F"), (m, m), "F")


def certify_interconnection(
    sys1: DelayPHSystem, sys2: DelayPHSystem, F, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Certify the closed loop of ``interconnect(sys1, sys2, F)``.

    Both subsystems must carry a theta (ValueError otherwise).  The tested
    matrix is

        [[R - G sym(F) G^T - Theta, Z/2], [Z^T/2, Theta]]

    over the stacked structure with theta blkdiag(theta1, theta2).  Each
    part is validated (SystemValidationError names the part); valid parts
    make a valid closed loop, which is not validated again.  When F is
    exactly skew (F + F^T has no nonzero entry) the tested matrix holds the
    parts' condition matrices side by side, ordered (x1, x2, x1(t - tau),
    x2(t - tau)), and each part is decided on its own, with its verdict
    stored on it, without building the closed loop; any other F certifies
    the closed loop as a whole.  Either way the certificate carries the
    closed loop's condition matrix and theta, bit for bit those that
    ``certify_delay_ph(interconnect(sys1, sys2, F))`` reports.
    """
    f = _pair_feedback(sys1, sys2, F)
    violations = [
        f"{label}: {v}"
        for label, part in (("system 1", sys1), ("system 2", sys2))
        for v in validate(part, tol)
    ]
    if violations:
        raise SystemValidationError(violations)
    return _certify_pair(sys1, sys2, f, tol)


def _certify_pair(sys1: DelayPHSystem, sys2: DelayPHSystem, f: np.ndarray,
                  tol: Tolerance, closed: DelayPHSystem | None = None) -> Certificate:
    """``certify_interconnection`` for validated parts and a fitting F array.

    An exactly skew F is decided from the parts; any other F from the
    closed loop, ``closed`` when the caller has built it already.
    """
    if sys1.theta is None or sys2.theta is None:
        raise ValueError("both subsystems must carry a theta to certify")
    if _exactly_skew(f):
        return _certify_stored([sys1, sys2], tol)
    return _certify_stored([interconnect(sys1, sys2, f) if closed is None else closed], tol)


def _exactly_skew(f: np.ndarray) -> bool:
    """Whether F + F^T has no nonzero entry: then R is blkdiag(R1, R2)."""
    return bool(np.all(f == -f.T))


def close_delayed_feedback(
    system: StandardPHSystem, F, tau: float
) -> DelayPHSystem:
    """Apply delayed output feedback u = -F y(t - tau) + v.

    Turns a delay-free port-Hamiltonian system into a delay one with
    Z = G F G^T and all other structure matrices unchanged (no theta is
    attached; construct one separately).
    """
    m = system.m
    f = _require_shape(as_matrix(F, "F"), (m, m), "F")
    if not float(tau) > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return DelayPHSystem(
        H=system.H,
        J=system.J,
        R=system.R,
        Z=system.G @ f @ system.G.T,
        G=system.G,
        tau=float(tau),
    )


@dataclass(frozen=True)
class FeedbackConditions:
    """Kernel diagnostics for delayed output feedback on (R, G).

    output_kernel_trivial   ker(G^T) = {0} (G has full row rank)
    kernel_r_in_kernel_gt   ker(R) <= ker(G^T), so ker(R) meets image(G)
                            only at 0
    """

    output_kernel_trivial: bool
    kernel_r_in_kernel_gt: bool

    @property
    def all_hold(self) -> bool:
        return self.output_kernel_trivial and self.kernel_r_in_kernel_gt


def check_feedback_conditions(R, G, tol: Tolerance = DEFAULT_TOL) -> FeedbackConditions:
    """Evaluate the kernel hypotheses used by the feedback gain bound.

    R must be symmetric and G must have R's row count (ValueError
    otherwise).  ker(G^T) = {0} iff rank G = n, so only a G with at least
    n columns has its rank taken.
    """
    g, _, contained = _kernel_hypothesis(R, G, tol)
    n, m = g.shape
    return FeedbackConditions(m >= n and numerical_rank(g, tol) == n, contained)


def feedback_gain_bound(R, G, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest feedback norm with a guaranteed Theta construction.

    Returns beta = 1 / ||V1^T G||_2^2 (V1 whitens R): any F with
    ||F||_2 <= beta gives ||V1^T G F G^T V1||_2 <= 1, so construct_theta
    succeeds for the closed loop Z = G F G^T.  Requires R symmetric PSD
    and ker(R) <= ker(G^T) (ValueError otherwise), which also keeps ker(R)
    disjoint from image(G).  Returns math.inf when V1^T G vanishes (no
    finite bound is needed) and when beta exceeds the float range.
    """
    g, split, contained = _kernel_hypothesis(R, G, tol)
    v1 = split.whitening("R")
    if not contained:
        raise ValueError("hypothesis violated: ker(R) is not contained in ker(G^T)")
    coupling = spectral_norm(v1.T @ g)
    square = coupling * coupling
    return math.inf if square == 0.0 else 1.0 / square


def _kernel_hypothesis(R, G, tol: Tolerance):
    """``(G as an array, the _Split of R, whether ker(R) <= ker(G^T))``;
    one ``eigh`` of R gives ker(R) and its whitening, and is stored on a
    system's R for the next call."""
    r = require_symmetric(R, "R")
    g = as_matrix(G, "G")
    n = r.shape[0]
    if g.shape[0] != n:
        raise ValueError(f"G has {g.shape[0]} rows, expected {n}")
    split = _symmetric_eigh(r, tol, R)
    return g, split, _contained(split.kernel, g.T, tol)
