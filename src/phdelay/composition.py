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
matrix is then blkdiag(M1, M2) of the parts' condition matrices, with rows
and columns permuted, so ``certify_interconnection`` decides it from the
two parts without building the closed loop.
The coupled pair stays certifiable whenever both parts are certified and
the feedback does not generate energy, i.e. -sym(F) is PSD
(power-conserving feedback, sym(F) = 0, in particular).  Delayed output
feedback u = -F y(t - tau) + v applied to a delay-free port-Hamiltonian
system produces the delay structure Z = G F G^T; a norm bound on F
guarantees that the Theta construction succeeds for the closed loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certificates import Certificate
from .certify import _assemble_condition, _certify_validated
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _contained,
    _psd_report_blocks,
    _symmetric_eigh,
    _whitening,
    as_matrix,
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
    ``eigvalsh`` of sym(F) gives both its norm and its sign.
    """
    f = as_matrix(F, "F")
    if f.shape[0] != f.shape[1]:
        raise ValueError(f"F must be square, got shape {f.shape}")
    if _exactly_skew(f):
        return POWER_CONSERVING
    evals = np.linalg.eigvalsh(0.5 * (f + f.T))
    scale = max(-float(evals[0]), float(evals[-1]))
    if scale <= 1e-12 * spectral_norm(f):
        return POWER_CONSERVING
    # -sym(F) is PSD when its least eigenvalue, -evals[-1], is >= -slack
    if float(evals[-1]) <= tol.psd_slack(scale):
        return DISSIPATIVE
    return GENERAL


def _blkdiag(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


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
    f = as_matrix(F, "F")
    m = sys1.m + sys2.m
    if f.shape != (m, m):
        raise ValueError(f"F has shape {f.shape}, expected {(m, m)}")
    return f


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
    exactly skew (F + F^T has no nonzero entry) the tested matrix is a
    permuted blkdiag(M1, M2) of the parts' condition matrices, each decided
    on its own without building the closed loop; any other F certifies
    the closed loop as a whole.  Either way the certificate carries the
    closed loop's condition matrix and theta.
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
        return _certify_parts(sys1, sys2, tol)
    if closed is None:
        closed = interconnect(sys1, sys2, f)
    return _certify_validated(closed, tol=tol)


def _exactly_skew(f: np.ndarray) -> bool:
    """Whether F + F^T has no nonzero entry: then R is blkdiag(R1, R2)."""
    return not np.any(f + f.T)


def _certify_parts(
    sys1: DelayPHSystem, sys2: DelayPHSystem, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Closed-loop certificate of two validated parts under an exactly skew F.

    Ordered (x1, x2, x1(t - tau), x2(t - tau)), the closed loop's condition
    matrix holds part i's condition matrix on the rows and columns
    ``index[i]`` and zeros elsewhere, bit for bit what ``certify_delay_ph``
    assembles from ``interconnect``.
    """
    n1, n = sys1.n, sys1.n + sys2.n
    index = (np.r_[0:n1, n : n + n1], np.r_[n1:n, n + n1 : 2 * n])
    # validate has checked R and a stored Theta for symmetry and Theta for
    # PSD, as certify_delay_ph relies on for a closed loop
    thetas = [0.5 * (s.theta + s.theta.T) for s in (sys1, sys2)]
    blocks = [
        _assemble_condition(0.5 * (s.R + s.R.T), s.Z, th)
        for s, th in zip((sys1, sys2), thetas)
    ]
    report, worst = _psd_report_blocks(blocks, tol)
    cond = np.zeros((2 * n, 2 * n))
    for idx, block in zip(index, blocks):
        cond[np.ix_(idx, idx)] = block
    if report.witness is not None:
        witness = np.zeros(2 * n)
        witness[index[worst]] = report.witness
        report = replace(report, witness=witness)
    return Certificate.from_report(
        report, cond, "condition_indefinite", theta_used=_blkdiag(*thetas)
    )


def close_delayed_feedback(
    system: StandardPHSystem, F, tau: float
) -> DelayPHSystem:
    """Apply delayed output feedback u = -F y(t - tau) + v.

    Turns a delay-free port-Hamiltonian system into a delay one with
    Z = G F G^T and all other structure matrices unchanged (no theta is
    attached; construct one separately).
    """
    f = as_matrix(F, "F")
    m = system.m
    if f.shape != (m, m):
        raise ValueError(f"F has shape {f.shape}, expected {(m, m)}")
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
    otherwise).
    """
    trivial, contained, _ = _feedback_hypotheses(R, G, tol, rank=True, gain=False)
    return FeedbackConditions(trivial, contained)


def feedback_gain_bound(R, G, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest feedback norm with a guaranteed Theta construction.

    Returns beta = 1 / ||V1^T G||_2^2 (V1 whitens R): any F with
    ||F||_2 <= beta gives ||V1^T G F G^T V1||_2 <= 1, so construct_theta
    succeeds for the closed loop Z = G F G^T.  Requires R symmetric PSD
    and ker(R) <= ker(G^T) (ValueError otherwise), which also keeps ker(R)
    disjoint from image(G).  Returns math.inf when V1^T G vanishes (no
    finite bound is needed).
    """
    _, contained, beta = _feedback_hypotheses(R, G, tol, rank=False, gain=True)
    if not contained:
        raise ValueError("hypothesis violated: ker(R) is not contained in ker(G^T)")
    return beta


def _feedback_hypotheses(R, G, tol: Tolerance, rank: bool, gain: bool):
    """``(output_kernel_trivial, kernel_r_in_kernel_gt, beta)`` of (R, G).

    ker(R), and with ``gain`` the whitening V1 of a PSD R, come from one
    ``eigh`` of R.  G's singular values give rank G and ||G||_2; they are
    computed only when ``rank`` asks whether ker(G^T) = {0}, i.e. rank G = n
    (None otherwise), or ker(R) is nontrivial.  beta is the gain bound when
    ``gain`` and ker(R) <= ker(G^T), None otherwise.
    """
    r = require_symmetric(R, "R")
    g = as_matrix(G, "G")
    n = r.shape[0]
    if g.shape[0] != n:
        raise ValueError(f"G has {g.shape[0]} rows, expected {n}")
    evals, evecs, ker_r, scale = _symmetric_eigh(r, tol)
    v1 = _whitening(evals, evecs, scale, tol, "R") if gain else None
    s = np.zeros(0)
    if g.size and (rank or ker_r.size):
        s = np.linalg.svd(g, compute_uv=False)
    g_norm = float(s[0]) if s.size else 0.0
    trivial = int(np.count_nonzero(s > tol.rank_tol * g_norm)) == n if rank else None
    contained = _contained(ker_r, g.T, g_norm, tol)
    if not (gain and contained):
        return trivial, contained, None
    coupling = spectral_norm(v1.T @ g)
    return trivial, contained, math.inf if coupling == 0.0 else 1.0 / (coupling * coupling)
