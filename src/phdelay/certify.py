"""Delay-independent dissipativity certificates for delay systems.

A delay system in port-Hamiltonian form,

    H x'(t) = (J - R) x(t) - Z x(t - tau) + G u(t),    y = G^T x,

is passive with the Lyapunov-Krasovskii Hamiltonian
``(1/2) x^T H x + integral_{t-tau}^{t} x(s)^T Theta x(s) ds`` as storage
function exactly when Theta is symmetric PSD and the block condition

    [[R - Theta, Z/2],
     [Z^T / 2, Theta]]  is positive semidefinite                      (*)

holds.  This module certifies (*) for a given Theta, derives necessary
conditions any certifying Theta must satisfy, constructs a Theta from
(R, Z) alone when a whitened smallness test passes, and cross-checks the
verdict against the paper's block KYP test in general coordinates.  A
brute-force grid oracle for n <= 2 decides existence of a certifying Theta
independently of the construction.

Verdict semantics: CERTIFIED and REFUTED always refer to the pair
(system, Theta); a refuted pair says nothing about other Theta choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import Certificate
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _contained,
    _symmetric_eigh,
    _whitening,
    as_matrix,
    is_psd,
    output_residual,
    psd_report_symmetric,
    require_symmetric,
    spectral_norm,
)
from .systems import (
    DelayPHSystem,
    GeneralDelaySystem,
    SystemValidationError,
    validate,
)

__all__ = [
    "AlphaInterval",
    "NecessaryConditions",
    "ScalarThetaInterval",
    "ThetaConstruction",
    "certify_delay_ph",
    "check_necessary",
    "construct_theta",
    "exists_certifying_theta_grid",
    "kyp_delay_check",
    "ph_condition_matrix",
    "scalar_theta_interval",
]

#: slack granted to the feasibility test s <= 1 of the Theta construction,
#: so exact boundary instances (e.g. feedback at the gain bound) succeed.
FEASIBILITY_SLACK = 1e-9

#: clamp for the open alpha interval (0, 1) in the Z = 0 degenerate case
ALPHA_CLAMP = 1e-9


def ph_condition_matrix(R, Z, theta) -> np.ndarray:
    """Assemble the 2n x 2n block matrix [[R - Theta, Z/2], [Z^T/2, Theta]]."""
    r = require_symmetric(R, "R")
    th = require_symmetric(theta, "theta")
    z = as_matrix(Z, "Z")
    n = r.shape[0]
    if th.shape != (n, n) or z.shape != (n, n):
        raise ValueError(
            f"shape mismatch: R {r.shape}, Z {z.shape}, theta {th.shape}"
        )
    return _assemble_condition(r, z, th)


def _assemble_condition(r, z, th) -> np.ndarray:
    # exactly symmetric whenever r and th are
    n = r.shape[0]
    cond = np.empty((2 * n, 2 * n))
    cond[:n, :n] = r - th
    cond[:n, n:] = 0.5 * z
    cond[n:, :n] = 0.5 * z.T
    cond[n:, n:] = th
    return cond


def certify_delay_ph(
    system: DelayPHSystem, theta=None, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Certify the pair (system, Theta) against the block condition (*).

    Theta resolution: the explicit argument wins, otherwise the theta
    stored on the system; ValueError when neither is present.  The system
    must validate (H spd, J antisymmetric, R symmetric, a stored Theta
    PSD); Theta must be symmetric.  Verdict CERTIFIED iff Theta is PSD and
    the condition matrix is PSD, each within the tolerance's slack.  A
    REFUTED verdict carries a witness direction with negative quadratic
    form.
    """
    violations = validate(system, tol)
    if violations:
        raise SystemValidationError(violations)
    return _certify_validated(system, theta, tol)


def _certify_validated(
    system: DelayPHSystem, theta=None, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """``certify_delay_ph`` for a system that ``validate`` has passed."""
    # validate has tested a stored Theta for PSD with this tolerance
    stored = theta is None or theta is system.theta
    if theta is None:
        theta = system.theta
    if theta is None:
        raise ValueError(
            "no Theta available: pass one explicitly, store it on the "
            "system, or construct one with construct_theta"
        )
    th = require_symmetric(theta, "theta")
    if th.shape != (system.n, system.n):
        raise ValueError(f"theta has shape {th.shape}, expected {(system.n,) * 2}")
    # validate has checked R for shape and symmetry, so the blocks need no
    # second pass through ph_condition_matrix's checks
    r = system.R
    cond = _assemble_condition(0.5 * (r + r.T), system.Z, th)
    if not stored:
        theta_report = psd_report_symmetric(th, tol)
        if not theta_report.is_psd:
            return Certificate.from_report(
                theta_report, cond, "theta_not_psd", theta_used=th
            )
    return Certificate.from_report(
        psd_report_symmetric(cond, tol), cond, "condition_indefinite",
        theta_used=th,
    )


@dataclass(frozen=True)
class ScalarThetaInterval:
    """Exact feasible theta-range for a scalar delay system.

    For scalar R = a0 >= 0 and Z = a1 the condition (*) holds for some
    theta exactly when a0 >= |a1|, and then for every theta in

        [a0/2 - sqrt(a0^2 - a1^2)/2,  a0/2 + sqrt(a0^2 - a1^2)/2].
    """

    feasible: bool
    lo: float = math.nan
    hi: float = math.nan


def scalar_theta_interval(alpha0: float, alpha1: float) -> ScalarThetaInterval:
    """Closed-form theta interval for the scalar system (see class docs)."""
    a0 = float(alpha0)
    a1 = float(alpha1)
    if a0 < 0.0 or a0 < abs(a1):
        return ScalarThetaInterval(False)
    half_width = 0.5 * math.sqrt(max(a0 * a0 - a1 * a1, 0.0))
    return ScalarThetaInterval(True, 0.5 * a0 - half_width, 0.5 * a0 + half_width)


@dataclass(frozen=True)
class NecessaryConditions:
    """Necessary conditions on (R, Theta, Z) for (*) to hold.

    kernel_r_in_kernel_theta  ker(R) <= ker(Theta)
    kernel_theta_in_kernel_z  ker(Theta) <= ker(Z)
    kernel_r_in_kernel_zt     ker(R) <= ker(Z^T)

    Each follows from (*) with Theta PSD: for v in ker(R) the form
    -v^T Theta v must be >= 0, so Theta v = 0 and [v; 0] is a null vector
    of the PSD condition matrix, which forces Z^T v = 0; for w in
    ker(Theta), [0; w] is a null vector in the same way, so Z w = 0.  The
    first also gives image(Theta) <= image(R), and the third
    image(Z) <= image(R).
    """

    kernel_r_in_kernel_theta: bool
    kernel_theta_in_kernel_z: bool
    kernel_r_in_kernel_zt: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.kernel_r_in_kernel_theta
            and self.kernel_theta_in_kernel_z
            and self.kernel_r_in_kernel_zt
        )


def check_necessary(R, theta, Z, tol: Tolerance = DEFAULT_TOL) -> NecessaryConditions:
    """Evaluate the necessary kernel containments for (R, Theta, Z).

    The kernels of R and Theta come from one ``eigh`` each, and ||Z||_2 is
    computed at most once, only when one of the kernels is nontrivial.
    """
    r = require_symmetric(R, "R")
    th = require_symmetric(theta, "theta")
    z = as_matrix(Z, "Z")
    _, _, ker_r, _ = _symmetric_eigh(r, tol)
    _, _, ker_th, th_norm = _symmetric_eigh(th, tol)
    z_norm = spectral_norm(z) if ker_r.size or ker_th.size else 0.0
    return NecessaryConditions(
        kernel_r_in_kernel_theta=_contained(ker_r, th, th_norm, tol),
        kernel_theta_in_kernel_z=_contained(ker_th, z, z_norm, tol),
        kernel_r_in_kernel_zt=_contained(ker_r, z.T, z_norm, tol),
    )


@dataclass(frozen=True)
class AlphaInterval:
    """Feasible range of alpha for the one-parameter family Theta = alpha R.

    ``sigma`` is the whitened coupling norm s = ||V1^T Z V1||_2; the family
    certifies (*) exactly for alpha(1 - alpha) >= s^2 / 4, i.e. for

        alpha in [1/2 - sqrt(1 - s^2)/2, 1/2 + sqrt(1 - s^2)/2],

    clamped away from the open endpoints of (0, 1) in the s = 0 case.
    """

    sigma: float
    lo: float = math.nan
    hi: float = math.nan
    feasible: bool = False


@dataclass(frozen=True)
class ThetaConstruction:
    """Result of the Theta construction; ``success`` gates theta/interval."""

    success: bool
    theta: np.ndarray | None = None
    interval: AlphaInterval | None = None
    reason: str = ""


def construct_theta(R, Z, tol: Tolerance = DEFAULT_TOL) -> ThetaConstruction:
    """Construct a certifying Theta from the dissipation structure alone.

    R must be symmetric and Z of R's shape (ValueError otherwise); an R
    that is not PSD fails with reason "R is not positive semidefinite".
    The construction is sound under the kernel hypotheses

        ker(R) <= ker(Z)   and   image(Z) <= image(R),

    which make the whitened reduction exhaustive; the second is tested as
    ker(R) <= ker(Z^T).  When they hold and the
    whitened coupling s = ||V1^T Z V1||_2 is <= 1, Theta = R/2 certifies
    (*) and the full family Theta(alpha) = alpha R is feasible on the
    returned AlphaInterval.  Failure (hypotheses violated, or s > 1) is a
    "don't know", never a refutation: a certifying Theta outside the
    alpha-family may still exist.
    """
    r = require_symmetric(R, "R")
    z = as_matrix(Z, "Z")
    if z.shape != r.shape:
        raise ValueError(f"Z has shape {z.shape}, expected {r.shape}")
    evals, evecs, ker_r, scale = _symmetric_eigh(r, tol)
    try:
        v1 = _whitening(evals, evecs, scale, tol, "R")
    except ValueError as exc:  # R is not PSD
        return ThetaConstruction(False, reason=str(exc))
    z_norm = spectral_norm(z) if ker_r.size else 0.0
    if not _contained(ker_r, z, z_norm, tol):
        return ThetaConstruction(
            False, reason="kernel_condition: ker(R) is not contained in ker(Z)"
        )
    if not _contained(ker_r, z.T, z_norm, tol):
        return ThetaConstruction(
            False,
            reason="kernel_condition: image(Z) is not contained in image(R)",
        )
    sigma = spectral_norm(v1.T @ z @ v1)
    if sigma > 1.0 + FEASIBILITY_SLACK:
        return ThetaConstruction(
            False,
            interval=AlphaInterval(sigma=sigma, feasible=False),
            reason=f"sufficient_condition: whitened coupling {sigma:.12g} > 1",
        )
    half_width = 0.5 * math.sqrt(max(1.0 - sigma * sigma, 0.0))
    lo = 0.5 - half_width
    hi = 0.5 + half_width
    if lo < ALPHA_CLAMP:  # symmetric clamp keeps lo + hi = 1 exactly
        lo = ALPHA_CLAMP
        hi = 1.0 - ALPHA_CLAMP
    return ThetaConstruction(
        True,
        theta=0.5 * r,
        interval=AlphaInterval(sigma=sigma, lo=lo, hi=hi, feasible=True),
    )


def kyp_delay_check(
    system: GeneralDelaySystem, Q11, Q22, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Block KYP test for delay passivity in general coordinates.

    Certifies when the storage matrix Q11 is PSD,

        [[-A0^T Q11 - Q11 A0 - Q22, -Q11 A1],
         [-A1^T Q11,                  Q22  ]]  is PSD

    and C = B^T Q11 within rank_tol * ||C||.  An indefinite Q11 refutes
    with reason "storage_not_psd" and a witness on Q11.
    """
    q11 = require_symmetric(Q11, "Q11")
    q22 = require_symmetric(Q22, "Q22")
    n = system.n
    for name, q in (("Q11", q11), ("Q22", q22)):
        if q.shape != (n, n):
            raise ValueError(f"{name} has shape {q.shape}, expected {(n, n)}")
    block = np.empty((2 * n, 2 * n))
    block[:n, :n] = -system.A0.T @ q11 - q11 @ system.A0 - q22
    block[:n, n:] = -q11 @ system.A1
    block[n:, :n] = block[:n, n:].T
    block[n:, n:] = q22
    storage = psd_report_symmetric(q11, tol)
    if not storage.is_psd:
        return Certificate.from_report(storage, block, "storage_not_psd")
    residual, out_ok = output_residual(system.C, system.B, q11, tol)
    return Certificate.from_report(
        is_psd(block, tol),
        block,
        "block_indefinite",
        mismatch="" if out_ok else f"output_mismatch: ||C - B^T Q11|| = {residual:.3e}",
    )


def exists_certifying_theta_grid(
    R, Z, resolution: float = 0.02, box_scale: float = 2.0
):
    """Brute-force existence oracle for a certifying Theta (n <= 2 only).

    Scans symmetric positive-definite Theta candidates on a regular grid,
    diagonal entries over (0, box_scale * ||R||] and the off-diagonal entry
    over [-box_scale * ||R||, box_scale * ||R||], with step
    resolution * ||R|| per axis.  Each candidate is decided by the
    closed-form 2x2 Schur complement of (*), independently of the
    eigendecomposition and whitening machinery used elsewhere.  Returns
    ``(found, theta)`` with the first certifying grid point, or
    ``(False, None)``.  Boundary (singular PSD) Theta candidates are not
    scanned; the oracle is a desk-scale approximation of true existence.
    """
    r = require_symmetric(R, "R")
    z = as_matrix(Z, "Z")
    n = r.shape[0]
    if z.shape != (n, n):
        raise ValueError(f"Z has shape {z.shape}, expected {(n, n)}")
    if n not in (1, 2):
        raise ValueError("the grid oracle supports n = 1 and n = 2 only")
    scale = spectral_norm(r)
    if scale == 0.0:
        if spectral_norm(z) == 0.0:
            return True, np.zeros((n, n))
        return False, None
    step = resolution * scale
    axis = np.arange(step, box_scale * scale + 0.5 * step, step)
    slack = 1e-12 * scale

    if n == 1:
        r0 = float(r[0, 0])
        z0 = float(z[0, 0])
        good = (r0 - axis >= -slack) & (
            (r0 - axis) * axis - 0.25 * z0 * z0 >= -slack * scale
        )
        idx = np.flatnonzero(good)
        if idx.size:
            return True, np.array([[axis[idx[0]]]])
        return False, None

    off_axis = np.arange(
        -box_scale * scale, box_scale * scale + 0.5 * step, step
    )
    r11, r12, r22 = float(r[0, 0]), float(r[0, 1]), float(r[1, 1])
    z11, z12 = float(z[0, 0]), float(z[0, 1])
    z21, z22 = float(z[1, 0]), float(z[1, 1])
    t22g, t12g = np.meshgrid(axis, off_axis, indexing="ij")
    for t11 in axis:
        det = t11 * t22g - t12g * t12g
        pd = det > slack * scale
        if not pd.any():
            continue
        # W = Z Theta^{-1} Z^T via the 2x2 adjugate, entrywise, where pd
        a = z11 * t22g - z12 * t12g
        b = -z11 * t12g + z12 * t11
        c = z21 * t22g - z22 * t12g
        d = -z21 * t12g + z22 * t11
        w11, w12, w22 = (np.divide(x, det, out=np.zeros_like(det), where=pd)
                         for x in (a * z11 + b * z12, a * z21 + b * z22, c * z21 + d * z22))
        s11 = r11 - t11 - 0.25 * w11
        s22 = r22 - t22g - 0.25 * w22
        s12 = r12 - t12g - 0.25 * w12
        good = (
            pd
            & (s11 >= -slack)
            & (s22 >= -slack)
            & (s11 * s22 - s12 * s12 >= -slack * scale)
        )
        if good.any():
            i, j = np.argwhere(good)[0]
            theta = np.array(
                [[t11, off_axis[j]], [off_axis[j], axis[i]]]
            )
            return True, theta
    return False, None
