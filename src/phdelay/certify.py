"""Delay-independent dissipativity certificates for delay systems.

A delay system in port-Hamiltonian form,

    H x'(t) = (J - R) x(t) - Z x(t - tau) + G u(t),    y = G^T x,

is passive with the Lyapunov-Krasovskii Hamiltonian
``(1/2) x^T H x + integral_{t-tau}^{t} x(s)^T Theta x(s) ds`` as storage
function exactly when Theta is symmetric PSD and the block condition

    [[R - Theta, Z/2],
     [Z^T / 2, Theta]]  is positive semidefinite                      (*)

holds.  This module certifies (*) for a given Theta, derives necessary
conditions any certifying Theta must satisfy, and constructs a Theta from
(R, Z) alone when a whitened smallness test passes.  A brute-force grid
oracle for n <= 2 decides existence of a certifying Theta independently
of the construction.

Every certificate of (*) comes from one routine, which decides systems
with a stored Theta side by side: from ``certify_delay_ph`` the system
with its stored Theta or a copy carrying an explicit one, and from
``composition`` the parts of an exactly skew coupling or the closed loop
of any other.  The spectra it cuts are computed in ``linalg``.

Verdict semantics: CERTIFIED and REFUTED always refer to the pair
(system, Theta); a refuted pair says nothing about other Theta choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certificates import Certificate
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _blkdiag,
    _contained,
    _Deferred,
    _Lazy,
    _norm_at_most,
    _psd_report_blocks,
    _require_shape,
    _symmetric_eigh,
    as_matrix,
    require_symmetric,
    spectral_norm,
)
from .systems import DelayPHSystem, _require_valid

__all__ = [
    "AlphaInterval",
    "NecessaryConditions",
    "ScalarThetaInterval",
    "ThetaConstruction",
    "certify_delay_ph",
    "check_necessary",
    "construct_theta",
    "exists_certifying_theta_grid",
    "ph_condition_matrix",
    "scalar_theta_interval",
]

#: slack granted to the feasibility test s <= 1 of the Theta construction,
#: so exact boundary instances (e.g. feedback at the gain bound) succeed.
FEASIBILITY_SLACK = 1e-9

#: clamp for the open alpha interval (0, 1) in the Z = 0 degenerate case
ALPHA_CLAMP = 1e-9

#: step and half-width of the grid oracle's Theta grid, relative to ||R||_2
_GRID_STEP, _GRID_BOX = 0.02, 2.0


def ph_condition_matrix(R, Z, theta) -> np.ndarray:
    """Assemble the 2n x 2n block matrix [[R - Theta, Z/2], [Z^T/2, Theta]]."""
    r = require_symmetric(R, "R")
    th = _require_shape(require_symmetric(theta, "theta"), r.shape, "theta")
    z = _require_shape(as_matrix(Z, "Z"), r.shape, "Z")
    return _assemble_condition(r, z, th)


def _assemble_condition(r, z, th) -> np.ndarray:
    # exactly symmetric whenever r and th are.  Each block is written in
    # place, with no temporary: Z^T/2 is the transpose of the Z/2 block,
    # as halving commutes with transposing
    n = r.shape[0]
    cond = np.empty((2 * n, 2 * n))
    np.subtract(r, th, out=cond[:n, :n])
    np.multiply(z, 0.5, out=cond[:n, n:])
    cond[n:, :n] = cond[:n, n:].T
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
    form.  ``validate`` keeps its result on the system, so a system that
    was validated with this tolerance is not validated again.  A PSD
    explicit Theta is decided on a copy of the system that carries it, by
    the routine that decides a stored one, so nothing computed for it is
    stored on ``system``.  One that is not PSD refutes with reason
    "theta_not_psd" and a witness on Theta; its condition matrix is
    assembled with the verdict.
    """
    _require_valid(system, tol)
    if theta is None or theta is system.theta:
        if system.theta is None:
            raise ValueError(
                "no Theta available: pass one explicitly, store it on the "
                "system, or construct one with construct_theta"
            )
        return _certify_stored([system], tol)
    th = _require_shape(require_symmetric(theta, "theta"), system.R.shape, "theta")
    report = _psd_report_blocks([th], tol)
    if not report.is_psd:
        # the pending witness reads th or a copy of it, so the certificate
        # gets a copy of its own
        th = np.array(th)
        cond = _assemble_condition(require_symmetric(system.R, "R"), system.Z, th)
        return Certificate.from_report(report, cond, "theta_not_psd", theta_used=th)
    return _certify_stored([replace(system, theta=theta)], tol)


def _certify_stored(systems, tol: Tolerance) -> Certificate:
    """Decide (*) for validated systems with their stored Theta, side by side.

    Ordered (x1, ..., xk, x1(t - tau), ..., xk(t - tau)), the condition
    matrix of blkdiag(R_i), blkdiag(Z_i) and blkdiag(Theta_i) is
    blkdiag(M_1, ..., M_k), M_i system i's condition matrix, with rows and
    columns permuted by one index array (``_in_order``).  So each system is
    decided on its own, keyed on that system so that the verdict on M_i
    (and its ``eigvalsh``, when one is computed) is stored on it, and that
    array puts the condition matrix and the padded witness in that order.
    Each R and Theta has been checked for symmetry and each Theta for PSD,
    by validate or, for an explicit Theta, by ``certify_delay_ph``; each
    check is stored on its matrix, so ``require_symmetric`` does not
    repeat it.

    The evidence is computed when it is read: the condition matrix, the
    witness, blkdiag(Theta_i) and, for a PSD verdict that Choleskys
    decided, the least eigenvalue and slack are built on their first read
    from the blocks, which this call assembled, so the certificate keeps
    no system's matrix.  Theta_i is read off the lower-right corner of block i.
    """
    blocks = [_assemble_condition(require_symmetric(s.R, "R"), s.Z,
                                  require_symmetric(s.theta, "theta"))
              for s in systems]
    report = _psd_report_blocks(blocks, tol, systems)
    if not report.is_psd:
        report = replace(report, witness=_Deferred(_in_order, blocks, vars(report)["witness"]))
    thetas = [b[len(b) // 2 :, len(b) // 2 :] for b in blocks]
    return Certificate.from_report(report, _Deferred(_in_order, blocks, _blkdiag, *blocks),
                                   "condition_indefinite",
                                   theta_used=_Deferred(_blkdiag, *thetas))


def _in_order(blocks, compute, *args) -> np.ndarray:
    """``compute(*args)``, a vector or a square matrix on blkdiag(*blocks),
    each axis put in the order of ``_certify_stored``."""
    # row i in that order is row order[i] of blkdiag(*blocks), whose block
    # k holds x_k, then x_k(t - tau)
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    order = np.hstack([np.arange(o, o + len(b)).reshape(2, -1)
                       for o, b in zip(offsets, blocks)]).ravel()
    out = compute(*args)
    return out[np.ix_(*[order] * out.ndim)]


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
    """Closed-form theta interval (see class docs) for finite arguments."""
    a0 = float(alpha0)
    a1 = float(alpha1)
    if not (math.isfinite(a0) and math.isfinite(a1)):
        raise ValueError(f"alpha0 and alpha1 must be finite, got {a0!r}, {a1!r}")
    if a0 < 0.0 or a0 < abs(a1):
        return ScalarThetaInterval(False)
    # sqrt(a0^2 - a1^2) / 2 as a product, so that no square overflows
    b = abs(a1)
    half_width = math.sqrt(0.5 * (a0 - b)) * math.sqrt(0.5 * a0 + 0.5 * b)
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

    Theta and Z must have R's shape (ValueError otherwise).  ker(R) and
    ker(Theta) are the kernel runs of one ``_symmetric_eigh`` each; a
    containment whose Frobenius bracket decides it takes no 2-norm (see
    ``_contained``).
    """
    r = require_symmetric(R, "R")
    th = _require_shape(require_symmetric(theta, "theta"), r.shape, "theta")
    z = _require_shape(as_matrix(Z, "Z"), r.shape, "Z")
    ker_r = _symmetric_eigh(r, tol, R).kernel
    th_split = _symmetric_eigh(th, tol, theta)
    return NecessaryConditions(
        kernel_r_in_kernel_theta=_contained(ker_r, th, tol),
        kernel_theta_in_kernel_z=_contained(th_split.kernel, z, tol),
        kernel_r_in_kernel_zt=_contained(ker_r, z.T, tol),
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


@dataclass(frozen=True, eq=False)
class ThetaConstruction:
    """Result of the Theta construction; ``success`` gates theta/interval.

    The ``interval`` of a construction that succeeded may be computed when
    it is first read (``_Lazy``); a copy or a pickle made before then
    carries what computes it.
    """

    success: bool
    theta: np.ndarray | None = None
    interval: AlphaInterval | None = _Lazy(None)
    reason: str = ""


def construct_theta(R, Z, tol: Tolerance = DEFAULT_TOL) -> ThetaConstruction:
    """Construct a certifying Theta from the dissipation structure alone.

    R must be symmetric and Z of R's shape (ValueError otherwise); an R
    that is not PSD fails with reason "R is not positive semidefinite".
    The construction is sound under the kernel hypotheses

        ker(R) <= ker(Z)   and   image(Z) <= image(R),

    which make the whitened reduction exhaustive; the second is tested as
    ker(R) <= ker(Z^T).  ker(R) is spanned by the eigenvectors with
    eigenvalues in [-slack, rank_tol * ||R||_2], a negative one within the
    PSD slack included, and V1 whitens those above.  When the hypotheses
    hold and the whitened coupling s = ||V1^T Z V1||_2 is <= 1, Theta = R/2
    certifies (*) and the full family Theta(alpha) = alpha R is feasible
    on the returned AlphaInterval.  Failure (hypotheses violated, or
    s > 1) is a "don't know", never a refutation: a certifying Theta
    outside the alpha-family may still exist.  The test s <= 1 (within
    ``FEASIBILITY_SLACK``) is decided by ``linalg._norm_at_most``, mostly
    by a Frobenius bound or a Cholesky, so a success's interval, with s,
    is computed when it is first read, bit for bit as ``spectral_norm``
    would have given s; a failure's s is computed with the verdict.
    """
    r = require_symmetric(R, "R")
    z = _require_shape(as_matrix(Z, "Z"), r.shape, "Z")
    split = _symmetric_eigh(r, tol, R)
    ker_r = split.kernel
    try:
        v1 = split.whitening("R")
    except ValueError as exc:  # R is not PSD
        return ThetaConstruction(False, reason=str(exc))
    if not _contained(ker_r, z, tol):
        return ThetaConstruction(
            False, reason="kernel_condition: ker(R) is not contained in ker(Z)"
        )
    if not _contained(ker_r, z.T, tol):
        return ThetaConstruction(
            False, reason="kernel_condition: image(Z) is not contained in image(R)"
        )
    within, sigma = _norm_at_most(v1.T @ z @ v1, 1.0 + FEASIBILITY_SLACK)
    if not within:
        return ThetaConstruction(
            False,
            interval=AlphaInterval(sigma=sigma, feasible=False),
            reason=f"sufficient_condition: whitened coupling {sigma:.12g} > 1",
        )
    return ThetaConstruction(
        True, theta=0.5 * r, interval=_Deferred(_feasible_interval, sigma)
    )


def _feasible_interval(sigma: float | _Deferred) -> AlphaInterval:
    """The AlphaInterval of a construction whose whitened coupling
    ``sigma`` passed the test, computing ``sigma`` first if it is
    deferred."""
    if type(sigma) is _Deferred:
        sigma = sigma()
    half_width = 0.5 * math.sqrt(max(1.0 - sigma * sigma, 0.0))
    lo = 0.5 - half_width
    hi = 0.5 + half_width
    if lo < ALPHA_CLAMP:  # symmetric clamp keeps lo + hi = 1 exactly
        lo = ALPHA_CLAMP
        hi = 1.0 - ALPHA_CLAMP
    return AlphaInterval(sigma=sigma, lo=lo, hi=hi, feasible=True)


def exists_certifying_theta_grid(R, Z):
    """Brute-force existence oracle for a certifying Theta (n <= 2 only).

    Scans symmetric positive-definite Theta candidates on a regular grid,
    diagonal entries over (0, 2 ||R||] and the off-diagonal entry over
    [-2 ||R||, 2 ||R||], with step 0.02 ||R|| per axis (``_GRID_BOX`` and
    ``_GRID_STEP``).  Each candidate is decided by the closed-form 2x2
    Schur complement of (*), independently of the eigendecomposition and
    whitening machinery used elsewhere.  Returns
    ``(found, theta)`` with the first certifying grid point, or
    ``(False, None)``.  Boundary (singular PSD) Theta candidates are not
    scanned; the oracle is a desk-scale approximation of true existence.
    The scan decides R / ||R|| and Z / ||R|| with the unit-free slack
    1e-12 and scales the found Theta back, so scaling R and Z by c > 0
    scales the answer by c, up to the largest floats, without overflow.
    """
    r = require_symmetric(R, "R")
    z = _require_shape(as_matrix(Z, "Z"), r.shape, "Z")
    n = r.shape[0]
    if n not in (1, 2):
        raise ValueError("the grid oracle supports n = 1 and n = 2 only")
    scale = spectral_norm(r)
    if scale == 0.0:
        if spectral_norm(z) == 0.0:
            return True, np.zeros((n, n))
        return False, None
    # (*) is homogeneous in (R, Z, Theta): decide it at unit scale, where
    # no product below can overflow
    r = r / scale
    z = z / scale
    axis = np.arange(_GRID_STEP, _GRID_BOX + 0.5 * _GRID_STEP, _GRID_STEP)
    slack = 1e-12

    if n == 1:
        r0 = float(r[0, 0])
        z0 = float(z[0, 0])
        good = (r0 - axis >= -slack) & (
            (r0 - axis) * axis - 0.25 * z0 * z0 >= -slack
        )
        idx = np.flatnonzero(good)
        if idx.size:
            return True, np.array([[axis[idx[0]] * scale]])
        return False, None

    off_axis = np.arange(-_GRID_BOX, _GRID_BOX + 0.5 * _GRID_STEP, _GRID_STEP)
    r11, r12, r22 = float(r[0, 0]), float(r[0, 1]), float(r[1, 1])
    z11, z12 = float(z[0, 0]), float(z[0, 1])
    z21, z22 = float(z[1, 0]), float(z[1, 1])
    t22g, t12g = np.meshgrid(axis, off_axis, indexing="ij")
    for t11 in axis:
        det = t11 * t22g - t12g * t12g
        pd = det > slack
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
            & (s11 * s22 - s12 * s12 >= -slack)
        )
        if good.any():
            i, j = np.argwhere(good)[0]
            theta = np.array(
                [[t11, off_axis[j]], [off_axis[j], axis[i]]]
            )
            return True, theta * scale
    return False, None
