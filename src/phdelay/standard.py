"""Dissipativity tests for standard (delay-free) LTI systems.

A system x' = Ax + Bu, y = Cx is port-Hamiltonian for a symmetric PSD
energy matrix H exactly when the weighted system matrix

    Sigma = [[H A, H B],
             [ -C,   0]]

has negative semidefinite symmetric part.  The symmetric/antisymmetric
split of Sigma then yields the structure matrices:

    -sym(Sigma) = [[R, 0], [0, 0]],    skew(Sigma) = [[J, G], [-G^T, 0]],

so that H x' = (J - R) x + G u and y = G^T x.  The classical
Kalman-Yakubovich-Popov matrix

    W(H) = [[-A^T H - H A, C^T - H B],
            [ C - B^T H,        0  ]]

satisfies W(H) = -2 sym(Sigma) identically, so ``certify_ph`` decides the
KYP inequality through Sigma.  Asymptotic stability of A is deliberately
not examined here; the tests are purely algebraic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _binary_exponent,
    _psd_report_blocks,
    _require_shape,
    as_matrix,
    numerical_rank,
    output_residual,
    require_symmetric,
    skew_part,
    sym_part,
)
from .systems import StandardLTISystem

__all__ = [
    "MINIMAL",
    "NOT_CONTROLLABLE",
    "NOT_OBSERVABLE",
    "SigmaDecomposition",
    "StandardPHCertificate",
    "certify_ph",
    "check_minimality",
    "weighted_system_matrix",
]

MINIMAL = "minimal"
NOT_CONTROLLABLE = "not_controllable"
NOT_OBSERVABLE = "not_observable"


@dataclass(frozen=True, eq=False)
class SigmaDecomposition:
    """Structure matrices extracted from the weighted system matrix."""

    J: np.ndarray
    R: np.ndarray
    G: np.ndarray


@dataclass(frozen=True, eq=False)
class StandardPHCertificate:
    certificate: Certificate
    decomposition: SigmaDecomposition | None = None

    @property
    def certified(self) -> bool:
        return self.certificate.certified


def weighted_system_matrix(system: StandardLTISystem, H) -> np.ndarray:
    """Assemble [[H A, H B], [-C, 0]]; H must be n x n (ValueError otherwise)."""
    n, m = system.n, system.m
    h = _require_shape(as_matrix(H, "H"), (n, n), "H")
    out = np.zeros((n + m, n + m))
    out[:n, :n] = h @ system.A
    out[:n, n:] = h @ system.B
    out[n:, :n] = -system.C
    return out


def certify_ph(
    system: StandardLTISystem, H, tol: Tolerance = DEFAULT_TOL
) -> StandardPHCertificate:
    """Decide whether (A, B, C) is port-Hamiltonian for the energy matrix H.

    H must be n x n and symmetric (ValueError otherwise).  Certifies when
    H is PSD, sym(Sigma) is negative semidefinite AND the structural
    condition H B = C^T holds within rank_tol * ||C||; on success the
    returned decomposition carries J, R, G.  The certificate's condition
    matrix is -sym(Sigma), which the dissipation test decides: one that is
    not PSD refutes with reason "dissipation_indefinite" and a witness on
    it.  An H that is not PSD refutes with reason "storage_not_psd" and a
    witness on H; a failed structural condition with "output_mismatch".
    The verdict on sym(H) (and its spectrum, when one is computed) is
    stored on H when H is immutable; a positive definite verdict that
    ``validate`` stored there decides it.
    """
    h = as_matrix(H, "H")
    sigma = weighted_system_matrix(system, h)
    dissipation = -sym_part(sigma)  # exactly symmetric: no check needed
    storage = _psd_report_blocks([require_symmetric(h, "H")], tol, [H])
    if not storage.is_psd:
        return StandardPHCertificate(
            Certificate.from_report(storage, dissipation, "storage_not_psd"))
    n = system.n
    # ||C - B^T H^T|| = ||H B - C^T||, the structural condition as stated
    residual, out_ok = output_residual(system.C, system.B, h.T, tol)
    cert = Certificate.from_report(
        _psd_report_blocks([dissipation], tol),
        dissipation,
        "dissipation_indefinite",
        mismatch="" if out_ok else f"output_mismatch: ||H B - C^T|| = {residual:.3e}",
    )
    if not cert.certified:
        return StandardPHCertificate(cert)
    skew = skew_part(sigma)
    decomp = SigmaDecomposition(
        J=skew[:n, :n].copy(),
        R=dissipation[:n, :n].copy(),
        G=skew[:n, n:].copy(),
    )
    return StandardPHCertificate(cert, decomp)


def check_minimality(system: StandardLTISystem, tol: Tolerance = DEFAULT_TOL) -> str:
    """Kalman rank tests; controllability is checked first.

    Returns "minimal", "not_controllable", or "not_observable".  The
    Krylov matrices are built from A / 2^e (``_binary_exponent``), which
    has the same ranks and keeps them on one scale whatever the time unit.
    """
    n = system.n
    e = _binary_exponent(system.A)
    a = system.A if e is None else np.ldexp(system.A, -e)
    ctrl = _krylov(a, system.B, n)
    if numerical_rank(ctrl, tol) < n:
        return NOT_CONTROLLABLE
    obs = _krylov(a.T, system.C.T, n)
    if numerical_rank(obs, tol) < n:
        return NOT_OBSERVABLE
    return MINIMAL


def _krylov(a, b, n):
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks) if blocks else b

