"""Dense linear-algebra primitives with an explicit tolerance policy.

Every routine here is a pure function on real 2-D numpy arrays.  Rank-type
decisions (ranks, kernels, subspace containments) are made relative to the
largest singular value.  Every kernel is that of a symmetric matrix and
comes, with its whitening, from one ``eigh`` (``_symmetric_eigh``), whose
|eigenvalues| are the singular values.  Semidefiniteness tests grant
an absolute eigenvalue slack that defaults to ``1e-9 * scale``, where scale
is the largest |eigenvalue| of the tested matrix, so a zero matrix gets no
slack and is PSD exactly.  Every semidefiniteness test decides from
eigenvalues, computing an eigenvector only for the witness of a NOT_PSD
verdict; a block-diagonal matrix whose blocks the caller knows is decided
one block at a time.  Certificates report the slack they were granted, so
these primitives return evidence (minimum eigenvalues, witnesses, measured
norms) rather than bare booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "PsdReport",
    "Tolerance",
    "as_matrix",
    "is_psd",
    "numerical_rank",
    "output_residual",
    "psd_report_symmetric",
    "require_symmetric",
    "skew_part",
    "spectral_norm",
    "sym_part",
    "whitening_basis",
]

#: relative asymmetry beyond which a matrix is rejected as "not symmetric"
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Numerical slack policy shared by all certification routines.

    psd_tol
        Absolute eigenvalue slack for semidefiniteness tests: a symmetric
        matrix counts as PSD when its smallest eigenvalue is >= -psd_tol.
        ``None`` (the default) means ``1e-9 * scale``, relative to the
        largest |eigenvalue| of the tested matrix: 0 for a zero matrix.
    rank_tol
        Relative singular-value cutoff for rank and kernel decisions:
        singular values <= rank_tol * sigma_max are treated as zero.
    """

    psd_tol: float | None = None
    rank_tol: float = 1e-10

    def __post_init__(self):
        if self.psd_tol is not None and not 0.0 <= self.psd_tol < math.inf:
            raise ValueError("psd_tol must be finite and nonnegative")
        if not 0.0 <= self.rank_tol < math.inf:
            raise ValueError("rank_tol must be finite and nonnegative")

    def psd_slack(self, scale: float) -> float:
        """Effective PSD slack for a matrix with spectral norm ``scale``."""
        if self.psd_tol is not None:
            return self.psd_tol
        return 1e-9 * float(scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a semidefiniteness test.

    ``witness`` is None for PSD; for NOT_PSD it is a unit eigenvector for
    ``min_eigenvalue``, which exhibits a negative quadratic form.  ``slack``
    records the absolute eigenvalue slack that was granted.
    """

    verdict: str  # "PSD" | "NOT_PSD"
    min_eigenvalue: float
    witness: np.ndarray | None
    slack: float

    @property
    def is_psd(self) -> bool:
        return self.verdict == "PSD"


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a finite 2-D float array; scalars become 1x1."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ValueError(
            f"{name} must be a 2-D array or a scalar, got shape {arr.shape}"
        )
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _square(value, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def sym_part(matrix) -> np.ndarray:
    """Symmetric part (M + M^T) / 2 of a square matrix."""
    m = _square(matrix)
    return 0.5 * (m + m.T)


def skew_part(matrix) -> np.ndarray:
    """Antisymmetric part (M - M^T) / 2 of a square matrix."""
    m = _square(matrix)
    return 0.5 * (m - m.T)


def asymmetry(matrix) -> float:
    """Relative asymmetry ||M - M^T||_F / ||M||_F; 0.0 for a zero matrix."""
    m = _square(matrix)
    return _relative_norm(m - m.T, m)


def _relative_norm(d: np.ndarray, m: np.ndarray) -> float:
    """||D||_F / ||M||_F, unchanged when both are scaled; 0.0 when M = 0.

    When ||M||_F^2 leaves [1e-200, 1e200], both are divided by max |M|
    first, so the squares neither overflow nor underflow.
    """
    d = d.ravel()
    m = m.ravel()
    with np.errstate(over="ignore"):
        mm = float(m @ m)
    if not 1e-200 <= mm <= 1e200:
        big = float(np.abs(m).max()) if m.size else 0.0
        if big == 0.0:
            return 0.0
        d = d / big
        m = m / big
        mm = float(m @ m)
    return math.sqrt(float(d @ d) / mm)


def require_symmetric(matrix, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized matrix, rejecting genuine asymmetry.

    Tiny asymmetry (relative Frobenius asymmetry <= 1e-12, the kind produced
    by floating-point assembly of symmetric expressions) is silently
    symmetrized; anything larger raises ValueError.
    """
    m = _square(matrix, name)
    a = _relative_norm(m - m.T, m)
    if a > SYMMETRY_RTOL:
        raise ValueError(
            f"{name} is not symmetric (relative asymmetry {a:.3e} > {SYMMETRY_RTOL:.0e})"
        )
    return 0.5 * (m + m.T)


def spectral_norm(matrix) -> float:
    """Largest singular value; 0.0 for an empty matrix."""
    m = as_matrix(matrix)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def is_psd(matrix, tol: Tolerance = DEFAULT_TOL) -> PsdReport:
    """Test a symmetric matrix for positive semidefiniteness.

    Decides from symmetric eigenvalues (never a Cholesky attempt).  A
    NOT_PSD report carries a witness eigenvector for the smallest
    eigenvalue; a PSD report carries none.  The input must be symmetric
    within 1e-12 relative asymmetry; it is symmetrized before the
    decomposition.
    """
    return psd_report_symmetric(require_symmetric(matrix), tol)


def psd_report_symmetric(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> PsdReport:
    """``is_psd`` for a float array the caller has already symmetrized.

    Skips the coercion and symmetry checks; for hot paths whose matrix is
    symmetric by construction.
    """
    return _psd_report_blocks([m], tol)[0]


def _psd_report_blocks(blocks, tol: Tolerance = DEFAULT_TOL):
    """PSD test of blkdiag(*blocks), one symmetric float block at a time.

    The spectrum of a block-diagonal matrix is the union of its blocks'
    spectra, so the least block minimum decides, with the slack granted for
    the largest |eigenvalue| over all blocks.  Returns ``(report, worst)``:
    ``worst`` indexes the block with the least eigenvalue (None when every
    block is empty), and a NOT_PSD witness is that block's unit eigenvector,
    not padded; only NOT_PSD computes an eigenvector.
    """
    lam, scale, worst = math.inf, 0.0, None
    for k, block in enumerate(blocks):
        if not block.size:
            continue
        evals = np.linalg.eigvalsh(block)
        scale = max(scale, float(np.max(np.abs(evals))))
        if evals[0] < lam:
            lam, worst = float(evals[0]), k
    slack = tol.psd_slack(scale)
    if worst is None:
        return PsdReport("PSD", 0.0, None, slack), None
    if lam >= -slack:
        return PsdReport("PSD", lam, None, slack), worst
    witness = np.linalg.eigh(blocks[worst])[1][:, 0]
    return PsdReport("NOT_PSD", lam, witness, slack), worst


def numerical_rank(matrix, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank with singular values truncated at rank_tol * sigma_max."""
    m = as_matrix(matrix)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_tol * float(s[0])))


def _contained(basis: np.ndarray, m: np.ndarray, norm: float, tol: Tolerance) -> bool:
    """Whether span(basis) lies inside ker(M), given ``norm`` = ||M||_2.

    True iff ||M @ basis||_2 <= rank_tol * ||M||_2, a bound relative to M,
    so the decision does not change when M is scaled.  An empty basis is
    contained in everything.
    """
    return not basis.shape[1] or spectral_norm(m @ basis) <= tol.rank_tol * norm


def _symmetric_eigh(m: np.ndarray, tol: Tolerance):
    """One ``eigh`` of a symmetric float array, and its numerical kernel.

    Returns ``(evals, evecs, K, scale)``: scale = max|eigenvalue| = ||M||_2,
    and K holds the orthonormal eigenvectors with |eigenvalue| <=
    rank_tol * scale.  The singular values of a symmetric matrix are its
    |eigenvalues|, so this is the cutoff an SVD would apply.
    """
    if not m.size:
        n = m.shape[0]
        return np.zeros(0), np.zeros((n, 0)), np.zeros((n, 0)), 0.0
    evals, evecs = np.linalg.eigh(m)
    scale = float(np.max(np.abs(evals)))
    return evals, evecs, evecs[:, np.abs(evals) <= tol.rank_tol * scale], scale


def _whitening(evals, evecs, scale: float, tol: Tolerance, name: str = "matrix"):
    """V1 with V1^T M V1 = I_r, from the ``_symmetric_eigh`` of M.

    Eigenvalues <= rank_tol * lambda_max count as zero.  Raises ValueError
    naming ``name`` when M is not PSD within the tolerance.
    """
    if evals.size and float(evals[0]) < -tol.psd_slack(scale):
        raise ValueError(
            f"{name} is not positive semidefinite (min eigenvalue {evals[0]:.3e})"
        )
    keep = evals > tol.rank_tol * float(np.max(evals, initial=0.0))
    return evecs[:, keep] / np.sqrt(evals[keep])


def whitening_basis(matrix, tol: Tolerance = DEFAULT_TOL):
    """Whitening transform and kernel of a symmetric PSD matrix, one eigh.

    Returns ``(V1, K)``.  V1 is n x r, r the numerical rank, with
    V1^T M V1 = I_r (columns are eigenvectors scaled by 1/sqrt(eigenvalue);
    eigenvalues <= rank_tol * lambda_max count as zero).  K holds the
    orthonormal eigenvectors with |eigenvalue| <= rank_tol * max|eigenvalue|.
    Raises ValueError when M is not PSD within the tolerance.
    """
    evals, evecs, kernel, scale = _symmetric_eigh(require_symmetric(matrix), tol)
    return _whitening(evals, evecs, scale, tol), kernel


def output_residual(C, B, Q, tol: Tolerance = DEFAULT_TOL):
    """Output condition C = B^T Q of a passivity test.

    Returns ``(residual, holds)``: the Frobenius norm ||C - B^T Q|| and
    whether it is <= rank_tol * ||C||, a bound relative to the output scale.
    """
    residual = float(np.linalg.norm(C - B.T @ Q))
    return residual, residual <= tol.rank_tol * float(np.linalg.norm(C))
