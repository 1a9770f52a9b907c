"""Dense linear-algebra primitives with an explicit tolerance policy.

Every routine here is a pure function on real 2-D numpy arrays.  Rank-type
decisions (kernels, images, subspace relations) are made relative to the
largest singular value; semidefiniteness tests grant an absolute eigenvalue
slack that defaults to ``1e-9 * (1 + ||M||_2)``.  Every semidefiniteness
test goes through ``psd_report_symmetric``, which decides diagonal blocks
that exact zeros decouple one block at a time (from order 128 up; no
threshold decides what counts as zero).  Higher-level certificates
report exactly the slack they were granted, so these primitives return
witnesses (eigenvectors, measured norms) rather than bare booleans where
that matters.
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
    "image_basis",
    "intersection_trivial",
    "is_psd",
    "kernel_basis",
    "numerical_rank",
    "output_residual",
    "psd_report_symmetric",
    "require_symmetric",
    "skew_part",
    "spectral_norm",
    "subspace_contained",
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
        ``None`` (the default) means auto-scale, ``1e-9 * (1 + ||M||_2)``.
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
        return 1e-9 * (1.0 + float(scale))


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a semidefiniteness test.

    ``witness`` is a unit eigenvector for ``min_eigenvalue``; when the
    verdict is NOT_PSD it exhibits a negative quadratic form.  ``slack``
    records the absolute eigenvalue slack that was granted.
    """

    verdict: str  # "PSD" | "NOT_PSD"
    min_eigenvalue: float
    witness: np.ndarray
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

    Uses symmetric eigendecompositions (never a Cholesky attempt) so the
    report always carries a witness eigenvector for the smallest
    eigenvalue: one of the whole matrix, or, from order 128 up, one per
    diagonal block that exact zeros decouple.  The input must be symmetric
    within 1e-12 relative asymmetry; it is symmetrized before the
    decomposition.
    """
    return psd_report_symmetric(require_symmetric(matrix), tol)


def psd_report_symmetric(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> PsdReport:
    """``is_psd`` for a float array the caller has already symmetrized.

    Skips the coercion and symmetry checks; for hot paths whose matrix is
    symmetric by construction.  Diagonal blocks that exact zeros decouple
    are decomposed one by one (see ``_decoupled_blocks``): the spectrum of
    a block-diagonal matrix is the union of its blocks' spectra, so the
    minimum eigenvalue is the least block minimum, the witness is that
    block's eigenvector padded with zeros, and the slack scale is the
    largest |eigenvalue| over all blocks.
    """
    n = m.shape[0]
    if n == 0:
        return PsdReport("PSD", 0.0, np.zeros(0), tol.psd_slack(0.0))
    lam, scale, witness = math.inf, 0.0, np.zeros(n)
    for idx in _decoupled_blocks(m):
        evals, evecs = np.linalg.eigh(m[idx][:, idx])
        scale = max(scale, float(np.max(np.abs(evals))))
        if evals[0] < lam:
            lam = float(evals[0])
            witness[:] = 0.0
            witness[idx] = evecs[:, 0]
    slack = tol.psd_slack(scale)
    verdict = "PSD" if lam >= -slack else "NOT_PSD"
    return PsdReport(verdict, lam, witness, slack)


#: order from which psd_report_symmetric searches for decoupled blocks.  On
#: one BLAS thread (2-vCPU Xeon, OpenBLAS) two decoupled halves of order 128
#: take 0.8 ms against 1.1 ms for one eigh of the whole, and the search
#: costs about 0.1 ms on an order-128 pattern that does not split.
_SPLIT_MIN_ORDER = 128


def _decoupled_blocks(m: np.ndarray) -> list:
    """Index sets of the diagonal blocks that exact zeros decouple in ``m``.

    The blocks are the connected components of the exact-nonzero pattern of
    the symmetric ``m``; no threshold is involved.  Indices without an
    off-diagonal nonzero are gathered into one diagonal block.  Returns
    ``[slice(None)]`` (the whole matrix) below ``_SPLIT_MIN_ORDER``, when
    the first row has no zero, or when the pattern is connected.
    """
    n = m.shape[0]
    if n < _SPLIT_MIN_ORDER or np.all(m[0] != 0.0):
        return [slice(None)]
    # row i as an int whose bit j is set iff m[i, j] != 0
    rows = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(m != 0.0, axis=1, bitorder="little")
    ]
    label = np.empty(n, dtype=int)
    free, count = (1 << n) - 1, 0
    while free:  # breadth-first search over bitsets, one component a pass
        reach = frontier = free & -free
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                i = low.bit_length() - 1
                label[i] = count
                grown |= rows[i]
                frontier ^= low
            frontier = grown & ~reach
            reach |= frontier
        free &= ~reach
        count += 1
    sizes = np.bincount(label)
    blocks = [np.flatnonzero(label == c) for c in np.flatnonzero(sizes > 1)]
    if (sizes == 1).any():
        blocks.append(np.flatnonzero(sizes[label] == 1))
    return blocks if len(blocks) > 1 else [slice(None)]


def _svd_full(matrix):
    m = as_matrix(matrix)
    if m.size == 0:
        rows, cols = m.shape
        return np.eye(rows), np.zeros(0), np.eye(cols)
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    return u, s, vt


def numerical_rank(matrix, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank with singular values truncated at rank_tol * sigma_max."""
    _, s, _ = _svd_full(matrix)
    if s.size == 0:
        return 0
    cutoff = tol.rank_tol * float(s[0])
    return int(np.count_nonzero(s > cutoff))


def kernel_basis(matrix, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of M.

    Returns an n x k array where k = n - rank(M); k = 0 yields an n x 0
    array, and the zero matrix yields the identity (full kernel).
    """
    _, s, vt = _svd_full(matrix)
    cutoff = tol.rank_tol * float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    return vt[rank:].T.copy()


def image_basis(matrix, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical column space of M."""
    m = as_matrix(matrix)
    u, s, _ = _svd_full(m)
    cutoff = tol.rank_tol * float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    return u[:, :rank].copy()


def subspace_contained(basis, matrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether span(basis) lies inside ker(matrix).

    True iff ||M @ basis||_2 <= rank_tol * ||M||_2, a bound relative to M,
    so the decision does not change when M is scaled.  An empty basis is
    contained in everything.
    """
    b = as_matrix(basis, "basis")
    m = as_matrix(matrix)
    if b.shape[1] == 0:
        return True
    if m.shape[1] != b.shape[0]:
        raise ValueError(
            f"shape mismatch: matrix has {m.shape[1]} columns, basis vectors "
            f"have length {b.shape[0]}"
        )
    bound = tol.rank_tol * spectral_norm(m)
    return spectral_norm(m @ b) <= bound


def intersection_trivial(basis, matrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether span(basis) meets the column space of M only at 0.

    Decided by a rank test on the stacked basis [basis | image_basis(M)]:
    the intersection is trivial iff the stack has full column rank.
    """
    b = as_matrix(basis, "basis")
    if b.shape[1] == 0:
        return True
    img = image_basis(matrix, tol)
    if img.shape[1] == 0:
        return True
    if b.shape[0] != img.shape[0]:
        raise ValueError("basis and matrix live in different spaces")
    stacked = np.hstack([b, img])
    return numerical_rank(stacked, tol) == b.shape[1] + img.shape[1]


def whitening_basis(matrix, tol: Tolerance = DEFAULT_TOL):
    """Whitening transform and kernel of a symmetric PSD matrix, one eigh.

    Returns ``(V1, K)``.  V1 is n x r, r the numerical rank, with
    V1^T M V1 = I_r (columns are eigenvectors scaled by 1/sqrt(eigenvalue);
    eigenvalues <= rank_tol * lambda_max count as zero).  K holds the
    orthonormal eigenvectors with |eigenvalue| <= rank_tol * max|eigenvalue|,
    the same numerical kernel ``kernel_basis`` returns.  Raises ValueError
    when M is not PSD within the tolerance.
    """
    m = require_symmetric(matrix)
    if m.size == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    evals, evecs = np.linalg.eigh(m)
    scale = float(np.max(np.abs(evals)))
    if float(evals[0]) < -tol.psd_slack(scale):
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {evals[0]:.3e})"
        )
    lam_max = max(float(evals[-1]), 0.0)
    keep = evals > tol.rank_tol * lam_max
    if lam_max == 0.0:
        keep = np.zeros_like(evals, dtype=bool)
    v1 = evecs[:, keep] / np.sqrt(evals[keep])
    return v1, evecs[:, np.abs(evals) <= tol.rank_tol * scale]


def output_residual(C, B, Q, tol: Tolerance = DEFAULT_TOL):
    """Output condition C = B^T Q of a passivity test.

    Returns ``(residual, holds)``: the Frobenius norm ||C - B^T Q|| and
    whether it is <= rank_tol * ||C||, a bound relative to the output scale.
    """
    residual = float(np.linalg.norm(C - B.T @ Q))
    return residual, residual <= tol.rank_tol * float(np.linalg.norm(C))
