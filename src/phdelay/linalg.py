"""Dense linear-algebra primitives with an explicit tolerance policy.

Every routine here is a pure function on real 2-D numpy arrays.  Symmetric
parts are formed as 0.5 M + 0.5 M^T, finite for every finite M.  This is
the one module that computes a symmetric spectrum or singular values and
compares them with the PSD slack, by default ``1e-9 * scale`` with scale
the largest |eigenvalue| (so a zero matrix is PSD exactly), or with the
rank cutoff.  ``_symmetric_eigh`` puts each eigenvalue of a symmetric
matrix in one run: below -slack (not PSD), the kernel [-slack, rank_tol *
scale], or the range above; every kernel and whitening is read off that
split.  A rank comes from one vector of singular values, the module's only
SVD.  A 2-norm is the root of the largest eigenvalue of a Gram matrix, and
a kernel containment ||M B||_2 <= rank_tol ||M||_2 is first bracketed by
Frobenius norms, so it takes 2-norms only when the bracket straddles the
cutoff.  Every PSD test that reports evidence (least eigenvalue, witness,
slack granted) runs in ``_psd_report_blocks``: it computes the spectra
itself and decides from eigenvalues alone, and a block-diagonal matrix
whose blocks the caller knows one block at a time.  Its report is evidence
on the matrix it tested: a NOT_PSD witness is a unit vector w on all of
blkdiag(blocks), zero off the worst block, with w^T M w = min_eigenvalue.
It is not part of the verdict: it is computed when it is first read
(``_Lazy``).

A symmetric spectrum of an immutable input (a ``_frozen`` array, as
every system matrix is, or a system) is stored on that input by
``_memo``, so a chain of calls on one system decomposes each of its
symmetric matrices once, and the result lives and dies with the input.
A 2-norm or a rank is computed afresh on every call.  The outcome of a
frozen matrix's symmetry check is stored the same way, as a flag:
whether the matrix is its own symmetric part bit for bit.  So each
system matrix is checked for finiteness once (by ``as_matrix``, when it
is frozen) and for symmetry once, and one that is its own symmetric part
is then used as it is; an asymmetric one is rejected on every call.
Nothing that outlives a call (a ``PsdReport``, a certificate, their
deferred evidence) keeps a frozen matrix: it keeps a copy.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from functools import partial
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "PsdReport",
    "Tolerance",
    "as_matrix",
    "is_psd",
    "numerical_rank",
    "output_residual",
    "require_symmetric",
    "skew_part",
    "spectral_norm",
    "sym_part",
]

#: relative asymmetry beyond which a matrix is rejected as "not symmetric"
SYMMETRY_RTOL = 1e-12

#: relative widening of the Frobenius bracket in ``_contained``, so that a
#: ratio that rounding puts near a cut is decided by 2-norms
_CUT_MARGIN = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Numerical slack policy shared by all certification routines.

    psd_tol
        Absolute eigenvalue slack for semidefiniteness tests: a symmetric
        matrix counts as PSD when its smallest eigenvalue is >= -psd_tol.
        ``None`` (the default) means ``1e-9 * scale``, relative to the
        largest |eigenvalue| of the tested matrix: 0 for a zero matrix.
    rank_tol
        Relative rank cutoff: singular values <= rank_tol * sigma_max, and
        symmetric eigenvalues in [-slack, rank_tol * scale], count as zero.
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


class _Deferred(partial):
    """A computation that a ``_Lazy`` field runs when it is first read."""


class _Lazy:
    """A dataclass field that may be given a ``_Deferred`` for its value.

    The first read runs it and keeps the result on the instance, so the
    field is computed once per object.  Until then a copy or a pickle of
    the instance carries the ``_Deferred``, and with it only the arrays
    that it reads.  Two threads that read an unread field together may
    both compute it; both get equal arrays.  ``default`` is the field's
    default; ``MISSING`` makes the field required.
    """

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.default
        value = vars(obj)[self.name]
        if type(value) is _Deferred:
            value = vars(obj)[self.name] = value()
        return value

    def __set__(self, obj, value):
        vars(obj)[self.name] = value


@dataclass(frozen=True, eq=False)
class PsdReport:
    """Outcome of a semidefiniteness test.

    ``witness`` is None for PSD; for NOT_PSD it is a unit eigenvector of
    the tested matrix for ``min_eigenvalue``, which exhibits a negative
    quadratic form, computed when it is first read.  ``slack`` records the
    absolute eigenvalue slack that was granted.
    """

    verdict: str  # "PSD" | "NOT_PSD"
    min_eigenvalue: float
    witness: np.ndarray | None = _Lazy()  # required: no default
    slack: float

    @property
    def is_psd(self) -> bool:
        return self.verdict == "PSD"


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a finite 2-D float array; scalars become 1x1.

    A ``_frozen`` 2-D array is returned as it is: every one was made from
    this function's output, so it has been checked already.
    """
    if _is_frozen(value) and value.ndim == 2:
        return value
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


class _Root(np.ndarray):
    """The read-only bytes behind a ``_frozen`` array; its ``__dict__``
    holds what ``_memo`` computed from that array."""


def _is_frozen(arr) -> bool:
    """Whether ``arr`` is an array that ``_frozen`` made: a plain array
    over a ``_Root``, whose write flag numpy refuses to set again.

    A view or a reshape has the array as its base, an unpickled or copied
    array ``bytes`` or none, and a slice of the root is itself a ``_Root``,
    so none of them is trusted.  An array that a caller builds by hand over
    the root of another would share its results; no phdelay routine builds
    one.
    """
    return type(arr) is np.ndarray and type(arr.base) is _Root


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it ``_is_frozen``, else one immutable C-ordered copy."""
    if _is_frozen(arr):
        return arr
    root = _Root((arr.nbytes,), np.uint8, arr.tobytes())
    return np.ndarray(arr.shape, arr.dtype, root)


def _memo(obj, tag, compute):
    """``compute()``, stored on ``obj`` under ``tag`` if ``obj`` is immutable.

    A ``_frozen`` array keeps its results in its root's ``__dict__``, a
    system in its ``_cache``; both live exactly as long as ``obj``.  Every
    caller gets the same result, so ``compute`` must return an immutable
    one (a tuple, read-only arrays).  Two threads that miss together store
    equal values, and both get the first.  For any other ``obj`` it
    computes afresh each time.
    """
    cache = vars(obj.base) if _is_frozen(obj) else getattr(obj, "_cache", None)
    if cache is None:
        return compute()
    try:
        return cache[tag]
    except KeyError:
        return cache.setdefault(tag, compute())


def _set_read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _square(value, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def _require_shape(arr: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """``arr``, once it has ``shape``; ValueError naming ``name`` otherwise."""
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _halves(m: np.ndarray, skew: bool = False) -> np.ndarray:
    """0.5 M + 0.5 M^T, or with ``skew`` 0.5 M - 0.5 M^T: halving before
    adding keeps both finite for every finite square M."""
    half = 0.5 * m
    return half - half.T if skew else half + half.T


def _blkdiag(*blocks) -> np.ndarray:
    """blkdiag(*blocks) of 2-D float arrays, with zeros elsewhere."""
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))))
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


def sym_part(matrix) -> np.ndarray:
    """Symmetric part (M + M^T) / 2 of a square matrix."""
    return _halves(_square(matrix))


def skew_part(matrix) -> np.ndarray:
    """Antisymmetric part (M - M^T) / 2 of a square matrix."""
    return _halves(_square(matrix), skew=True)


def asymmetry(matrix) -> float:
    """Relative asymmetry ||M - M^T||_F / ||M||_F; 0.0 for a zero matrix."""
    m = _square(matrix)
    return 2.0 * _relative_norm(_halves(m, skew=True), m)


def _relative_norm(d: np.ndarray, m: np.ndarray) -> float:
    """||D||_F / ||M||_F, unchanged when both are scaled; 0.0 when M = 0.

    When ||M||_F^2 leaves [1e-200, 1e200], both are divided by max |M|
    first, so the squares neither overflow nor underflow.
    """
    # order "K": a transposed M is read in place, not copied
    d = d.ravel("K")
    m = m.ravel("K")
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
    symmetrized; anything larger raises ValueError.  A ``_frozen`` matrix
    is checked once: whether it is its own symmetric part bit for bit is
    stored on it (``_memo``), and if it is, it is returned itself,
    read-only.  Any other input gets a fresh array on every call.
    """
    m = _square(matrix, name)
    sym = None

    def own() -> bool:
        nonlocal sym
        a = asymmetry(m)
        if a > SYMMETRY_RTOL:
            raise ValueError(
                f"{name} is not symmetric (relative asymmetry {a:.3e} > {SYMMETRY_RTOL:.0e})"
            )
        sym = _halves(m)
        # bytes, not values: a (-0.0, 0.0) pair or a subnormal entry that
        # halving rounds is not its own symmetric part
        return bool(np.array_equal(sym.view(np.int64), m.view(np.int64)))

    if _memo(m, "symmetric", own) and _is_frozen(m):
        return m
    return _halves(m) if sym is None else sym


def spectral_norm(matrix) -> float:
    """Largest singular value ||M||_2; 0.0 for an empty or zero matrix.

    ||M||_2^2 is the largest eigenvalue of the Gram matrix B^T B or B B^T,
    whichever is smaller, of B = M / 2^e (``_binary_exponent``): the
    scaling is exact, so no square overflows or underflows and scaling M
    by a power of two scales the result exactly.
    """
    m = as_matrix(matrix)
    e = _binary_exponent(m)
    if e is None:
        return 0.0
    b = np.ldexp(m, -e)
    gram = b.T @ b if b.shape[0] >= b.shape[1] else b @ b.T
    return float(np.ldexp(math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)), e))


def _binary_exponent(m: np.ndarray) -> int | None:
    """e with 2^e the power of two just above max |M|, None for a zero M:
    M / 2^e has entries below 1 in magnitude, exact unless subnormal."""
    big = float(np.abs(m).max()) if m.size else 0.0
    return int(np.frexp(big)[1]) if big else None


def numerical_rank(matrix, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank with singular values truncated at rank_tol * sigma_max."""
    m = as_matrix(matrix)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_tol * float(s[0])))


def is_psd(matrix, tol: Tolerance = DEFAULT_TOL) -> PsdReport:
    """Test a symmetric matrix for positive semidefiniteness.

    Decides from symmetric eigenvalues (never a Cholesky attempt).  A
    NOT_PSD report carries a witness eigenvector for the smallest
    eigenvalue, computed when it is first read; a PSD report carries none.
    The input must be symmetric within 1e-12 relative asymmetry; it is
    symmetrized before the decomposition.
    """
    return _psd_report_blocks([require_symmetric(matrix)], tol)


def _psd_report_blocks(blocks, tol: Tolerance = DEFAULT_TOL, keys=()) -> PsdReport:
    """PSD test of blkdiag(*blocks), one symmetric float block at a time.

    Every ``PsdReport`` of phdelay is made here.  The spectrum of a
    block-diagonal matrix is the union of its blocks' spectra, so the
    least block minimum decides, with the slack granted for the largest
    |eigenvalue| over all blocks.  ``keys[k]``, when given, is what block k
    is computed from (a ``_frozen`` matrix that it symmetrizes, or a system
    whose condition matrix it is); the block's ascending ``eigvalsh`` is
    stored on it through ``_memo``.  A NOT_PSD witness is the unit
    eigenvector of the worst block, zero-padded to all of blkdiag(*blocks).
    It is computed from the block when it is first read, so a caller does
    not write to a block once it has been tested; a ``_frozen`` block, such
    as a system matrix that is its own symmetric part, is copied for it, so
    that the report keeps no system matrix.
    """
    lam, scale, worst = math.inf, 0.0, None
    for k, (block, key) in enumerate(zip_longest(blocks, keys)):
        if not block.size:
            continue
        evals = _memo(key, "eigvalsh", lambda: _set_read_only(np.linalg.eigvalsh(block)))
        scale = max(scale, float(np.max(np.abs(evals))))
        if evals[0] < lam:
            lam, worst = float(evals[0]), k
    slack = tol.psd_slack(scale)
    if worst is None:
        return PsdReport("PSD", 0.0, None, slack)
    if lam >= -slack:
        return PsdReport("PSD", lam, None, slack)
    block = blocks[worst]
    if _is_frozen(block):  # the pending witness keeps no system matrix alive
        block = block.copy()
    pad = (sum(map(len, blocks[:worst])), sum(map(len, blocks[worst + 1 :])))
    return PsdReport("NOT_PSD", lam, _Deferred(_least_eigenvector, block, pad), slack)


def _positive_definite(block: np.ndarray, tol: Tolerance, key) -> tuple[bool, float]:
    """Whether symmetric ``block``'s least eigenvalue exceeds the PSD slack
    (it is positive definite), and that eigenvalue; its spectrum is stored
    on ``key`` as in ``_psd_report_blocks``."""
    report = _psd_report_blocks([block], tol, [key])
    return report.min_eigenvalue > report.slack, report.min_eigenvalue


def _least_eigenvector(m: np.ndarray, pad: tuple) -> np.ndarray:
    """A unit eigenvector of symmetric M for its least eigenvalue, with
    ``pad`` zeros before and after: a fresh vector, keeping no other."""
    return np.pad(np.linalg.eigh(m)[1][:, 0], pad)


def _contained(basis: np.ndarray, m: np.ndarray, tol: Tolerance) -> bool:
    """Whether span(basis) lies inside ker(M).

    True iff ||M @ basis||_2 <= rank_tol * ||M||_2, a bound relative to M,
    so the decision does not change when M is scaled.  An empty basis is
    contained in everything.  With P = M @ basis and r = ||P||_F / ||M||_F,
    ||P||_2 / ||M||_2 lies in [r / sqrt(min P.shape), r sqrt(min M.shape)]
    (``_CUT_MARGIN`` widens each end against rounding of r), so a ratio
    outside the cutoff's band decides without a 2-norm; one inside it
    takes both.  So does an r <= 1e-50 of a nonzero P: ``_relative_norm``
    divides by ||M||_F^2 >= 1e-200, so only there can ||P||_F^2 have lost
    bits to underflow.
    """
    if not basis.shape[1]:
        return True
    p = m @ basis
    r = _relative_norm(p, m)
    cut = tol.rank_tol
    if r > 1e-50 or not p.any():
        if r * math.sqrt(min(m.shape)) <= cut * (1.0 - _CUT_MARGIN):
            return True
        if r > cut * (1.0 + _CUT_MARGIN) * math.sqrt(min(p.shape)):
            return False
    return spectral_norm(p) <= cut * spectral_norm(m)


class _Split(NamedTuple):
    """The ``eigh`` of a symmetric M, each eigenvalue in exactly one run.

    ``evals`` ascend: ``evals[:lo]`` lie below -slack (M is not PSD), the
    kernel ``evals[lo:hi]`` in [-slack, rank_tol * scale], and the range
    ``evals[hi:]`` above it; scale = max|eigenvalue| = ||M||_2.
    """

    evals: np.ndarray
    evecs: np.ndarray
    scale: float
    lo: int
    hi: int

    @property
    def kernel(self) -> np.ndarray:
        return self.evecs[:, self.lo : self.hi]

    def whitening(self, name: str = "matrix") -> np.ndarray:
        """V1 with V1^T M V1 = I_r over the range; ValueError if M is not PSD."""
        if self.lo:
            raise ValueError(
                f"{name} is not positive semidefinite (min eigenvalue {self.evals[0]:.3e})"
            )
        # order "F": V1^T, the left factor of V1^T Z V1 and V1^T G, is C-ordered
        return np.divide(self.evecs[:, self.hi :], np.sqrt(self.evals[self.hi :]), order="F")


def _symmetric_eigh(m: np.ndarray, tol: Tolerance, key=None) -> _Split:
    """One ``eigh`` of a symmetric float array, split into its three runs.

    ``key`` is the caller's matrix that M symmetrizes; when it is
    ``_frozen``, its ``eigh`` is stored on it through ``_memo`` (evals and
    evecs are then read-only).
    """
    if not m.size:
        return _Split(np.zeros(0), np.zeros((m.shape[0], 0)), 0.0, 0, 0)
    evals, evecs = _memo(key, "eigh", lambda: tuple(map(_set_read_only, np.linalg.eigh(m))))
    scale = float(np.max(np.abs(evals)))
    lo = int(np.searchsorted(evals, -tol.psd_slack(scale), "left"))
    hi = int(np.searchsorted(evals, tol.rank_tol * scale, "right"))
    return _Split(evals, evecs, scale, lo, hi)


def output_residual(C, B, Q, tol: Tolerance = DEFAULT_TOL):
    """Output condition C = B^T Q of a passivity test.

    Returns ``(residual, holds)``: the Frobenius norm ||C - B^T Q|| and
    whether it is <= rank_tol * ||C||, a bound relative to the output scale.
    """
    residual = float(np.linalg.norm(C - B.T @ Q))
    return residual, residual <= tol.rank_tol * float(np.linalg.norm(C))
