"""Dense linear-algebra primitives with an explicit tolerance policy.

Every routine here is a pure function on real 2-D numpy arrays.  Symmetric
parts are formed as 0.5 M + 0.5 M^T, finite for every finite M.  This is
the one module that computes a symmetric spectrum, singular values or a
Cholesky factor, and compares a spectrum with the PSD slack, by default
``1e-9 * scale`` with scale the largest |eigenvalue| (so a zero matrix is
PSD exactly), or with the rank cutoff.  ``_symmetric_eigh`` puts each
eigenvalue of a symmetric matrix in one run: below -slack (not PSD), the
kernel [-slack, rank_tol * scale], or the range above; every kernel and
whitening is read off that split.  A rank comes from one vector of
singular values, the module's only SVD.  A 2-norm is the root of the
largest eigenvalue of a Gram matrix G.  Every Cholesky is one call of
``_shifted_cholesky_runs``, on a power-of-two scaling of the matrix with
its diagonal shifted by a margin from Demmel's bound.  A test
||M||_2 <= bound (``_norm_at_most``) is first bracketed by Frobenius
norms, then decided by one Cholesky of a shifted identity minus G; it
takes that eigenvalue only when the Cholesky fails, or at once when the
Frobenius norm is clearly beyond, and the 2-norm under a bound that holds
is computed when it is first read.  A kernel containment ||M B||_2 <=
rank_tol ||M||_2 is first bracketed by Frobenius norms, so it takes
2-norms only when the bracket straddles the cutoff.  Every PSD test that
reports evidence (least eigenvalue, witness, slack granted) runs in
``_psd_report_blocks``, on a block-diagonal matrix whose blocks the
caller knows one block at a time, and H > 0 in ``_positive_definite``.
Each verdict is the eigenvalue rule's (least eigenvalue >= -slack, or
> slack), decided by one shifted Cholesky per block of order
``_CHOLESKY_MIN_ORDER`` or more, whose success implies that rule's
answer (``_definite_by_cholesky``); only when one fails, or a block is
smaller, are the spectra computed, and they decide.  A report is evidence
on the matrix it tested: a NOT_PSD witness is a unit vector w on all of
blkdiag(blocks), zero off the worst block, with w^T M w =
min_eigenvalue.  The evidence is not part of the verdict: the witness,
and the least eigenvalue and slack of a verdict that a Cholesky decided,
are computed when they are first read (``_Lazy``).

A symmetric spectrum of an immutable input (a ``_frozen`` array, as
every system matrix is, or a system) is stored on that input by
``_memo``, so a chain of calls on one system decomposes each of its
symmetric matrices once, and the result lives and dies with the input.
The outcome of a verdict's Cholesky is stored the same way, as a flag
per tolerance, so each verdict on a system is decided once.  A 2-norm
or a rank is computed afresh on every call.  The outcome of a frozen
matrix's symmetry check is stored as a flag too:
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

#: least order of a block whose verdict a shifted Cholesky decides: below
#: it the Cholesky's scaling and call cost more than the eigvalsh they
#: would save (about 21 against 12 us per report at order 3)
_CHOLESKY_MIN_ORDER = 4


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
    absolute eigenvalue slack that was granted.  A PSD verdict that a
    Cholesky decided computes ``min_eigenvalue`` and ``slack`` together
    when either is first read, from the report's own copies of the tested
    blocks; a NOT_PSD one carries both from the start.
    """

    verdict: str  # "PSD" | "NOT_PSD"
    # each field is required: a _Lazy() has no default
    min_eigenvalue: float = _Lazy()
    witness: np.ndarray | None = _Lazy()
    slack: float = _Lazy()

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
    cache = _cache_of(obj)
    if cache is None:
        return compute()
    try:
        return cache[tag]
    except KeyError:
        return cache.setdefault(tag, compute())


def _stored(obj, tag):
    """What ``_memo`` stored on ``obj`` under ``tag``; None if nothing."""
    cache = _cache_of(obj)
    return None if cache is None else cache.get(tag)


def _cache_of(obj) -> dict | None:
    """Where ``_memo`` stores results on ``obj``: None if it is mutable."""
    return vars(obj.base) if _is_frozen(obj) else getattr(obj, "_cache", None)


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
    return _gram_norm(_gram(np.ldexp(m, -e)), e)


def _gram(b: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of B: B^T B or B B^T."""
    return b.T @ b if b.shape[0] >= b.shape[1] else b @ b.T


def _gram_norm(gram: np.ndarray, e: int) -> float:
    """||M||_2 = 2^e sqrt(largest eigenvalue of ``gram``), the Gram matrix
    of B = M / 2^e."""
    return float(np.ldexp(math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)), e))


def _norm_at_most(m: np.ndarray, bound: float) -> tuple[bool, float | _Deferred]:
    """Whether ``spectral_norm(M) <= bound``, and that 2-norm or a
    ``_Deferred`` that computes it, bit for bit; ``bound`` is positive.

    It decides on B = M / 2^e, the scaling of ``spectral_norm``, with
    c = bound / 2^e, k x k the Gram matrix G of B and n = max(M.shape):

    1. ||B||_F^2 <= c^2 (1 - delta): within, as ||B||_2 <= ||B||_F, and
       no Gram matrix is formed;
    2. ||B||_F^2 > k c^2 (1 + delta): beyond, as ||B||_2^2 >= ||B||_F^2 / k;
       the 2-norm is computed now, from G, and it decides;
    3. otherwise a Cholesky of c^2 (1 - delta) I - G that succeeds: within;
    4. one that fails: the 2-norm from G decides.

    With u = 2^-53, the margin delta = 2 (n + 1)^2 u covers three
    roundings.  ||B||_F^2, a sum of nk nonnegative squares, is within
    gamma_nk f of its value f, and each entry of the computed Gram matrix
    is within gamma_n of that of |B|^T |B|, so it errs by at most
    gamma_n f in 2-norm (gamma_j = j u / (1 - j u)).  A Cholesky that runs
    to completion on A = c^2 (1 - delta) I - G is exact for A + E with
    ||E||_2 <= gamma_{k+1} / (1 - gamma_{k+1}) tr(A) <= (k + 1) u k c^2
    (Demmel, LAPACK Working Note 14; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.5).  To first order in u, and
    with 3 u for forming c^2 and the shift, step 1 proves that the
    computed G has largest eigenvalue at most c^2 (1 - delta + (n^2 + n +
    3) u), and step 3 proves it with (k^2 + k + 3) u.  Either leaves more
    than n^2 u c^2 for the backward error of the ``eigvalsh`` that
    ``spectral_norm`` runs on the same G, a modest multiple of
    k u ||G||_2 (LAPACK Users' Guide, 3rd ed., section 4.7).
    Hence "within" holds only where ``spectral_norm(M) <= bound``, and
    every other answer is that comparison itself.  When c^2 leaves the
    float range, step 1 (c^2 = inf) or step 2 (c^2 = 0, while
    ||B||_F^2 >= 1/4) decides.  M is not to be written afterwards: a
    deferred 2-norm reads it.
    """
    e = _binary_exponent(m)
    if e is None:
        return True, 0.0
    b = np.ldexp(m, -e)
    flat = b.ravel("K")
    f = float(flat @ flat)
    k, n = sorted(b.shape)
    delta = 2.0 * (n + 1) ** 2 * 2.0**-53
    with np.errstate(over="ignore", under="ignore"):
        cc = float(np.square(np.ldexp(bound, -e)))
    if f <= cc * (1.0 - delta):
        return True, _Deferred(spectral_norm, m)
    gram = _gram(b)
    if f <= k * cc * (1.0 + delta) and _shifted_cholesky_runs(-gram, cc * (1.0 - delta)):
        return True, _Deferred(_gram_norm, gram, e)
    sigma = _gram_norm(gram, e)
    return sigma <= bound, sigma


def _shifted_cholesky_runs(a: np.ndarray, shift: float) -> bool:
    """Whether a Cholesky of A + shift I runs to completion.

    A is a symmetric scratch array of the caller's, a scaled copy of the
    matrix under test: its diagonal is shifted in place, so no identity
    is formed.  The one Cholesky of phdelay: ``_norm_at_most`` and
    ``_definite_by_cholesky`` derive their shifts from Demmel's bound.
    """
    diagonal = np.einsum("ii->i", a)  # a writeable view in any layout
    diagonal += shift
    # no pivot exceeds its diagonal entry
    if not diagonal.min() > 0.0:
        return False
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _definite_by_cholesky(m: np.ndarray, tol: Tolerance, definite: bool) -> bool:
    """True only where the eigenvalue rule of ``_spectral_minimum`` finds
    symmetric M PSD (with ``definite``, positive definite: its least
    eigenvalue above the slack); False leaves the question open.

    One shifted Cholesky decides, on B = M / 2^e (``_binary_exponent``),
    an exact scaling, with k x k B, u = 2^-53 and a bound rho on the
    scale ||B||_2 from below for PSD and from above for PD:

    - PSD: rho = max(||B||_F / sqrt(k), max b_ii) <= ||B||_2 (each b_ii
      is at most the largest eigenvalue), and a Cholesky of B + (s - mu) I;
    - PD: rho = ||B||_F >= ||B||_2, and a Cholesky of B - (s + mu) I;

    with s the slack for the scale rho in units of 2^e (``psd_tol /
    2^e`` for an absolute slack, capped at 2k: ||B||_2 < k, so a larger s
    decides alike) and the margin mu = 2 (k + 1)^2 u t, t = rho + s.
    Entries below 1 in magnitude keep ||B||_F^2 <= k^2 finite, and a
    nonzero B has ||B||_F >= 1/2.  A Cholesky that runs to completion on
    the shifted A is exact for A + E with ||E||_2 <= gamma_{k+1} /
    (1 - gamma_{k+1}) tr(A) <= (k + 1) k u t to first order, as tr(A) <=
    k (rho + s + mu) (Demmel, LAPACK Working Note 14; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.5;
    Rump, BIT 46 (2006)).  Forming the shift and adding it costs 2 u t,
    and a subnormal entry of B or of s at most k 2^-1075, far below u t.
    So a success proves the least eigenvalue of B at least -s + mu -
    (k^2 + k + 3) u t (PSD), or at least s + mu - (k^2 + k + 3) u t
    (PD).  The eigenvalue rule reads the ``eigvalsh`` of M, exact for a
    matrix within a modest multiple of k u ||B||_2 of B (LAPACK Users'
    Guide, 3rd ed., section 4.7), and grants the slack of the scale it
    computes, within that much and the rounding of rho (1e-9 (k^2 + 3) u
    rho) of the slack for rho, below it for PSD (rho is a lower bound)
    and above it for PD.  mu leaves more than k^2 u rho for both, which
    is at least sqrt(k) k u ||B||_2 for PSD and k^2 u ||B||_2 for PD.
    Hence a success is that rule's verdict, and a failure decides
    nothing.  A zero M is PSD and not positive definite.
    """
    e = _binary_exponent(m)
    if e is None:
        return not definite
    b = np.ldexp(m, -e)
    k = len(b)
    flat = b.ravel("K")
    fro = math.sqrt(float(flat @ flat))
    rho = fro if definite else max(fro / math.sqrt(k), float(b.diagonal().max()))
    if tol.psd_tol is None:
        s = tol.psd_slack(rho)
    else:
        with np.errstate(over="ignore", under="ignore"):
            s = min(float(np.ldexp(tol.psd_tol, -e)), 2.0 * k)
    mu = 2.0 * (k + 1) ** 2 * 2.0**-53 * (rho + s)
    return _shifted_cholesky_runs(b, -(s + mu) if definite else s - mu)


def _binary_exponent(m: np.ndarray) -> int | None:
    """e with 2^e the power of two just above max |M|, None for a zero M:
    M / 2^e has entries below 1 in magnitude, exact unless subnormal."""
    big = float(np.abs(m).max()) if m.size else 0.0
    return math.frexp(big)[1] if big else None


def numerical_rank(matrix, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank with singular values truncated at rank_tol * sigma_max."""
    m = as_matrix(matrix)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_tol * float(s[0])))


def is_psd(matrix, tol: Tolerance = DEFAULT_TOL) -> PsdReport:
    """Test a symmetric matrix for positive semidefiniteness.

    Decided by one shifted Cholesky from order 4 on, or by its symmetric
    eigenvalues when that leaves it open: the verdict is the eigenvalue
    rule's either way (``_psd_report_blocks``).  The least eigenvalue and the slack of a PSD
    report, and the witness eigenvector of a NOT_PSD one, are computed
    when they are first read; a PSD report carries no witness.  The input
    must be symmetric within 1e-12 relative asymmetry; it is symmetrized
    before it is tested.
    """
    return _psd_report_blocks([require_symmetric(matrix)], tol)


def _psd_report_blocks(blocks, tol: Tolerance = DEFAULT_TOL, keys=()) -> PsdReport:
    """PSD test of blkdiag(*blocks), one symmetric float block at a time.

    Every ``PsdReport`` of phdelay is made here.  The verdict is the
    eigenvalue rule of ``_spectral_minimum``.  ``keys[k]``, when given, is
    what block k is computed from (a ``_frozen`` matrix that it
    symmetrizes, or a system whose condition matrix it is), and results
    for the block are stored on it through ``_memo``.

    Each nonempty block is first tested against its own scale by
    ``_cholesky_verdict``.  Its own scale is at most the one all blocks
    share, so when every block succeeds the verdict is PSD, and the least
    eigenvalue and slack are deferred.  Otherwise the rule runs on the
    spectra: the ascending ``eigvalsh`` of each block, stored on its key.
    A NOT_PSD witness is the unit eigenvector of the worst block,
    zero-padded to all of blkdiag(*blocks), computed when it is first
    read.  So a caller does not write to a block once it has been tested;
    a ``_frozen`` block, such as a system matrix that is its own symmetric
    part, is copied for the deferred evidence, which keeps no system
    matrix.
    """
    pairs = [(block, key) for block, key in zip_longest(blocks, keys) if block.size]
    if all(_cholesky_verdict(block, key, tol, False) for block, key in pairs):
        own = [block.copy() if _is_frozen(block) else block for block, _ in pairs]
        lam, slack = _read_once(_Deferred(_spectral_minimum, own, tol), 2)
        return PsdReport("PSD", lam, None, slack)
    lam, slack, worst = _spectral_minimum(blocks, tol, keys)
    if worst is None or lam >= -slack:
        return PsdReport("PSD", lam, None, slack)
    block = blocks[worst]
    if _is_frozen(block):  # the pending witness keeps no system matrix alive
        block = block.copy()
    pad = (sum(map(len, blocks[:worst])), sum(map(len, blocks[worst + 1 :])))
    return PsdReport("NOT_PSD", lam, _Deferred(_least_eigenvector, block, pad), slack)


def _cholesky_verdict(block: np.ndarray, key, tol: Tolerance, definite: bool) -> bool:
    """Whether ``_definite_by_cholesky`` proves symmetric ``block`` PSD
    (with ``definite``, positive definite), stored on ``key`` for ``tol``
    through ``_memo``.

    A block below ``_CHOLESKY_MIN_ORDER``, or one whose spectrum ``key``
    holds, is left to the spectra at once; a positive definite verdict
    stored on ``key`` proves it PSD.
    """
    if len(block) < _CHOLESKY_MIN_ORDER:
        return False

    def decide() -> bool:
        if _stored(key, "eigvalsh") is not None:
            return False
        if not definite and _stored(key, ("positive_definite", tol)):
            return True
        return _definite_by_cholesky(block, tol, definite)

    return _memo(key, ("positive_definite" if definite else "psd", tol), decide)


def _spectral_minimum(blocks, tol: Tolerance, keys=()) -> tuple[float, float, int | None]:
    """The eigenvalue rule: blkdiag(*blocks) is PSD iff its least
    eigenvalue is >= -slack.  Returns that eigenvalue (0.0 without
    entries), the slack and the index of the worst block (None without
    entries).

    The spectrum of a block-diagonal matrix is the union of its blocks'
    spectra, so the least block minimum is the least eigenvalue, and the
    slack is granted for the largest |eigenvalue| over all blocks.  Each
    block's ascending ``eigvalsh`` is stored on ``keys[k]`` through
    ``_memo``.
    """
    lam, scale, worst = math.inf, 0.0, None
    for k, (block, key) in enumerate(zip_longest(blocks, keys)):
        if not block.size:
            continue
        evals = _memo(key, "eigvalsh", lambda: _set_read_only(np.linalg.eigvalsh(block)))
        scale = max(scale, float(np.max(np.abs(evals))))
        if evals[0] < lam:
            lam, worst = float(evals[0]), k
    return (0.0 if worst is None else lam), tol.psd_slack(scale), worst


def _read_once(compute: _Deferred, count: int) -> list[_Deferred]:
    """``count`` deferred values, value i item i of ``compute()``, which
    runs on the first read of any of them, once."""
    cell = [compute]
    return [_Deferred(_item_of, cell, i) for i in range(count)]


def _item_of(cell: list, i: int):
    value = cell[0]
    if type(value) is _Deferred:
        value = cell[0] = value()
    return value[i]


def _positive_definite(block: np.ndarray, tol: Tolerance, key) -> tuple[bool, float | None]:
    """Whether symmetric ``block``'s least eigenvalue exceeds the PSD slack
    (it is positive definite), and that eigenvalue; None instead when a
    Cholesky proved it positive definite.

    ``_cholesky_verdict`` tests the block first.  When that leaves it open,
    the eigenvalue rule decides, its spectrum stored on ``key`` as in
    ``_psd_report_blocks``.
    """
    if _cholesky_verdict(block, key, tol, True):
        return True, None
    lam, slack, _ = _spectral_minimum([block], tol, [key])
    return lam > slack, lam


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
