"""Shared random-instance generators and reference oracles for the test suite.

The generators take an explicit ``numpy.random.Generator`` so each test file
controls its own seed and failures reproduce exactly.

The ``*_svd`` oracles cut singular values at ``rank_tol * sigma_max``.  An
SVD cannot see an eigenvalue's sign, so for a symmetric matrix they agree
with ``phdelay.linalg``'s split of its spectrum (kernel [-slack, rank_tol *
scale]) only outside the band [-slack, -rank_tol * scale): an eigenvalue
there is in the kernel for phdelay and in the range for the oracles.  The
comparisons with them draw no eigenvalue in that band.
"""

import contextlib
import dataclasses
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from phdelay import Certificate, DelayPHSystem, interconnect, ph_condition_matrix
from phdelay.certify import ALPHA_CLAMP, FEASIBILITY_SLACK
from phdelay.composition import FeedbackConditions
from phdelay.linalg import DEFAULT_TOL, as_matrix, numerical_rank, require_symmetric
from phdelay.simulation import BLOWUP_NORM, BlowUpError


def rand_orth(rng, n):
    """Random orthogonal matrix (QR of a Gaussian, sign-fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rand_spd(rng, n, eig_range=(0.5, 2.0)):
    """Random symmetric positive definite matrix with eigenvalues in eig_range."""
    q = rand_orth(rng, n)
    evals = rng.uniform(eig_range[0], eig_range[1], size=n)
    m = (q * evals) @ q.T
    return 0.5 * (m + m.T)


def rand_antisym(rng, n, scale=1.0):
    m = scale * rng.standard_normal((n, n))
    return 0.5 * (m - m.T)


def rand_certified_delay_ph(rng, n, m=1, tau=1.0):
    """Random delay system whose attached theta certifies with margin.

    Construction: pick theta and S = R - theta both spd, then scale Z so
    that ||Z||/2 stays below the smaller of their least eigenvalues.  The
    condition block is then [[S, Z/2], [Z^T/2, theta]], which dominates
    lam_min(S, theta) - ||Z||/2 > 0, so certify_delay_ph must return
    CERTIFIED with min eigenvalue >= 0.1 * lam_min >= 0.03.
    """
    theta = rand_spd(rng, n, (0.3, 1.0))
    s_mat = rand_spd(rng, n, (0.3, 1.0))
    lam = min(
        float(np.linalg.eigvalsh(theta)[0]), float(np.linalg.eigvalsh(s_mat)[0])
    )
    z = rng.standard_normal((n, n))
    norm = np.linalg.norm(z, 2)
    if norm > 0:
        z *= rng.uniform(0.2, 0.9) * 2.0 * lam / norm
    return DelayPHSystem(
        H=rand_spd(rng, n, (0.5, 2.0)),
        J=rand_antisym(rng, n),
        R=s_mat + theta,
        Z=z,
        G=rng.standard_normal((n, m)),
        tau=tau,
        theta=theta,
    )


def rand_coupled_pair(rng, coupling):
    """A 3-state system whose Z is ``coupling`` times one that certifies
    (20 refutes it), a certified 2-state partner and a skew F for their
    2 + 1 ports."""
    s = rand_certified_delay_ph(rng, 3, m=2)
    partner = rand_certified_delay_ph(rng, 2, m=1)
    return dataclasses.replace(s, Z=coupling * s.Z), partner, rand_antisym(rng, 3)


def eager_pair_certificate(s, partner, f, verdict, min_eigenvalue=None, reason="",
                           slack=None):
    """The certificate of ``certify_interconnection(s, partner, f)`` for a
    skew F, built densely: the closed loop's condition matrix and Theta,
    and for a REFUTED verdict with ``partner`` certified the eigenvector of
    ``s``'s condition matrix, zero-padded into the closed loop's order."""
    closed = interconnect(s, partner, f)
    witness = None
    if verdict == "REFUTED":
        unit = np.linalg.eigh(ph_condition_matrix(s.R, s.Z, s.theta))[1][:, 0]
        k, n = s.n, closed.n
        witness = np.zeros(2 * n)
        witness[:k], witness[n : n + k] = unit[:k], unit[k:]
    return Certificate(verdict=verdict,
                       condition_matrix=ph_condition_matrix(closed.R, closed.Z, closed.theta),
                       min_eigenvalue=min_eigenvalue, witness=witness,
                       theta_used=require_symmetric(closed.theta), reason=reason, slack=slack)


@contextlib.contextmanager
def decompositions():
    """Record the ``numpy.linalg`` ``eigh``, ``eigvalsh``, ``svd`` and
    ``cholesky`` calls.

    Yields a list that gets one ``(name, copy of the matrix)`` per call.
    Decompositions are cached on the systems and arrays they came from, so
    a count starts from nothing for objects made inside the test.
    """
    calls = []
    saved = {name: getattr(np.linalg, name)
             for name in ("eigh", "eigvalsh", "svd", "cholesky")}

    def counted(name, fn):
        def call(a, *args, **kwargs):
            calls.append((name, np.array(a)))
            return fn(a, *args, **kwargs)
        return call

    for name, fn in saved.items():
        setattr(np.linalg, name, counted(name, fn))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(np.linalg, name, fn)


def dense_psd_oracle(m, tol=DEFAULT_TOL):
    """Reference PSD decision from one eigh of the whole symmetric matrix.

    Returns ``(verdict, min_eigenvalue, scale, slack)`` with the verdict
    rule of ``phdelay.linalg``: PSD iff min_eigenvalue >= -slack, where the
    slack is granted for the spectral scale max |eigenvalue|.
    """
    evals = np.linalg.eigvalsh(m)
    scale = float(np.max(np.abs(evals)))
    slack = tol.psd_slack(scale)
    lam = float(evals[0])
    return ("PSD" if lam >= -slack else "NOT_PSD"), lam, scale, slack


def psd_rule_oracle(blocks, tol=DEFAULT_TOL):
    """The eigenvalue rule of every PSD verdict, block by block, from
    ``np.linalg.eigvalsh`` and ``np.linalg.eigh`` alone.

    Returns ``(verdict, min_eigenvalue, slack, witness, definite)``: PSD
    iff the least eigenvalue of all blocks (0.0 without entries) is >=
    -slack, the slack granted for the largest |eigenvalue| of all; for
    NOT_PSD the unit eigenvector of the worst block, zero-padded to
    blkdiag(*blocks), else None; and whether the least eigenvalue exceeds
    the slack (positive definite).
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
    lam = 0.0 if worst is None else lam
    if worst is None or lam >= -slack:
        return "PSD", lam, slack, None, lam > slack
    pad = (sum(map(len, blocks[:worst])), sum(map(len, blocks[worst + 1:])))
    witness = np.pad(np.linalg.eigh(blocks[worst])[1][:, 0], pad)
    return "NOT_PSD", lam, slack, witness, False


def shifted_scaling_of(a, m) -> bool:
    """Whether ``a``, a recorded ``cholesky`` argument, is M / 2^e (2^e the
    power of two just above max |M|) with only its diagonal changed."""
    m = as_matrix(m)
    b = np.ldexp(m, -math.frexp(float(np.abs(m).max()))[1])
    off = ~np.eye(len(m), dtype=bool)
    return a.shape == m.shape and a[off].tobytes() == b[off].tobytes()


def _rational(matrix):
    """The entries of a float matrix, or of a list of rows, as Fractions."""
    return [[Fraction(x) for x in row] for row in np.asarray(matrix, dtype=object)]


def exact_psd(matrix) -> bool:
    """Whether the symmetric part of a float matrix is PSD, exactly.

    Symmetric LDL^T over ``fractions.Fraction`` with diagonal pivoting: a
    negative diagonal entry refutes; a zero diagonal is PSD only as the
    zero matrix; otherwise the largest diagonal entry is eliminated and
    its Schur complement decides.  Meant for order k <= 6.
    """
    a = _rational(matrix)
    a = [[(a[i][j] + a[j][i]) / 2 for j in range(len(a))] for i in range(len(a))]
    while a:
        diag = [row[i] for i, row in enumerate(a)]
        p = max(range(len(a)), key=diag.__getitem__)
        if min(diag) < 0:
            return False
        if diag[p] == 0:  # a PSD matrix with a zero diagonal is zero
            return not any(x for row in a for x in row)
        rest = [i for i in range(len(a)) if i != p]
        a = [[a[i][j] - a[i][p] * a[p][j] / a[p][p] for j in rest] for i in rest]
    return True


def exact_quadratic_form(w, matrix) -> Fraction:
    """w^T M w in rational arithmetic, from the floats of w and M."""
    m = _rational(matrix)
    w = [Fraction(x) for x in np.ravel(w)]
    return sum(w[i] * m[i][j] * w[j] for i in range(len(w)) for j in range(len(w)))


def integer_rows(k, min_rows, max_rows):
    """A float array of min_rows to max_rows rows of k integers in [-4, 4]."""
    row = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    return st.lists(row, min_size=min_rows, max_size=max_rows).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, k))


@st.composite
def integer_symmetric(draw, k):
    """A k x k integer symmetric matrix, or B^T B for an integer B of 1 to
    k rows (PSD, often singular), as floats."""
    if draw(st.booleans()):
        b = draw(integer_rows(k, 1, k))
        return b.T @ b
    a = draw(integer_rows(k, k, k))
    return np.triu(a) + np.triu(a, 1).T


@st.composite
def power_of_two_diagonal(draw, k):
    """The diagonal of D = diag(2^e) with each e in [-40, 40]: D M D is
    exact in floats, and PSD exactly when M is."""
    return 2.0 ** np.array(draw(st.lists(st.integers(-40, 40), min_size=k, max_size=k)))


def kernel_basis_svd(matrix, tol=DEFAULT_TOL):
    """Orthonormal basis (columns) of the numerical kernel of M, by full SVD.

    Singular values <= rank_tol * sigma_max count as zero; an n-column
    M yields n x (n - rank), the zero matrix the identity.  For a symmetric
    M this is phdelay's kernel outside the band [-slack, -rank_tol * scale)
    (see the module docstring).
    """
    m = as_matrix(matrix)
    if m.size == 0:
        return np.eye(m.shape[1])
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(s > tol.rank_tol * float(s[0])))
    return vt[rank:].T.copy()


def contained_svd(basis, matrix, tol=DEFAULT_TOL):
    """Whether span(basis) lies in ker(M): ||M basis||_2 <= rank_tol ||M||_2."""
    b = as_matrix(basis, "basis")
    m = as_matrix(matrix)
    if b.shape[1] == 0:
        return True
    return np.linalg.norm(m @ b, 2) <= tol.rank_tol * np.linalg.norm(m, 2)


def check_necessary_svd(R, theta, Z, tol=DEFAULT_TOL):
    """Reference necessary conditions from full SVDs; True when all hold.

    The conditions are the kernel chain ker(R) <= ker(Theta) <= ker(Z), and
    that ker(R) meets image(Z) and image(Theta) only at 0.  Kernels and
    images come from full SVDs with the relative cutoff rank_tol, and an
    intersection is trivial when the stacked orthonormal bases have full
    column rank.  Agrees with ``check_necessary`` outside the band only.
    """
    r = require_symmetric(R, "R")
    th = require_symmetric(theta, "theta")
    z = as_matrix(Z, "Z")
    ker_r = kernel_basis_svd(r, tol)
    ker_th = kernel_basis_svd(th, tol)

    def meets_only_at_zero(basis, m):
        u, s, _ = np.linalg.svd(m)
        image = u[:, : np.count_nonzero(s > tol.rank_tol * s[0])]
        if not basis.shape[1] or not image.shape[1]:
            return True
        stacked = np.hstack([basis, image])
        return numerical_rank(stacked, tol) == stacked.shape[1]

    return (
        contained_svd(ker_r, th, tol)
        and contained_svd(ker_th, z, tol)
        and meets_only_at_zero(ker_r, z)
        and meets_only_at_zero(ker_r, th)
    )


def check_feedback_conditions_svd(R, G, tol=DEFAULT_TOL):
    """Reference feedback kernel hypotheses, ker(R) and ker(G^T) by full SVD;
    for an R with no eigenvalue in the band (module docstring)."""
    g = as_matrix(G, "G")
    ker_r = kernel_basis_svd(as_matrix(R, "R"), tol)
    return FeedbackConditions(
        output_kernel_trivial=kernel_basis_svd(g.T, tol).shape[1] == 0,
        kernel_r_in_kernel_gt=contained_svd(ker_r, g.T, tol),
    )


def whitening_eigh(R, tol=DEFAULT_TOL):
    """V1 with V1^T R V1 = I over the eigenvalues of a symmetric PSD R above
    rank_tol * max |eigenvalue|, from one ``np.linalg.eigh``."""
    evals, evecs = np.linalg.eigh(as_matrix(R, "R"))
    keep = evals > tol.rank_tol * np.max(np.abs(evals), initial=0.0)
    return evecs[:, keep] / np.sqrt(evals[keep])


def construction_oracle(R, Z, tol=DEFAULT_TOL):
    """The Theta construction's rule for a positive definite R, written out:
    s = ||V1^T Z V1||_2 by SVD, V1 from ``whitening_eigh``, succeeds iff
    s <= 1 + FEASIBILITY_SLACK.  Returns ``(success, s, lo, hi)``, the alpha
    interval (clamped as the construction clamps it) or nan on failure."""
    v1 = whitening_eigh(R, tol)
    sigma = float(np.linalg.norm(v1.T @ as_matrix(Z, "Z") @ v1, 2))
    if sigma > 1.0 + FEASIBILITY_SLACK:
        return False, sigma, math.nan, math.nan
    lo = max(0.5 - 0.5 * math.sqrt(max(1.0 - sigma * sigma, 0.0)), ALPHA_CLAMP)
    return True, sigma, lo, 1.0 - lo


def feedback_gain_bound_svd(R, G, tol=DEFAULT_TOL):
    """Reference gain bound 1 / ||V1^T G||_2^2, its hypothesis tested by SVD;
    for an R with no eigenvalue in the band (module docstring)."""
    g = as_matrix(G, "G")
    v1 = whitening_eigh(R, tol)
    if not contained_svd(kernel_basis_svd(as_matrix(R, "R"), tol), g.T, tol):
        raise ValueError("hypothesis violated: ker(R) is not contained in ker(G^T)")
    coupling = np.linalg.norm(v1.T @ g, 2)
    return math.inf if coupling == 0.0 else 1.0 / (coupling * coupling)


def kyp_matrix(system, H):
    """The KYP matrix W(H) = [[-A^T H - H A, C^T - H B], [C - B^T H, 0]] of
    a ``StandardLTISystem``."""
    a, b, c, h = system.A, system.B, system.C, as_matrix(H, "H")
    return np.block([[-a.T @ h - h @ a, c.T - h @ b],
                     [c - b.T @ h, np.zeros((system.m, system.m))]])


def kyp_delay_oracle(system, Q11, Q22, tol=DEFAULT_TOL):
    """The paper's block KYP test of a ``GeneralDelaySystem``, by eigvalsh.

    Returns ``(block, storage_psd, block_psd, output_holds)``: the block

        [[-A0^T Q11 - Q11 A0 - Q22, -Q11 A1],
         [-A1^T Q11,                  Q22  ]],

    whether Q11 and the block are PSD (``dense_psd_oracle``), and whether
    C = B^T Q11 within rank_tol * ||C||_F.  (Q11, Q22) certifies delay
    passivity when all three hold.
    """
    q11, q22 = as_matrix(Q11), as_matrix(Q22)
    a0, a1 = system.A0, system.A1
    block = np.block([[-a0.T @ q11 - q11 @ a0 - q22, -q11 @ a1], [-a1.T @ q11, q22]])
    residual = np.linalg.norm(system.C - system.B.T @ q11)
    return (block, dense_psd_oracle(q11, tol)[0] == "PSD",
            dense_psd_oracle(block, tol)[0] == "PSD",
            residual <= tol.rank_tol * np.linalg.norm(system.C))


def integrate_dde_stepwise(system, history, u, T, h):
    """Reference RK4 integrator: one right-hand-side evaluation per stage.

    The step-by-step form of the scheme in ``phdelay.simulation``; ``u`` is
    the (m, K+1) input sample array.  Returns the padded states (history
    columns first) and raises ``BlowUpError`` at the first step whose state
    norm is non-finite or exceeds ``BLOWUP_NORM``.
    """
    d, big_k = round(system.tau / h), round(T / h)
    n = system.n
    a0, a1, b = system.A0, system.A1, system.B
    x_all = np.empty((n, d + big_k + 1))
    x_all[:, : d + 1] = history.sample_at((np.arange(d + 1) - d) * h)
    deriv = np.zeros((n, d + big_k + 1))

    def f(x, xd, uu):
        return a0 @ x + a1 @ xd + b @ uu

    deriv[:, d] = f(x_all[:, d], x_all[:, 0], u[:, 0])
    for k in range(big_k):
        c = d + k
        x = x_all[:, c]
        u0 = u[:, k]
        u1 = u[:, k + 1]
        um = 0.5 * (u0 + u1)
        xd0 = x_all[:, k]
        xd1 = x_all[:, k + 1]
        if k < d:
            xdm = 0.5 * (xd0 + xd1)
        else:
            xdm = 0.5 * (xd0 + xd1) + 0.125 * h * (deriv[:, k] - deriv[:, k + 1])
        k1 = deriv[:, c]
        k2 = f(x + 0.5 * h * k1, xdm, um)
        k3 = f(x + 0.5 * h * k2, xdm, um)
        k4 = f(x + h * k3, xd1, u1)
        x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = float(np.linalg.norm(x_next))
        if not np.isfinite(norm) or norm > BLOWUP_NORM:
            raise BlowUpError(k + 1, (k + 1) * h, norm)
        x_all[:, c + 1] = x_next
        deriv[:, c + 1] = f(x_next, x_all[:, k + 1], u1)
    return x_all


def evaluate_hamiltonian(traj, H, theta, k):
    """Reference Lyapunov-Krasovskii energy at step k, one window at a time.

    (1/2) x_k^T H x_k plus the trapezoidal approximation of the integral
    of x^T Theta x over [t_k - tau, t_k] on the step grid: the per-step
    form of ``phdelay.simulation.hamiltonian_series``.
    """
    h_mat = require_symmetric(H, "H")
    th = require_symmetric(theta, "theta")
    if not 0 <= k < traj.times.size:
        raise IndexError(f"step index {k} out of range")
    w = traj.padded_states[:, k : k + traj.delay_steps + 1]  # [t_k - tau, t_k]
    x = w[:, -1]
    quad = 0.5 * float(x @ (h_mat @ x))
    g = np.einsum("ij,ij->j", w, th @ w)
    integral = traj.step * (0.5 * g[0] + g[1:-1].sum() + 0.5 * g[-1])
    return quad + float(integral)
