import numpy as np
import pytest

from phdelay.linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    asymmetry,
    is_psd,
    numerical_rank,
    require_symmetric,
    skew_part,
    spectral_norm,
    sym_part,
    whitening_basis,
)
from phdelay import HistoryFunction, check_feedback_conditions, check_necessary
from phdelay.linalg import (
    _contained,
    _frozen,
    _halves,
    _psd_report_blocks,
    _symmetric_eigh,
)
from helpers import dense_psd_oracle, kernel_basis_svd, rand_orth, rand_spd


def test_sym_skew_hand_values():
    f = np.array([[1.0, 2.0], [4.0, 3.0]])
    np.testing.assert_array_equal(sym_part(f), [[1.0, 3.0], [3.0, 3.0]])
    np.testing.assert_array_equal(skew_part(f), [[0.0, -1.0], [1.0, 0.0]])


def test_sym_skew_decomposition_reassembles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((5, 5))
        np.testing.assert_allclose(sym_part(m) + skew_part(m), m, atol=1e-15)
        np.testing.assert_array_equal(sym_part(m), sym_part(m).T)
        np.testing.assert_array_equal(skew_part(m), -skew_part(m).T)


def test_sym_skew_match_the_halved_sums_bit_for_bit():
    """Halving before adding rounds alike whenever no entry is subnormal."""
    rng = np.random.default_rng(17)
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
        m = scale * rng.standard_normal((6, 6))
        assert sym_part(m).tobytes() == (0.5 * (m + m.T)).tobytes()
        assert skew_part(m).tobytes() == (0.5 * (m - m.T)).tobytes()


def test_sym_skew_and_asymmetry_stay_finite_at_the_largest_floats():
    big = np.finfo(float).max
    m = np.array([[big, big], [-big, big]])
    np.testing.assert_array_equal(sym_part(m), [[big, 0.0], [0.0, big]])
    np.testing.assert_array_equal(skew_part(m), [[0.0, big], [-big, 0.0]])
    # ||M - M^T||_F = 2 sqrt(2) big, ||M||_F = 2 big
    assert asymmetry(m) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError, match="not symmetric"):
        require_symmetric(m)


def test_is_psd_of_the_largest_scalars():
    report = is_psd([[1e308]])
    assert report.is_psd and report.min_eigenvalue == 1e308
    assert report.slack == pytest.approx(1e299)
    assert not is_psd([[-1e308]]).is_psd


def test_as_matrix_scalar_promotion():
    np.testing.assert_array_equal(as_matrix(3.0), [[3.0]])
    np.testing.assert_array_equal(as_matrix(np.float64(2)), [[2.0]])


def test_as_matrix_rejects_vectors_and_nan():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_asymmetry_measure():
    assert asymmetry(np.eye(3)) == 0.0
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    # ||M - M^T||_F = sqrt(2), ||M||_F = 1
    assert asymmetry(m) == pytest.approx(np.sqrt(2.0))
    assert asymmetry(np.zeros((2, 2))) == 0.0


def test_require_symmetric_symmetrizes_roundoff():
    m = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    out = require_symmetric(m)
    np.testing.assert_array_equal(out, out.T)


def test_require_symmetric_rejects_genuine_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        require_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), "J")


TINY = 5e-324  # the least subnormal: halving it rounds to 0


@pytest.mark.parametrize("m, own", [
    ([[2.0, 0.5], [0.5, 1.0]], True),
    ([[1.0, -0.0], [0.0, 1.0]], False),
    ([[3 * TINY, TINY], [TINY, 1.0]], False),
    ([[1.0, 0.5 + 1e-14], [0.5, 2.0]], False),
], ids=["exactly-symmetric", "signed-zero-pair", "subnormal", "asymmetry-1e-14"])
def test_require_symmetric_of_a_frozen_matrix_is_its_symmetric_part(m, own):
    """A frozen matrix is checked once and gets the bytes of 0.5 M + 0.5 M^T
    on every call: itself, read-only, only when it is that bit for bit."""
    frozen = _frozen(np.array(m))
    want = _halves(np.array(m)).tobytes()
    for _ in range(2):
        out = require_symmetric(frozen)
        assert out.tobytes() == want
        assert (out is frozen) == own
    assert vars(frozen.base)["symmetric"] is own


def test_require_symmetric_rejects_a_frozen_asymmetric_matrix_every_time():
    frozen = _frozen(np.array([[1.0, 1.0], [0.0, 1.0]]))
    for _ in range(2):
        with pytest.raises(ValueError, match="R is not symmetric"):
            require_symmetric(frozen, "R")
    assert "symmetric" not in vars(frozen.base)


@pytest.mark.parametrize("writeable", [True, False])
def test_require_symmetric_of_any_other_array_is_fresh(writeable):
    m = np.eye(2)
    m.setflags(write=writeable)
    first, second = require_symmetric(m), require_symmetric(m)
    assert first is not second and first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, m) and not np.shares_memory(second, m)
    np.testing.assert_array_equal(first, m)


def test_as_matrix_returns_a_frozen_matrix_itself():
    frozen = _frozen(np.array([[1.0, 2.0]]))
    assert as_matrix(frozen, "G") is frozen
    grid = HistoryFunction.constant([1.0], 1.0).grid  # frozen, but 1-D
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(grid)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-13, 1e-160, 1e160])
def test_symmetry_checks_do_not_depend_on_units(c):
    """A matrix c*M is as asymmetric as M, however small or large c is."""
    r = c * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert asymmetry(r) == pytest.approx(asymmetry(r / c), rel=1e-15)
    with pytest.raises(ValueError, match="not symmetric"):
        require_symmetric(r, "R")
    with pytest.raises(ValueError, match="not symmetric"):
        is_psd(r)
    # round-off asymmetry is still symmetrized at every scale
    tiny = c * np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    out = require_symmetric(tiny)
    np.testing.assert_array_equal(out, out.T)


def test_is_psd_hand_example():
    # eigenvalues of [[1,2],[2,1]] are 1 +- 2
    report = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert report.verdict == "NOT_PSD"
    assert not report.is_psd
    assert report.min_eigenvalue == pytest.approx(-1.0)


def test_is_psd_accepts_identity_and_zero():
    assert is_psd(np.eye(4)).verdict == "PSD"
    zero = is_psd(np.zeros((3, 3)))
    assert zero.is_psd and zero.min_eigenvalue == pytest.approx(0.0)
    assert zero.slack == 0.0  # no slack floor: a zero matrix is PSD exactly


def test_is_psd_witness_is_unit_eigenvector():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        report = is_psd(m)
        w = report.witness
        assert np.linalg.norm(w) == pytest.approx(1.0)
        quad = float(w @ m @ w)
        assert quad == pytest.approx(report.min_eigenvalue, abs=1e-10)
        assert report.min_eigenvalue == pytest.approx(
            np.linalg.eigvalsh(m)[0], abs=1e-10
        )


def test_is_psd_slack_scales_with_norm():
    report = is_psd(1e6 * np.eye(2))
    assert report.slack == pytest.approx(1e-9 * 1e6)
    fixed = is_psd(1e6 * np.eye(2), Tolerance(psd_tol=1e-3))
    assert fixed.slack == 1e-3


def test_is_psd_boundary_uses_slack():
    # a tiny negative eigenvalue within the granted slack still counts
    m = np.diag([1.0, -1e-12])
    assert is_psd(m).is_psd
    assert not is_psd(m, Tolerance(psd_tol=1e-15)).is_psd


def _block_layouts(blocks):
    """The block-diagonal matrix of ``blocks`` in three layouts.

    Yields ``(matrix, block_of)`` with block_of[i] the block index i came
    from: rows and columns shuffled, then contiguous in the given order and
    in reverse order, so every block is searched first in some layout.
    """
    sizes = [b.shape[0] for b in blocks]
    n = sum(sizes)
    m = np.zeros((n, n))
    start = 0
    for b, k in zip(blocks, sizes):
        m[start:start + k, start:start + k] = b
        start += k
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    for p in (np.random.default_rng(5).permutation(n), np.arange(n),
              np.arange(n)[::-1]):
        yield m[np.ix_(p, p)], block_of[p]


def _indefinite(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def _split_cases():
    rng = np.random.default_rng(23)
    order = 128
    half = order // 2
    same = rand_spd(rng, half)
    diagonal = rng.uniform(0.5, 2.0, order + 3)
    diagonal[17] = -0.25
    # (name, blocks)
    return [
        ("permuted_psd", [rand_spd(rng, half), rand_spd(rng, half + 5)]),
        ("not_psd_second", [rand_spd(rng, half), _indefinite(rng, half)]),
        ("diagonal", [np.array([[v]]) for v in diagonal]),
        ("one_by_one", [rand_spd(rng, order), np.array([[-0.2]])]),
        ("equal_blocks", [same, same.copy()]),
        ("three_scaled", [1e4 * rand_spd(rng, 50), 1e-3 * _indefinite(rng, 60),
                          rand_spd(rng, 40)]),
    ]


@pytest.mark.parametrize("name,blocks", _split_cases(),
                         ids=[c[0] for c in _split_cases()])
def test_psd_report_block_split_matches_dense_oracle(name, blocks):
    """Deciding given diagonal blocks one by one matches one eigh of the whole."""
    for m, block_of in _block_layouts(blocks):
        index = [np.flatnonzero(block_of == k) for k in range(len(blocks))]
        report = _psd_report_blocks([m[np.ix_(i, i)] for i in index])
        verdict, lam, scale, slack = dense_psd_oracle(m)
        assert report.verdict == verdict
        assert abs(report.min_eigenvalue - lam) <= 1e-12 * scale
        assert report.slack == pytest.approx(slack, rel=1e-12)
        if report.is_psd:
            assert report.witness is None
            continue
        # the witness is on blkdiag(blocks), whose row r is row
        # np.concatenate(index)[r] of m
        w = np.zeros(m.shape[0])
        w[np.concatenate(index)] = report.witness
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(w @ m @ w) - report.min_eigenvalue) <= 1e-12 * scale


def test_psd_report_blocks_without_entries():
    report = _psd_report_blocks([np.zeros((0, 0)), np.zeros((0, 0))])
    assert report.is_psd and report.min_eigenvalue == 0.0 and report.witness is None
    assert report.slack == 0.0


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(psd_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rank_tol=-1e-3)
    assert DEFAULT_TOL.psd_tol is None
    assert DEFAULT_TOL.rank_tol == 1e-10


def test_spectral_norm():
    m = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert spectral_norm(m) == pytest.approx(5.0)
    assert spectral_norm(np.zeros((0, 0))) == 0.0


def test_rank_kernel_image_rank_one():
    u = np.array([[1.0], [2.0], [2.0]])
    m = u @ u.T
    assert numerical_rank(m) == 1
    _, ker = whitening_basis(m)
    assert ker.shape == (3, 2)
    np.testing.assert_allclose(m @ ker, 0.0, atol=1e-12)
    np.testing.assert_allclose(ker.T @ ker, np.eye(2), atol=1e-12)


def test_numerical_rank_edge_cases():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.zeros((0, 2))) == 0
    assert numerical_rank(np.diag([1.0, 1e-11])) == 1
    assert numerical_rank(np.diag([1.0, 1e-9])) == 2


def test_kernel_basis_edge_cases():
    split = _symmetric_eigh(np.eye(3), DEFAULT_TOL)
    assert split.kernel.shape == (3, 0) and split.scale == 1.0
    split = _symmetric_eigh(np.zeros((3, 3)), DEFAULT_TOL)
    np.testing.assert_allclose(np.abs(split.kernel), np.eye(3))
    assert split.scale == 0.0
    split = _symmetric_eigh(np.zeros((0, 0)), DEFAULT_TOL)
    assert split.kernel.shape == (0, 0) and split.scale == 0.0
    # an indefinite matrix: the kernel keeps the eigenvalue near zero only
    ker = _symmetric_eigh(np.diag([-2.0, 1e-12, 1.0]), DEFAULT_TOL).kernel
    np.testing.assert_allclose(np.abs(ker), [[0.0], [1.0], [0.0]])
    # one run each: below -slack, the kernel [-slack, rank_tol], the range
    split = _symmetric_eigh(np.diag([-2e-9, -9e-10, -2e-10, 0.0, 1e-10, 2e-10, 1.0]),
                            DEFAULT_TOL)
    assert (split.lo, split.hi) == (1, 5)
    v1, ker = whitening_basis(np.diag([1.0, -5e-10]))
    np.testing.assert_allclose(np.abs(ker), [[0.0], [1.0]])
    np.testing.assert_allclose(np.abs(v1), [[1.0], [0.0]])
    # through the public callers: full kernel of the zero matrix, none of I
    assert check_necessary(np.eye(3), np.eye(3), np.ones((3, 3))).all_hold
    zero = check_necessary(np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))
    assert zero.kernel_r_in_kernel_theta and not zero.kernel_r_in_kernel_zt


def test_subspace_contained():
    m = np.diag([1.0, 1.0, 0.0])
    e3 = np.array([[0.0], [0.0], [1.0]])
    e1 = np.array([[1.0], [0.0], [0.0]])
    norm = spectral_norm(m)
    assert _contained(e3, m, norm, DEFAULT_TOL)
    assert not _contained(e1, m, norm, DEFAULT_TOL)
    assert _contained(np.zeros((3, 0)), m, norm, DEFAULT_TOL)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9])
def test_subspace_contained_is_unit_free(c):
    # ||Z e2|| = 1e-6 ||Z|| / 0.5: outside the relative cutoff at every scale
    e2 = np.array([[0.0], [1.0]])
    leaky = c * np.array([[0.5, 1e-6], [0.0, 0.0]])
    clean = c * np.array([[0.5, 0.0], [0.0, 0.0]])
    assert not _contained(e2, leaky, spectral_norm(leaky), DEFAULT_TOL)
    assert _contained(e2, clean, spectral_norm(clean), DEFAULT_TOL)
    # the same decision through a public caller: ker(diag(1, 0)) = span(e2)
    r = np.diag([1.0, 0.0])
    assert not check_feedback_conditions(r, leaky.T).kernel_r_in_kernel_gt
    assert check_feedback_conditions(r, clean.T).kernel_r_in_kernel_gt


def test_whitening_basis_full_rank_hand_example():
    r = np.array([[2.0, 1.0], [1.0, 2.0]])
    v1, ker = whitening_basis(r)
    assert v1.shape == (2, 2) and ker.shape == (2, 0)
    np.testing.assert_allclose(v1.T @ r @ v1, np.eye(2), atol=1e-10)


def test_whitening_basis_singular_psd():
    rng = np.random.default_rng(5)
    q = rand_orth(rng, 4)
    r = (q * np.array([2.0, 1.0, 0.5, 0.0])) @ q.T
    v1, ker = whitening_basis(r)
    assert v1.shape == (4, 3) and v1.T.flags.c_contiguous  # a left factor
    np.testing.assert_allclose(v1.T @ r @ v1, np.eye(3), atol=1e-10)
    # the kernel is the last column of q, the same one a full SVD finds
    assert ker.shape == (4, 1)
    np.testing.assert_allclose(np.abs(ker[:, 0]), np.abs(q[:, 3]), atol=1e-12)
    np.testing.assert_allclose(np.abs(ker), np.abs(kernel_basis_svd(r)), atol=1e-12)


def test_whitening_basis_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        whitening_basis(np.diag([1.0, -0.5]))


def test_whitening_basis_zero_matrix():
    v1, ker = whitening_basis(np.zeros((3, 3)))
    assert v1.shape == (3, 0) and ker.shape == (3, 3)
    np.testing.assert_allclose(ker.T @ ker, np.eye(3), atol=1e-15)
