import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from phdelay import HistoryFunction, check_feedback_conditions, check_necessary
from phdelay.linalg import (
    _contained,
    _frozen,
    _halves,
    _psd_report_blocks,
    _symmetric_eigh,
)
from helpers import (
    decompositions,
    dense_psd_oracle,
    kernel_basis_svd,
    rand_orth,
    rand_spd,
)


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


@st.composite
def matrices(draw):
    """A 1x1 to 12x12 matrix: rank one, zero, of +-1 entries, or general
    with entry magnitudes spread over up to 16 decades."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["general", "rank one", "zero", "signs"]))
    if kind == "rank one":
        return np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "signs":
        return rng.choice([-1.0, 1.0], (rows, cols))
    spread = draw(st.sampled_from([0.0, 4.0, 8.0]))
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-spread, spread, (rows, cols))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_spectral_norm_matches_the_largest_singular_value(m):
    want = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(spectral_norm(m) - want) <= 1e-14 * want


@pytest.mark.parametrize("m, want", [
    (np.array([[3e300, 0.0], [4e300, 0.0]]), 5e300),
    (np.array([[3e-300, 4e-300]]), 5e-300),
    (np.array([[1e308], [1e308]]), math.sqrt(2.0) * 1e308),
    (np.array([[1e308, 1.0], [1.0, -1e-300]]), 1e308),
    # subnormal entries 3 and 4 times the least one: exactly 5 times it
    (np.array([[3.0], [4.0]]) * 5e-324, 5.0 * 5e-324),
    (np.array([[5e-324]]), 5e-324),
    (np.array([[5e-324, 0.0], [0.0, 1e-300]]), 1e-300),
])
def test_spectral_norm_at_the_ends_of_the_float_range(m, want):
    assert spectral_norm(m) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k", [-1000, -60, -1, 1, 60, 900])
def test_spectral_norm_scales_by_a_power_of_two_bit_for_bit(k):
    m = np.random.default_rng(3).uniform(0.5, 4.0, (7, 5)) * [1.0, -1.0, 1.0, -1.0, 1.0]
    assert spectral_norm(2.0**k * m) == 2.0**k * spectral_norm(m)
    assert spectral_norm(2.0**k * m.T) == 2.0**k * spectral_norm(m.T)


def test_rank_kernel_image_rank_one():
    u = np.array([[1.0], [2.0], [2.0]])
    m = u @ u.T
    assert numerical_rank(m) == 1
    ker = _symmetric_eigh(m, DEFAULT_TOL).kernel
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
    split = _symmetric_eigh(np.diag([1.0, -5e-10]), DEFAULT_TOL)
    np.testing.assert_allclose(np.abs(split.kernel), [[0.0], [1.0]])
    np.testing.assert_allclose(np.abs(split.whitening()), [[1.0], [0.0]])
    # through the public callers: full kernel of the zero matrix, none of I
    assert check_necessary(np.eye(3), np.eye(3), np.ones((3, 3))).all_hold
    zero = check_necessary(np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))
    assert zero.kernel_r_in_kernel_theta and not zero.kernel_r_in_kernel_zt


def test_subspace_contained():
    m = np.diag([1.0, 1.0, 0.0])
    e3 = np.array([[0.0], [0.0], [1.0]])
    e1 = np.array([[1.0], [0.0], [0.0]])
    assert _contained(e3, m, DEFAULT_TOL)
    assert not _contained(e1, m, DEFAULT_TOL)
    assert _contained(np.zeros((3, 0)), m, DEFAULT_TOL)


@pytest.mark.parametrize("delta, bracket, contained", [
    (0.0, True, True),  # ||P||_F = 0: the upper bracket decides
    (1e-6, True, False),  # r = 1e-6 / sqrt(2): the lower bracket decides
    # r = delta / sqrt(2) and min(M.shape) = 3 put the ratio's bracket
    # [r, r sqrt(3)] across 1e-10: 2-norms decide, ||P||_2 = delta, ||M||_2 = 1
    (0.9e-10, False, True),
    (1.1e-10, False, False),
])
def test_subspace_contained_takes_2_norms_only_inside_the_bracket(delta, bracket, contained):
    m = np.diag([1.0, 1.0, delta])
    e3 = np.array([[0.0], [0.0], [1.0]])
    with decompositions() as calls:
        assert _contained(e3, m, DEFAULT_TOL) is contained
    assert [name for name, _ in calls] == ([] if bracket else ["eigvalsh", "eigvalsh"])


@pytest.mark.parametrize("rank_tol", [0.0, 1e-200])
def test_subspace_contained_when_the_frobenius_norm_underflows(rank_tol):
    """||M e2||_F^2 = 1e-340 underflows to 0, but ||M e2||_2 = 1e-170 is
    above the cutoff: the 2-norms decide.  An exactly zero product is
    contained under any cutoff."""
    e2 = np.array([[0.0], [1.0]])
    tol = Tolerance(rank_tol=rank_tol)
    assert not _contained(e2, np.diag([1.0, 1e-170]), tol)
    assert _contained(e2, np.diag([1.0, 0.0]), tol)


@st.composite
def near_containments(draw):
    """(basis, M, tol) with ||M basis||_2 / ||M||_2 spread around rank_tol:
    M annihilates the orthonormal basis up to a leak of 10^e, e near
    log10(rank_tol), and M's shape and rank vary."""
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    rank_tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    basis, rest = q[:, :k], q[:, k:]
    m = rng.standard_normal((rows, n - k)) @ rest.T  # zero when k = n
    if k < n and draw(st.booleans()):  # rank one off the basis
        m = np.outer(rng.standard_normal(rows), rest[:, 0])
    leak = 10.0 ** (math.log10(rank_tol) + draw(st.floats(-1.5, 1.5)))
    m = m + leak * rng.standard_normal((rows, k)) @ basis.T
    return basis, m, Tolerance(rank_tol=rank_tol)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_containments())
def test_subspace_contained_matches_an_svd_oracle(case):
    basis, m, tol = case
    ratio = np.linalg.svd(m @ basis, compute_uv=False)[0] / np.linalg.svd(m, compute_uv=False)[0]
    if abs(ratio - tol.rank_tol) > 1e-9 * tol.rank_tol:
        assert _contained(basis, m, tol) == (ratio <= tol.rank_tol)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9])
def test_subspace_contained_is_unit_free(c):
    # ||Z e2|| = 1e-6 ||Z|| / 0.5: outside the relative cutoff at every scale
    e2 = np.array([[0.0], [1.0]])
    leaky = c * np.array([[0.5, 1e-6], [0.0, 0.0]])
    clean = c * np.array([[0.5, 0.0], [0.0, 0.0]])
    assert not _contained(e2, leaky, DEFAULT_TOL)
    assert _contained(e2, clean, DEFAULT_TOL)
    # the same decision through a public caller: ker(diag(1, 0)) = span(e2)
    r = np.diag([1.0, 0.0])
    assert not check_feedback_conditions(r, leaky.T).kernel_r_in_kernel_gt
    assert check_feedback_conditions(r, clean.T).kernel_r_in_kernel_gt


def test_whitening_basis_full_rank_hand_example():
    r = np.array([[2.0, 1.0], [1.0, 2.0]])
    split = _symmetric_eigh(r, DEFAULT_TOL)
    v1 = split.whitening()
    assert v1.shape == (2, 2) and split.kernel.shape == (2, 0)
    np.testing.assert_allclose(v1.T @ r @ v1, np.eye(2), atol=1e-10)


def test_whitening_basis_singular_psd():
    rng = np.random.default_rng(5)
    q = rand_orth(rng, 4)
    r = require_symmetric((q * np.array([2.0, 1.0, 0.5, 0.0])) @ q.T)
    split = _symmetric_eigh(r, DEFAULT_TOL)
    v1, ker = split.whitening(), split.kernel
    assert v1.shape == (4, 3) and v1.T.flags.c_contiguous  # a left factor
    np.testing.assert_allclose(v1.T @ r @ v1, np.eye(3), atol=1e-10)
    # the kernel is the last column of q, the same one a full SVD finds
    assert ker.shape == (4, 1)
    np.testing.assert_allclose(np.abs(ker[:, 0]), np.abs(q[:, 3]), atol=1e-12)
    np.testing.assert_allclose(np.abs(ker), np.abs(kernel_basis_svd(r)), atol=1e-12)


def test_whitening_basis_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        _symmetric_eigh(np.diag([1.0, -0.5]), DEFAULT_TOL).whitening()


def test_whitening_basis_zero_matrix():
    split = _symmetric_eigh(np.zeros((3, 3)), DEFAULT_TOL)
    assert split.whitening().shape == (3, 0) and split.kernel.shape == (3, 3)
    np.testing.assert_allclose(split.kernel.T @ split.kernel, np.eye(3), atol=1e-15)
