"""The decompositions ``phdelay.linalg._memo`` stores on immutable systems
and arrays: what it reuses, and when not.

Every count runs inside ``helpers.decompositions`` on objects made inside
the test, so no count depends on which tests ran before.
"""

import copy
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from phdelay import (
    CERTIFIED,
    REFUTED,
    DelayPHSystem,
    HistoryFunction,
    StandardLTISystem,
    StandardPHSystem,
    Tolerance,
    certify_delay_ph,
    certify_interconnection,
    certify_ph,
    check_feedback_conditions,
    check_necessary,
    close_delayed_feedback,
    construct_theta,
    delay_ph_to_general,
    feedback_gain_bound,
    is_psd,
    ph_condition_matrix,
    simulate_delay_ph,
    validate,
)
from phdelay import linalg, simulation
from phdelay.composition import FeedbackConditions
from phdelay.linalg import (
    DEFAULT_TOL,
    _frozen,
    _is_frozen,
    _memo,
    _symmetric_eigh,
    sym_part,
)
from helpers import (
    decompositions,
    eager_pair_certificate,
    rand_antisym,
    rand_certified_delay_ph,
    rand_coupled_pair,
)


def scalar(h=1.0, r=2.0):
    return DelayPHSystem(H=[[h]], J=[[0.0]], R=[[r]], Z=[[1.0]], G=[[1.0]],
                         tau=1.0, theta=[[1.0]])


def count(calls, name, matrix):
    return sum(n == name and np.array_equal(a, matrix) for n, a in calls)


def test_pipeline_decomposes_each_matrix_once():
    """The certify-mix chain of calls on one system: R, H, Theta and the
    stored-Theta condition matrix are decomposed once each."""
    rng = np.random.default_rng(13)
    s = rand_certified_delay_ph(rng, 6, m=2)
    partner = rand_certified_delay_ph(rng, 6, m=2)
    plant = StandardPHSystem(s.H, s.J, s.R, s.G)
    with decompositions() as calls:
        assert validate(s) == []
        built = construct_theta(s.R, s.Z)
        cert = certify_delay_ph(s, s.theta)
        necessary = check_necessary(s.R, s.theta, s.Z)
        joint = certify_interconnection(s, partner, rand_antisym(rng, 4))
        beta = feedback_gain_bound(plant.R, plant.G)
        closed = close_delayed_feedback(plant, 0.5 * beta * np.eye(2), s.tau)
        construct_theta(closed.R, closed.Z)
    assert built.success and necessary.all_hold
    assert cert.verdict == joint.verdict == CERTIFIED
    cond = ph_condition_matrix(s.R, s.Z, s.theta)
    assert count(calls, "eigh", s.R) == count(calls, "eigvalsh", cond) == 1
    assert count(calls, "eigvalsh", s.H) == count(calls, "eigvalsh", s.theta) == 1
    keys = [(name, a.tobytes()) for name, a in calls]
    assert len(set(keys)) == len(keys)


def test_pipeline_checks_each_matrix_for_symmetry_once(monkeypatch):
    """The certify-mix chain on fresh systems: validate checks H, R and
    Theta of each system once, every later call reads the stored outcome,
    and a second pass checks nothing."""
    rng = np.random.default_rng(37)
    s = rand_certified_delay_ph(rng, 6, m=2)
    partner = rand_certified_delay_ph(rng, 6, m=2)
    plant = StandardPHSystem(s.H, s.J, s.R, s.G)
    lti = StandardLTISystem(np.linalg.solve(plant.H, plant.J - plant.R),
                            np.linalg.solve(plant.H, plant.G), plant.G.T)
    f = rand_antisym(rng, 4)
    checked = []

    def counted(matrix):
        checked.append(matrix)
        return asymmetry(matrix)

    def chain():
        assert validate(s) == []
        assert construct_theta(s.R, s.Z).success
        assert certify_delay_ph(s, s.theta).verdict == CERTIFIED
        assert check_necessary(s.R, s.theta, s.Z).all_hold
        assert certify_interconnection(s, partner, f).verdict == CERTIFIED
        beta = feedback_gain_bound(plant.R, plant.G)
        closed = close_delayed_feedback(plant, 0.5 * beta * np.eye(2), s.tau)
        assert construct_theta(closed.R, closed.Z).success
        assert certify_ph(lti, plant.H).certified

    asymmetry = linalg.asymmetry
    monkeypatch.setattr(linalg, "asymmetry", counted)
    chain()
    want = [s.H, s.R, s.theta, partner.H, partner.R, partner.theta]
    assert sorted(map(id, checked)) == sorted(map(id, want))
    checked.clear()
    chain()
    assert checked == []


def test_a_warm_chain_forms_no_symmetric_part_of_theta(monkeypatch):
    """A validated Theta that is its own symmetric part is used as it is:
    certifying a system and a skew-F interconnection a second time forms
    no symmetric or skew part of either Theta."""
    s, partner, f = rand_coupled_pair(np.random.default_rng(41), 1.0)
    thetas = (s.theta, partner.theta)
    assert all(linalg.require_symmetric(t) is t for t in thetas)
    halved = []

    def counted(m, skew=False):
        halved.append(m)
        return halves(m, skew)

    def chain():
        assert certify_delay_ph(s).verdict == CERTIFIED
        assert certify_interconnection(s, partner, f).verdict == CERTIFIED

    chain()
    halves = linalg._halves
    monkeypatch.setattr(linalg, "_halves", counted)
    chain()
    assert [m for m in halved if any(np.shares_memory(m, t) for t in thetas)] == []


def test_feedback_routines_decompose_r_once_and_g_never():
    """The kernel hypotheses and then the gain bound on one system's (R, G)
    with fewer ports than states: one eigh of R, stored on the system's R,
    and one eigvalsh of the Gram matrix of V1^T G for the bound.  G itself
    is not decomposed: rank G <= m < n needs no SVD."""
    rng = np.random.default_rng(17)
    s = rand_certified_delay_ph(rng, 5, m=2)
    plant = StandardPHSystem(s.H, s.J, s.R, s.G)
    with decompositions() as calls:
        conditions = check_feedback_conditions(plant.R, plant.G)
        beta = feedback_gain_bound(plant.R, plant.G)
    assert conditions.kernel_r_in_kernel_gt and 0.0 < beta < np.inf
    assert [name for name, _ in calls] == ["eigh", "eigvalsh"]
    assert count(calls, "eigh", plant.R) == 1


def test_a_square_frozen_g_takes_one_svd_through_both_feedback_routines():
    """The kernel hypotheses take rank G of a system's square G, which is
    not stored on it; the gain bound takes no rank, so the pair of calls
    decomposes G once."""
    rng = np.random.default_rng(19)
    s = rand_certified_delay_ph(rng, 3, m=3)
    plant = StandardPHSystem(s.H, s.J, s.R, s.G)
    with decompositions() as calls:
        conditions = check_feedback_conditions(plant.R, plant.G)
        beta = feedback_gain_bound(plant.R, plant.G)
    assert conditions.all_hold and 0.0 < beta < np.inf
    assert [name for name, _ in calls].count("svd") == 1
    assert count(calls, "svd", plant.G) == 1


def test_a_writeable_g_is_decomposed_once_per_call():
    """rank G of a G with as many columns as rows takes one svd per call,
    also for an array that keeps none."""
    g = np.array([[1.0, 0.0], [2.0, 0.0]])
    with decompositions() as calls:
        conditions = check_feedback_conditions(np.diag([1.0, 0.0]), g)
    assert conditions == FeedbackConditions(False, False)
    assert [name for name, _ in calls] == ["eigh", "svd"]
    assert count(calls, "svd", g) == 1


def test_a_g_with_fewer_columns_than_rows_takes_no_svd():
    """rank G <= m < n: ker(G^T) is nontrivial without a rank."""
    with decompositions() as calls:
        conditions = check_feedback_conditions(np.diag([1.0, 0.0, 2.0]),
                                               np.array([[1.0], [0.0], [2.0]]))
    assert conditions == FeedbackConditions(False, True)
    assert [name for name, _ in calls] == ["eigh"]


def test_writeable_r_is_decomposed_afresh():
    r = np.diag([2.0, 1.0])
    z = np.diag([1.0, 0.5])
    assert construct_theta(r, z).interval.sigma == pytest.approx(0.5)
    r[0, 0] = 0.5
    assert construct_theta(r, z).interval.sigma == pytest.approx(2.0)


def test_read_only_r_made_writeable_again_is_not_reused():
    """A read-only flag can be set writeable again, so it is not trusted."""
    r = np.diag([2.0, 1.0])
    r.setflags(write=False)
    z = np.diag([1.0, 0.5])
    with decompositions() as calls:
        construct_theta(r, z)
        construct_theta(r, z)
        assert count(calls, "eigh", r) == 2
        r.setflags(write=True)
        r[0, 0] = 0.5
        assert construct_theta(r, z).interval.sigma == pytest.approx(2.0)
        assert count(calls, "eigh", r) == 1  # the new r, decomposed once


def test_re_frozen_r_gets_no_stale_theta():
    """Written between two read-only spells, R is decomposed afresh."""
    r = np.diag([2.0, 1.0])
    z = np.diag([1.0, 0.5])
    r.setflags(write=False)
    assert construct_theta(r, z).success
    r.setflags(write=True)
    r[0, 0] = 0.5
    r.setflags(write=False)
    fresh = construct_theta(r.copy(), z)
    result = construct_theta(r, z)
    assert not fresh.success and "whitened coupling 2 > 1" in fresh.reason
    assert not result.success and result.reason == fresh.reason


@pytest.mark.parametrize("n", [0, 1, 3])
def test_system_matrices_cannot_be_made_writeable(n):
    """A system's arrays and its history's are backed by immutable
    buffers: their write flag cannot be set again."""
    s = DelayPHSystem(H=np.eye(n), J=np.zeros((n, n)), R=np.eye(n),
                      Z=np.zeros((n, n)), G=np.ones((n, 1)), tau=1.0,
                      theta=0.5 * np.eye(n))
    hist = HistoryFunction.constant(np.ones(n), 1.0)
    arrays = [getattr(s, name) for name in ("H", "J", "R", "Z", "G", "theta")]
    for arr in arrays + [hist.grid, hist.values]:
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    assert validate(s) == []


@pytest.mark.parametrize("clone", [
    lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy,
], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("kind", ["system", "history"])
def test_copies_cannot_be_written(clone, kind):
    """A pickled or deep-copied system or history is rebuilt through its
    constructor: its arrays are immutable again, and it starts with no
    cached results of the original."""
    if kind == "system":
        original = scalar()
        assert validate(original) == []
        names = ("H", "J", "R", "Z", "G", "theta")
    else:
        original = HistoryFunction.constant([0.5, -1.0], 1.0)
        names = ("grid", "values")
    copied = clone(original)
    for name in names:
        arr = getattr(copied, name)
        assert np.array_equal(arr, getattr(original, name))
        with pytest.raises(ValueError):
            arr[0] = -1.0
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    if kind == "system":
        assert original._cache and copied._cache == {}
        assert validate(copied) == []


def test_unpickled_arrays_are_not_trusted():
    """numpy unpickles a large array as a writeable one over ``bytes``:
    a system does not share it, nor does the memo keep its decomposition."""
    n = 16
    r = pickle.loads(pickle.dumps(np.diag([2.0] + [1.0] * (n - 1))))
    assert r.flags.writeable and isinstance(r.base, bytes)
    z = np.diag([1.0] + [0.5] * (n - 1))
    s = DelayPHSystem(H=r, J=np.zeros((n, n)), R=r, Z=z, G=np.ones((n, 1)),
                      tau=1.0, theta=z)
    with decompositions() as calls:
        assert construct_theta(r, z).success
        assert validate(s) == []
        r[0, 0] = 0.5
        result = construct_theta(r, z)
        assert validate(s) == []
        assert count(calls, "eigh", r) == 1  # the written r, afresh
    assert not result.success and "whitened coupling 2 > 1" in result.reason
    assert s.H[0, 0] == s.R[0, 0] == 2.0


def test_read_only_view_is_not_reused():
    base = np.diag([2.0, 1.0])
    r = base[:, :]
    r.setflags(write=False)
    with decompositions() as calls:
        construct_theta(r, np.zeros((2, 2)))
        construct_theta(r, np.zeros((2, 2)))
    assert count(calls, "eigh", r) == 2


def test_slices_of_a_frozen_root_are_not_trusted():
    """A slice of the root behind a frozen array has the root's type, so
    it is no plain array over a root: nothing is stored on it."""
    assert _is_frozen(scalar().R)
    r = _frozen(np.diag([2.0, 1.0]))
    root = r.base
    assert _is_frozen(r) and _frozen(r) is r and not r.flags.writeable
    computed = []
    for piece in (root[:], root[8:], root.view(float).reshape(2, 2)):
        assert type(piece) is type(root) and not _is_frozen(piece)
        _memo(piece, "tag", lambda: computed.append(1))
        _memo(piece, "tag", lambda: computed.append(1))
    assert len(computed) == 6 and "tag" not in vars(root)
    assert not any(map(_is_frozen, (r[:], r.reshape(-1), r.T, r.copy())))


def test_freed_system_replaced_by_an_invalid_one_is_validated_afresh():
    for _ in range(20):
        s = scalar()
        assert validate(s) == []
        old = id(s)
        del s
        bad = scalar(h=-1.0)
        if id(bad) == old:  # the freed block went to the new system
            break
    else:
        pytest.skip("the interpreter did not reuse the freed system's id")
    assert validate(bad) == ["H is not positive definite (min eigenvalue -1)"]


def test_validate_returns_a_fresh_list_per_tolerance():
    s = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]], G=[[1.0]],
                      tau=1.0, theta=[[-1e-4]])
    first = validate(s)
    first.append("changed by the caller")
    assert validate(s) == ["theta is not positive semidefinite (min eigenvalue -0.0001)"]
    assert validate(s, Tolerance(psd_tol=1e-3)) == []


def test_cached_arrays_are_read_only():
    s = scalar()
    with decompositions():
        evals, evecs = _symmetric_eigh(s.R, DEFAULT_TOL, s.R)[:2]
        certify_delay_ph(s)
    assert not evals.flags.writeable and not evecs.flags.writeable
    cached = vars(s.R.base)["eigh"]
    assert cached[0] is evals and cached[1] is evecs
    spectra = [value for value in s._cache.values() if isinstance(value, np.ndarray)]
    assert len(spectra) == 1 and not spectra[0].flags.writeable
    simulate_delay_ph(s, HistoryFunction.constant([1.0], 1.0), None, 1.0, 0.1,
                      monitor=False)
    steps = delay_ph_to_general(s)._cache[("steps", 0.1)]
    arrays = [steps.f_history, steps.f_now, steps.f_past, *steps.powers,
              steps.transfer]
    assert steps.transfer is not None
    assert not any(arr.flags.writeable for arr in arrays)


def test_an_explicit_theta_leaves_no_condition_spectrum_on_the_system():
    """An explicit Theta is decided on a copy of the system: after one, the
    stored Theta gets the certificate of a fresh system, and the other way
    round."""
    refuting = [[0.1]]  # PSD, but [[1.9, 0.5], [0.5, 0.1]] is indefinite
    for order in ((refuting, None), (None, refuting)):
        s = scalar()
        for theta in order:
            cert = certify_delay_ph(s, theta)
            fresh = certify_delay_ph(scalar(), theta)
            assert cert.verdict == (REFUTED if theta else CERTIFIED)
            assert (cert.verdict, cert.min_eigenvalue) == (fresh.verdict, fresh.min_eigenvalue)


def read_twice(cert, name):
    first = getattr(cert, name)
    assert getattr(cert, name) is first
    return first


def test_a_refuted_chain_decomposes_its_condition_matrix_when_its_witness_is_read():
    """certify_delay_ph and certify_interconnection (skew F) on a REFUTED
    system decide from eigenvalues: no eigh until a witness is read, then
    one per certificate, however often it is read.  The witness, condition
    matrix and Theta read are bit for bit the dense route's: the
    eigenvector of the system's condition matrix, zero-padded on the
    closed loop's."""
    s, partner, f = rand_coupled_pair(np.random.default_rng(29), 20.0)
    with decompositions() as calls:
        cert = certify_delay_ph(s)
        joint = certify_interconnection(s, partner, f)
        assert cert.verdict == joint.verdict == REFUTED
        assert [name for name, _ in calls if name == "eigh"] == []
        witnesses = [read_twice(c, "witness") for c in (cert, joint)]
    cond = ph_condition_matrix(s.R, s.Z, s.theta)
    assert [name for name, a in calls if name == "eigh"] == ["eigh", "eigh"]
    assert all(np.array_equal(a, cond) for name, a in calls if name == "eigh")
    eager = eager_pair_certificate(s, partner, f, REFUTED)
    want = [(np.linalg.eigh(cond)[1][:, 0], cond, sym_part(s.theta)),
            (eager.witness, eager.condition_matrix, eager.theta_used)]
    for c, w, (witness, condition, theta) in zip((cert, joint), witnesses, want):
        assert w.tobytes() == witness.tobytes()
        assert read_twice(c, "condition_matrix").tobytes() == condition.tobytes()
        assert read_twice(c, "theta_used").tobytes() == theta.tobytes()


def test_a_theta_that_is_not_psd_is_decomposed_when_its_witness_is_read():
    s, _, _ = rand_coupled_pair(np.random.default_rng(31), 20.0)
    theta = -sym_part(s.theta)
    with decompositions() as calls:
        cert = certify_delay_ph(s, theta)
        assert cert.reason == "theta_not_psd"
        assert [name for name, _ in calls if name == "eigh"] == []
        witness = read_twice(cert, "witness")
    assert [name for name, _ in calls if name == "eigh"] == ["eigh"]
    assert witness.tobytes() == np.linalg.eigh(theta)[1][:, 0].tobytes()
    cond = ph_condition_matrix(s.R, s.Z, theta)
    assert read_twice(cert, "condition_matrix").tobytes() == cond.tobytes()
    assert read_twice(cert, "theta_used").tobytes() == theta.tobytes()
    assert cert.theta_used.flags.writeable


def test_is_psd_decomposes_a_not_psd_matrix_when_its_witness_is_read():
    m = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    with decompositions() as calls:
        report = is_psd(m)
        assert not report.is_psd and report.min_eigenvalue == pytest.approx(-1.0)
        assert [name for name, _ in calls] == ["eigvalsh"]
        witness = read_twice(report, "witness")
    assert [name for name, _ in calls] == ["eigvalsh", "eigh"]
    assert witness.tobytes() == np.linalg.eigh(m)[1][:, 0].tobytes()


def test_certify_ph_stores_the_spectrum_of_a_frozen_energy_matrix():
    """sym(H) is decomposed once for an immutable H, such as a system's, and
    afresh for a writeable one."""
    lti = StandardLTISystem(A=[[-1.0]], B=[[0.5]], C=[[1.0]])
    h = _frozen(np.array([[2.0]]))
    with decompositions() as calls:
        for energy in (h, h, np.array(h)):
            assert certify_ph(lti, energy).certified
    assert count(calls, "eigvalsh", h) == 2


def test_repeated_simulations_build_the_step_data_once(monkeypatch):
    """Three histories of one system: one conversion to the general form
    (three solves against H) and one set of RK4 maps, both stored."""
    rng = np.random.default_rng(19)
    s = rand_certified_delay_ph(rng, 4, m=2, tau=0.2)
    solves, maps = [], []

    def counted(calls, fn):
        def call(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "solve", counted(solves, np.linalg.solve))
    monkeypatch.setattr(simulation, "_rk4_maps", counted(maps, simulation._rk4_maps))
    for _ in range(3):
        hist = HistoryFunction.constant(rng.standard_normal(4), 0.2)
        simulate_delay_ph(s, hist, None, 1.0, 0.01)
    assert len(solves) == 3 and len(maps) == 1
    assert delay_ph_to_general(s) is delay_ph_to_general(s)
    assert list(delay_ph_to_general(s)._cache) == [("steps", 0.01)]


def test_copies_start_without_the_general_form_or_step_data():
    s = scalar()
    simulate_delay_ph(s, HistoryFunction.constant([1.0], 1.0), None, 1.0, 0.1)
    general = delay_ph_to_general(s)
    assert "general" in s._cache and general._cache
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert copied._cache == {}
        assert delay_ph_to_general(copied) is not general
    assert pickle.loads(pickle.dumps(general))._cache == {}


def test_check_necessary_decomposes_theta_once():
    s = scalar()
    with decompositions() as calls:
        check_necessary(s.R, s.theta, s.Z)
        check_necessary(s.R, s.theta, s.Z)
    assert count(calls, "eigh", s.theta) == 1
    assert len(calls) == 2  # R and Theta, once each


def test_a_chain_decides_ker_z_without_decomposing_z():
    """With a rank-deficient R, the construction and the necessary
    conditions test ker(R) and ker(Theta) against ker(Z): Z annihilates
    them exactly, so the Frobenius bracket decides and Z is not
    decomposed at all."""
    s = DelayPHSystem(H=np.eye(2), J=np.zeros((2, 2)), R=np.diag([2.0, 0.0]),
                      Z=np.diag([1.0, 0.0]), G=np.ones((2, 1)), tau=1.0,
                      theta=np.diag([1.0, 0.0]))
    with decompositions() as calls:
        assert construct_theta(s.R, s.Z).success
        assert check_necessary(s.R, s.theta, s.Z).all_hold
    # eigh of R and Theta, and eigvalsh of the 1x1 Gram matrix of V1^T Z V1
    assert [(name, a.shape) for name, a in calls] == [
        ("eigh", (2, 2)), ("eigvalsh", (1, 1)), ("eigh", (2, 2))]
    assert count(calls, "eigh", s.R) == count(calls, "eigh", s.theta) == 1


def test_caching_keeps_no_system_alive():
    """What a chain of calls stores on a system and its matrices holds no
    reference back to them: both die on ``del``, with no garbage cycle to
    wait for."""
    s = scalar()
    partner = scalar(h=2.0)
    assert validate(s) == [] and construct_theta(s.R, s.Z).success
    assert certify_delay_ph(s).verdict == CERTIFIED
    cert = certify_interconnection(s, partner, [[-1.0, 1.0], [-1.0, -1.0]])
    assert cert.verdict == CERTIFIED
    simulate_delay_ph(s, HistoryFunction.constant([1.0], 1.0), None, 1.0, 0.1)
    general = delay_ph_to_general(s)
    assert s._cache and "eigh" in vars(s.R.base) and general._cache
    system, matrix = weakref.ref(s), weakref.ref(s.R)
    general = weakref.ref(general)
    del s
    assert system() is None and matrix() is None and general() is None


def test_evidence_keeps_no_frozen_matrix_alive():
    """A report or certificate whose evidence is unread keeps copies, not
    the frozen matrices it was decided from: each of them dies on ``del``,
    and the evidence read afterwards is still there."""
    lti = StandardLTISystem(A=[[-1.0]], B=[[0.5]], C=[[1.0]])
    s = scalar()
    evidence, refs = [], []
    for make, run in (
        (lambda: _frozen(np.array([[1.0, 2.0], [2.0, 1.0]])), is_psd),
        (lambda: scalar().theta, lambda th: certify_delay_ph(s, th)),
        (lambda: scalar(r=0.1).R, lambda th: certify_delay_ph(s, th)),  # PSD, refutes
        (lambda: DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[1.0]], Z=[[0.0]], G=[[1.0]],
                               tau=1.0, theta=[[-1.0]]).theta,
         lambda th: certify_delay_ph(s, th)),  # not PSD
        (lambda: _frozen(np.array([[-2.0]])), lambda h: certify_ph(lti, h)),
    ):
        matrix = make()
        assert _is_frozen(matrix)
        evidence.append(run(matrix))
        refs.append(weakref.ref(matrix))
        del matrix
    assert [ref() for ref in refs] == [None] * len(refs)
    psd, certified, refuted, not_psd, storage = evidence
    assert not psd.is_psd and certified.verdict == CERTIFIED
    assert refuted.verdict == REFUTED and not_psd.reason == "theta_not_psd"
    assert storage.certificate.reason == "storage_not_psd"
    for witness in (psd.witness, refuted.witness, not_psd.witness,
                    storage.certificate.witness):
        assert np.linalg.norm(witness) == pytest.approx(1.0)
    assert not_psd.theta_used.tolist() == [[-1.0]]


def test_threads_share_the_memo_safely():
    """More threads than cores cycling a dozen shared systems, and
    freeing a fresh system per pass, whose results must not outlive it."""
    systems = [scalar(r=2.0 + k) for k in range(12)]
    want = [construct_theta(s.R, s.Z).interval.sigma for s in systems]
    errors = []
    freed = []

    def work():
        try:
            for _ in range(30):
                for s, sigma in zip(systems, want):
                    assert validate(s) == []
                    assert construct_theta(s.R, s.Z).interval.sigma == sigma
                fresh = scalar(h=5.0)
                assert validate(fresh) == []
                freed.append(weakref.ref(fresh))
                del fresh
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(freed) == 4 * 30
    assert all(ref() is None for ref in freed)
    for s in systems:
        assert s._cache == {("validate", DEFAULT_TOL): ()}
        assert list(vars(s.R.base)) == ["symmetric", "eigh"]
