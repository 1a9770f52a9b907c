"""Equality and hashing of phdelay's records.

A record that holds an array (a system, a Theta, a certificate, a
trajectory) compares and hashes by identity: ``==`` on two equal-valued
arrays has no single truth value, so no value rule can be honoured.  The
records of plain values (``Tolerance``, ``ScalarThetaInterval``,
``AlphaInterval``, ``NecessaryConditions``, ``FeedbackConditions``) keep
value equality and a value hash.
"""

import copy
import dataclasses
import importlib
import pickle
import typing
from pathlib import Path

import numpy as np
import pytest

from phdelay import (
    HistoryFunction,
    StandardLTISystem,
    Tolerance,
    certify_delay_ph,
    certify_ph,
    check_feedback_conditions,
    check_necessary,
    construct_theta,
    delay_ph_to_general,
    is_psd,
    read_system,
    scalar_theta_interval,
    simulate_delay_ph,
)
from phdelay.linalg import _Deferred

DATA = Path(__file__).parent / "data"

#: the records that hold arrays, directly or through another such record
IDENTITY_RECORDS = {
    "linalg.PsdReport",
    "certificates.Certificate",
    "systems.StandardLTISystem",
    "systems.StandardPHSystem",
    "systems.GeneralDelaySystem",
    "systems.DelayPHSystem",
    "systems.HistoryFunction",
    "certify.ThetaConstruction",
    "standard.SigmaDecomposition",
    "standard.StandardPHCertificate",
    "simulation.Trajectory",
    "simulation.EnergyRecord",
}

MODULES = ("linalg", "certificates", "systems", "certify", "composition",
           "standard", "simulation", "cli")


def _name(cls):
    return f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__qualname__}"


def _made_by_the_library():
    """One instance of each record that holds arrays, made by the library,
    plus a PSD report and a failed construction, whose array fields are
    all None.  The construction that succeeds has not computed its
    interval yet."""
    plant = read_system(DATA / "mass_spring_damper.json")
    delayed = read_system(DATA / "scalar_refuted.json")
    lti = StandardLTISystem(A=plant.J - plant.R, B=plant.G, C=plant.G.T)
    ph = certify_ph(lti, plant.H)
    history = HistoryFunction.constant([1.0], delayed.tau)
    traj, record = simulate_delay_ph(delayed, history, None, T=1.0, h=0.25)
    return [
        is_psd(-np.eye(2)),
        is_psd(np.eye(2)),
        certify_delay_ph(delayed),
        lti,
        plant,
        delay_ph_to_general(delayed),
        delayed,
        history,
        construct_theta(np.eye(2), 0.5 * np.eye(2)),
        construct_theta(-np.eye(2), np.eye(2)),
        ph.decomposition,
        ph,
        traj,
        record,
    ]


INSTANCES = _made_by_the_library()


def test_instances_cover_every_identity_record():
    assert {_name(type(x)) for x in INSTANCES} == IDENTITY_RECORDS


@pytest.mark.parametrize("x", INSTANCES, ids=lambda x: type(x).__name__)
def test_array_records_compare_and_hash_by_identity(x):
    twin = copy.copy(x)
    assert x == x
    assert x != twin
    assert hash(x) == hash(x)
    assert len({x, twin}) == 2


def test_a_pending_interval_survives_a_copy_and_a_pickle():
    """A copy or a pickle of a construction whose interval is unread
    carries what computes it, and reads the same sigma, lo and hi."""
    built = next(x for x in INSTANCES if type(x).__name__ == "ThetaConstruction"
                 and x.success)
    assert type(vars(built)["interval"]) is _Deferred
    twins = [copy.copy(built), pickle.loads(pickle.dumps(built))]
    assert all(type(vars(t)["interval"]) is _Deferred for t in twins)
    want = built.interval
    for twin in twins:
        got = twin.interval
        assert (got.sigma, got.lo, got.hi, got.feasible) == (
            want.sigma, want.lo, want.hi, True)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
def test_a_pending_least_eigenvalue_and_slack_survive_copies(clone):
    """A PSD report and a certificate whose least eigenvalue and slack a
    Cholesky verdict left unread: each copy carries what computes them,
    and reads the original's values bit for bit."""
    lti = StandardLTISystem(A=-np.eye(4), B=np.eye(4, 1), C=np.eye(1, 4))
    for original in (is_psd(np.eye(4)), certify_ph(lti, np.eye(4)).certificate):
        assert all(type(vars(original)[name]) is _Deferred
                   for name in ("min_eigenvalue", "slack"))
        twin = clone(original)
        assert all(type(vars(twin)[name]) is _Deferred for name in ("min_eigenvalue", "slack"))
        for name in ("min_eigenvalue", "slack"):
            want = getattr(original, name)
            assert np.float64(getattr(twin, name)).tobytes() == np.float64(want).tobytes()


def test_value_records_compare_and_hash_by_value():
    r, z = np.diag([2.0, 0.0]), np.diag([1.0, 0.0])
    pairs = [
        (Tolerance(), Tolerance()),
        (scalar_theta_interval(2.0, 1.0), scalar_theta_interval(2.0, 1.0)),
        (construct_theta(np.eye(2), 0.5 * np.eye(2)).interval,
         construct_theta(np.eye(2), 0.5 * np.eye(2)).interval),
        (check_necessary(r, r / 2, z), check_necessary(r, r / 2, z)),
        (check_feedback_conditions(r, np.eye(2)), check_feedback_conditions(r, np.eye(2))),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert Tolerance(psd_tol=1e-6) != Tolerance()


def _leaves(tp):
    """Every class named in the annotation ``tp``, through unions and
    generic arguments."""
    args = typing.get_args(tp)
    if not args:
        return {tp} if isinstance(tp, type) else set()
    return set().union(*map(_leaves, args))


def test_every_record_that_holds_an_array_compares_by_identity():
    """Guard for records added later: one that holds an array, or a record
    that does, must leave ``__eq__`` (and so ``__hash__``) to ``object``."""
    records = {
        obj for module in MODULES
        for obj in vars(importlib.import_module(f"phdelay.{module}")).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == f"phdelay.{module}"
    }
    leaves = {cls: set().union(*(_leaves(t) for t in typing.get_type_hints(cls).values()))
              for cls in records}
    holding = {np.ndarray}
    while True:
        grown = holding | {cls for cls in records if leaves[cls] & holding}
        if grown == holding:
            break
        holding = grown
    holding.discard(np.ndarray)
    assert {_name(cls) for cls in holding} == IDENTITY_RECORDS
    for cls in records:
        by_identity = cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert by_identity == (cls in holding), _name(cls)
