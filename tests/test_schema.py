"""Property tests for the system document format.

The four kinds are spelled out below from the documented format, not taken
from the package, so these tests pin the format itself: generated valid
documents round-trip exactly, and every one-step corruption of one is
rejected with SystemFormatError and no other exception.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from phdelay import SystemFormatError, read_system, write_system

#: kind -> {matrix key: shape as (rows, columns) in n and m}; the delay
#: kinds also require "tau", and delay_ph takes an optional n x n "theta"
KINDS = {
    "standard_lti": {"A": "nn", "B": "nm", "C": "mn"},
    "standard_ph": {"H": "nn", "J": "nn", "R": "nn", "G": "nm"},
    "general_delay": {"A0": "nn", "A1": "nn", "B": "nm", "C": "mn"},
    "delay_ph": {"H": "nn", "J": "nn", "R": "nn", "Z": "nn", "G": "nm"},
}
DELAY_KINDS = ("general_delay", "delay_ph")
ENERGY_KINDS = ("standard_ph", "delay_ph")

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

WIDE = st.floats(-1e100, 1e100, allow_nan=False)
MODERATE = st.floats(-3.0, 3.0, allow_nan=False)


def _required(kind):
    return ["kind", "n", "m", *KINDS[kind], *(["tau"] if kind in DELAY_KINDS else [])]


def _shape(doc, key):
    spec = "nn" if key == "theta" else KINDS[doc["kind"]][key]
    return tuple(doc[d] for d in spec)


@st.composite
def documents(draw, kinds=tuple(KINDS)):
    """A valid document: H positive definite, J antisymmetric, R symmetric
    (and PSD for standard_ph), theta PSD, tau finite and positive."""
    kind = draw(st.sampled_from(kinds))
    doc = {"kind": kind, "n": draw(st.integers(1, 4)), "m": draw(st.integers(0, 4))}

    def matrix(shape, elements=WIDE):
        return draw(arrays(np.float64, tuple(doc[d] for d in shape), elements=elements))

    mats = {key: matrix(shape) for key, shape in KINDS[kind].items()}
    if kind in ENERGY_KINDS:
        a = matrix("nn", MODERATE)
        mats["H"] = a @ a.T + np.eye(doc["n"])
        mats["J"] = mats["J"] - mats["J"].T
        if kind == "standard_ph":
            b = matrix("nn", MODERATE)
            mats["R"] = b @ b.T
        else:
            mats["R"] = mats["R"] + mats["R"].T
    if kind == "delay_ph" and draw(st.booleans()):
        c = matrix("nn", MODERATE)
        mats["theta"] = c @ c.T
    if kind in DELAY_KINDS:
        doc["tau"] = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    doc.update((key, mat.tolist()) for key, mat in mats.items())
    return doc


def _bits(mat):
    return np.asarray(mat, dtype=float).view(np.uint64)


@PROPERTY
@given(documents())
def test_valid_documents_round_trip_exactly(doc):
    system = read_system(json.dumps(doc))
    text = write_system(system)
    again = read_system(text)
    assert write_system(again) == text
    assert set(json.loads(text)) == set(doc)
    assert (again.n, again.m) == (doc["n"], doc["m"])
    for key, value in doc.items():
        if key == "tau":
            assert again.tau == value
        elif key not in ("kind", "n", "m"):
            assert getattr(again, key).shape == _shape(doc, key)
            np.testing.assert_array_equal(_bits(getattr(again, key)), _bits(getattr(system, key)))
            assert getattr(again, key).tolist() == value


MUTATIONS = (
    "drop", "unknown", "shape", "ragged", "string", "non_finite_entry",
    "dimension", "tau",
)


@st.composite
def mutated_documents(draw):
    """A valid document with exactly one schema-level defect."""
    how = draw(st.sampled_from(MUTATIONS))
    doc = draw(documents(DELAY_KINDS if how == "tau" else tuple(KINDS)))
    matrices = [key for key in doc if key not in ("kind", "n", "m", "tau")]
    # square fields have n >= 1 rows, so they always have an entry to corrupt
    square = [key for key in matrices if _shape(doc, key) == (doc["n"],) * 2]
    if how == "drop":
        del doc[draw(st.sampled_from(_required(doc["kind"])))]
    elif how == "unknown":
        allowed = {*_required(doc["kind"]), "theta"}
        doc[draw(st.text(max_size=6).filter(lambda k: k not in allowed))] = 0.0
    elif how == "shape":
        key = draw(st.sampled_from(matrices))
        rows, cols = _shape(doc, key)
        if rows == 0 or draw(st.booleans()):
            doc[key] = doc[key] + [[0.5] * cols]
        else:
            doc[key] = [row + [0.5] for row in doc[key]]
    elif how == "ragged":
        key = draw(st.sampled_from(square))
        doc[key] = doc[key] + [[0.5] * (doc["n"] + 1)]
    elif how in ("string", "non_finite_entry"):
        key = draw(st.sampled_from(square))
        i, j = draw(st.integers(0, doc["n"] - 1)), draw(st.integers(0, doc["n"] - 1))
        bad = (st.text(max_size=5) if how == "string"
               else st.sampled_from([math.inf, -math.inf, math.nan, 10**400]))
        doc[key][i][j] = draw(bad)
    elif how == "dimension":
        doc[draw(st.sampled_from(["n", "m"]))] = draw(
            st.booleans() | st.integers(max_value=-1)
        )
    else:
        doc["tau"] = draw(st.sampled_from([math.inf, -math.inf, math.nan, 10**400]))
    return doc


@settings(PROPERTY, max_examples=120)
@given(mutated_documents())
def test_one_step_mutations_raise_format_errors(doc):
    with pytest.raises(SystemFormatError):
        read_system(json.dumps(doc))


@pytest.mark.parametrize("kind", ["standard_lti", "general_delay"])
def test_zero_size_matrices_round_trip(kind):
    # m = 0 makes C an empty (0, n) matrix, written as []
    doc = {"kind": kind, "n": 2, "m": 0}
    for key, shape in KINDS[kind].items():
        doc[key] = np.ones(tuple(doc[d] for d in shape)).tolist()
    if kind in DELAY_KINDS:
        doc["tau"] = 1.0
    system = read_system(json.dumps(doc))
    assert system.C.shape == (0, 2) and system.B.shape == (2, 0)
    assert write_system(read_system(write_system(system))) == write_system(system)


def test_negative_zero_round_trips():
    doc = {"kind": "standard_lti", "n": 1, "m": 1,
           "A": [[-0.0]], "B": [[0.0]], "C": [[-0.0]]}
    text = write_system(read_system(json.dumps(doc)))
    assert '"A": [[-0.0]]' in text
    again = read_system(text)
    np.testing.assert_array_equal(_bits(again.A), _bits(np.array([[-0.0]])))
    np.testing.assert_array_equal(_bits(again.B), _bits(np.array([[0.0]])))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_empty_state_documents_read_validate_and_round_trip(kind):
    # an empty H is positive definite; n = 0 is a valid, if trivial, system
    doc = {"kind": kind, "n": 0, "m": 1}
    for key, shape in KINDS[kind].items():
        doc[key] = np.zeros(tuple(doc[d] for d in shape)).tolist()
    if kind in DELAY_KINDS:
        doc["tau"] = 1.0
    system = read_system(json.dumps(doc))
    assert (system.n, system.m) == (0, 1)
    text = write_system(system)
    assert write_system(read_system(text)) == text
