import json
import pathlib

import numpy as np
import pytest

from phdelay import (
    DelayPHSystem,
    GeneralDelaySystem,
    HistoryFunction,
    StandardLTISystem,
    StandardPHSystem,
    SystemFormatError,
    SystemValidationError,
    delay_ph_to_general,
    read_system,
    save_system,
    validate,
    write_system,
)
from phdelay.linalg import require_symmetric, skew_part, sym_part
from phdelay.systems import _system_from_text
from helpers import rand_certified_delay_ph

DATA = pathlib.Path(__file__).parent / "data"


def scalar_example(theta=None):
    """The running scalar system: H=1, J=0, R=2, Z=1, G=1, tau=1."""
    return DelayPHSystem(
        H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]], G=[[1.0]], tau=1.0,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# construction


def test_scalars_promote_to_1x1():
    sys1 = DelayPHSystem(H=1.0, J=0.0, R=2.0, Z=1.0, G=1.0, tau=1.0)
    assert sys1.H.shape == (1, 1)
    assert sys1.n == 1 and sys1.m == 1
    assert sys1.tau == 1.0 and isinstance(sys1.tau, float)


def test_matrices_are_read_only():
    sys1 = scalar_example()
    with pytest.raises(ValueError):
        sys1.H[0, 0] = 5.0
    lti = StandardLTISystem(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
    with pytest.raises(ValueError):
        lti.A[0, 0] = 3.0


def test_systems_and_histories_copy_the_callers_arrays():
    h = np.eye(1)
    sys1 = DelayPHSystem(H=h, J=0.0, R=1.0, Z=0.0, G=1.0, tau=1.0)
    h[0, 0] = 5.0  # the caller's array stays writable
    assert sys1.H[0, 0] == 1.0

    base = np.eye(2)
    sys2 = StandardPHSystem(H=base[:, :], J=np.zeros((2, 2)), R=np.eye(2),
                            G=np.ones((2, 1)))
    base[0, 0] = -7.0  # a write through the view does not reach the system
    assert sys2.H[0, 0] == 1.0 and validate(sys2) == []
    # a system's own read-only matrices are shared, not copied again
    assert StandardPHSystem(sys2.H, sys2.J, sys2.R, sys2.G).H is sys2.H

    g = np.array([-1.0, 0.0])
    x = np.ones((1, 2))
    hist = HistoryFunction(g, x)
    g[0] = 5.0
    x[0, 0] = 3.0
    np.testing.assert_array_equal(hist.grid, [-1.0, 0.0])
    np.testing.assert_array_equal(hist.values, [[1.0, 1.0]])
    with pytest.raises(ValueError):
        hist.grid[0] = 5.0


def test_non_finite_entries_rejected_at_construction():
    with pytest.raises(ValueError, match="non-finite"):
        DelayPHSystem(H=[[np.nan]], J=0.0, R=1.0, Z=0.0, G=1.0, tau=1.0)
    for tau in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="tau must be finite"):
            DelayPHSystem(H=1.0, J=0.0, R=1.0, Z=0.0, G=1.0, tau=tau)
        with pytest.raises(ValueError, match="tau must be finite"):
            GeneralDelaySystem(A0=-1.0, A1=0.0, B=1.0, C=1.0, tau=tau)


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_on_certified_instances():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        assert validate(rand_certified_delay_ph(rng, n)) == []


def test_validate_flags_indefinite_h():
    sys1 = DelayPHSystem(H=np.diag([1.0, -1.0]), J=np.zeros((2, 2)),
                         R=np.eye(2), Z=np.zeros((2, 2)), G=np.ones((2, 1)),
                         tau=1.0)
    msgs = validate(sys1)
    assert any("H is not positive definite" in m for m in msgs)


def test_validate_accepts_a_tiny_positive_definite_h():
    # the PSD slack is relative to H, so H = 1e-10 I is positive definite
    sys1 = DelayPHSystem(H=1e-10 * np.eye(2), J=np.zeros((2, 2)),
                         R=np.eye(2), Z=np.zeros((2, 2)), G=np.ones((2, 1)),
                         tau=1.0)
    assert validate(sys1) == []


def test_validate_accepts_the_largest_positive_definite_h():
    # forming sym(H) must not overflow: 0.5 * (H + H^T) is inf here
    sys1 = DelayPHSystem(H=[[1e308]], J=[[0.0]], R=[[1.0]], Z=[[0.0]],
                         G=[[1.0]], tau=1.0, theta=[[1e308]])
    assert validate(sys1) == []


def test_validate_flags_non_antisymmetric_j():
    sys1 = DelayPHSystem(H=np.eye(2), J=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         R=np.eye(2), Z=np.zeros((2, 2)), G=np.ones((2, 1)),
                         tau=1.0)
    msgs = validate(sys1)
    assert any("J is not antisymmetric" in m for m in msgs)


def test_validate_allows_indefinite_r_for_delay_kind():
    # the delay form only requires R symmetric; definiteness is what the
    # certificate decides
    sys1 = DelayPHSystem(H=np.eye(2), J=np.zeros((2, 2)),
                         R=np.diag([1.0, -1.0]), Z=np.zeros((2, 2)),
                         G=np.ones((2, 1)), tau=1.0)
    assert validate(sys1) == []


def test_validate_flags_asymmetric_r():
    sys1 = DelayPHSystem(H=np.eye(2), J=np.zeros((2, 2)),
                         R=np.array([[1.0, 0.3], [0.0, 1.0]]),
                         Z=np.zeros((2, 2)), G=np.ones((2, 1)), tau=1.0)
    assert any("R is not symmetric" in m for m in validate(sys1))


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-13])
def test_validate_symmetry_checks_do_not_depend_on_units(c):
    sys1 = DelayPHSystem(H=np.eye(2), J=c * np.array([[0.0, 1.0], [0.0, 0.0]]),
                         R=c * np.array([[1.0, 1.0], [0.0, 1.0]]),
                         Z=np.zeros((2, 2)), G=np.ones((2, 1)), tau=1.0)
    msgs = validate(sys1)
    assert any("R is not symmetric" in m for m in msgs)
    assert any("J is not antisymmetric" in m for m in msgs)


def test_validate_flags_standard_ph_indefinite_r():
    sys1 = StandardPHSystem(H=np.eye(2), J=np.zeros((2, 2)),
                            R=np.diag([1.0, -0.1]), G=np.ones((2, 1)))
    assert any("R is not positive semidefinite" in m for m in validate(sys1))


def test_validate_flags_bad_theta_and_tau():
    sys1 = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[1.0]], Z=[[0.0]],
                         G=[[1.0]], tau=0.0, theta=[[-1.0]])
    msgs = validate(sys1)
    assert any("theta is not positive semidefinite" in m for m in msgs)
    assert any("tau must be positive" in m for m in msgs)


def test_validate_names_an_asymmetric_theta_once():
    """An asymmetric theta is reported as such, and not tested for PSD."""
    sys1 = DelayPHSystem(H=np.eye(2), J=np.zeros((2, 2)), R=np.eye(2),
                         Z=np.zeros((2, 2)), G=np.ones((2, 1)), tau=1.0,
                         theta=[[1.0, 5.0], [0.0, 1.0]])
    msgs = validate(sys1)
    assert len(msgs) == 1
    assert msgs[0].startswith("theta is not symmetric (relative asymmetry ")


def test_validate_words_a_symmetry_fault_as_require_symmetric_does():
    """One message for one fault: validate records require_symmetric's,
    bound included."""
    r = [[1.0, 1.0], [0.0, 1.0]]
    sys1 = DelayPHSystem(H=np.eye(2), J=np.zeros((2, 2)), R=r,
                         Z=np.zeros((2, 2)), G=np.ones((2, 1)), tau=1.0)
    with pytest.raises(ValueError) as info:
        require_symmetric(np.array(r), "R")
    assert validate(sys1) == [str(info.value)]
    assert str(info.value) == "R is not symmetric (relative asymmetry 8.165e-01 > 1e-12)"


def test_validate_flags_shape_mismatch():
    sys1 = DelayPHSystem(H=np.zeros((2, 3)), J=np.zeros((2, 2)),
                         R=np.eye(2), Z=np.zeros((2, 2)), G=np.ones((2, 1)),
                         tau=1.0)
    assert any("H has shape" in m for m in validate(sys1))


def test_validate_rejects_an_object_that_is_no_system():
    with pytest.raises(TypeError, match="not a system type: object"):
        validate(object())


# ---------------------------------------------------------------------------
# history functions


def test_history_constant():
    hist = HistoryFunction.constant([1.0, -2.0], tau=0.5)
    assert hist.n == 2
    assert hist.span == 0.5
    np.testing.assert_array_equal(hist.sample_at([-0.5, -0.25, 0.0]),
                                  [[1.0, 1.0, 1.0], [-2.0, -2.0, -2.0]])


def test_history_linear_interpolation():
    hist = HistoryFunction(grid=[-1.0, 0.0], values=[[0.0, 1.0]])
    np.testing.assert_allclose(hist.sample_at([-0.75, -0.5, -0.25]),
                               [[0.25, 0.5, 0.75]])


def test_history_grid_validation():
    with pytest.raises(ValueError, match="end at 0"):
        HistoryFunction(grid=[-1.0, -0.5], values=[[1.0, 1.0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        HistoryFunction(grid=[0.0, -1.0], values=[[1.0, 1.0]])
    with pytest.raises(ValueError, match="at least two"):
        HistoryFunction(grid=[0.0], values=[[1.0]])
    with pytest.raises(ValueError, match="columns"):
        HistoryFunction(grid=[-1.0, 0.0], values=[[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="history grid contains non-finite entries"):
        HistoryFunction(grid=[-np.inf, 0.0], values=[[1.0, 1.0]])


# ---------------------------------------------------------------------------
# conversions


def test_delay_ph_to_general_solves_h():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sys1 = rand_certified_delay_ph(rng, 3)
        gen = delay_ph_to_general(sys1)
        np.testing.assert_allclose(sys1.H @ gen.A0, sys1.J - sys1.R, atol=1e-12)
        np.testing.assert_allclose(sys1.H @ gen.A1, -sys1.Z, atol=1e-12)
        np.testing.assert_allclose(sys1.H @ gen.B, sys1.G, atol=1e-12)
        np.testing.assert_array_equal(gen.C, sys1.G.T)
        assert gen.tau == sys1.tau


def test_general_round_trip_recovers_structure():
    """H A0 = J - R splits back into J and R; H A1 = -Z, H B = G, C = G^T."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        sys1 = rand_certified_delay_ph(rng, 4, m=2)
        gen = delay_ph_to_general(sys1)
        ha0 = sys1.H @ gen.A0
        np.testing.assert_allclose(skew_part(ha0), sys1.J, atol=1e-10)
        np.testing.assert_allclose(-sym_part(ha0), sys1.R, atol=1e-10)
        np.testing.assert_allclose(-(sys1.H @ gen.A1), sys1.Z, atol=1e-10)
        np.testing.assert_allclose(sys1.H @ gen.B, sys1.G, atol=1e-10)
        np.testing.assert_array_equal(gen.C, sys1.G.T)


# ---------------------------------------------------------------------------
# JSON round trips


def test_write_read_round_trip_is_canonical():
    sys1 = scalar_example(theta=[[1.0]])
    text = write_system(sys1)
    again = read_system(text)
    assert write_system(again) == text
    np.testing.assert_array_equal(again.theta, sys1.theta)
    # canonical form sorts keys
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


def test_write_preserves_17_digit_reals():
    value = 1.0 / 3.0
    sys1 = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[value]], Z=[[0.0]],
                         G=[[1.0]], tau=1.0)
    again = read_system(write_system(sys1))
    assert float(again.R[0, 0]) == value


def test_write_uses_shortest_round_trip_reals():
    sys1 = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[0.1]], Z=[[0.0]],
                         G=[[1.0]], tau=0.1)
    text = write_system(sys1)
    assert '"R": [[0.1]]' in text and '"tau": 0.1' in text
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_write_read_round_trip_is_bit_exact_at_the_float_extremes():
    g = [[-0.0, 5e-324, 1e308, 1.0 / 3.0]]
    sys1 = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[1.0]], Z=[[0.0]], G=g,
                         tau=1.0)
    again = read_system(write_system(sys1))
    assert again.G.tobytes() == np.array(g).tobytes()
    assert np.signbit(again.G[0, 0])


def test_save_and_read_file(tmp_path):
    path = tmp_path / "sys.json"
    sys1 = scalar_example()
    save_system(sys1, path)
    again = read_system(path)
    assert isinstance(again, DelayPHSystem)
    np.testing.assert_array_equal(again.R, sys1.R)


def test_read_prefers_an_existing_file_named_like_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sys1 = scalar_example()
    save_system(sys1, "{a}.json")
    np.testing.assert_array_equal(read_system("{a}.json").R, sys1.R)
    np.testing.assert_array_equal(read_system(pathlib.Path("{a}.json")).R, sys1.R)
    # a string that names no file is still read as JSON text
    with pytest.raises(SystemFormatError, match="malformed JSON"):
        read_system("{b}.json")


def test_fixture_document_matches_constants():
    sys1 = read_system(DATA / "mass_spring_damper.json")
    assert isinstance(sys1, StandardPHSystem)
    np.testing.assert_array_equal(sys1.H, np.eye(2))
    np.testing.assert_array_equal(sys1.J, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(sys1.R, np.diag([0.0, 0.5]))
    np.testing.assert_array_equal(sys1.G, [[0.0], [1.0]])


def test_read_rejects_schema_problems(tmp_path):
    base = {"kind": "delay_ph", "n": 1, "m": 1, "tau": 1.0, "H": [[1.0]],
            "J": [[0.0]], "R": [[2.0]], "Z": [[1.0]], "G": [[1.0]]}

    bad = dict(base, extra=1)
    with pytest.raises(SystemFormatError, match="unknown keys"):
        read_system(json.dumps(bad))

    bad = {k: v for k, v in base.items() if k != "R"}
    with pytest.raises(SystemFormatError, match="missing keys"):
        read_system(json.dumps(bad))

    bad = dict(base, kind="other")
    with pytest.raises(SystemFormatError, match="kind"):
        read_system(json.dumps(bad))

    bad = dict(base, H=[[1.0, 0.0]])
    with pytest.raises(SystemFormatError, match="shape"):
        read_system(json.dumps(bad))

    bad = dict(base, H=[[1.0], [2.0, 3.0]])
    with pytest.raises(SystemFormatError, match='"H"'):
        read_system(json.dumps(bad))

    bad = dict(base, n=1.5)
    with pytest.raises(SystemFormatError, match='"n"'):
        read_system(json.dumps(bad))

    bad = dict(base, tau="soon")
    with pytest.raises(SystemFormatError, match='"tau"'):
        read_system(json.dumps(bad))

    for tau in (float("inf"), float("-inf"), float("nan"), 10**400):
        bad = dict(base, tau=tau)  # json.dumps writes Infinity / NaN
        with pytest.raises(SystemFormatError, match='"tau" must be finite'):
            read_system(json.dumps(bad))

    bad = dict(base, tau=0.0)  # finite but not positive: a validation error
    with pytest.raises(SystemValidationError, match="tau must be positive, got 0.0"):
        read_system(json.dumps(bad))

    with pytest.raises(SystemFormatError, match="malformed JSON"):
        read_system("{not json")

    bad = dict(base, H=5)
    with pytest.raises(SystemFormatError, match='^"H" must be an array of row arrays$'):
        read_system(json.dumps(bad))

    bad = dict(base, H=[[10**400]])  # overflows the conversion to float
    with pytest.raises(SystemFormatError, match='^"H" contains non-finite entries$'):
        read_system(json.dumps(bad))

    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(SystemFormatError, match="^system document must be a JSON object$"):
        read_system(path)

    with pytest.raises(TypeError, match="source must be a path or JSON text"):
        read_system(42)


def test_read_turns_too_deep_nesting_into_a_format_error(tmp_path):
    """JSON nested beyond the parser's recursion limit is malformed input,
    not a RecursionError."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(SystemFormatError, match="^malformed JSON: "):
        read_system(path)
    with pytest.raises(SystemFormatError, match="^malformed JSON: "):
        read_system('{"kind": ' + "[" * 200_000 + "]" * 200_000 + "}")


def test_read_rejects_non_finite_entries():
    text = ('{"kind": "standard_lti", "n": 1, "m": 1, '
            '"A": [[Infinity]], "B": [[1.0]], "C": [[1.0]]}')
    with pytest.raises(SystemFormatError, match="non-finite"):
        read_system(text)


def test_read_validates_invariants():
    doc = {"kind": "delay_ph", "n": 1, "m": 1, "tau": 1.0, "H": [[-1.0]],
           "J": [[0.0]], "R": [[2.0]], "Z": [[1.0]], "G": [[1.0]]}
    with pytest.raises(SystemValidationError) as err:
        read_system(json.dumps(doc))
    assert any("H is not positive definite" in v for v in err.value.violations)
    # the parser alone returns the object anyway, for diagnostics
    sys1 = _system_from_text(json.dumps(doc))
    assert isinstance(sys1, DelayPHSystem)


def test_read_all_kinds(tmp_path):
    docs = {
        "standard_lti": {"kind": "standard_lti", "n": 1, "m": 1,
                         "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
        "standard_ph": {"kind": "standard_ph", "n": 1, "m": 1, "H": [[1.0]],
                        "J": [[0.0]], "R": [[1.0]], "G": [[1.0]]},
        "general_delay": {"kind": "general_delay", "n": 1, "m": 1,
                          "tau": 2.0, "A0": [[-1.0]], "A1": [[-0.5]],
                          "B": [[1.0]], "C": [[1.0]]},
    }
    expected = {
        "standard_lti": StandardLTISystem,
        "standard_ph": StandardPHSystem,
        "general_delay": GeneralDelaySystem,
    }
    for kind, doc in docs.items():
        sys1 = read_system(json.dumps(doc))
        assert isinstance(sys1, expected[kind])
        assert write_system(sys1) == write_system(read_system(write_system(sys1)))
