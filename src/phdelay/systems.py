"""System data types, validation, and JSON (de)serialization.

Four system classes are supported, mirrored by a JSON document format with
a top-level ``"kind"`` discriminator:

    standard_lti    {"kind", "n", "m", "A", "B", "C"}
    standard_ph     {"kind", "n", "m", "H", "J", "R", "G"}
    general_delay   {"kind", "n", "m", "tau", "A0", "A1", "B", "C"}
    delay_ph        {"kind", "n", "m", "tau", "H", "J", "R", "Z", "G"}
                    plus an optional "theta"

Matrices are arrays of row arrays of numbers; ``tau`` is a finite
positive number.  Unknown keys are rejected.  The writer emits a canonical
form: ``json.dumps`` with keys sorted, and each real as Python's shortest
repr that reads back to the same float, so write/read round-trips are
bit-faithful and documents diff cleanly.

The schema lives in one private table, ``_SCHEMA`` (kind -> class, matrix
fields, port field), with ``_SHAPES`` giving each field's shape in terms of
n and m.  Construction, ``validate``, ``read_system`` and ``write_system``
all read it.

Conventions for the delay port-Hamiltonian form: the state equation is
``H x'(t) = (J - R) x(t) - Z x(t - tau) + G u(t)`` with output
``y = G^T x``, Hamiltonian ``(1/2) x^T H x`` plus the delay-energy term
``integral over [t-tau, t] of x^T Theta x``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    SYMMETRY_RTOL,
    Tolerance,
    _frozen,
    _memo,
    _positive_definite,
    _psd_report_blocks,
    _relative_norm,
    as_matrix,
    require_symmetric,
    sym_part,
)

__all__ = [
    "DelayPHSystem",
    "GeneralDelaySystem",
    "HistoryFunction",
    "StandardLTISystem",
    "StandardPHSystem",
    "SystemFormatError",
    "SystemValidationError",
    "delay_ph_to_general",
    "read_system",
    "save_system",
    "validate",
    "write_system",
]


class SystemFormatError(ValueError):
    """Raised for malformed system documents (schema-level problems)."""


class SystemValidationError(ValueError):
    """Raised when a parsed system violates its type invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _freeze(obj, name, value):
    object.__setattr__(obj, name, _frozen(as_matrix(value, name)))


def _by_constructor(obj):
    """``__reduce__`` that rebuilds ``obj`` from its fields, so a pickled
    or copied object is frozen again by its own ``__post_init__``."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


class _System:
    """Construction shared by the four kinds; their fields are in ``_SCHEMA``.

    Matrices (and a given ``theta``) become immutable float arrays (see
    ``linalg._frozen``): no write to the caller's array, or to an array it
    views, can reach the system, nor any write to a pickled or copied one.
    ``tau`` becomes a finite float.  ``_cache`` holds what
    ``linalg._memo`` computed from the system; a copy starts empty.
    A system, like every record that holds an array, compares and hashes
    by identity, so a copy is a different object; the records of plain
    values, such as ``Tolerance``, compare by value.
    """

    __reduce__ = _by_constructor

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        for name in _schema_of(self)[1]:
            _freeze(self, name, getattr(self, name))
        if getattr(self, "theta", None) is not None:
            _freeze(self, "theta", self.theta)
        if hasattr(self, "tau"):
            tau = float(self.tau)
            if not math.isfinite(tau):
                raise ValueError(f"tau must be finite, got {tau!r}")
            object.__setattr__(self, "tau", tau)

    @property
    def n(self) -> int:
        return getattr(self, _schema_of(self)[1][0]).shape[0]

    @property
    def m(self) -> int:
        return getattr(self, _schema_of(self)[2]).shape[1]


@dataclass(frozen=True, eq=False)
class StandardLTISystem(_System):
    """x' = A x + B u,  y = C x."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


@dataclass(frozen=True, eq=False)
class StandardPHSystem(_System):
    """H x' = (J - R) x + G u,  y = G^T x, with Hamiltonian (1/2) x^T H x."""

    H: np.ndarray
    J: np.ndarray
    R: np.ndarray
    G: np.ndarray


@dataclass(frozen=True, eq=False)
class GeneralDelaySystem(_System):
    """x'(t) = A0 x(t) + A1 x(t - tau) + B u(t),  y = C x(t)."""

    A0: np.ndarray
    A1: np.ndarray
    B: np.ndarray
    C: np.ndarray
    tau: float


@dataclass(frozen=True, eq=False)
class DelayPHSystem(_System):
    """H x'(t) = (J - R) x(t) - Z x(t - tau) + G u(t),  y = G^T x(t).

    ``theta`` optionally stores the delay-energy weight of the
    Lyapunov-Krasovskii Hamiltonian; certification routines may also take
    it as an explicit argument, which then wins.
    """

    H: np.ndarray
    J: np.ndarray
    R: np.ndarray
    Z: np.ndarray
    G: np.ndarray
    tau: float
    theta: np.ndarray | None = None


#: kind -> (class, matrix fields in document order, port field).  ``n`` is
#: the row count of the first field, ``m`` the column count of the port
#: field; the scalar ``tau`` and the optional ``theta`` are the class's
#: remaining dataclass fields.
_SCHEMA = {
    "standard_lti": (StandardLTISystem, ("A", "B", "C"), "B"),
    "standard_ph": (StandardPHSystem, ("H", "J", "R", "G"), "G"),
    "general_delay": (GeneralDelaySystem, ("A0", "A1", "B", "C"), "B"),
    "delay_ph": (DelayPHSystem, ("H", "J", "R", "Z", "G"), "G"),
}
#: the same rows by class, as (kind, matrix fields, port field)
_BY_CLASS = {
    cls: (kind, fields, port) for kind, (cls, fields, port) in _SCHEMA.items()
}

#: each matrix field's shape, as (rows, columns) in terms of n and m
_SHAPES = {
    **dict.fromkeys(("A", "A0", "A1", "H", "J", "R", "Z", "theta"), "nn"),
    "B": "nm",
    "G": "nm",
    "C": "mn",
}



def _schema_of(system) -> tuple[str, tuple[str, ...], str]:
    """(kind, matrix fields, port field) of a system instance."""
    try:
        return _BY_CLASS[type(system)]
    except KeyError:
        raise TypeError(f"not a system type: {type(system).__name__}") from None


def _shape(name: str, n: int, m: int) -> tuple[int, int]:
    rows, cols = _SHAPES[name]
    return (n if rows == "n" else m), (n if cols == "n" else m)


@dataclass(frozen=True, eq=False)
class HistoryFunction:
    """Sampled initial history on [-tau, 0], interpolated linearly.

    ``grid`` has at least two points, is strictly increasing and ends at
    0, which together make grid[0] < 0; ``values`` holds one column of the
    state per grid point.  Both are immutable, in a pickled or copied
    history too.
    """

    grid: np.ndarray
    values: np.ndarray

    __reduce__ = _by_constructor

    def __post_init__(self):
        grid = _frozen(np.asarray(self.grid, dtype=float).reshape(-1))
        values = _frozen(as_matrix(self.values, "values"))
        if grid.size < 2:
            raise ValueError("history grid needs at least two points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("history grid contains non-finite entries")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("history grid must be strictly increasing")
        if grid[-1] != 0.0:
            raise ValueError(f"history grid must end at 0, got {grid[-1]!r}")
        if values.shape[1] != grid.size:
            raise ValueError(
                f"values has {values.shape[1]} columns for {grid.size} grid points"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def span(self) -> float:
        """Length of the covered interval (= -grid[0])."""
        return float(-self.grid[0])

    @classmethod
    def constant(cls, value, tau: float) -> "HistoryFunction":
        """Constant history phi(s) = value on [-tau, 0]."""
        col = np.atleast_1d(np.asarray(value, dtype=float)).reshape(-1, 1)
        return cls(np.array([-float(tau), 0.0]), np.hstack([col, col]))

    def sample_at(self, times) -> np.ndarray:
        """Linear interpolation, one column per requested time."""
        t = np.asarray(times, dtype=float).reshape(-1)
        out = np.empty((self.n, t.size))
        for i in range(self.n):
            out[i] = np.interp(t, self.grid, self.values[i])
        return out


# ---------------------------------------------------------------------------
# validation


def _check_shape(violations, name, arr, shape):
    if arr.shape != shape:
        violations.append(f"{name} has shape {arr.shape}, expected {shape}")
        return False
    return True


def validate(system, tol: Tolerance = DEFAULT_TOL) -> list[str]:
    """Collect type-invariant violations; an empty list means valid.

    Each violation names the offending field and the measured quantity.
    Dimensional consistency is checked first; spectral conditions (H
    positive definite, R / Theta positive semidefinite, J antisymmetric)
    use the tolerance policy.  A system is immutable, so its violations
    for a tolerance are stored on it (``linalg._memo``) and each call
    returns a fresh list of them.
    """
    return list(
        _memo(system, ("validate", tol), lambda: tuple(_violations(system, tol)))
    )


def _violations(system, tol: Tolerance) -> list[str]:
    kind, fields, _ = _schema_of(system)
    n, m = system.n, system.m
    v: list[str] = []
    ok = {
        name: _check_shape(v, name, getattr(system, name), _shape(name, n, m))
        for name in fields
    }
    if kind == "standard_ph" and ok["H"] and ok["J"] and ok["R"]:
        _check_energy_matrices(v, system.H, system.J, tol)
        _check_psd_field(v, "R", system.R, tol)
    if kind == "delay_ph":
        if ok["H"] and ok["J"]:
            _check_energy_matrices(v, system.H, system.J, tol)
        if ok["R"]:
            _symmetric(v, "R", system.R)
        if system.theta is not None:
            if _check_shape(v, "theta", system.theta, (n, n)):
                _check_psd_field(v, "theta", system.theta, tol)
    if hasattr(system, "tau") and not system.tau > 0.0:
        v.append(f"tau must be positive, got {system.tau}")
    return v


def _require_valid(system, tol: Tolerance):
    """``system``, once ``validate`` finds no violation under ``tol``;
    SystemValidationError carrying the violations otherwise."""
    violations = validate(system, tol)
    if violations:
        raise SystemValidationError(violations)
    return system


def _symmetric(violations, name, mat):
    """The symmetric part of square ``mat`` by ``require_symmetric``, so a
    system matrix is checked once; None, with its message recorded, when
    ``mat`` is not symmetric within ``SYMMETRY_RTOL``."""
    try:
        return require_symmetric(mat, name)
    except ValueError as exc:
        violations.append(str(exc))
        return None


def _check_energy_matrices(violations, h, j, tol):
    sym = _symmetric(violations, "H", h)
    if sym is not None and h.size:  # an empty H is positive definite
        # keyed on H, so certify_ph(..., system.H) reuses the verdict
        definite, lam = _positive_definite(sym, tol, h)
        if not definite:
            violations.append(f"H is not positive definite (min eigenvalue {lam:.6g})")
    dev = 2.0 * _relative_norm(sym_part(j), j)
    if dev > SYMMETRY_RTOL:
        violations.append(f"J is not antisymmetric (relative deviation {dev:.3e})")


def _check_psd_field(violations, name, mat, tol):
    sym = _symmetric(violations, name, mat)
    if sym is None:
        return
    report = _psd_report_blocks([sym], tol)
    if not report.is_psd:
        violations.append(
            f"{name} is not positive semidefinite (min eigenvalue "
            f"{report.min_eigenvalue:.6g})"
        )


# ---------------------------------------------------------------------------
# conversions


def delay_ph_to_general(system: DelayPHSystem) -> GeneralDelaySystem:
    """Inflate the port-Hamiltonian form by H^{-1}.

    A0 = H^{-1}(J - R), A1 = -H^{-1} Z, B = H^{-1} G, C = G^T.  The result
    is stored on ``system`` (``linalg._memo``), so every call on one system
    returns the same immutable object, with what was cached on it.
    """
    return _memo(system, "general", lambda: _inflate(system))


def _inflate(system: DelayPHSystem) -> GeneralDelaySystem:
    h = system.H
    a0 = np.linalg.solve(h, system.J - system.R)
    a1 = -np.linalg.solve(h, system.Z)
    b = np.linalg.solve(h, system.G)
    return GeneralDelaySystem(a0, a1, b, system.G.T.copy(), system.tau)


def _standard_ph_to_lti(system: StandardPHSystem) -> StandardLTISystem:
    """A = H^{-1}(J - R), B = H^{-1} G, C = G^T."""
    a = np.linalg.solve(system.H, system.J - system.R)
    b = np.linalg.solve(system.H, system.G)
    return StandardLTISystem(a, b, system.G.T.copy())


# ---------------------------------------------------------------------------
# JSON serialization

def _load_json(text: str, label: str = ""):
    """``json.loads(text)``; SystemFormatError("<label>malformed JSON: ...")
    for text that is not JSON or nests too deeply for the parser."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SystemFormatError(f"{label}malformed JSON: {exc}") from None


def _matrix_rows(key, value, n_rows=None, n_cols=None):
    """Parse an array of row arrays of numbers, checking the shape if given.

    A matrix with no rows is written ``[]``.
    """
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SystemFormatError(f'"{key}" must be an array of row arrays')
    bad = [x for r in value for x in r if type(x) not in (int, float)]
    if bad:
        raise SystemFormatError(f'"{key}" has non-numeric entries: {bad[0]!r}')
    try:
        arr = np.array(value, dtype=float)
    except ValueError:
        raise SystemFormatError(f'"{key}" rows have inconsistent lengths') from None
    except OverflowError:
        raise SystemFormatError(f'"{key}" contains non-finite entries') from None
    if not np.all(np.isfinite(arr)):
        raise SystemFormatError(f'"{key}" contains non-finite entries')
    # [] has the expected column count; its array is built once that shape
    # is known to be expected, as numpy cannot hold some (0, k) arrays
    shape = arr.shape if value else (0, n_cols or 0)
    if n_rows is not None and shape != (n_rows, n_cols):
        raise SystemFormatError(
            f'"{key}" has shape {shape}, expected ({n_rows}, {n_cols})'
        )
    try:
        return arr if value else np.zeros(shape)
    except ValueError:
        raise SystemFormatError(f'"{key}" has shape {shape}, too large to hold') from None


def _system_from_text(text: str):
    """The system a JSON document describes, parsed but not validated:
    SystemFormatError for a schema problem, and the object whatever its
    invariants, which the caller checks with ``_require_valid`` or
    ``validate``."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SystemFormatError("system document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMA:
        raise SystemFormatError(
            f'"kind" must be one of {sorted(_SCHEMA)}, got {kind!r}'
        )
    cls, names, _ = _SCHEMA[kind]
    expected = {"kind", "n", "m", *cls.__dataclass_fields__}
    unknown = set(doc) - expected
    if unknown:
        raise SystemFormatError(f"unknown keys: {sorted(unknown)}")
    missing = expected - {"theta"} - set(doc)
    if missing:
        raise SystemFormatError(f"missing keys: {sorted(missing)}")
    for key in ("n", "m"):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SystemFormatError(f'"{key}" must be a nonnegative integer, got {value!r}')
    n, m = doc["n"], doc["m"]

    kwargs = {key: _matrix_rows(key, doc[key], *_shape(key, n, m)) for key in names}
    if "tau" in expected:
        tau = doc["tau"]
        if type(tau) not in (int, float):
            raise SystemFormatError(f'"tau" must be a number, got {tau!r}')
        if not abs(tau) <= sys.float_info.max:  # also false for nan
            raise SystemFormatError(f'"tau" must be finite, got {tau!r}')
        kwargs["tau"] = tau
    if doc.get("theta") is not None:
        kwargs["theta"] = _matrix_rows("theta", doc["theta"], *_shape("theta", n, m))
    return cls(**kwargs)


def read_system(source, tol: Tolerance = DEFAULT_TOL):
    """Parse and validate a system from a JSON document.

    ``source`` is either a path or the JSON text itself: an existing file
    is read, even one named like "{a}.json", and any other string whose
    first non-space character is "{" is treated as text.  Schema problems
    raise SystemFormatError; invariant violations are collected and raised
    together as SystemValidationError (``phdelay check`` reports them
    for a document that fails them).
    """
    if not isinstance(source, (str, os.PathLike)):
        raise TypeError("source must be a path or JSON text")
    text = str(source)
    if os.path.isfile(text) or not text.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _require_valid(_system_from_text(text), tol)


def _document(system) -> dict:
    """A system in document form, the dict that ``write_system`` writes."""
    kind, names, _ = _schema_of(system)
    doc: dict = {"kind": kind, "n": system.n, "m": system.m}
    for key in names:
        doc[key] = getattr(system, key).tolist()
    if hasattr(system, "tau"):
        doc["tau"] = system.tau
    if getattr(system, "theta", None) is not None:
        doc["theta"] = system.theta.tolist()
    return doc


def write_system(system) -> str:
    """Serialize to the canonical JSON form: sorted keys, and reals in
    Python's shortest form that reads back to the same float."""
    return json.dumps(_document(system), sort_keys=True, allow_nan=False) + "\n"


def save_system(system, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_system(system))
