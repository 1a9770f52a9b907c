"""System data types, validation, and JSON (de)serialization.

Four system classes are supported, mirrored by a JSON document format with
a top-level ``"kind"`` discriminator:

    standard_lti    {"kind", "n", "m", "A", "B", "C"}
    standard_ph     {"kind", "n", "m", "H", "J", "R", "G"}
    general_delay   {"kind", "n", "m", "tau", "A0", "A1", "B", "C"}
    delay_ph        {"kind", "n", "m", "tau", "H", "J", "R", "Z", "G"}
                    plus an optional "theta"

Matrices are arrays of row arrays.  Unknown keys are rejected.  The writer
emits a canonical form: keys sorted, reals with 17 significant digits, so
write/read round-trips are bit-faithful and documents diff cleanly.

Conventions for the delay port-Hamiltonian form: the state equation is
``H x'(t) = (J - R) x(t) - Z x(t - tau) + G u(t)`` with output
``y = G^T x``, Hamiltonian ``(1/2) x^T H x`` plus the delay-energy term
``integral over [t-tau, t] of x^T Theta x``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    SYMMETRY_RTOL,
    Tolerance,
    as_matrix,
    asymmetry,
    output_residual,
    psd_report_symmetric,
    skew_part,
    sym_part,
)

__all__ = [
    "DelayPHSystem",
    "GeneralDelaySystem",
    "HistoryFunction",
    "OutputMismatchError",
    "StandardLTISystem",
    "StandardPHSystem",
    "SystemFormatError",
    "SystemValidationError",
    "delay_ph_to_general",
    "general_to_delay_ph",
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


class OutputMismatchError(ValueError):
    """Raised when C != B^T H prevents a port-Hamiltonian reading."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(
            f"output matrix does not match B^T H (residual norm {residual:.3e})"
        )


def _freeze(obj, name, value):
    arr = as_matrix(value, name)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class StandardLTISystem:
    """x' = A x + B u,  y = C x."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C"):
            _freeze(self, name, getattr(self, name))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class StandardPHSystem:
    """H x' = (J - R) x + G u,  y = G^T x, with Hamiltonian (1/2) x^T H x."""

    H: np.ndarray
    J: np.ndarray
    R: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        for name in ("H", "J", "R", "G"):
            _freeze(self, name, getattr(self, name))

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class GeneralDelaySystem:
    """x'(t) = A0 x(t) + A1 x(t - tau) + B u(t),  y = C x(t)."""

    A0: np.ndarray
    A1: np.ndarray
    B: np.ndarray
    C: np.ndarray
    tau: float

    def __post_init__(self):
        for name in ("A0", "A1", "B", "C"):
            _freeze(self, name, getattr(self, name))
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def n(self) -> int:
        return self.A0.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class DelayPHSystem:
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

    def __post_init__(self):
        for name in ("H", "J", "R", "Z", "G"):
            _freeze(self, name, getattr(self, name))
        if self.theta is not None:
            _freeze(self, "theta", self.theta)
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class HistoryFunction:
    """Sampled initial history on [-tau, 0], interpolated linearly.

    ``grid`` is strictly increasing with grid[0] < 0 and grid[-1] = 0;
    ``values`` holds one column of the state per grid point.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).reshape(-1)
        values = as_matrix(self.values, "values")
        if grid.size < 2:
            raise ValueError("history grid needs at least two points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("history grid contains non-finite entries")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("history grid must be strictly increasing")
        if grid[-1] != 0.0:
            raise ValueError(f"history grid must end at 0, got {grid[-1]!r}")
        if grid[0] >= 0.0:
            raise ValueError("history grid must start at a negative time")
        if values.shape[1] != grid.size:
            raise ValueError(
                f"values has {values.shape[1]} columns for {grid.size} grid points"
            )
        grid.setflags(write=False)
        values.setflags(write=False)
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
    use the tolerance policy.
    """
    v: list[str] = []
    if isinstance(system, StandardLTISystem):
        n, m = system.n, system.m
        _check_shape(v, "A", system.A, (n, n))
        _check_shape(v, "B", system.B, (n, m))
        _check_shape(v, "C", system.C, (m, n))
        return v
    if isinstance(system, StandardPHSystem):
        n, m = system.n, system.m
        ok = _check_shape(v, "H", system.H, (n, n))
        ok &= _check_shape(v, "J", system.J, (n, n))
        ok &= _check_shape(v, "R", system.R, (n, n))
        _check_shape(v, "G", system.G, (n, m))
        if ok:
            _check_energy_matrices(v, system.H, system.J, tol)
            _check_psd_field(v, "R", system.R, tol)
        return v
    if isinstance(system, GeneralDelaySystem):
        n, m = system.n, system.m
        _check_shape(v, "A0", system.A0, (n, n))
        _check_shape(v, "A1", system.A1, (n, n))
        _check_shape(v, "B", system.B, (n, m))
        _check_shape(v, "C", system.C, (m, n))
        if not system.tau > 0.0:
            v.append(f"tau must be positive, got {system.tau}")
        return v
    if isinstance(system, DelayPHSystem):
        n, m = system.n, system.m
        ok = _check_shape(v, "H", system.H, (n, n))
        ok &= _check_shape(v, "J", system.J, (n, n))
        _check_shape(v, "R", system.R, (n, n))
        _check_shape(v, "Z", system.Z, (n, n))
        _check_shape(v, "G", system.G, (n, m))
        if ok:
            _check_energy_matrices(v, system.H, system.J, tol)
        if system.R.shape == (n, n) and asymmetry(system.R) > SYMMETRY_RTOL:
            v.append(f"R is not symmetric (relative asymmetry {asymmetry(system.R):.3e})")
        if system.theta is not None:
            if _check_shape(v, "theta", system.theta, (n, n)):
                _check_psd_field(v, "theta", system.theta, tol)
        if not system.tau > 0.0:
            v.append(f"tau must be positive, got {system.tau}")
        return v
    raise TypeError(f"not a system type: {type(system).__name__}")


def _antisym_deviation(mat) -> float:
    """Relative size ||M + M^T|| / (1 + ||M||) of the symmetric residue."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat + mat.T) / (1.0 + np.linalg.norm(mat)))


def _check_energy_matrices(violations, h, j, tol):
    a = asymmetry(h)
    if a > SYMMETRY_RTOL:
        violations.append(f"H is not symmetric (relative asymmetry {a:.3e})")
    else:
        report = psd_report_symmetric(0.5 * (h + h.T), tol)
        if report.min_eigenvalue <= report.slack:
            violations.append(
                f"H is not positive definite (min eigenvalue {report.min_eigenvalue:.6g})"
            )
    dev = _antisym_deviation(j)
    if dev > SYMMETRY_RTOL:
        violations.append(f"J is not antisymmetric (relative deviation {dev:.3e})")


def _check_psd_field(violations, name, mat, tol):
    a = asymmetry(mat)
    if a > SYMMETRY_RTOL:
        violations.append(f"{name} is not symmetric (relative asymmetry {a:.3e})")
        return
    report = psd_report_symmetric(0.5 * (mat + mat.T), tol)
    if not report.is_psd:
        violations.append(
            f"{name} is not positive semidefinite (min eigenvalue "
            f"{report.min_eigenvalue:.6g})"
        )


# ---------------------------------------------------------------------------
# conversions


def delay_ph_to_general(system: DelayPHSystem) -> GeneralDelaySystem:
    """Inflate the port-Hamiltonian form by H^{-1}.

    A0 = H^{-1}(J - R), A1 = -H^{-1} Z, B = H^{-1} G, C = G^T.
    """
    h = system.H
    a0 = np.linalg.solve(h, system.J - system.R)
    a1 = -np.linalg.solve(h, system.Z)
    b = np.linalg.solve(h, system.G)
    return GeneralDelaySystem(a0, a1, b, system.G.T.copy(), system.tau)


def general_to_delay_ph(
    system: GeneralDelaySystem,
    H,
    theta=None,
    tol: Tolerance = DEFAULT_TOL,
) -> DelayPHSystem:
    """Read a general delay system as port-Hamiltonian with energy matrix H.

    Sets J = skew(H A0), R = -sym(H A0), Z = -H A1, G = H B and requires
    the output matrix to satisfy C = B^T H within rank_tol * ||C||
    (OutputMismatchError otherwise, carrying the residual norm).
    """
    h = as_matrix(H, "H")
    residual, holds = output_residual(system.C, system.B, h, tol)
    if not holds:
        raise OutputMismatchError(residual)
    ha0 = h @ system.A0
    return DelayPHSystem(
        H=h,
        J=skew_part(ha0),
        R=-sym_part(ha0),
        Z=-(h @ system.A1),
        G=h @ system.B,
        tau=system.tau,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# JSON serialization

_KIND_FIELDS = {
    "standard_lti": ("A", "B", "C"),
    "standard_ph": ("H", "J", "R", "G"),
    "general_delay": ("A0", "A1", "B", "C"),
    "delay_ph": ("H", "J", "R", "Z", "G"),
}
_DELAY_KINDS = ("general_delay", "delay_ph")


def _kind_of(system) -> str:
    if isinstance(system, StandardLTISystem):
        return "standard_lti"
    if isinstance(system, StandardPHSystem):
        return "standard_ph"
    if isinstance(system, GeneralDelaySystem):
        return "general_delay"
    if isinstance(system, DelayPHSystem):
        return "delay_ph"
    raise TypeError(f"not a system type: {type(system).__name__}")


def _matrix_rows(key, value, n_rows=None, n_cols=None):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SystemFormatError(f'"{key}" must be an array of row arrays')
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SystemFormatError(f'"{key}" has non-numeric entries: {exc}') from None
    if arr.ndim != 2:
        raise SystemFormatError(f'"{key}" rows have inconsistent lengths')
    if not np.all(np.isfinite(arr)):
        raise SystemFormatError(f'"{key}" contains non-finite entries')
    if n_rows is not None and arr.shape != (n_rows, n_cols):
        raise SystemFormatError(
            f'"{key}" has shape {arr.shape}, expected ({n_rows}, {n_cols})'
        )
    return arr


def _parse_document(doc: dict):
    if not isinstance(doc, dict):
        raise SystemFormatError("system document must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KIND_FIELDS:
        raise SystemFormatError(
            f'"kind" must be one of {sorted(_KIND_FIELDS)}, got {kind!r}'
        )
    expected = {"kind", "n", "m", *_KIND_FIELDS[kind]}
    if kind in _DELAY_KINDS:
        expected.add("tau")
    if kind == "delay_ph":
        expected.add("theta")  # optional
    unknown = set(doc) - expected
    if unknown:
        raise SystemFormatError(f"unknown keys: {sorted(unknown)}")
    required = expected - {"theta"}
    missing = required - set(doc)
    if missing:
        raise SystemFormatError(f"missing keys: {sorted(missing)}")
    n, m = doc["n"], doc["m"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SystemFormatError(f'"n" must be a nonnegative integer, got {n!r}')
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise SystemFormatError(f'"m" must be a nonnegative integer, got {m!r}')

    shapes = {
        "A": (n, n), "A0": (n, n), "A1": (n, n), "H": (n, n), "J": (n, n),
        "R": (n, n), "Z": (n, n), "B": (n, m), "G": (n, m), "C": (m, n),
        "theta": (n, n),
    }
    mats = {
        key: _matrix_rows(key, doc[key], *shapes[key])
        for key in _KIND_FIELDS[kind]
    }
    if kind in _DELAY_KINDS:
        tau = doc["tau"]
        if not isinstance(tau, (int, float)) or isinstance(tau, bool):
            raise SystemFormatError(f'"tau" must be a number, got {tau!r}')
        tau = float(tau)
    if kind == "standard_lti":
        return StandardLTISystem(mats["A"], mats["B"], mats["C"])
    if kind == "standard_ph":
        return StandardPHSystem(mats["H"], mats["J"], mats["R"], mats["G"])
    if kind == "general_delay":
        return GeneralDelaySystem(mats["A0"], mats["A1"], mats["B"], mats["C"], tau)
    theta = None
    if doc.get("theta") is not None:
        theta = _matrix_rows("theta", doc["theta"], n, n)
    return DelayPHSystem(
        mats["H"], mats["J"], mats["R"], mats["Z"], mats["G"], tau, theta
    )


def read_system(source, tol: Tolerance = DEFAULT_TOL, validated: bool = True):
    """Parse and validate a system from a JSON document.

    ``source`` is either a path or the JSON text itself (anything whose
    first non-space character is "{" is treated as text).  Schema problems
    raise SystemFormatError; invariant violations are collected and raised
    together as SystemValidationError.  Pass ``validated=False`` to get the
    parsed object back even when its invariants fail, e.g. for diagnostics.
    """
    if isinstance(source, (str, os.PathLike)):
        text = str(source)
        if not text.lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    else:
        raise TypeError("source must be a path or JSON text")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"malformed JSON: {exc}") from None
    system = _parse_document(doc)
    if validated:
        violations = validate(system, tol)
        if violations:
            raise SystemValidationError(violations)
    return system


def _fmt_real(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _canonical(value) -> str:
    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(k)}: {_canonical(value[k])}" for k in sorted(value)
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical(v) for v in value) + "]"
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_real(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_system(system) -> str:
    """Serialize to the canonical JSON form (sorted keys, 17-digit reals)."""
    kind = _kind_of(system)
    doc: dict = {"kind": kind, "n": system.n, "m": system.m}
    for key in _KIND_FIELDS[kind]:
        doc[key] = [[float(v) for v in row] for row in getattr(system, key)]
    if kind in _DELAY_KINDS:
        doc["tau"] = float(system.tau)
    if kind == "delay_ph" and system.theta is not None:
        doc["theta"] = [[float(v) for v in row] for row in system.theta]
    return _canonical(doc) + "\n"


def save_system(system, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_system(system))
