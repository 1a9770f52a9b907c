"""Shared certificate record for the certification routines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PsdReport
from .systems import _rows

__all__ = ["CERTIFIED", "REFUTED", "INCONCLUSIVE", "Certificate"]

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Certificate:
    """Verdict plus the evidence that produced it.

    For a CERTIFIED verdict ``min_eigenvalue`` is the smallest eigenvalue of
    the tested condition matrix (>= -slack) and ``witness`` is None; for
    REFUTED the ``witness`` vector exhibits a negative quadratic form on
    ``condition_matrix`` (or on the matrix named by ``reason``).  Only a
    refutation by an output mismatch carries no witness.
    """

    verdict: str
    condition_matrix: np.ndarray | None = None
    min_eigenvalue: float | None = None
    witness: np.ndarray | None = None
    theta_used: np.ndarray | None = None
    reason: str = ""
    slack: float | None = None

    @classmethod
    def from_report(
        cls,
        report: PsdReport,
        condition_matrix: np.ndarray,
        reason: str,
        theta_used: np.ndarray | None = None,
        mismatch: str = "",
    ) -> Certificate:
        """Certificate for the PSD test ``report`` of ``condition_matrix``.

        CERTIFIED iff the report is PSD and ``mismatch`` (the reason of a
        failed output condition) is empty.  A refutation is explained by
        ``mismatch`` when given, otherwise by ``reason``.
        """
        certified = report.is_psd and not mismatch
        return cls(
            verdict=CERTIFIED if certified else REFUTED,
            condition_matrix=condition_matrix,
            min_eigenvalue=report.min_eigenvalue,
            witness=None if mismatch else report.witness,
            theta_used=theta_used,
            reason=mismatch or ("" if certified else reason),
            slack=report.slack,
        )

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_dict(self) -> dict:
        """JSON-ready summary (verdict, min eigenvalue, witness, theta, reason)."""
        return {
            "verdict": self.verdict,
            "min_eigenvalue": self.min_eigenvalue,
            "witness": None if self.witness is None else [float(w) for w in self.witness],
            "theta": None if self.theta_used is None else _rows(self.theta_used),
            "reason": self.reason,
        }
