"""Shared certificate record for the certification routines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PsdReport, _Lazy

__all__ = ["CERTIFIED", "REFUTED", "INCONCLUSIVE", "Certificate"]

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class Certificate:
    """Verdict plus the evidence that produced it.

    ``condition_matrix`` is the matrix the verdict tested.  For CERTIFIED
    ``min_eigenvalue`` is its least eigenvalue (>= -slack) and ``witness``
    is None; for REFUTED the ``witness`` is a unit w with w^T M w < 0 on
    M = ``condition_matrix``, or on the H or Theta that ``reason`` names.
    Only a refutation by an output mismatch carries no witness.
    The verdict and ``reason`` are set when the certificate is made; the
    evidence, ``condition_matrix``, ``min_eigenvalue``, ``witness``,
    ``theta_used`` and ``slack``, may be computed when it is first read
    (``_Lazy``).
    Each array a certificate of phdelay exposes is its own and writable: it
    shares no memory with a system matrix.  A certificate compares and
    hashes by identity, as every record that holds an array does.
    """

    verdict: str
    condition_matrix: np.ndarray | None = _Lazy(None)
    min_eigenvalue: float | None = _Lazy(None)
    witness: np.ndarray | None = _Lazy(None)
    theta_used: np.ndarray | None = _Lazy(None)
    reason: str = ""
    slack: float | None = _Lazy(None)

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
            # the evidence as stored, so what is unread stays unread
            min_eigenvalue=vars(report)["min_eigenvalue"],
            witness=None if mismatch else vars(report)["witness"],
            theta_used=theta_used,
            reason=mismatch or ("" if certified else reason),
            slack=vars(report)["slack"],
        )

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_dict(self) -> dict:
        """JSON-ready summary (verdict, min eigenvalue, witness, theta, reason,
        slack)."""
        return {
            "verdict": self.verdict,
            "min_eigenvalue": self.min_eigenvalue,
            "witness": None if self.witness is None else self.witness.tolist(),
            "theta": None if self.theta_used is None else self.theta_used.tolist(),
            "reason": self.reason,
            "slack": self.slack,
        }
