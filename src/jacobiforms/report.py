"""Verification reports: a claim id, a pass/fail status, and on failure a
reproducible witness (the inputs plus both sides of the failed identity)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class VerificationReport:
    claim: str
    status: str  # "pass" | "fail"
    witness: Optional[dict] = None
    params: dict = field(default_factory=dict)
    details: Optional[list] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "witness": _jsonable(self.witness),
            "params": _jsonable(self.params),
        }


def _jsonable(value: Any):
    """value with dict keys and leaves other than None, bool, int and str as strings."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)
