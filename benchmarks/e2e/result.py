"""The outcome of one workload run: ops counted, checks kept, values."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Failure reasons kept verbatim per run; the counts are never capped.
MAX_REASONS = 10


@dataclass
class Outcome:
    workload: str
    attempted: int = 0
    failed: int = 0
    #: Why ops failed / which run-level checks were violated.
    reasons: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    #: metric name -> value, as measured.
    values: Dict[str, float] = field(default_factory=dict)
    #: Latency samples behind the percentiles.
    samples: int = 0
    notes: Dict[str, object] = field(default_factory=dict)

    def attempt(self, failure: Optional[str], what: object = None) -> None:
        """Count one op; ``failure`` says why it failed, if it did."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{what}: {failure}")

    def violation(self, message: str) -> None:
        """A failed check that is not one op's (a gate on the run)."""
        self.violations.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
