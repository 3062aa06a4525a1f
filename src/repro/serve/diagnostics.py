"""Service-level diagnostics: the honest story of what the server did.

:class:`ServiceDiagnostics` is the serving-layer sibling of
:class:`~repro.verify.diagnostics.CompilationDiagnostics`: every
degradation-ladder step, retry, admission rejection, circuit-breaker
transition and deadline timeout lands here, thread-safely, so the
``/status`` endpoint (and the chaos harness's invariant) can prove that
faults were *handled* — degraded and recorded — rather than swallowed.

A server lives long and clients drive several of these events (one
degradation per response from a degraded engine, one warning per missed
deadline), so the event records are rings of the most recent
:data:`EVENT_RING` entries next to monotonic totals: ``/status`` stays
constant-size however long the server has been up.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.verify.diagnostics import DegradationRecord

#: Most recent entries kept of each event record (``degradations``,
#: ``breaker_events``, ``warnings``); the totals count everything.
EVENT_RING = 256


class ServiceDiagnostics:
    """Thread-safe counters and structured records for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self.compile_jobs = 0
        self.compile_failures = 0
        self.inference_requests = 0
        self.inference_failures = 0
        self.retries = 0
        self.deadline_timeouts = 0
        self.rejections: Dict[str, int] = {}
        self.degradations: Deque[Dict[str, str]] = deque(maxlen=EVENT_RING)
        self.breaker_events: Deque[Dict[str, str]] = deque(
            maxlen=EVENT_RING
        )
        self.warm_start: Dict[str, object] = {}
        self.warnings: Deque[str] = deque(maxlen=EVENT_RING)
        #: Events ever recorded per ring, evicted ones included.
        self.totals: Dict[str, int] = {
            "degradations": 0, "breaker_events": 0, "warnings": 0,
        }

    # -- recording ---------------------------------------------------------

    def _push(self, ring: str, entry) -> None:
        """Append to a ring and count it; the caller holds the lock."""
        getattr(self, ring).append(entry)
        self.totals[ring] += 1

    def record_request(self, route: str) -> None:
        with self._lock:
            self.requests[route] = self.requests.get(route, 0) + 1

    def record_compile(self, ok: bool) -> None:
        with self._lock:
            self.compile_jobs += 1
            if not ok:
                self.compile_failures += 1

    def record_inference(self, ok: bool) -> None:
        with self._lock:
            self.inference_requests += 1
            if not ok:
                self.inference_failures += 1

    def record_retry(self, model: str, attempt: int, reason: str) -> None:
        with self._lock:
            self.retries += 1
            self._push("warnings", f"retry {attempt} for {model}: {reason}")

    def record_deadline_timeout(self, where: str) -> None:
        with self._lock:
            self.deadline_timeouts += 1
            self._push("warnings", f"deadline exceeded in {where}")

    def record_rejection(self, kind: str) -> None:
        """Count one admission-control rejection (``compile-queue``,
        ``inference-pool``, …)."""
        with self._lock:
            self.rejections[kind] = self.rejections.get(kind, 0) + 1

    def record_degradation(
        self,
        model: str,
        component: str,
        from_mode: str,
        to_mode: str,
        reason: str,
    ) -> DegradationRecord:
        """Record one ladder step taken while serving ``model``."""
        record = DegradationRecord(component, from_mode, to_mode, reason)
        with self._lock:
            self._push(
                "degradations", {"model": model, **record.to_payload()}
            )
        return record

    def absorb_compile_degradations(
        self, model: str, records: List[DegradationRecord]
    ) -> None:
        """Copy a compile's degradation records into the service log."""
        with self._lock:
            for record in records:
                self._push(
                    "degradations", {"model": model, **record.to_payload()}
                )

    def record_breaker_event(
        self, model: str, state: str, reason: str
    ) -> None:
        with self._lock:
            self._push(
                "breaker_events",
                {"model": model, "state": state, "reason": reason},
            )

    def record_warm_start(
        self,
        manifest_models: int,
        restored: int,
        cache_misses: int,
        cache_hits: int,
    ) -> None:
        with self._lock:
            self.warm_start = {
                "manifest_models": manifest_models,
                "restored": restored,
                "cache_misses": cache_misses,
                "cache_hits": cache_hits,
            }

    def warn(self, message: str) -> None:
        with self._lock:
            self._push("warnings", message)

    # -- reading -----------------------------------------------------------

    def degradations_for(
        self, model: Optional[str] = None
    ) -> List[Dict[str, str]]:
        """The retained (most recent) degradations, optionally for one
        model."""
        with self._lock:
            return [
                dict(entry)
                for entry in self.degradations
                if model is None or entry["model"] == model
            ]

    def to_payload(self) -> Dict:
        """JSON-ready snapshot for the ``/status`` endpoint."""
        with self._lock:
            return {
                "requests": dict(self.requests),
                "compile_jobs": self.compile_jobs,
                "compile_failures": self.compile_failures,
                "inference_requests": self.inference_requests,
                "inference_failures": self.inference_failures,
                "retries": self.retries,
                "deadline_timeouts": self.deadline_timeouts,
                "rejections": dict(self.rejections),
                "degradations": [dict(d) for d in self.degradations],
                "breaker_events": [dict(e) for e in self.breaker_events],
                "warm_start": dict(self.warm_start),
                "warnings": list(self.warnings),
                "totals": dict(self.totals),
            }
