"""Per-model serving state, exactly once, behind an admission gate.

Each ready model owns an :class:`EnginePool`: **one**
:class:`~repro.runtime.engine.InferenceEngine` — one frozen
calibration, one reference executor, one emitted function — shared by
every request thread (the engine is re-entrant once calibrated), and a
counting gate that admits at most ``size`` concurrent infers.  The gate
honours the request deadline, so a saturated pool times out instead of
hanging.

The robustness ladder, both rungs landing on the per-sample reference
:class:`~repro.runtime.executor.QuantizedExecutor` under the *same*
frozen calibration — bit-identical to the emitted code by the engine's
parity contract — and both recorded in the response:

* ``codegen → interpreter``: emission failed, so the engine itself
  serves per sample (still ``mode: "batched"`` — the batch call
  succeeded);
* ``batched → per-sample``: ``run_batch`` raised (the chaos harness's
  ``engine_exception_mid_batch`` fault, or any real kernel bug tripped
  by one request), so the pool reruns the request through a fresh
  executor (:func:`~repro.runtime.engine.serving_reference`, the
  engine's own route) and replaces the engine with one that has
  already emitted; requests in flight on the old engine finish on it.

Only if the per-sample path also fails does the request surface an
error.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import AdmissionError, ServiceError
from repro.runtime.calibration import FrozenCalibration
from repro.runtime.engine import InferenceEngine, serving_reference
from repro.verify.budget import Deadline


class EnginePool:
    """One shared engine over a compiled model; ``size`` infers at once."""

    def __init__(
        self,
        compiled,
        *,
        size: int = 2,
        seed: int = 0,
        checkout_timeout_s: float = 30.0,
        calibration_feeds: Optional[Sequence] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if checkout_timeout_s <= 0:
            raise ValueError("checkout_timeout_s must be positive")
        self.compiled = compiled
        self.size = size
        self.seed = seed
        #: Admission bound for requests without a deadline: even then a
        #: saturated pool must reject, never hang the calling thread.
        self.checkout_timeout_s = checkout_timeout_s
        #: Engines replaced after a batched failure (observability).
        self.rebuilds = 0
        #: The model's engine (also the chaos harness's seam:
        #: ``pool.engine.batch_fault_hook``).  Requests read the
        #: reference once and finish on the engine they started on.
        self.engine = InferenceEngine(compiled, seed=seed)
        self.calibration: FrozenCalibration = self.engine.calibrate(
            list(calibration_feeds or [None])
        )
        #: Emission failures found at startup (pool-level
        #: observability; the same degradation also rides along in
        #: every ``infer`` response served by a degraded engine).
        self.startup_degradations: List[Dict] = []
        # Emit eagerly so a broken emission is a *startup* fact, and no
        # request ever pays for an emission.
        if self.engine.emitted() is None:
            self.startup_degradations.append(
                self._codegen_degradation(self.engine.emission_error)
            )
        self._gate = threading.BoundedSemaphore(size)
        #: Serialises engine replacement.
        self._lock = threading.Lock()

    @staticmethod
    def _codegen_degradation(reason: str) -> Dict:
        return {
            "component": "inference",
            "from": "codegen",
            "to": "interpreter",
            "reason": reason,
        }

    # -- execution ---------------------------------------------------------

    def _admit(self, deadline: Optional[Deadline]) -> None:
        timeout = self.checkout_timeout_s
        if deadline is not None:
            timeout = max(deadline.remaining(), 1e-3)
        if not self._gate.acquire(timeout=timeout):
            raise AdmissionError(
                f"no free inference slot in the pool within {timeout:.3f}s",
                stage="serve",
                details={
                    "queue": "engine-pool",
                    "pool_size": self.size,
                    "timeout_s": round(timeout, 3),
                    "retry_after_s": 0.5,
                },
            )

    def infer(
        self,
        feeds_list: Sequence[Optional[Dict[str, np.ndarray]]],
        deadline: Optional[Deadline] = None,
    ) -> Dict:
        """Run one batch; returns outputs plus how they were produced.

        Returns ``{"outputs": [per-sample dicts], "mode": "batched" |
        "per-sample", "degradations": [...]}`` — the per-sample mode
        only appears after ``run_batch`` raised, and is bit-identical
        to what the engine would have produced.
        """
        if deadline is not None:
            deadline.check("inference-admission")
        self._admit(deadline)
        try:
            if deadline is not None:
                deadline.check("inference-start")
            engine = self.engine
            try:
                outputs = engine.run_batch(list(feeds_list))
            except Exception as exc:  # noqa: BLE001 - ladder boundary
                step = {
                    "component": "inference",
                    "from": "batched",
                    "to": "per-sample",
                    "reason": f"{type(exc).__name__}: {exc}",
                }
                try:
                    outputs = self._per_sample(feeds_list, deadline)
                finally:
                    # Never keep serving on an engine whose batch run
                    # raised: its state is suspect, so a persistently
                    # broken engine would otherwise keep failing.
                    self._rebuild(engine)
                return {
                    "outputs": outputs,
                    "mode": "per-sample",
                    "degradations": [step],
                }
            degradations = []
            if engine.emission_error is not None:
                # The batch was served correctly, just by the
                # interpreter instead of emitted code: a recorded
                # degradation, not a failure.
                degradations.append(
                    self._codegen_degradation(engine.emission_error)
                )
            return {
                "outputs": outputs,
                "mode": "batched",
                "degradations": degradations,
            }
        finally:
            self._gate.release()

    def _rebuild(self, failed: InferenceEngine) -> None:
        """Replace the engine whose batch run raised with a fresh one.

        The replacement shares the frozen calibration and emits *before*
        it is published: the failed request is already on the slow
        rung, and no healthy request ever pays for an emission.
        Requests in flight on the old engine finish on it.  If the
        rebuild itself fails the old engine stays — degraded service
        beats none.
        """
        with self._lock:
            if self.engine is not failed:
                return  # a concurrent failure already replaced it
            try:
                fresh = InferenceEngine(
                    self.compiled, self.calibration, seed=self.seed
                )
                fresh.emitted()
            except Exception:  # noqa: BLE001 - keep serving
                return
            self.engine = fresh
            self.rebuilds += 1

    def _per_sample(
        self,
        feeds_list: Sequence[Optional[Dict[str, np.ndarray]]],
        deadline: Optional[Deadline],
    ) -> List[Dict[str, np.ndarray]]:
        """The ladder's bottom rung: one fresh executor per sample.

        A fresh executor sidesteps whatever engine state the
        batched failure may have corrupted; the shared frozen
        calibration keeps the answers bit-identical to the batched
        path.
        """
        executor = serving_reference(
            self.compiled, self.calibration, seed=self.seed
        )
        outputs = []
        for index, feeds in enumerate(feeds_list):
            if deadline is not None:
                deadline.check(f"inference-sample-{index}")
            try:
                outputs.append(executor.run(feeds))
            except Exception as exc:  # noqa: BLE001 - ladder exhausted
                raise ServiceError(
                    f"inference failed in both batched and per-sample "
                    f"modes: {exc}",
                    stage="serve",
                    details={
                        "sample": index,
                        "cause": f"{type(exc).__name__}: {exc}",
                    },
                ) from exc
        return outputs
