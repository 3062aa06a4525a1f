"""Per-model inference-engine pools with a two-rung robustness ladder.

Each ready model owns an :class:`EnginePool`: a fixed set of
:class:`~repro.runtime.engine.InferenceEngine` instances sharing the
compiled model and one frozen calibration read-only (the expensive
state is per-model, not per-engine).  Requests check an engine out,
run the batch, and check it back in; checkout honours the request
deadline so a saturated pool times out instead of hanging.  Checking
engines out is also where the concurrency comes from: an engine is
single-threaded, the pool hands each request thread its own.

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
  executor and replaces the engine.

Only if the per-sample path also fails does the request surface an
error.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import AdmissionError, ServiceError
from repro.runtime.calibration import FrozenCalibration
from repro.runtime.engine import InferenceEngine
from repro.runtime.executor import QuantizedExecutor
from repro.verify.budget import Deadline


class EnginePool:
    """A bounded pool of engines over one compiled model."""

    def __init__(
        self,
        compiled,
        *,
        size: int = 2,
        seed: int = 0,
        kernel_mac_limit: Optional[int] = 0,
        checkout_timeout_s: float = 30.0,
        calibration_feeds: Optional[Sequence] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if checkout_timeout_s <= 0:
            raise ValueError("checkout_timeout_s must be positive")
        self.compiled = compiled
        self.seed = seed
        self.kernel_mac_limit = kernel_mac_limit
        #: Checkout bound for requests without a deadline: even then a
        #: saturated pool must reject, never hang the calling thread.
        self.checkout_timeout_s = checkout_timeout_s
        #: Engines replaced after a batched failure (observability).
        self.rebuilds = 0
        # Calibrate once on the first engine, then build the rest
        # *around* the frozen bounds: the constructor threads the
        # calibration through to the engine's reference executor, which
        # a bare ``engine.calibration = ...`` assignment would miss.
        first = InferenceEngine(
            compiled, seed=seed, kernel_mac_limit=kernel_mac_limit
        )
        self.calibration: FrozenCalibration = first.calibrate(
            list(calibration_feeds or [None])
        )
        #: Emission failures found at startup (pool-level
        #: observability; the same degradation also rides along in
        #: every ``infer`` response served by a degraded engine).
        self.startup_degradations: List[Dict] = []
        # Emit eagerly so a broken emission is a *startup* fact, not a
        # surprise on the first request.
        if first.emitted() is None:
            self.startup_degradations.append(
                self._codegen_degradation(first.emission_error)
            )
        self._engines: List[InferenceEngine] = [first]
        self._engines.extend(
            self._new_engine() for _ in range(size - 1)
        )
        self._idle: "queue.Queue[InferenceEngine]" = queue.Queue()
        for engine in self._engines:
            self._idle.put(engine)
        self._lock = threading.Lock()

    def _new_engine(self) -> InferenceEngine:
        """An engine built around the pool's frozen calibration."""
        return InferenceEngine(
            self.compiled,
            self.calibration,
            seed=self.seed,
            kernel_mac_limit=self.kernel_mac_limit,
        )

    @staticmethod
    def _codegen_degradation(reason: str) -> Dict:
        return {
            "component": "inference",
            "from": "codegen",
            "to": "interpreter",
            "reason": reason,
        }

    @property
    def size(self) -> int:
        return len(self._engines)

    @property
    def idle(self) -> int:
        return self._idle.qsize()

    def engines(self) -> List[InferenceEngine]:
        """The pool's engines (chaos harness seam)."""
        return list(self._engines)

    # -- execution ---------------------------------------------------------

    def _checkout(self, deadline: Optional[Deadline]) -> InferenceEngine:
        timeout = self.checkout_timeout_s
        if deadline is not None:
            timeout = max(deadline.remaining(), 1e-3)
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            raise AdmissionError(
                f"no idle engine in the pool within {timeout:.3f}s",
                stage="serve",
                details={
                    "queue": "engine-pool",
                    "pool_size": self.size,
                    "timeout_s": round(timeout, 3),
                    "retry_after_s": 0.5,
                },
            ) from None

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
        engine = self._checkout(deadline)
        degradations: List[Dict] = []
        batch_failed = False
        try:
            if deadline is not None:
                deadline.check("inference-start")
            try:
                outputs = engine.run_batch(list(feeds_list))
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
            except Exception as exc:  # noqa: BLE001 - ladder boundary
                batch_failed = True
                degradations.append(
                    {
                        "component": "inference",
                        "from": "batched",
                        "to": "per-sample",
                        "reason": f"{type(exc).__name__}: {exc}",
                    }
                )
            outputs = self._per_sample(feeds_list, deadline)
            return {
                "outputs": outputs,
                "mode": "per-sample",
                "degradations": degradations,
            }
        finally:
            if batch_failed:
                # Never recirculate an engine whose batch run raised:
                # its per-engine state is suspect, so a persistently
                # broken engine would otherwise keep serving failures.
                engine = self._rebuild(engine)
            self._idle.put(engine)

    def _rebuild(self, engine: InferenceEngine) -> InferenceEngine:
        """A fresh engine to replace one whose batch run raised.

        The replacement shares the frozen calibration (the expensive
        per-model state), so it is cheap and bit-identical.  If the
        rebuild itself fails, the old engine is returned rather than
        shrinking the pool — degraded service beats starved checkouts.
        """
        try:
            fresh = self._new_engine()
        except Exception:  # noqa: BLE001 - keep the pool at full size
            return engine
        with self._lock:
            try:
                index = self._engines.index(engine)
            except ValueError:
                index = None
            if index is not None:
                self._engines[index] = fresh
            self.rebuilds += 1
        return fresh

    def _per_sample(
        self,
        feeds_list: Sequence[Optional[Dict[str, np.ndarray]]],
        deadline: Optional[Deadline],
    ) -> List[Dict[str, np.ndarray]]:
        """The ladder's bottom rung: one fresh executor per sample.

        A fresh executor sidesteps whatever per-engine state the
        batched failure may have corrupted; the shared frozen
        calibration keeps the answers bit-identical to the batched
        path.
        """
        executor = QuantizedExecutor(
            self.compiled,
            seed=self.seed,
            kernel_mac_limit=self.kernel_mac_limit,
            calibration=self.calibration,
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
