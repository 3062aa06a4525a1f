"""Serving-grade batched inference over the quantized runtime.

A compiled model runs through exactly two executors:

* :class:`~repro.runtime.executor.QuantizedExecutor` — the per-sample
  *semantic reference*.  Every parity gate compares against it.
* the emitted straight-line function of :mod:`repro.codegen.emit` —
  the *serving path*: one numpy-vectorized ``run_batch`` per model with
  every emit-time-computable decision hoisted out of the request.

The :class:`InferenceEngine` is what is left between them: it freezes
calibration once (:mod:`repro.runtime.calibration`) so no request runs
the float model, emits the serving function once per calibration, and
serves each batch through it.  If emission fails the error latches and
the engine serves the same batches per sample through the reference
executor under the same calibration — bit-identical by the parity
contract (``repro.verify.runtime`` checks exactly that), only slower.

The serving stack has one GEMM route, named once, in
:func:`serving_reference`: the exact BLAS product.  The simulated
instruction kernels are an option of ``QuantizedExecutor`` alone; a
parity check that wants them builds such an executor and hands it to
``verify_engine_parity(engine, feeds, executor=...)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.compiler import CompiledModel
from repro.runtime.calibration import FrozenCalibration
from repro.runtime.executor import QuantizedExecutor


def serving_reference(
    compiled: CompiledModel,
    calibration: Optional[FrozenCalibration] = None,
    *,
    seed: int = 0,
) -> QuantizedExecutor:
    """The per-sample reference executor on the serving stack's route.

    ``kernel_mac_limit=0`` sends every GEMM through the exact float64
    product — the form the emitted code hoists.  int8 x int8 sums are
    exact integers on both of the executor's routes, so this selects
    speed, never bits.  The engine's reference, the pool's per-sample
    rung and the parity gate's independent executor all come from here.
    """
    return QuantizedExecutor(
        compiled, seed=seed, kernel_mac_limit=0, calibration=calibration
    )


@dataclass
class InferenceDiagnostics:
    """Counters for what the engine served, and how.

    Constant size for the life of a server: request latency belongs to
    the serving layer's diagnostics, not here.  ``warnings`` gets one
    entry per failed emission, and a failure latches until the next
    calibration.
    """

    requests: int = 0
    batches: int = 0
    codegen_batches: int = 0
    stacked_gemm_rows: int = 0
    codegen_emit_ms: Optional[float] = None
    codegen_fingerprint: Optional[str] = None
    warnings: List[str] = field(default_factory=list)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def record_batch(self, samples: int, stacked_rows: int) -> None:
        self.batches += 1
        self.requests += samples
        self.stacked_gemm_rows += stacked_rows


class InferenceEngine:
    """Frozen calibration plus the emitted serving function of one model.

    Re-entrant once calibrated: any number of threads may call
    :meth:`run_batch` and :meth:`emitted` on one engine, so a model
    needs exactly one (:class:`repro.serve.pool.EnginePool` bounds how
    many run at once).  The emitted function only reads hoisted
    constants and writes locals, the reference executor's caches are
    idempotent memos of deterministic values, ``run_batch`` keeps no
    per-call state on ``self``, and emission and the diagnostics
    counters are serialised by one lock.  The exception:
    :meth:`calibrate` must not race ``run_batch``.
    """

    def __init__(
        self,
        compiled: CompiledModel,
        calibration: Optional[FrozenCalibration] = None,
        *,
        seed: int = 0,
    ) -> None:
        self.compiled = compiled
        self.calibration = calibration
        self.seed = seed
        self.diagnostics = InferenceDiagnostics()
        self._emitted = None
        self._emission_error: Optional[str] = None
        #: Guards emission (at most one per calibration, however many
        #: requests race the first call) and the diagnostics counters.
        self._lock = threading.Lock()
        #: Fault-injection seam for the serving chaos harness: when
        #: set, :meth:`run_batch` first calls it with every graph node;
        #: raising simulates an engine failure mid-batch (the serving
        #: layer then degrades to bit-identical per-sample execution).
        self.batch_fault_hook: Optional[Callable] = None
        # The reference executor: calibrates, lends its weight caches
        # and per-sample kernels to the emitted code, and serves the
        # batches itself when emission failed.
        self._reference = serving_reference(
            compiled, calibration, seed=seed
        )

    # -- calibration -------------------------------------------------------

    def calibrate(
        self,
        sample_feeds: Sequence[Optional[Dict[str, np.ndarray]]],
    ) -> FrozenCalibration:
        """Freeze calibration from samples."""
        self.calibration = self._reference.calibrate(sample_feeds)
        # Emitted executors hoist calibration-derived constants, so a
        # recalibration invalidates any emitted code (and clears a
        # previous emission failure — the bounds it choked on changed).
        self._emitted = None
        self._emission_error = None
        return self.calibration

    def _require_calibration(self) -> FrozenCalibration:
        if self.calibration is None:
            raise SimulationError(
                "engine is not calibrated; call calibrate(sample_feeds) "
                "before serving requests",
                stage="runtime",
            )
        return self.calibration

    # -- emission ----------------------------------------------------------

    def emitted(self):
        """The :class:`~repro.codegen.emit.EmittedExecutor` serving this
        engine, emitting it on first use; ``None`` if emission failed.

        A failed emission is a *degradation*, not an outage: it is
        recorded in the diagnostics and in :attr:`emission_error`, and
        the engine keeps serving per sample.  The error latches until
        the next :meth:`calibrate`.
        """
        self._require_calibration()
        with self._lock:
            if self._emitted is None and self._emission_error is None:
                self._emit()
            return self._emitted

    def _emit(self) -> None:
        """Emit or latch the failure; the caller holds the lock."""
        # Imported at call time: the end-to-end benchmark's tracer
        # patches the name on the module.
        from repro.codegen.emit import emit_executor

        try:
            self._emitted = emit_executor(
                self.compiled, self.calibration, self._reference
            )
        except Exception as exc:  # noqa: BLE001 - degradation seam
            self._emission_error = (
                f"{type(exc).__name__}: {exc}" if str(exc)
                else type(exc).__name__
            )
            self.diagnostics.warn(
                "codegen emission failed; serving via interpreter: "
                + self._emission_error
            )
            return
        self.diagnostics.codegen_emit_ms = self._emitted.emit_ms
        self.diagnostics.codegen_fingerprint = self._emitted.fingerprint

    @property
    def emission_error(self) -> Optional[str]:
        """Why this engine serves per sample instead of emitted code, or
        ``None`` while emission is healthy (or has not been tried)."""
        return self._emission_error

    # -- execution ---------------------------------------------------------

    def run_batch(
        self, feeds_list: Sequence[Optional[Dict[str, np.ndarray]]]
    ) -> List[Dict[str, np.ndarray]]:
        """Run a whole batch; one output dict per sample, in order.

        Bit-identical to calling :meth:`QuantizedExecutor.run` per
        sample under the same frozen calibration — which is literally
        what happens when emission failed.
        """
        self._require_calibration()
        if not feeds_list:
            return []
        hook = self.batch_fault_hook
        if hook is not None:
            for node in self.compiled.graph:
                hook(node)
        emitted = self.emitted()
        if emitted is not None:
            outputs, stacked_rows = emitted.fn(list(feeds_list))
        else:
            outputs = [self._reference.run(feeds) for feeds in feeds_list]
            stacked_rows = 0
        with self._lock:
            if emitted is not None:
                self.diagnostics.codegen_batches += 1
            self.diagnostics.record_batch(len(feeds_list), stacked_rows)
        return outputs
