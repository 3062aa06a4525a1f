"""Differential verification of the inference engine.

The serving path's claim is strong — the emitted batch function is
*bit-identical* to per-sample execution under the same frozen
calibration — so it is checked the same way the compiler's passes are:
run both, compare exactly, raise a structured
:class:`~repro.errors.VerificationError` on the first divergence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError, VerificationError


class RuntimeVerificationError(VerificationError, SimulationError):
    """Engine outputs diverged from the per-sample executor."""


def verify_engine_parity(
    engine,
    feeds_list: Sequence[Optional[Dict[str, np.ndarray]]],
    executor=None,
) -> Dict[str, int]:
    """Check the engine's emitted code against per-sample execution.

    Runs ``engine.run_batch(feeds_list)`` and an independent
    :class:`~repro.runtime.executor.QuantizedExecutor` (sharing the
    engine's frozen calibration) one sample at a time, and requires
    every output tensor to match *exactly* — same bits, not just within
    tolerance.  Returns ``{"samples": ..., "outputs": ...}`` on
    success.

    The default independent executor takes the engine's own GEMM route
    (:func:`repro.runtime.engine.serving_reference`).  Pass
    ``executor=`` — a ``QuantizedExecutor`` built on the engine's
    calibration and routed through the simulated instruction kernels —
    to gate the emitted BLAS products against those instead: integer
    sums are exact on both routes, so that must hold too.

    The check also proves the batch was served by the engine's
    *emitted* executor: a degraded engine (emission failed, per-sample
    fallback) fails the gate instead of passing on the interpreter's
    parity with itself.
    """
    from repro.runtime.engine import serving_reference

    if executor is None:
        executor = serving_reference(
            engine.compiled, engine.calibration, seed=engine.seed
        )
    codegen_before = engine.diagnostics.codegen_batches
    batched = engine.run_batch(feeds_list)
    if engine.emission_error is not None:
        raise RuntimeVerificationError(
            "engine degraded to the interpreter instead of serving "
            "via emitted code",
            stage="runtime",
            details={"codegen_error": engine.emission_error},
        )
    if engine.diagnostics.codegen_batches <= codegen_before:
        raise RuntimeVerificationError(
            "batch was not served by the emitted executor",
            stage="runtime",
            details={
                "codegen_batches": engine.diagnostics.codegen_batches,
            },
        )
    outputs_checked = 0
    for index, feeds in enumerate(feeds_list):
        single = executor.run(feeds)
        if set(single) != set(batched[index]):
            raise RuntimeVerificationError(
                "engine and executor disagree on output names",
                stage="runtime",
                details={
                    "sample": index,
                    "engine": sorted(batched[index]),
                    "executor": sorted(single),
                },
            )
        for name, expected in single.items():
            got = batched[index][name]
            if got.shape != expected.shape or not np.array_equal(
                got, expected
            ):
                raise RuntimeVerificationError(
                    f"engine output {name!r} is not bit-identical to "
                    f"the per-sample executor",
                    stage="runtime",
                    details={
                        "sample": index,
                        "output": name,
                        "max_abs_diff": float(
                            np.max(np.abs(got - expected))
                        )
                        if got.shape == expected.shape
                        else "shape mismatch",
                    },
                )
            outputs_checked += 1
    return {"samples": len(list(feeds_list)), "outputs": outputs_checked}
