"""Expected outputs, computed beside the program and never by its fast
path.

A served reply is checked against ``compile_model`` + one per-sample
:class:`~repro.runtime.executor.QuantizedExecutor` run under the
server's calibration recipe — the repo's semantic reference; the
emitted code and the batched engine the server answers from are not
used here.  The quantized result is in turn held against the float
:class:`~repro.graph.execute.ReferenceExecutor`, an interpreter that
shares nothing with the compiler.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

import numpy as np

from repro.compiler import CompiledModel, CompilerOptions, compile_model
from repro.graph.execute import ReferenceExecutor
from repro.harness import example_feeds
from repro.models.registry import build_model
from repro.runtime.executor import QuantizedExecutor

#: ``repro verify`` prints the quantized-vs-float error (max absolute
#: difference over the output's range) but sets no threshold; the zoo
#: models it is asked about here stay under 0.2, the repo's own
#: whole-model tests assert 0.15 on small graphs.
FLOAT_TOLERANCE = 0.3

#: ``ServeConfig`` defaults the server under test runs with.
CALIBRATION_SAMPLES = 2
CALIBRATION_SEED = 99
KERNEL_MAC_LIMIT = 0


def relative_error(
    got: Dict[str, np.ndarray], reference: Dict[str, np.ndarray]
) -> float:
    """The ``repro verify`` measure: worst output's max absolute error
    over that output's range."""
    worst = 0.0
    for name, ref in reference.items():
        scale = max(1e-6, float(np.abs(ref).max()))
        worst = max(worst, float(np.abs(got[name] - ref).max()) / scale)
    return worst


def tolerance_violation(what: str, error: float) -> Optional[str]:
    """The failed-check message if ``error`` is out of tolerance (or
    not a number), else ``None``."""
    if error <= FLOAT_TOLERANCE:
        return None
    return (
        f"{what}: quantized-vs-float error {error:.4f} > {FLOAT_TOLERANCE}"
    )


def differential(compiled: CompiledModel) -> float:
    """Quantized-vs-float error of a compiled model on the executors'
    default input (``repro verify``'s check)."""
    quantized = QuantizedExecutor(
        compiled, seed=0, kernel_mac_limit=KERNEL_MAC_LIMIT
    ).run()
    reference = ReferenceExecutor(compiled.graph, seed=0).run()
    return relative_error(quantized, reference)


class ServedReference:
    """What the server must answer for ``model``, per request seed."""

    def __init__(self, model: str) -> None:
        self.compiled = compile_model(build_model(model), CompilerOptions())
        graph = self.compiled.graph
        calibration = QuantizedExecutor(
            self.compiled, seed=0, kernel_mac_limit=KERNEL_MAC_LIMIT
        ).calibrate(
            example_feeds(
                graph, count=CALIBRATION_SAMPLES, seed=CALIBRATION_SEED
            )
        )
        self.executor = QuantizedExecutor(
            self.compiled,
            seed=0,
            kernel_mac_limit=KERNEL_MAC_LIMIT,
            calibration=calibration,
        )
        self.float_executor = ReferenceExecutor(graph, seed=0)
        #: Seconds per ``QuantizedExecutor.run``, one per seed asked.
        self.run_seconds: List[float] = []

    def expected(self, seed: int) -> Dict[str, np.ndarray]:
        feeds = example_feeds(self.compiled.graph, count=1, seed=seed)[0]
        started = time.perf_counter()
        outputs = self.executor.run(feeds)
        self.run_seconds.append(time.perf_counter() - started)
        return outputs

    def float_error(
        self, seed: int, outputs: Dict[str, np.ndarray]
    ) -> float:
        feeds = example_feeds(self.compiled.graph, count=1, seed=seed)[0]
        return relative_error(outputs, self.float_executor.run(feeds))


def body_mismatch(
    body: bytes, expected: Dict[str, np.ndarray]
) -> Optional[str]:
    """Why a reply differs from ``expected`` bit for bit, or ``None``.

    ``encode_arrays`` writes float64 through ``tolist``, which
    round-trips exactly, so equality here is equality of bits.
    """
    try:
        reply = json.loads(body)
        samples = reply["outputs"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable reply: {type(exc).__name__}: {exc}"
    if reply.get("degradations"):
        return f"degraded reply: {reply['degradations']}"
    if len(samples) != 1:
        return f"{len(samples)} samples in a batch-1 reply"
    served = samples[0]
    if set(served) != set(expected):
        return f"outputs {sorted(served)} != {sorted(expected)}"
    for name, want in expected.items():
        got = np.asarray(served[name]["data"], dtype=want.dtype)
        if got.shape != want.shape:
            return f"{name}: shape {got.shape} != {want.shape}"
        if not np.array_equal(got, want):
            return (
                f"{name}: max abs diff "
                f"{float(np.abs(got - want).max()):.3e}"
            )
    return None
