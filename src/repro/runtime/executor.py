"""Quantized execution of compiled models.

The :class:`QuantizedExecutor` runs a compiled graph with int8
arithmetic, routing every compute-heavy operator through the *actual
instruction kernel* its execution plan selected — ``vmpy``, ``vmpa`` or
``vrmpy`` over the matching packed layout — so the compiler's choices
are exercised end to end, not just costed.  Outputs are validated in
tests against the float reference executor within quantization error.

Quantization state is *frozen*: a one-time :meth:`~QuantizedExecutor.
calibrate` pass measures per-node activation ranges from a sample set
(see :mod:`repro.runtime.calibration`), after which :meth:`run` is a
pure integer pass — no per-request float forward.  The first ``run``
auto-calibrates from its own feeds for backwards compatibility.

This is a correctness runtime, not a fast one: it is meant for the
examples and the integration tests, on moderate graph sizes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import QuantizationError, SimulationError
from repro.compiler import CompiledModel
from repro.codegen.matmul import matmul_int32
from repro.graph import ops
from repro.graph.execute import ReferenceExecutor
from repro.graph.graph import Node
from repro.isa.instructions import Opcode
from repro.quant.quantize import QuantParams, requantize
from repro.runtime.calibration import FrozenCalibration, calibrate_graph


class QuantizedExecutor:
    """Runs a :class:`~repro.compiler.CompiledModel` in int8.

    Activations are quantized to int8 after every operator using
    per-tensor ranges frozen by a one-time calibration pass (standard
    post-training calibration); weights come from the same seeded
    generator the reference executor uses, so quantized and float runs
    are directly comparable.  Pass an existing
    :class:`~repro.runtime.calibration.FrozenCalibration` to share
    calibration state read-only across executors (the serving pool's
    engines all share one).

    ``kernel_mac_limit`` bounds the per-GEMM work routed through the
    simulated instruction kernels (which are semantic-level Python
    loops): products above the limit use the direct int32 matmul
    instead, which the kernel test suite proves bit-for-bit identical —
    same integers, tractable on ImageNet-sized models.  ``None`` (the
    default) always uses the instruction kernels.
    """

    def __init__(
        self,
        compiled: CompiledModel,
        seed: int = 0,
        kernel_mac_limit: Optional[int] = None,
        calibration: Optional[FrozenCalibration] = None,
    ) -> None:
        self.compiled = compiled
        self.graph = compiled.graph
        self.reference = ReferenceExecutor(self.graph, seed=seed)
        self.kernel_mac_limit = kernel_mac_limit
        self.calibration = calibration
        self._plan_by_node = {
            cn.node.node_id: cn.plan for cn in compiled.nodes
        }
        self._weight_params: Dict[int, QuantParams] = {}
        self._weight_levels: Dict[int, np.ndarray] = {}

    # -- public ------------------------------------------------------------

    def calibrate(
        self,
        sample_feeds: Sequence[Optional[Dict[str, np.ndarray]]],
    ) -> FrozenCalibration:
        """Freeze per-node quantization ranges from ``sample_feeds``.

        Runs one float reference pass per sample and keeps per-node
        abs-max bounds.  Every later :meth:`run` reuses the frozen
        ranges — inference never runs the float model again.
        """
        self.calibration = calibrate_graph(
            self.graph, self.reference, sample_feeds
        )
        return self.calibration

    def run(
        self, feeds: Optional[Dict[str, np.ndarray]] = None
    ) -> Dict[str, np.ndarray]:
        """Quantized inference; returns dequantized float outputs.

        A pure int8 pass under the frozen calibration.  If the executor
        has never been calibrated, the first call calibrates from its
        own feeds (one float pass) and freezes those ranges.
        """
        feeds = feeds or {}
        if self.calibration is None:
            self.calibrate([feeds])
        values: Dict[int, np.ndarray] = {}
        for node in self.graph:
            inputs = [values[i] for i in node.inputs]
            values[node.node_id] = self._eval(node, inputs, feeds)
        return {
            node.name: values[node.node_id]
            for node in self.graph.output_nodes()
        }

    # -- internals ------------------------------------------------------------

    def _frozen_params(self, node_id: int) -> QuantParams:
        if self.calibration is None:  # pragma: no cover - run() calibrates
            raise QuantizationError(
                "executor has no frozen calibration",
                stage="runtime",
            )
        return self.calibration.params(node_id)

    def _params_for_weight(self, node: Node, value: np.ndarray) -> QuantParams:
        """Weight quantization params, cached per node.

        Weights are deterministic (seeded from the node name), so their
        ranges never change between requests.
        """
        cached = self._weight_params.get(node.node_id)
        if cached is None:
            bound = float(np.abs(value).max())
            bound = bound if bound > 0 else 1.0
            cached = QuantParams(scale=bound / 127.0)
            self._weight_params[node.node_id] = cached
        return cached

    def _levels_for_weight(
        self, node: Node, b_params: QuantParams, b_float: np.ndarray
    ) -> np.ndarray:
        """Quantized weight levels, computed once per node lifetime.

        Weights are deterministic and their params frozen, so the int8
        levels never change between requests; recomputing them per GEMM
        call was pure waste (emission hoists its weight constants
        through this same cache).  ``b_float`` must
        already be in GEMM orientation (post ``transpose_b``).
        """
        cached = self._weight_levels.get(node.node_id)
        if cached is None:
            cached = b_params.quantize(b_float)
            self._weight_levels[node.node_id] = cached
        return cached

    def _eval(self, node: Node, inputs, feeds) -> np.ndarray:
        op = node.op
        plan = self._plan_by_node.get(node.node_id)
        if (
            op.is_compute_heavy
            and plan is not None
            and plan.instruction in (Opcode.VMPY, Opcode.VMPA, Opcode.VRMPY)
        ):
            return self._quantized_compute(node, inputs, plan)
        if isinstance(op, (ops.Add, ops.Sub)) and len(inputs) == 2:
            return self._quantized_addsub(node, op, inputs)
        if isinstance(op, ops.ReLU):
            return self._quantized_relu(node, inputs[0])
        # Everything else executes at float precision through the
        # reference semantics.
        return self.reference._eval(node, inputs, feeds)

    # -- integer elementwise kernels ---------------------------------------

    def _quantized_addsub(self, node, op, inputs) -> np.ndarray:
        """Int-only add/sub: rescale both operands to a common scale
        with fixed-point multipliers, combine in int32, requantize.

        The multiplier/shift pairs come from the shared
        :func:`~repro.runtime.rescale.addsub_rescale_plan`, the same
        function the static value-range analysis proves encodable per
        node at compile time (rule ``LINT-QR004``) — the kernel
        executes exactly what the analysis checked.
        """
        from repro.runtime.rescale import addsub_rescale_plan

        a_float, b_float = inputs
        try:
            a_float, b_float = np.broadcast_arrays(a_float, b_float)
        except ValueError as exc:  # pragma: no cover - shapes pre-checked
            raise SimulationError(
                "broadcast failed",
                stage="runtime",
                node=node.name,
                details={
                    "lhs": inputs[0].shape,
                    "rhs": inputs[1].shape,
                },
            ) from exc
        bound_a = self.calibration.bound(node.inputs[0])
        bound_b = self.calibration.bound(node.inputs[1])
        plan = addsub_rescale_plan(bound_a, bound_b, node=node.name)
        acc = np.zeros(a_float.shape, dtype=np.int64)
        for operand, step in zip((a_float, b_float), plan.steps):
            if step.skipped:
                continue
            params = QuantParams(scale=step.scale)
            levels = params.quantize(operand).astype(np.int64)
            rescaled = self._fixed_point_rescale(
                node, levels, step.multiplier, step.shift
            )
            add = step.operand_index == 0 or isinstance(op, ops.Add)
            acc = acc + rescaled if add else acc - rescaled
        from repro.isa import semantics

        narrowed = semantics.saturate_to_int8(semantics.vasr(acc, 0))
        return narrowed.astype(np.float64) * plan.out_scale

    @staticmethod
    def _fixed_point_rescale(
        node, levels: np.ndarray, multiplier: int, shift: int
    ) -> np.ndarray:
        """``(levels * multiplier) >> shift`` with a guarded shift.

        ``requantize_multiplier`` normalizes the multiplier into
        ``[2^14, 2^15)``, so for the usual add/sub rescale ratios the
        effective shift is comfortably positive.  A pathological scale
        ratio can push it to zero or below, and a negative right-shift
        is undefined on real ISAs (and silently wrong in numpy), so
        pre-scale the multiplier by the deficit instead — and refuse
        outright once that pre-scaling would overflow the int32
        multiplier lane.
        """
        from repro.runtime.rescale import shift_underflows

        if shift < 0:
            if shift_underflows(multiplier, shift):
                raise QuantizationError(
                    "rescale shift underflow beyond the multiplier range",
                    stage="runtime",
                    node=node.name,
                    details={"multiplier": multiplier, "shift": shift},
                )
            return levels * (multiplier << -shift)
        return (levels * multiplier) >> shift

    def _quantized_relu(self, node, value: np.ndarray) -> np.ndarray:
        """ReLU on quantized levels (max against the zero level)."""
        params = self._frozen_params(node.inputs[0])
        levels = params.quantize(value)
        from repro.isa import semantics

        rectified = semantics.vmax(levels, np.zeros_like(levels))
        return params.dequantize(rectified)

    def _quantized_compute(self, node, inputs, plan):
        """int8 GEMM through the plan's instruction kernel."""
        op = node.op
        a_params = self._frozen_params(node.inputs[0])
        if isinstance(op, ops.MatMul):
            a_float = inputs[0]
            b_levels = None
            if op.weight_shape is not None:
                b_float = self.reference._weight(node, "w", op.weight_shape)
                b_params = self._params_for_weight(node, b_float)
                if op.transpose_b:
                    b_float = np.swapaxes(b_float, -1, -2)
                b_levels = self._levels_for_weight(node, b_params, b_float)
            else:
                b_float = inputs[1]
                b_params = self._frozen_params(node.inputs[1])
                if op.transpose_b:
                    b_float = np.swapaxes(b_float, -1, -2)
            return self._gemm(
                node, a_float, b_float, plan, a_params, b_params,
                b_levels=b_levels,
            )
        if isinstance(op, ops.Dense):
            flat = inputs[0].reshape(inputs[0].shape[0], -1)
            w = self.reference._weight(node, "w", (flat.shape[1], op.units))
            b_params = self._params_for_weight(node, w)
            b_levels = self._levels_for_weight(node, b_params, w)
            return self._gemm(
                node, flat, w, plan, a_params, b_params, b_levels=b_levels
            )
        if isinstance(op, ops.Conv2D) and op.groups == 1:
            cols = self.reference._im2col(
                inputs[0], op.kernel, op.stride, op.padding
            )
            n, oh, ow, k = cols.shape
            w = self.reference._weight(
                node,
                "w0",
                (op.kernel[0] * op.kernel[1] * inputs[0].shape[1],
                 op.out_channels),
            )
            b_params = self._params_for_weight(node, w)
            b_levels = self._levels_for_weight(node, b_params, w)
            out = self._gemm(
                node, cols.reshape(-1, k), w, plan, a_params, b_params,
                b_levels=b_levels,
            )
            out = out.reshape(n, oh, ow, op.out_channels)
            result = out.transpose(0, 3, 1, 2)
            if op.fused_activation:
                from repro.graph.execute import _ACTIVATIONS

                result = _ACTIVATIONS[op.fused_activation](result)
            return result
        # Grouped/depthwise/transpose convolutions fall back to float.
        return self.reference._eval(node, inputs, {})

    def _gemm(
        self, node, a_float, b_float, plan, a_params, b_params,
        b_levels=None,
    ) -> np.ndarray:
        """Quantize, run the instruction kernel, dequantize.

        ``a_params`` covers the activation side; im2col, flattening and
        transposition only select or zero-pad elements, so the
        producing node's frozen abs-max bound remains sound for the
        reshaped operand.
        """
        a_shape = a_float.shape
        a2 = a_float.reshape(-1, a_shape[-1])
        if b_float.ndim > 2:
            # Batched activation x activation product: run per batch.
            batch = int(math.prod(b_float.shape[:-2]))
            a3 = a_float.reshape(batch, -1, a_shape[-1])
            b3 = b_float.reshape(batch, b_float.shape[-2], b_float.shape[-1])
            outs = [
                self._gemm_2d(node, a3[i], b3[i], plan, a_params, b_params)
                for i in range(batch)
            ]
            out = np.stack(outs)
            return out.reshape(a_shape[:-1] + (b_float.shape[-1],))
        out = self._gemm_2d(
            node, a2, b_float, plan, a_params, b_params, b_levels=b_levels
        )
        return out.reshape(a_shape[:-1] + (b_float.shape[-1],))

    def _gemm_2d(
        self, node, a_float, b_float, plan, a_params, b_params,
        b_levels=None,
    ) -> np.ndarray:
        if a_float.size == 0 or b_float.size == 0:
            raise SimulationError(
                "degenerate GEMM operand",
                stage="runtime",
                node=node.name,
                details={"lhs": a_float.shape, "rhs": b_float.shape},
            )
        a_q = a_params.quantize(a_float)
        b_q = b_levels if b_levels is not None else b_params.quantize(b_float)
        return self._gemm_levels(node, a_q, b_q, plan, a_params, b_params)

    def _gemm_levels(
        self, node, a_q, b_q, plan, a_params, b_params
    ) -> np.ndarray:
        """The integer core of one GEMM: int8 levels in, float out.

        Every output row depends only on its own input row, and the
        accumulation is exact integer arithmetic on both GEMM routes,
        so the result is bit-identical under any row grouping — which
        is what lets the emitted code (:mod:`repro.codegen.emit`) stack
        a batch's rows through one product.
        """
        macs = a_q.shape[0] * a_q.shape[1] * b_q.shape[1]
        if (
            self.kernel_mac_limit is not None
            and macs > self.kernel_mac_limit
        ):
            # int8 x int8 products accumulate exactly in float64 (the
            # worst case is far below 2^53), so the BLAS path returns
            # the identical int32 accumulator the kernels would.
            acc = (
                a_q.astype(np.float64) @ b_q.astype(np.float64)
            ).astype(np.int32)
        else:
            acc = matmul_int32(a_q, b_q, plan.instruction)
        if acc.shape != (a_q.shape[0], b_q.shape[1]):
            raise SimulationError(
                "kernel produced a mismatched output shape",
                stage="runtime",
                node=node.name,
                details={
                    "got": acc.shape,
                    "expected": (a_q.shape[0], b_q.shape[1]),
                },
            )
        scale = a_params.scale * b_params.scale
        return acc.astype(np.float64) * scale
