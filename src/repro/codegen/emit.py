"""Specialized per-model executor emission — the serving path.

The interpreter (:class:`repro.runtime.executor.QuantizedExecutor`, the
per-sample semantic reference) re-decides *per request* a long list of
facts that are pure functions of the compiled model and its frozen
calibration: which kernel path each node takes, the quantization
parameters of every operand, the fixed-point rescale plan of every
add/sub, the quantized weight levels of every GEMM, and which tensors
die where.  On moderate graphs that per-instruction dispatch is the
inference bottleneck (``codegen.speedup_vs_interpreter`` in the
end-to-end benchmark, ``benchmarks/e2e``).

:func:`emit_executor` moves all of those decisions to *emit time*: it
walks the compiled graph once and generates the Python source of a
straight-line, numpy-vectorized ``run_batch`` function — one statement
block per node, no graph loop, no isinstance dispatch — with every
emit-time-computable value (weight levels, quant params, rescale
multipliers, output scales, shapes) hoisted into the emitted module's
namespace as a named constant.  The generated code is
compiled with :func:`compile`/``exec`` and returned as an
:class:`EmittedExecutor` carrying the source and its fingerprint, so
the artefact is inspectable and cacheable.

**Bit-identity contract.**  The emitted function performs exactly the
numpy operations of the interpreter's per-sample path, in the same
order, merely batched along the leading axis where that is provably a
pure re-grouping (int8 GEMM rows are independent; elementwise kernels
are per-element; data-movement ops only permute elements; per-row
reductions see the identical element sequence per output element).
``verify.runtime.verify_engine_parity`` gates every emitted executor
against the interpreter, and the fuzz suite checks random DAGs.  Nodes
whose batching is *not* provably exact (BatchNorm mixes samples,
transposes that move axis 0, ...) fall back to per-sample calls of the
interpreter's own bound methods inside the emitted code — slower, but
identical by construction.

**One GEMM route.**  Every quantized GEMM is emitted as the exact
float64 BLAS product of the int8 levels; the simulated instruction
kernels are an option of ``QuantizedExecutor`` alone, never of the
emitter.  int8 x int8 sums are exact integers on both, so an emitted
product gated against an instruction-kernel reference is the stronger
check, and a routing knob in the serving stack would select nothing.

**Layouts are fixed at emit time too.**  The paper's rule is that no
operator pays a layout transformation it does not need, and the emitter
knows every shape, so the convolutions it emits pay none: a quantized
``Conv2D`` is channel-major — ``Wt (OC, K) @ P (K, OH*OW)`` per sample,
written straight into the NCHW output, with ``P`` a reshape of the
quantized input for a 1x1 kernel and one gather through a *plan* for
k x k — and ``DepthwiseConv2D`` gathers its windows through the same
kind of plan.  A plan is an ``intp`` index array built once per
emission per ``(Hp, Wp, kernel, stride)`` and frozen
(``flags.writeable = False``): the engine is re-entrant, so everything
the emitted module shares between calls is read-only, and all scratch
is allocated per call.  The integer accumulation is exact in float64,
so the channel-major product *is* the interpreter's accumulator,
transposed; what follows it (dequantise, fused activation) runs the
reference's own ufunc sequence in place.

**Bits depend on values, not strides.**  The interpreter's conv returns
a transposed view where the emitted one returns a contiguous array, and
numpy reductions (pairwise over a contiguous axis, sequential over a
strided one) and BLAS kernels (chosen by operand orientation) can tell
the difference in the last ulp.  Every order-sensitive template here
therefore reads ``np.ascontiguousarray`` of its operand, exactly as
:meth:`repro.graph.execute.ReferenceExecutor._apply` does — a no-op on
contiguous input — so a node's output is a function of its inputs'
values alone.

Intermediates are plain numpy temporaries, dropped at their last use
(:mod:`repro.absint.liveness`).

Emission failure is a *degradation*, never an outage: the engine
catches any exception here, records a structured diagnostics entry and
keeps serving per sample through the interpreter.
:func:`set_emit_fault_hook` lets the chaos/fault tests inject emission
failures deterministically.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.absint.liveness import tensor_liveness
from repro.graph import ops
from repro.graph.execute import _ACTIVATIONS
from repro.isa import semantics
from repro.isa.instructions import Opcode
from repro.quant.quantize import QuantParams

# NOTE: nothing from repro.runtime may be imported at module level —
# repro.compiler imports repro.codegen, and repro.runtime imports
# repro.compiler, so a top-level runtime import here would close an
# import cycle.  The emitter only needs runtime helpers at emit time;
# they are imported inside the methods that use them.

_GEMM_OPCODES = (Opcode.VMPY, Opcode.VMPA, Opcode.VRMPY)

#: Fault-injection seam: when set, called with the compiled model at
#: the top of :func:`emit_executor`; raising simulates an emission
#: failure (the engine then degrades to the interpreter and records
#: it).  Mirrors the runtime ``batch_fault_hook`` seam.
_EMIT_FAULT_HOOK: Optional[Callable] = None


def set_emit_fault_hook(hook: Optional[Callable]) -> Optional[Callable]:
    """Install (or clear, with ``None``) the emission fault hook.

    Returns the previous hook so tests can restore it.
    """
    global _EMIT_FAULT_HOOK
    previous = _EMIT_FAULT_HOOK
    _EMIT_FAULT_HOOK = hook
    return previous


@dataclass
class EmittedExecutor:
    """A compiled-and-loaded specialized executor for one model.

    ``fn(feeds_list)`` returns ``(outputs, stacked_rows)`` with the
    same outputs contract as
    :meth:`repro.runtime.engine.InferenceEngine.run_batch`.
    """

    source: str
    fingerprint: str
    fn: Callable
    emit_ms: float
    node_count: int
    stacked_nodes: int
    sample_nodes: int
    namespace: Dict[str, object] = field(repr=False, default_factory=dict)

    def describe(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "emit_ms": round(self.emit_ms, 3),
            "source_lines": self.source.count("\n") + 1,
            "nodes": self.node_count,
            "stacked_nodes": self.stacked_nodes,
            "per_sample_nodes": self.sample_nodes,
        }


class _Emitter:
    """Builds the straight-line source for one compiled model."""

    def __init__(self, compiled, calibration, executor) -> None:
        self.compiled = compiled
        self.graph = compiled.graph
        self.calibration = calibration
        self.executor = executor
        self.liveness = tensor_liveness(self.graph)
        self.plans = {cn.node.node_id: cn.plan for cn in compiled.nodes}
        self.lines: List[str] = []
        self.ns: Dict[str, object] = {
            "np": np,
            "_im2col": _im2col_fast,
            "_dw": _depthwise_fast,
            "_qc": _quantize_chunked,
            "_qlv": _quantize_levels,
            "_patches": _gather_patches,
            "_ref_eval": executor.reference._eval,
            "_qcompute": executor._quantized_compute,
            "_qaddsub": executor._quantized_addsub,
            "_qrelu": executor._quantized_relu,
            "_vmax": semantics.vmax,
            "_vasr": semantics.vasr,
            "_sat8": semantics.saturate_to_int8,
        }
        self._counter = 0
        #: node_id -> {"list": varname} / {"stacked": varname}
        self.forms: Dict[int, Dict[str, str]] = {}
        self.stacked_nodes = 0
        self.sample_nodes = 0
        #: (Hp, Wp, kernel, stride, taps_last) -> const name of the
        #: read-only gather index for that geometry.
        self._plans: Dict[tuple, str] = {}

    # -- source assembly ---------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " + text)

    def const(self, hint: str, value) -> str:
        self._counter += 1
        name = f"_k{self._counter}_{hint}"
        self.ns[name] = value
        return name

    def shape(self, node_id: int) -> Tuple[int, ...]:
        return tuple(self.graph.node(node_id).output_shape)

    # -- value forms -------------------------------------------------------

    def stacked_var(self, node_id: int) -> str:
        """Variable holding the batch-stacked value, converting if needed."""
        entry = self.forms[node_id]
        if "stacked" not in entry:
            name = f"v{node_id}s"
            self.line(f"{name} = np.concatenate({entry['list']}, axis=0)")
            entry["stacked"] = name
        return entry["stacked"]

    def list_var(self, node_id: int) -> str:
        """Variable holding the per-sample list, converting if needed."""
        entry = self.forms[node_id]
        if "list" not in entry:
            name = f"v{node_id}"
            self.line(f"{name} = np.split({entry['stacked']}, batch)")
            entry["list"] = name
        return entry["list"]

    def set_stacked(self, node_id: int, expr_done_var: str) -> None:
        self.forms[node_id] = {"stacked": expr_done_var}

    def set_list(self, node_id: int, var: str) -> None:
        self.forms[node_id] = {"list": var}

    # -- emission entry point ----------------------------------------------

    def emit(self) -> Tuple[str, Dict[str, object]]:
        header = [
            "def run_batch(feeds_list):",
            "    batch = len(feeds_list)",
            "    if batch == 0:",
            "        return [], 0",
            "    _rows = 0",
        ]
        for pos, node in enumerate(self.graph):
            self.line(f"# -- {node.name} ({node.op.op_type})")
            self._emit_node(node)
            self._emit_frees(pos)
        self._emit_return()
        source = "\n".join(header + self.lines) + "\n"
        return source, self.ns

    def _emit_frees(self, pos: int) -> None:
        freed = self.liveness.frees_at(pos)
        names = []
        for node_id in freed:
            entry = self.forms.get(node_id, {})
            names.extend(entry.values())
            self.forms[node_id] = {}
        if names:
            self.line(" = ".join(names) + " = None")

    def _emit_return(self) -> None:
        outputs = self.graph.output_nodes()
        pieces = []
        for node in outputs:
            var = self.list_var(node.node_id)
            pieces.append(f"{node.name!r}: {var}[s]")
        self.line(f"return [{{{', '.join(pieces)}}} for s in range(batch)], _rows")

    # -- per-node dispatch (emit time, not run time) ------------------------

    def _emit_node(self, node) -> None:
        op = node.op
        plan = self.plans.get(node.node_id)
        nid = node.node_id
        leading_one = all(
            self.shape(i)[0] == 1 for i in node.inputs
        ) and (len(node.output_shape) > 0 and node.output_shape[0] == 1)
        if isinstance(op, ops.Input):
            self._emit_input(node)
            return
        if isinstance(op, ops.Constant):
            self._emit_constant(node)
            return
        if (
            op.is_compute_heavy
            and plan is not None
            and plan.instruction in _GEMM_OPCODES
        ):
            if isinstance(op, ops.MatMul) and op.weight_shape is not None:
                if leading_one and len(op.weight_shape) == 2:
                    self._emit_qgemm_matmul(node)
                else:
                    self._emit_qcompute_sample(node, plan)
                return
            if isinstance(op, ops.MatMul):
                self._emit_qcompute_sample(node, plan)
                return
            if isinstance(op, ops.Dense):
                if leading_one:
                    self._emit_qgemm_dense(node)
                else:
                    self._emit_qcompute_sample(node, plan)
                return
            if isinstance(op, ops.Conv2D) and op.groups == 1:
                if leading_one:
                    self._emit_qgemm_conv(node)
                else:
                    self._emit_qcompute_sample(node, plan)
                return
            # Grouped/depthwise/transpose convolutions: the interpreter
            # falls back to float reference semantics (with no feeds).
            self._emit_float(node, feedful=False)
            return
        if isinstance(op, (ops.Add, ops.Sub)) and len(node.inputs) == 2:
            if leading_one and self._same_rank(node):
                self._emit_qaddsub(node)
            else:
                self._emit_qaddsub_sample(node)
            return
        if isinstance(op, ops.ReLU):
            if leading_one:
                self._emit_qrelu(node)
            else:
                self._emit_qrelu_sample(node)
            return
        self._emit_float(node, feedful=True)

    def _same_rank(self, node) -> bool:
        """Whether stacking keeps a broadcasting node's operands
        aligned: a lower-rank operand (a ``(1,)`` scale constant)
        stacks to ``(batch,)``, which numpy would line up with the
        *last* axis instead of the batch axis."""
        rank = len(node.output_shape)
        return all(len(self.shape(i)) == rank for i in node.inputs)

    # -- inputs and constants ----------------------------------------------

    def _emit_input(self, node) -> None:
        fetch = self.const("in", _make_input_fetch(node, self.executor.reference))
        var = f"v{node.node_id}"
        self.line(f"{var} = [{fetch}(feeds_list[s]) for s in range(batch)]")
        self.set_list(node.node_id, var)
        self.sample_nodes += 1

    def _emit_constant(self, node) -> None:
        value = self.executor.reference._weight(node, "const", node.op.shape)
        cname = self.const("const", value)
        var = f"v{node.node_id}"
        # Per-sample form shares the one hoisted array (read-only);
        # the stacked form materializes lazily via the shared converter.
        self.line(f"{var} = [{cname}] * batch")
        self.set_list(node.node_id, var)
        self.stacked_nodes += 1

    # -- quantized GEMMs -----------------------------------------------------

    def _weight_consts(self, node, key: str, shape, transpose_b=False):
        """Hoist weight levels / params through the executor's caches."""
        ref = self.executor.reference
        b_float = ref._weight(node, key, shape)
        b_params = self.executor._params_for_weight(node, b_float)
        if transpose_b:
            b_float = np.swapaxes(b_float, -1, -2)
        b_q = self.executor._levels_for_weight(node, b_params, b_float)
        return b_q, b_params

    def _emit_gemm_core(self, aq_var: str, bq_name: str, depth: int) -> bool:
        """The `_gemm_levels` integer core as the exact BLAS product.

        Returns True when the emitted ``acc`` is float64 (exact integer
        values) rather than int32, letting callers skip the widening
        cast in the dequant tail."""
        # The weight operand is loop-invariant: hoist its float64 form
        # once at emit time instead of re-widening the int8 levels
        # every batch.
        bqf_name = self.const("wqf", self.ns[bq_name].astype(np.float64))
        product = f"{aq_var}.astype(np.float64) @ {bqf_name}"
        # When the exact integer accumulator provably fits int32
        # (|acc| <= 127*127*depth < 2**31), the
        # float64 -> int32 -> float64 round-trip in the dequant tail is
        # the identity on values: skip both full-array casts and hand
        # the f64 product straight to the caller.
        if 127 * 127 * depth < 2**31:
            self.line(f"acc = {product}")
            return True
        self.line(f"acc = ({product}).astype(np.int32)")
        return False

    def _emit_qgemm_matmul(self, node) -> None:
        op = node.op
        nid = node.node_id
        b_q, b_params = self._weight_consts(
            node, "w", op.weight_shape, transpose_b=op.transpose_b
        )
        a_params = self.calibration.params(node.inputs[0])
        bq_name = self.const("wq", b_q)
        qa = self.const("qa", a_params)
        sc = self.const("sc", a_params.scale * b_params.scale)
        x = self.stacked_var(node.inputs[0])
        in_shape = self.shape(node.inputs[0])
        depth = int(in_shape[-1])
        out_tail = ", ".join(str(int(d)) for d in node.output_shape[1:])
        if _elems(in_shape) >= 50_000:
            self.line(f"aq = _qc({qa}, {x}).reshape(-1, {depth})")
        else:
            self.line(f"aq = {qa}.quantize({x}.reshape(-1, {depth}))")
        self.line("_rows += aq.shape[0]")
        f64 = self._emit_gemm_core("aq", bq_name, depth)
        accf = "acc" if f64 else "acc.astype(np.float64)"
        var = f"v{nid}s"
        self.line(
            f"{var} = ({accf} * {sc})"
            f".reshape((batch, {out_tail}))"
        )
        self.set_stacked(nid, var)
        self.stacked_nodes += 1

    def _emit_qgemm_dense(self, node) -> None:
        op = node.op
        nid = node.node_id
        flat = 1
        for dim in self.shape(node.inputs[0])[1:]:
            flat *= int(dim)
        b_q, b_params = self._weight_consts(node, "w", (flat, op.units))
        a_params = self.calibration.params(node.inputs[0])
        bq_name = self.const("wq", b_q)
        qa = self.const("qa", a_params)
        sc = self.const("sc", a_params.scale * b_params.scale)
        x = self.stacked_var(node.inputs[0])
        self.line(f"aq = {qa}.quantize({x}.reshape(batch, -1))")
        self.line("_rows += aq.shape[0]")
        f64 = self._emit_gemm_core("aq", bq_name, flat)
        accf = "acc" if f64 else "acc.astype(np.float64)"
        var = f"v{nid}s"
        self.line(f"{var} = {accf} * {sc}")
        self.set_stacked(nid, var)
        self.stacked_nodes += 1

    def _emit_qgemm_conv(self, node) -> None:
        """The quantized conv, channel-major: ``Wt (OC, K) @ P (K, OH*OW)``
        per sample, written straight into the NCHW output.

        ``P`` holds one sample's quantized levels as float64 — for a
        1x1 kernel a reshape (a slice, when strided) of the quantized
        NCHW input, otherwise one gather through the geometry's
        emission-time plan in ``(c, i, j)`` row order, the weight
        matrix's own K order.  int8 x int8 sums are exact integers in
        float64 (|acc| <= 128 * 127 * K, far below 2**53), so neither
        the operand orientation nor the per-sample grouping can change
        a bit of the accumulator: it is the interpreter's, transposed.
        Dequantisation and the fused activation run in place on the
        output slice with the reference's own ufunc sequence, so the
        layout the consumer reads is the layout the GEMM wrote — no
        NCHW->NHWC->NCHW round trip.
        """
        op = node.op
        nid = node.node_id
        oc, oh, ow = (int(d) for d in node.output_shape[1:])
        c, h, w = (int(d) for d in self.shape(node.inputs[0])[1:])
        kernel, stride, padding = (
            tuple(op.kernel), tuple(op.stride), tuple(op.padding)
        )
        b_q, b_params = self._weight_consts(
            node, "w0", (kernel[0] * kernel[1] * c, op.out_channels)
        )
        a_params = self.calibration.params(node.inputs[0])
        qa = self.const("qa", a_params)
        sc = self.const("sc", a_params.scale * b_params.scale)
        x = self.stacked_var(node.inputs[0])
        # A transposed view of the widened levels: BLAS takes the
        # orientation as a flag, and exact sums make it irrelevant.
        wt = self.const("wt", b_q.astype(np.float64).T)
        self.line(f"out = np.empty((batch, {oc}, {oh}, {ow}))")
        self.line("for _s in range(batch):")
        lv = f"_qlv({qa}, {x}[_s])"
        if kernel == (1, 1) and padding == (0, 0):
            if stride != (1, 1):
                lv += f"[:, ::{stride[0]}, ::{stride[1]}]"
            self.line(f"    _p = {lv}.reshape({c}, -1)")
        else:
            idx = self._gather_plan(
                h + 2 * padding[0], w + 2 * padding[1], kernel, stride,
                taps_last=False,
            )
            self.line(f"    _p = _patches({lv}, {idx}, {padding})")
        self.line(f"    _o = out[_s].reshape({oc}, -1)")
        self.line(f"    np.matmul({wt}, _p, out=_o)")
        if 128 * 127 * b_q.shape[0] >= 2**31:
            # The interpreter narrows its accumulator to int32; past
            # this depth that cast can wrap, so reproduce it.
            self.line("    _o[...] = _o.astype(np.int32)")
        self.line(f"    np.multiply(_o, {sc}, out=_o)")
        if op.fused_activation:
            act = self.const(
                "act", _ACTIVATIONS_INPLACE[op.fused_activation]
            )
            self.line(f"    {act}(_o)")
        self.line(f"_rows += batch * {oh * ow}")
        var = f"v{nid}s"
        self.line(f"{var} = out")
        self.set_stacked(nid, var)
        self.stacked_nodes += 1

    def _gather_plan(self, hp, wp, kernel, stride, *, taps_last) -> str:
        """The hoisted window-gather index of one conv geometry,
        built once per emission and shared by every node that has it."""
        key = (hp, wp, kernel, stride, taps_last)
        if key not in self._plans:
            self._plans[key] = self.const(
                "idx", _window_index(hp, wp, kernel, stride, taps_last)
            )
        return self._plans[key]

    def _emit_qcompute_sample(self, node, plan) -> None:
        """Per-sample fall-through to the interpreter's own quantized
        compute path (activation x activation matmuls and friends)."""
        nid = node.node_id
        nconst = self.const("n", node)
        pconst = self.const("p", plan)
        ins = ", ".join(
            f"{self.list_var(i)}[s]" for i in node.inputs
        )
        var = f"v{nid}"
        self.line(
            f"{var} = [_qcompute({nconst}, [{ins}], {pconst}) "
            f"for s in range(batch)]"
        )
        self.set_list(nid, var)
        self.sample_nodes += 1

    # -- quantized elementwise ----------------------------------------------

    def _emit_qaddsub(self, node) -> None:
        from repro.runtime.rescale import (
            addsub_rescale_plan,
            shift_underflows,
        )

        op = node.op
        nid = node.node_id
        bound_a = self.calibration.bound(node.inputs[0])
        bound_b = self.calibration.bound(node.inputs[1])
        try:
            plan = addsub_rescale_plan(bound_a, bound_b, node=node.name)
        except Exception:
            # Pathological bounds: keep the interpreter's exact runtime
            # error semantics via a per-sample call.
            self._emit_qaddsub_sample(node)
            return
        if any(
            (not step.skipped) and shift_underflows(step.multiplier, step.shift)
            for step in plan.steps
        ):
            self._emit_qaddsub_sample(node)
            return
        a = self.stacked_var(node.inputs[0])
        b = self.stacked_var(node.inputs[1])
        # Fixed-point arithmetic is exact, so narrowing the accumulator
        # to int32 changes nothing *provided no intermediate can
        # overflow* — provable at emit time from the plan's multipliers
        # (|level| <= 127).  Half the memory traffic on the hot adds.
        prod_max = 0
        acc_max = 0
        for step in plan.steps:
            if step.skipped:
                continue
            if step.shift < 0:
                eff = abs(step.multiplier) << -step.shift
                prod = 127 * eff
                post = prod
            else:
                prod = 127 * abs(step.multiplier)
                post = (prod >> step.shift) + 1
            prod_max = max(prod_max, prod)
            acc_max += post
        narrow = prod_max < 2**30 and acc_max < 2**30
        lv_dtype = "np.int32" if narrow else "np.int64"
        osc = self.const("osc", plan.out_scale)
        var = f"v{nid}s"
        chunk = _elems(node.output_shape[1:]) >= 50_000
        self.line(f"ba, bb = np.broadcast_arrays({a}, {b})")
        pre = "    " if chunk else ""
        if chunk:
            # Per-sample accumulation: every op here is elementwise, so
            # slicing the batch axis is exact — and the working set
            # stays cache-resident instead of streaming multi-MB
            # temporaries through each pass.
            self.line("out = np.empty(ba.shape)")
            self.line("for _s in range(batch):")
            self.line(f"    acc = np.zeros(ba.shape[1:], dtype={lv_dtype})")
        else:
            self.line(f"acc = np.zeros(ba.shape, dtype={lv_dtype})")
        for step in plan.steps:
            if step.skipped:
                continue
            qp = self.const("qs", QuantParams(scale=step.scale))
            operand = "ba" if step.operand_index == 0 else "bb"
            if chunk:
                operand = f"{operand}[_s]"
            if step.shift < 0:
                rescaled = f"(lv * {step.multiplier << -step.shift})"
            else:
                rescaled = f"((lv * {step.multiplier}) >> {step.shift})"
            sign = (
                "+"
                if step.operand_index == 0 or isinstance(op, ops.Add)
                else "-"
            )
            self.line(f"{pre}lv = {qp}.quantize({operand}).astype({lv_dtype})")
            self.line(f"{pre}acc = acc {sign} {rescaled}")
        if chunk:
            self.line(
                f"    np.multiply(_sat8(_vasr(acc, 0)), {osc}, out=out[_s])"
            )
            self.line(f"{var} = out")
        else:
            self.line("out = _sat8(_vasr(acc, 0))")
            self.line(f"{var} = out.astype(np.float64) * {osc}")
        self.set_stacked(nid, var)
        self.stacked_nodes += 1

    def _emit_qaddsub_sample(self, node) -> None:
        nid = node.node_id
        nconst = self.const("n", node)
        oconst = self.const("o", node.op)
        a = self.list_var(node.inputs[0])
        b = self.list_var(node.inputs[1])
        var = f"v{nid}"
        self.line(
            f"{var} = [_qaddsub({nconst}, {oconst}, [{a}[s], {b}[s]]) "
            f"for s in range(batch)]"
        )
        self.set_list(nid, var)
        self.sample_nodes += 1

    def _emit_qrelu(self, node) -> None:
        nid = node.node_id
        params = self.calibration.params(node.inputs[0])
        qp = self.const("qp", params)
        x = self.stacked_var(node.inputs[0])
        self.line(f"lv = {qp}.quantize({x})")
        self.line("lv = _vmax(lv, np.zeros_like(lv))")
        var = f"v{nid}s"
        self.line(f"{var} = {qp}.dequantize(lv)")
        self.set_stacked(nid, var)
        self.stacked_nodes += 1

    def _emit_qrelu_sample(self, node) -> None:
        nid = node.node_id
        nconst = self.const("n", node)
        x = self.list_var(node.inputs[0])
        var = f"v{nid}"
        self.line(f"{var} = [_qrelu({nconst}, {x}[s]) for s in range(batch)]")
        self.set_list(nid, var)
        self.sample_nodes += 1

    # -- float path ---------------------------------------------------------

    def _emit_float(self, node, feedful: bool) -> None:
        """Float reference semantics, batched when provably exact."""
        if self._try_float_stacked(node):
            return
        self._emit_ref_sample(node, feedful)

    def _emit_ref_sample(self, node, feedful: bool) -> None:
        nid = node.node_id
        nconst = self.const("n", node)
        ins = ", ".join(f"{self.list_var(i)}[s]" for i in node.inputs)
        feeds = "feeds_list[s] or {}" if feedful else "{}"
        var = f"v{nid}"
        self.line(
            f"{var} = [_ref_eval({nconst}, [{ins}], {feeds}) "
            f"for s in range(batch)]"
        )
        self.set_list(nid, var)
        self.sample_nodes += 1

    def _try_float_stacked(self, node) -> bool:
        """Emit the batched float body if batching is provably exact."""
        op = node.op
        nid = node.node_id
        out_shape = tuple(int(d) for d in node.output_shape)
        in_shapes = [self.shape(i) for i in node.inputs]
        if not out_shape or out_shape[0] != 1:
            return False
        if any(not s or s[0] != 1 for s in in_shapes):
            return False
        self._act_handled = False
        if not self._emit_float_chunked(node, op, out_shape):
            expr = self._float_stacked_expr(node, op, in_shapes, out_shape)
            if expr is None:
                return False
            self.line(f"out = {expr}" if "\n" not in expr else expr)
        if op.fused_activation and not self._act_handled:
            act = self.const("act", _ACTIVATIONS[op.fused_activation])
            self.line(f"out = {act}(out)")
        var = f"v{nid}s"
        self.line(f"{var} = out")
        self.set_stacked(nid, var)
        self.stacked_nodes += 1
        return True

    #: Per-sample element count above which transcendental chains are
    #: evaluated one sample at a time.  A stacked GELU/Softmax walks
    #: several multi-megabyte temporaries per ufunc pass, falling out
    #: of cache between passes; sample-sized chunks stay resident.
    #: Elementwise (and last-axis-reduction) ops are slice-exact, so
    #: the chunked loop is bit-identical to the stacked expression.
    _CHUNK_ELEMS = 200_000

    def _emit_float_chunked(self, node, op, out_shape) -> bool:
        """Emit a per-sample loop for big transcendental ops.

        Writes the result into ``out`` and returns True, or returns
        False to fall through to the stacked expression."""
        if not isinstance(
            op, (ops.GELU, ops.Softmax, ops.Sigmoid, ops.Tanh)
        ):
            return False
        elems = 1
        for dim in out_shape[1:]:
            elems *= int(dim)
        if elems < self._CHUNK_ELEMS:
            return False
        x = self.stacked_var(node.inputs[0])
        tail = ", ".join(str(d) for d in out_shape[1:])
        self.line(f"out = np.empty((batch, {tail}))")
        self.line("for _s in range(batch):")
        self.line(f"    _x = {x}[_s]")
        if isinstance(op, ops.GELU):
            self.line(
                "    out[_s] = 0.5 * _x * (1.0 + np.tanh(0.7978845608 * "
                "(_x + 0.044715 * _x**3)))"
            )
        elif isinstance(op, ops.Softmax):
            # The one reduction here: canonical operand, as in the
            # stacked Softmax template.
            self.line("    _x = np.ascontiguousarray(_x)")
            self.line("    _t = _x - _x.max(axis=-1, keepdims=True)")
            self.line("    _e = np.exp(_t)")
            self.line("    out[_s] = _e / _e.sum(axis=-1, keepdims=True)")
        elif isinstance(op, ops.Sigmoid):
            self.line("    out[_s] = 1.0 / (1.0 + np.exp(-_x))")
        else:
            self.line("    out[_s] = np.tanh(_x)")
        return True

    def _float_stacked_expr(
        self, node, op, in_shapes, out_shape
    ) -> Optional[str]:
        """The batched expression for one float node, or None.

        Multi-line bodies emit their prefix lines directly and return
        the final expression.  Every template mirrors
        :meth:`repro.graph.execute.ReferenceExecutor._apply` with the
        per-sample leading 1 widened to the batch axis.
        """
        g = self.stacked_var  # emits conversions as a side effect

        def gc(node_id: int) -> str:
            # Order-sensitive templates read C-contiguous operands, as
            # `ReferenceExecutor._apply` does: bits depend on values,
            # not on the producer's strides.
            return f"np.ascontiguousarray({g(node_id)})"

        if isinstance(op, ops.Conv2D):
            return self._float_conv(node, op, in_shapes)
        if isinstance(op, ops.DepthwiseConv2D):
            return self._float_depthwise(node, op, in_shapes, out_shape)
        if isinstance(
            op, (ops.Add, ops.Sub, ops.Mul, ops.Div)
        ) and not self._same_rank(node):
            return None
        if isinstance(op, ops.Add):
            return " + ".join(g(i) for i in node.inputs)
        if isinstance(op, ops.Sub):
            return f"{g(node.inputs[0])} - {g(node.inputs[1])}"
        if isinstance(op, ops.Mul):
            return " * ".join(g(i) for i in node.inputs)
        if isinstance(op, ops.Div):
            a, b = g(node.inputs[0]), g(node.inputs[1])
            return f"{a} / ({b} + np.sign({b}) * 1e-9 + 1e-12)"
        if isinstance(op, ops.Pow):
            return (
                f"np.power(np.abs({g(node.inputs[0])}) + 1e-12, "
                f"{op.exponent!r})"
            )
        if isinstance(op, ops.ReLU6):
            return f"np.clip({g(node.inputs[0])}, 0.0, 6.0)"
        if isinstance(op, ops.HardSwish):
            x = g(node.inputs[0])
            return f"{x} * np.clip({x} + 3.0, 0.0, 6.0) / 6.0"
        if isinstance(op, ops.Sigmoid):
            return f"1.0 / (1.0 + np.exp(-{g(node.inputs[0])}))"
        if isinstance(op, ops.Tanh):
            return f"np.tanh({g(node.inputs[0])})"
        if isinstance(op, ops.GELU):
            x = g(node.inputs[0])
            return (
                f"0.5 * {x} * (1.0 + np.tanh(0.7978845608 * "
                f"({x} + 0.044715 * {x}**3)))"
            )
        if isinstance(op, ops.Softmax):
            self.line(f"xc = {gc(node.inputs[0])}")
            self.line("t = xc - xc.max(axis=-1, keepdims=True)")
            self.line("e = np.exp(t)")
            return "e / e.sum(axis=-1, keepdims=True)"
        if isinstance(op, (ops.LayerNorm, ops.InstanceNorm)):
            axes = "(-1,)" if isinstance(op, ops.LayerNorm) else "(-2, -1)"
            self.line(f"xc = {gc(node.inputs[0])}")
            self.line(f"m = xc.mean(axis={axes}, keepdims=True)")
            self.line(f"vr = xc.var(axis={axes}, keepdims=True)")
            return "(xc - m) / np.sqrt(vr + 1e-5)"
        if isinstance(op, (ops.MaxPool2D, ops.AvgPool2D)):
            x = g(node.inputs[0])
            c = int(in_shapes[0][1])
            kh, kw = op.kernel
            fn = "np.max" if isinstance(op, ops.MaxPool2D) else "np.mean"
            self.line(
                f"cols = _im2col({x}, {tuple(op.kernel)}, "
                f"{tuple(op.stride)}, {tuple(op.padding)})"
            )
            self.line(
                f"cols = cols.reshape(batch, cols.shape[1], cols.shape[2], "
                f"{c}, {kh * kw})"
            )
            return f"{fn}(cols, axis=-1).transpose(0, 3, 1, 2)"
        if isinstance(op, ops.GlobalAvgPool):
            return f"{gc(node.inputs[0])}.mean(axis=(2, 3), keepdims=True)"
        if isinstance(op, ops.ReduceMean):
            ndim = len(in_shapes[0])
            axes = op.axis if isinstance(op.axis, tuple) else (op.axis,)
            if any(a % ndim == 0 for a in axes):
                return None
            return (
                f"{gc(node.inputs[0])}.mean(axis={op.axis!r}, keepdims=True)"
            )
        if isinstance(op, ops.Resize2D):
            x = g(node.inputs[0])
            return f"{x}.repeat({op.scale}, axis=2).repeat({op.scale}, axis=3)"
        if isinstance(op, ops.DepthToSpace):
            _, c, h, w = (int(d) for d in in_shapes[0])
            b = op.block
            x = g(node.inputs[0])
            self.line(
                f"t = {x}.reshape(batch, {c // (b * b)}, {b}, {b}, {h}, {w})"
            )
            return (
                f"t.transpose(0, 1, 4, 2, 5, 3)"
                f".reshape(batch, {c // (b * b)}, {h * b}, {w * b})"
            )
        if isinstance(op, ops.Reshape):
            tail = ", ".join(str(d) for d in out_shape[1:])
            return f"{g(node.inputs[0])}.reshape((batch, {tail}))"
        if isinstance(op, ops.Transpose):
            ndim = len(in_shapes[0])
            perm = op.perm or tuple(reversed(range(ndim)))
            if perm[0] != 0:
                return None
            return f"{g(node.inputs[0])}.transpose({tuple(perm)})"
        if isinstance(op, ops.Concat):
            ndim = len(in_shapes[0])
            if op.axis % ndim == 0:
                return None
            parts = ", ".join(g(i) for i in node.inputs)
            return f"np.concatenate([{parts}], axis={op.axis})"
        if isinstance(op, ops.Slice):
            ndim = len(in_shapes[0])
            axis = op.axis % ndim
            if axis == 0:
                return None
            index = ["slice(None)"] * ndim
            index[axis] = f"slice({op.begin}, {op.begin + op.length})"
            return f"{g(node.inputs[0])}[({', '.join(index)})]"
        if isinstance(op, ops.Pad):
            ph, pw = op.pads
            return (
                f"np.pad({g(node.inputs[0])}, "
                f"((0, 0), (0, 0), ({ph}, {ph}), ({pw}, {pw})))"
            )
        if isinstance(op, ops.Embedding):
            table = self.executor.reference._weight(
                node, "table", (op.vocab, op.dim)
            )
            x = g(node.inputs[0])
            return (
                f"{self.const('tab', table)}"
                f"[np.clip({x}.astype(np.int64), 0, {op.vocab - 1})]"
            )
        return None

    def _float_conv(self, node, op, in_shapes) -> str:
        """Grouped float conv, groups unrolled at emit time."""
        x = self.stacked_var(node.inputs[0])
        c = int(in_shapes[0][1])
        cg = c // op.groups
        ocg = op.out_channels // op.groups
        parts = []
        for g in range(op.groups):
            w = self.executor.reference._weight(
                node, f"w{g}", (cg * op.kernel[0] * op.kernel[1], ocg)
            )
            wname = self.const("w", w)
            xg = x if op.groups == 1 else f"{x}[:, {g * cg}:{(g + 1) * cg}]"
            self.line(
                f"p{g} = (_im2col({xg}, {tuple(op.kernel)}, "
                f"{tuple(op.stride)}, {tuple(op.padding)}) @ {wname})"
                f".transpose(0, 3, 1, 2)"
            )
            parts.append(f"p{g}")
        if op.groups == 1:
            return parts[0]
        return f"np.concatenate([{', '.join(parts)}], axis=1)"

    def _float_depthwise(self, node, op, in_shapes, out_shape) -> str:
        x = self.stacked_var(node.inputs[0])
        c, h, w_in = (int(d) for d in in_shapes[0][1:])
        kh, kw = op.kernel
        ph, pw = op.padding
        w = self.executor.reference._weight(
            node, "w", (c, kh * kw, op.multiplier)
        )
        # Hoist the kernel pre-split into (c, kh, kw, m): the runtime
        # helper contracts the window axes (i, j) directly, which is
        # the same k = i*kw + j order the reference einsum reduces in.
        wname = self.const("w", np.ascontiguousarray(w.reshape(c, kh, kw, op.multiplier)))
        idx = self._gather_plan(
            h + 2 * ph, w_in + 2 * pw, tuple(op.kernel), tuple(op.stride),
            taps_last=True,
        )
        actname = "None"
        if op.fused_activation:
            actname = self.const(
                "act", _ACTIVATIONS_INPLACE[op.fused_activation]
            )
            self._act_handled = True
        return (
            f"_dw({x}, {wname}, {tuple(out_shape[2:])}, "
            f"{tuple(op.padding)}, {idx}, {actname})"
        )


def _im2col_fast(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """Cache-friendly im2col, bit-identical to the reference one.

    The reference ``_im2col`` scatter-writes one ``(kh, kw)`` tap at a
    time into a strided destination, which thrashes caches on stacked
    batches.  This version gathers through a ``sliding_window_view``
    with one contiguous copy instead — the same elements end up at the
    same positions (pure movement, no arithmetic), several times
    faster on batch-stacked inputs.  Works for any dtype, which is
    what lets the emitted quantized convs im2col *int8* levels (8x
    less bandwidth than the float patch matrix).
    """
    from numpy.lib.stride_tricks import sliding_window_view

    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n, oh, ow, c * kh * kw)


def _elems(shape) -> int:
    total = 1
    for dim in shape:
        total *= int(dim)
    return total


def _quantize_chunked(qp, x):
    """Per-sample quantization: identical bits, cache-resident chunks.

    Quantization is elementwise, so slicing the batch axis cannot
    change any value — but each sample's div/round/clip passes run
    over a slice that stays in cache instead of re-walking a
    multi-megabyte stacked array per pass.
    """
    out = np.empty(x.shape, dtype=np.int8)
    for s in range(x.shape[0]):
        out[s] = qp.quantize(x[s])
    return out


def _relu_inplace(x) -> None:
    np.maximum(x, 0.0, out=x)


def _relu6_inplace(x) -> None:
    np.clip(x, 0.0, 6.0, out=x)


def _hardswish_inplace(x) -> None:
    t = np.add(x, 3.0)
    np.clip(t, 0.0, 6.0, out=t)
    np.multiply(x, t, out=t)
    np.divide(t, 6.0, out=x)


def _sigmoid_inplace(x) -> None:
    t = np.negative(x)
    np.exp(t, out=t)
    np.add(1.0, t, out=t)
    np.divide(1.0, t, out=x)


def _tanh_inplace(x) -> None:
    np.tanh(x, out=x)


#: ``_ACTIVATIONS`` applied in place: the same ufuncs on the same
#: operands in the same order, so the same bits — through ``out=``
#: and at most one temporary instead of one per ufunc.
_ACTIVATIONS_INPLACE = {
    "relu": _relu_inplace,
    "relu6": _relu6_inplace,
    "hardswish": _hardswish_inplace,
    "sigmoid": _sigmoid_inplace,
    "tanh": _tanh_inplace,
}


def _quantize_levels(qp, x):
    """``qp.quantize(x)`` without the int8 cast: float64 levels.

    The same divide / round / add / clip sequence, run in place on one
    temporary.  The result holds integers in [-128, 127] (and no -0.0:
    the zero-point add clears it), so it equals
    ``params.quantize(x).astype(np.float64)`` bit for bit on every
    non-NaN input — the form the exact float64 GEMM consumes, minus a
    narrowing and a widening pass.
    """
    t = np.divide(np.asarray(x, dtype=np.float64), qp.scale)
    np.round(t, out=t)
    np.add(t, qp.zero_point, out=t)
    np.clip(t, -128, 127, out=t)
    return t


def _window_index(hp, wp, kernel, stride, taps_last) -> np.ndarray:
    """Gather plan of one conv geometry over a padded ``hp x wp`` plane.

    Entry ``[(i, j), (y, x)]`` — or ``[(y, x), (i, j)]`` with
    ``taps_last`` — is the flat offset of tap ``(i, j)`` of output
    pixel ``(y, x)``.  The plane is per channel, so one plan serves
    any channel count; it is built at emission and frozen, because
    every concurrent ``run_batch`` call reads the same array.
    """
    kh, kw = kernel
    sh, sw = stride
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    pixels = (
        (np.arange(oh) * (sh * wp))[:, None] + np.arange(ow) * sw
    ).reshape(-1)
    taps = ((np.arange(kh) * wp)[:, None] + np.arange(kw)).reshape(-1)
    if taps_last:
        index = pixels[:, None] + taps[None, :]
    else:
        index = taps[:, None] + pixels[None, :]
    index = np.ascontiguousarray(index, dtype=np.intp)
    index.flags.writeable = False
    return index


def _pad_planes(x, padding):
    """Zero-pad the two trailing axes of one ``(c, h, w)`` sample
    (``np.pad``'s generality costs 0.1-0.2 ms a call on the small
    planes of a mobile CNN's tail — sixteen calls a request)."""
    ph, pw = padding
    if not (ph or pw):
        return x
    c, h, w = x.shape
    padded = np.zeros((c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    padded[:, ph : ph + h, pw : pw + w] = x
    return padded


def _gather_patches(levels, index, padding):
    """One sample's ``(C, H, W)`` levels -> the ``(C*kh*kw, OH*OW)``
    patch matrix, rows in ``(c, i, j)`` order: a single gather through
    the geometry's plan (pure movement; padding contributes level 0,
    as it does when the interpreter quantizes a padded patch)."""
    planes = _pad_planes(levels, padding)
    cols = np.take(
        planes.reshape(planes.shape[0], -1), index, axis=1, mode="clip"
    )
    return cols.reshape(-1, index.shape[1])


def _depthwise_fast(x, w4, out_hw, padding, index, act=None):
    """Bit-identical fast depthwise conv for emitted executors.

    The reference implementation scatter-builds an ``(n, oh, ow, c, k)``
    patch matrix and einsums it down.  This version gathers each
    channel block's windows, k-contiguous, through the geometry's
    emission-time plan (``index``, in ``taps_last`` order) and lets
    einsum's index remapping produce NCHW output directly.  The
    contraction still runs einsum's contiguous-k inner kernel over the
    taps in the same ``i*kw + j`` order, so every output element sees
    the identical sequence of multiply-adds — byte-identical results.

    The gather and the contraction both walk the batch one sample at a
    time and the channels in blocks sized to a ~256KB scratch buffer
    (allocated per call: concurrent calls share nothing mutable): the
    gathered windows never leave cache before einsum consumes them, so
    the patch matrix costs one pass of DRAM traffic instead of two.
    Channel blocks only shrink the outer loop of the contraction — the
    per-element tap dot is untouched, so the result stays
    byte-identical.  ``act`` is an ``_ACTIVATIONS_INPLACE`` entry.
    """
    n, c = x.shape[:2]
    _, kh, kw, multiplier = w4.shape
    oh, ow = out_hw
    out = np.empty((n, c * multiplier, oh, ow))
    per_ch = oh * ow * kh * kw * 8
    cb = max(1, min(c, 262144 // per_ch))
    buf = np.empty((cb, oh * ow, kh * kw))
    for s in range(n):
        planes = _pad_planes(x[s], padding).reshape(c, -1)
        slot = out[s : s + 1].reshape(1, c, multiplier, oh, ow)
        for c0 in range(0, c, cb):
            c1 = min(c0 + cb, c)
            cols = buf[: c1 - c0]
            np.take(planes[c0:c1], index, axis=1, out=cols, mode="clip")
            np.einsum(
                "nchwij,cijm->ncmhw",
                cols.reshape(1, c1 - c0, oh, ow, kh, kw),
                w4[c0:c1],
                out=slot[:, c0:c1],
            )
        if act is not None:
            # Fused activation applied while the sample is still
            # cache-resident; elementwise, so slice-exact.
            act(slot)
    return out


def _make_input_fetch(node, reference):
    """Per-sample Input fetch mirroring the reference executor exactly."""
    from repro.errors import GraphError

    op = node.op
    shape = tuple(op.shape)
    name = node.name

    def fetch(feeds):
        feeds = feeds or {}
        if name in feeds:
            value = np.asarray(feeds[name], dtype=np.float64)
            if tuple(value.shape) != shape:
                raise GraphError(
                    f"feed for {name} has shape {value.shape}, "
                    f"expected {shape}"
                )
            return value
        return reference._weight(node, "input", shape)

    return fetch


def emit_executor(compiled, calibration, executor) -> EmittedExecutor:
    """Emit, compile and load the specialized executor for one model.

    ``executor`` is the engine's reference
    :class:`~repro.runtime.executor.QuantizedExecutor`: the emitted
    code shares its weight-level / weight-param caches and falls back
    to its bound methods for per-sample nodes, so interpreter and
    emitted paths stay literally the same arithmetic.

    Raises whatever goes wrong during emission — the engine treats any
    exception as a degradation and keeps serving per sample via the
    interpreter.
    """
    if _EMIT_FAULT_HOOK is not None:
        _EMIT_FAULT_HOOK(compiled)
    started = time.perf_counter()
    emitter = _Emitter(compiled, calibration, executor)
    source, namespace = emitter.emit()
    code = compile(source, f"<codegen:{compiled.graph.name}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(
        repr(sorted(calibration.bounds.items())).encode("utf-8")
    )
    emit_ms = (time.perf_counter() - started) * 1e3
    return EmittedExecutor(
        source=source,
        fingerprint=digest.hexdigest()[:16],
        fn=namespace["run_batch"],
        emit_ms=emit_ms,
        node_count=len(list(compiled.graph)),
        stacked_nodes=emitter.stacked_nodes,
        sample_nodes=emitter.sample_nodes,
        namespace=namespace,
    )
