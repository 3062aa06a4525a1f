"""Float reference executor for computational graphs.

Runs a graph in numpy float arithmetic with deterministic synthetic
weights.  This is the numerical ground truth that the quantized DSP
pipeline is validated against, and what the examples use to show
end-to-end inference.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph import ops
from repro.graph.graph import ComputationalGraph, Node


class ReferenceExecutor:
    """Executes a graph with numpy float semantics.

    Weights are generated lazily per node from a seeded RNG, so repeated
    runs (and separate framework simulations of the same model) see
    identical parameters.
    """

    def __init__(self, graph: ComputationalGraph, seed: int = 0) -> None:
        self.graph = graph
        self.seed = seed
        self._weights: Dict[str, np.ndarray] = {}

    # -- weights ------------------------------------------------------------

    def _weight(self, node: Node, key: str, shape: Sequence[int]) -> np.ndarray:
        """Deterministic per-node weight tensor.

        Seeded from the node *name* (stable across graph-pass rebuilds,
        unlike node ids) so optimization passes provably preserve
        numerics.
        """
        cache_key = f"{node.name}/{key}"
        if cache_key not in self._weights:
            digest = zlib.crc32(cache_key.encode("utf-8"))
            rng = np.random.default_rng(
                (self.seed * 1_000_003 + digest) % (2**32)
            )
            fan_in = max(1, int(np.prod(shape[1:])) if len(shape) > 1 else shape[0])
            self._weights[cache_key] = rng.normal(
                0.0, 1.0 / math.sqrt(fan_in), size=shape
            )
        return self._weights[cache_key]

    # -- execution ------------------------------------------------------------

    def run(
        self, feeds: Optional[Dict[str, np.ndarray]] = None
    ) -> Dict[str, np.ndarray]:
        """Execute the graph; returns {output node name: value}.

        Parameters
        ----------
        feeds:
            Values for :class:`~repro.graph.ops.Input` nodes by name.
            Missing inputs get deterministic random values.
        """
        feeds = feeds or {}
        values: Dict[int, np.ndarray] = {}
        for node in self.graph:
            inputs = [values[i] for i in node.inputs]
            values[node.node_id] = self._eval(node, inputs, feeds)
        return {
            node.name: values[node.node_id]
            for node in self.graph.output_nodes()
        }

    def _eval(
        self,
        node: Node,
        inputs: List[np.ndarray],
        feeds: Dict[str, np.ndarray],
    ) -> np.ndarray:
        op = node.op
        result = self._apply(node, op, inputs, feeds)
        if op.fused_activation:
            result = _ACTIVATIONS[op.fused_activation](result)
        expected = node.output_shape
        if tuple(result.shape) != tuple(expected):
            raise GraphError(
                f"{node.name}: executor produced shape {result.shape}, "
                f"shape inference said {expected}"
            )
        return result

    def _apply(self, node, op, inputs, feeds):
        """One operator's float semantics.

        A node's bits are a function of its inputs' *values*, never
        their strides: numpy sums a contiguous axis pairwise and a
        strided one sequentially, and BLAS picks its kernel by operand
        orientation, so every order-sensitive operator (reductions,
        normalisations, float products) reads a C-contiguous copy of
        its operands — a no-op when they already are.  That is what
        lets the emitted executor (:mod:`repro.codegen.emit`) hand a
        consumer a contiguous array where the interpreter hands it a
        transposed view and still match bit for bit.
        """
        if isinstance(op, _ORDER_SENSITIVE):
            inputs = [np.ascontiguousarray(x) for x in inputs]
        if isinstance(op, ops.Input):
            if node.name in feeds:
                value = np.asarray(feeds[node.name], dtype=np.float64)
                if tuple(value.shape) != tuple(op.shape):
                    raise GraphError(
                        f"feed for {node.name} has shape {value.shape}, "
                        f"expected {op.shape}"
                    )
                return value
            return self._weight(node, "input", op.shape)
        if isinstance(op, ops.Constant):
            return self._weight(node, "const", op.shape)
        if isinstance(op, ops.Conv2D):
            return self._conv2d(node, op, inputs[0])
        if isinstance(op, ops.DepthwiseConv2D):
            return self._depthwise(node, op, inputs[0])
        if isinstance(op, ops.TransposeConv2D):
            return self._transpose_conv(node, op, inputs[0])
        if isinstance(op, ops.MatMul):
            a = inputs[0]
            if op.weight_shape is not None:
                b = self._weight(node, "w", op.weight_shape)
            else:
                b = inputs[1]
            if op.transpose_b:
                b = np.swapaxes(b, -1, -2)
            return a @ b
        if isinstance(op, ops.Dense):
            flat = inputs[0].reshape(inputs[0].shape[0], -1)
            w = self._weight(node, "w", (flat.shape[1], op.units))
            return flat @ w
        if isinstance(op, ops.Add):
            return sum(inputs[1:], inputs[0])
        if isinstance(op, ops.Sub):
            return inputs[0] - inputs[1]
        if isinstance(op, ops.Mul):
            out = inputs[0]
            for extra in inputs[1:]:
                out = out * extra
            return out
        if isinstance(op, ops.Div):
            return inputs[0] / (inputs[1] + np.sign(inputs[1]) * 1e-9 + 1e-12)
        if isinstance(op, ops.Pow):
            return np.power(np.abs(inputs[0]) + 1e-12, op.exponent)
        if isinstance(op, ops.ReLU):
            return np.maximum(inputs[0], 0.0)
        if isinstance(op, ops.ReLU6):
            return np.clip(inputs[0], 0.0, 6.0)
        if isinstance(op, ops.HardSwish):
            x = inputs[0]
            return x * np.clip(x + 3.0, 0.0, 6.0) / 6.0
        if isinstance(op, ops.Sigmoid):
            return 1.0 / (1.0 + np.exp(-inputs[0]))
        if isinstance(op, ops.Tanh):
            return np.tanh(inputs[0])
        if isinstance(op, ops.GELU):
            x = inputs[0]
            return 0.5 * x * (1.0 + np.tanh(0.7978845608 * (x + 0.044715 * x**3)))
        if isinstance(op, ops.Softmax):
            x = inputs[0] - inputs[0].max(axis=-1, keepdims=True)
            e = np.exp(x)
            return e / e.sum(axis=-1, keepdims=True)
        if isinstance(op, (ops.LayerNorm, ops.InstanceNorm, ops.BatchNorm)):
            x = inputs[0]
            if isinstance(op, ops.LayerNorm):
                axes = (-1,)
            elif isinstance(op, ops.InstanceNorm):
                axes = (-2, -1)
            else:
                axes = tuple(i for i in range(x.ndim) if i != 1)
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            return (x - mean) / np.sqrt(var + 1e-5)
        if isinstance(op, ops.MaxPool2D):
            return self._pool(op, inputs[0], np.max)
        if isinstance(op, ops.AvgPool2D):
            return self._pool(op, inputs[0], np.mean)
        if isinstance(op, ops.GlobalAvgPool):
            return inputs[0].mean(axis=(2, 3), keepdims=True)
        if isinstance(op, ops.ReduceMean):
            return inputs[0].mean(axis=op.axis, keepdims=True)
        if isinstance(op, ops.Resize2D):
            return inputs[0].repeat(op.scale, axis=2).repeat(op.scale, axis=3)
        if isinstance(op, ops.DepthToSpace):
            n, c, h, w = inputs[0].shape
            b = op.block
            x = inputs[0].reshape(n, c // (b * b), b, b, h, w)
            x = x.transpose(0, 1, 4, 2, 5, 3)
            return x.reshape(n, c // (b * b), h * b, w * b)
        if isinstance(op, ops.Reshape):
            return inputs[0].reshape(node.output_shape)
        if isinstance(op, ops.Transpose):
            perm = op.perm or tuple(reversed(range(inputs[0].ndim)))
            return inputs[0].transpose(perm)
        if isinstance(op, ops.Concat):
            return np.concatenate(inputs, axis=op.axis)
        if isinstance(op, ops.Slice):
            index = [slice(None)] * inputs[0].ndim
            index[op.axis % inputs[0].ndim] = slice(
                op.begin, op.begin + op.length
            )
            return inputs[0][tuple(index)]
        if isinstance(op, ops.Pad):
            ph, pw = op.pads
            return np.pad(
                inputs[0], ((0, 0), (0, 0), (ph, ph), (pw, pw))
            )
        if isinstance(op, ops.Embedding):
            table = self._weight(node, "table", (op.vocab, op.dim))
            ids = np.clip(inputs[0].astype(np.int64), 0, op.vocab - 1)
            return table[ids]
        raise GraphError(f"reference executor: unimplemented op {op.op_type}")

    # -- conv helpers -----------------------------------------------------------

    @staticmethod
    def _im2col(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
        """(N, C, H, W) -> (N, OH, OW, C*KH*KW) patch matrix."""
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        n, c, h, w = x.shape
        oh = (h - kh) // sh + 1
        ow = (w - kw) // sw + 1
        cols = np.empty((n, oh, ow, c, kh, kw), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, :, :, i, j] = x[
                    :, :, i:i + sh * oh:sh, j:j + sw * ow:sw
                ].transpose(0, 2, 3, 1)
        return cols.reshape(n, oh, ow, c * kh * kw)

    def _conv2d(self, node, op: ops.Conv2D, x: np.ndarray) -> np.ndarray:
        n, c, _, _ = x.shape
        cg = c // op.groups
        ocg = op.out_channels // op.groups
        outs = []
        for g in range(op.groups):
            xg = x[:, g * cg:(g + 1) * cg]
            cols = self._im2col(xg, op.kernel, op.stride, op.padding)
            w = self._weight(
                node, f"w{g}", (cg * op.kernel[0] * op.kernel[1], ocg)
            )
            outs.append((cols @ w).transpose(0, 3, 1, 2))
        return np.concatenate(outs, axis=1)

    def _depthwise(
        self, node, op: ops.DepthwiseConv2D, x: np.ndarray
    ) -> np.ndarray:
        n, c, _, _ = x.shape
        cols = self._im2col(x, op.kernel, op.stride, op.padding)
        oh, ow = cols.shape[1], cols.shape[2]
        kh, kw = op.kernel
        cols = cols.reshape(n, oh, ow, c, kh * kw)
        w = self._weight(node, "w", (c, kh * kw, op.multiplier))
        out = np.einsum("nhwck,ckm->nhwcm", cols, w)
        out = out.reshape(n, oh, ow, c * op.multiplier)
        return out.transpose(0, 3, 1, 2)

    def _transpose_conv(
        self, node, op: ops.TransposeConv2D, x: np.ndarray
    ) -> np.ndarray:
        n, c, h, w = x.shape
        kh, kw = op.kernel
        sh, sw = op.stride
        ph, pw = op.padding
        oh = (h - 1) * sh - 2 * ph + kh
        ow = (w - 1) * sw - 2 * pw + kw
        weight = self._weight(node, "w", (c, op.out_channels, kh, kw))
        full = np.zeros((n, op.out_channels, oh + 2 * ph, ow + 2 * pw))
        for i in range(h):
            for j in range(w):
                patch = np.einsum("nc,comk->nomk", x[:, :, i, j], weight)
                full[:, :, i * sh:i * sh + kh, j * sw:j * sw + kw] += patch
        return full[:, :, ph:ph + oh, pw:pw + ow]

    def _pool(self, op, x: np.ndarray, reduce_fn) -> np.ndarray:
        cols = self._im2col(x, op.kernel, op.stride, op.padding)
        n, oh, ow, _ = cols.shape
        c = x.shape[1]
        kh, kw = op.kernel
        cols = cols.reshape(n, oh, ow, c, kh * kw)
        return reduce_fn(cols, axis=-1).transpose(0, 3, 1, 2)


#: Operators whose float result depends on the order their operands'
#: elements are visited in; :meth:`ReferenceExecutor._apply` hands them
#: C-contiguous operands (see its docstring).
_ORDER_SENSITIVE = (
    ops.GlobalAvgPool,
    ops.ReduceMean,
    ops.Softmax,
    ops.LayerNorm,
    ops.InstanceNorm,
    ops.BatchNorm,
    ops.MatMul,
)


_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "relu6": lambda x: np.clip(x, 0.0, 6.0),
    "hardswish": lambda x: x * np.clip(x + 3.0, 0.0, 6.0) / 6.0,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
}
