"""Span tracing from outside the program under test.

The program has no tracing of its own yet, so the benchmark records
spans around the calls *into* each layer: :data:`COMPILE_LAYERS` and
:data:`SERVE_LAYERS` name the layers' public functions, and
:func:`installed` patches those names — in the namespaces that imported
them by value — with span recorders for the length of a traced run.
End-to-end metrics never come from a traced run.

A span is ``name, start, end, parent, op``: the parent comes from a
thread-local stack, and every span of one compile or one request shares
the index of that op's root span.  Spans stay in memory and are written
once, by :func:`dump`.  A layer's *self time* is its span's duration
minus the part of it its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# A value hook sees ``(args, result)`` of the wrapped call and returns
# the count (or label) to record on the span, at the boundary where the
# work happens.
ValueHook = Callable[[tuple, object], object]


@dataclass(frozen=True)
class Wrap:
    """One patched name.

    ``target`` is ``module:attr`` or ``module:Class.method``.  With a
    trailing ``()`` the *returned* callable is wrapped instead
    (``module:factory()``), and with ``().attr`` the named attribute of
    the returned object (``module:factory().fn``).  ``span`` may hold
    ``{n}`` fields, filled from the call's positional arguments.
    """

    target: str
    span: str
    value: Optional[ValueHook] = None


#: layer (repo module) -> the calls into it that a compile crosses.
COMPILE_LAYERS: Dict[str, List[Wrap]] = {
    # Stage and verifier boundaries as the compiler itself draws them;
    # what a stage span's children leave uncovered is assembly glue.
    "verify.passes": [
        Wrap("repro.verify.passes:PassManager.run", "stage.{1}"),
        Wrap("repro.verify.passes:PassManager.check", "verify.{1}"),
    ],
    "graph.passes": [
        Wrap(
            "repro.compiler:run_default_passes",
            "graph.passes",
            lambda args, graph: sum(1 for _ in graph),
        ),
    ],
    "core.global_select": [
        Wrap("repro.compiler:solve_gcd2", "core.selection"),
    ],
    "core.unroll": [
        Wrap("repro.compiler:adaptive_unroll", "core.unroll"),
    ],
    "codegen.lower": [
        Wrap(
            "repro.compiler:lower_node",
            "codegen.lower",
            lambda args, kernel: len(kernel.body),
        ),
    ],
    "core.packing": [
        Wrap(
            "repro.compiler:configured_packer()",
            "core.packing",
            lambda args, packets: len(packets),
        ),
    ],
    "cache": [
        Wrap("repro.compiler:kernel_fingerprint", "cache.fingerprint"),
        Wrap(
            "repro.cache.store:ScheduleCache.lookup",
            "cache.lookup",
            lambda args, found: found[1],
        ),
        Wrap("repro.cache.store:ScheduleCache.put", "cache.store"),
    ],
    "machine.pipeline": [
        Wrap("repro.compiler:schedule_cycles", "machine.schedule_cycles"),
    ],
    "machine.profiler": [
        Wrap(
            "repro.machine.profiler:Profiler.observe_schedule",
            "machine.profiler",
        ),
    ],
}

#: layer -> the calls into it that a registration or a request crosses.
#: A traced serve run installs these on top of :data:`COMPILE_LAYERS`,
#: because registering a model compiles it.
SERVE_LAYERS: Dict[str, List[Wrap]] = {
    "serve.app": [
        Wrap("repro.serve.app:ServeService.register", "serve.register"),
        Wrap("repro.serve.app:ServeService.infer", "serve.infer"),
        Wrap("repro.serve.app:encode_arrays", "serve.encode"),
    ],
    "harness": [
        Wrap("repro.harness:example_feeds", "serve.feeds"),
    ],
    "serve.jobs": [
        # The compile worker imports it at call time, so the patched
        # name is the one it finds.
        Wrap("repro.compiler:compile_model", "serve.compile"),
    ],
    "absint": [
        Wrap("repro.absint:analyze_model", "absint.analyze"),
    ],
    "serve.pool": [
        Wrap("repro.serve.pool:EnginePool.__init__", "serve.pool_build"),
        Wrap("repro.serve.pool:EnginePool.infer", "serve.pool"),
    ],
    "runtime.engine": [
        Wrap(
            "repro.runtime.engine:InferenceEngine.calibrate",
            "runtime.calibration",
        ),
        Wrap(
            "repro.runtime.engine:InferenceEngine.run_batch",
            "runtime.engine_batch",
        ),
    ],
    "codegen.emit": [
        Wrap(
            "repro.codegen.emit:emit_executor",
            "codegen.emit",
            lambda args, emitted: emitted.source.count("\n") + 1,
        ),
        Wrap("repro.codegen.emit:emit_executor().fn", "codegen.emitted"),
    ],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    value: object = None


class Tracer:
    """Records spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Wrappers outlive :func:`installed` on objects the program
        #: keeps (an emitted executor's ``fn``); switching this off
        #: turns them into plain calls.
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_op: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op = self.spans[parent].op
        else:
            # A thread of the program (HTTP handler, compile worker)
            # starts with an empty stack: the open op caused its work.
            parent = op = self._open_op
        span = Span(name, time.perf_counter(), 0.0, parent, op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, value: object = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.value = value
        self._stack().pop()

    @contextmanager
    def op(self, name: str) -> Iterator[int]:
        """The root span of one compile or one request.

        One op is open at a time (the traced runs are single-client),
        which is what lets spans from the program's own threads find
        their cause.
        """
        index = self.begin(name)
        self.spans[index].op = index
        self._open_op = index
        try:
            yield index
        finally:
            self._open_op = None
            self.end(index)

    def wrap(
        self, fn: Callable, name: str, value: Optional[ValueHook] = None
    ) -> Callable:
        """``fn`` recording one span per call."""
        formatted = "{" in name

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.begin(name.format(*args) if formatted else name)
            recorded = None
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    recorded = value(args, result)
                return result
            finally:
                self.end(index, recorded)

        return recorder

    def wrap_returned(
        self,
        factory: Callable,
        attr: str,
        name: str,
        value: Optional[ValueHook] = None,
    ) -> Callable:
        """``factory`` whose product (or its ``attr``) records spans."""

        @functools.wraps(factory)
        def producer(*args, **kwargs):
            product = factory(*args, **kwargs)
            if not attr:
                return self.wrap(product, name, value)
            setattr(
                product, attr, self.wrap(getattr(product, attr), name, value)
            )
            return product

        return producer


def resolve(target: str) -> Tuple[object, str, Optional[str]]:
    """``(owner, attribute, returned)`` for a :class:`Wrap` target.

    ``returned`` is ``None`` for a plain wrap, ``""`` when the returned
    callable is wrapped and an attribute name for ``().attr``.  Raises
    (``ImportError``, ``AttributeError``, ``TypeError``) when the name
    is gone, so a rename in the program fails the traced run and the
    test suite instead of silently dropping a layer.
    """
    module_name, _, path = target.partition(":")
    returned: Optional[str] = None
    if "()" in path:
        path, _, tail = path.partition("()")
        returned = tail.lstrip(".")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not callable(getattr(owner, attr)):
        raise TypeError(f"{target} is not callable")
    return owner, attr, returned


@contextmanager
def installed(
    tracer: Tracer, *tables: Dict[str, List[Wrap]]
) -> Iterator[None]:
    """Patch every name of ``tables`` for the length of the block."""
    saved: List[Tuple[object, str, Callable]] = []
    try:
        for table in tables:
            for wraps in table.values():
                for wrap in wraps:
                    owner, attr, returned = resolve(wrap.target)
                    current = getattr(owner, attr)
                    saved.append((owner, attr, current))
                    if returned is None:
                        patched = tracer.wrap(current, wrap.span, wrap.value)
                    else:
                        patched = tracer.wrap_returned(
                            current, returned, wrap.span, wrap.value
                        )
                    setattr(owner, attr, patched)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(
    intervals: Sequence[Tuple[float, float]], start: float, end: float
) -> float:
    """Length of ``[start, end]`` the (possibly overlapping) intervals
    cover."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus what its children cover of it.

    Children on other threads may overlap each other and may outlast
    the parent; only the part inside the parent's interval counts, and
    an instant covered twice counts once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def self_ms_by_op(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """``{op root index: {span name: summed self time in ms}}``."""
    by_op: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span, own in zip(spans, self_times(spans)):
        if span.op is not None:
            by_op[span.op][span.name] += own * 1e3
    return by_op


def dump(tracer: Tracer, path: str, meta: Dict) -> None:
    """Write the run's spans (times in seconds from the first span)."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    rows = []
    for span in tracer.spans:
        row = asdict(span)
        row["start"] = span.start - origin
        row["end"] = span.end - origin
        rows.append(row)
    with open(path, "w") as handle:
        json.dump({"meta": meta, "spans": rows}, handle)
