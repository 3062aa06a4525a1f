"""Per-node attribution of an emitted executor (``repro codegen --profile``).

There is no second emitter: :func:`profile_emitted` takes the source
:func:`repro.codegen.emit.emit_executor` produced, splices a clock read
at every ``# -- name (Op)`` marker, and executes the result in a *copy*
of the emitted module's namespace — the same statements over the same
hoisted constants, so what is timed is what is served.  The served
``fn`` and its namespace are never touched, and nothing here runs
unless asked for.
"""

from __future__ import annotations

import re
import statistics
import time
from typing import Dict, List, Sequence, Tuple

_MARKER = re.compile(r"^    # -- (?P<name>.+) \((?P<op>\w+)\)$")


def instrument(source: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Splice clock reads into emitted source.

    Returns the timed source — ``run_batch`` then returns ``(outputs,
    rows, stamps)`` with one stamp per node marker and one before the
    return — and the ``(name, op_type)`` of every marker in order.
    """
    lines = source.rstrip("\n").split("\n")
    if not lines[-1].startswith("    return "):
        raise ValueError("emitted source does not end in its return")
    nodes: List[Tuple[str, str]] = []
    timed = [lines[0], "    _stamps = []"]
    for text in lines[1:-1]:
        match = _MARKER.match(text)
        if match:
            nodes.append((match["name"], match["op"]))
            timed.append("    _stamps.append(_clock())")
        timed.append(text)
    timed.append("    _stamps.append(_clock())")
    timed.append(lines[-1] + ", _stamps")
    return "\n".join(timed) + "\n", nodes


def profile_emitted(emitted, feeds_list: Sequence, calls: int = 15) -> Dict:
    """Median per-node times of ``emitted`` on ``feeds_list``.

    Timed and untimed calls alternate, so both see the same box.
    ``timed_ms`` (the median of the per-call sums of node times) against
    ``untimed_ms`` (the served ``fn``) is the cost of the clock reads.
    """
    source, nodes = instrument(emitted.source)
    namespace = dict(emitted.namespace)
    namespace["_clock"] = time.perf_counter
    exec(  # noqa: S102 - our own generated source
        compile(source, "<codegen-profile>", "exec"), namespace
    )
    timed_fn = namespace["run_batch"]
    feeds_list = list(feeds_list)
    per_node: List[List[float]] = [[] for _ in nodes]
    timed_totals: List[float] = []
    untimed: List[float] = []
    for call in range(calls + 1):
        started = time.perf_counter()
        emitted.fn(list(feeds_list))
        plain_ms = (time.perf_counter() - started) * 1e3
        _, _, stamps = timed_fn(list(feeds_list))
        if call == 0:
            continue  # warm-up: first-touch allocations on both
        untimed.append(plain_ms)
        spans = [
            (after - before) * 1e3
            for before, after in zip(stamps, stamps[1:])
        ]
        for samples, span in zip(per_node, spans):
            samples.append(span)
        timed_totals.append(sum(spans))
    rows = [
        {"name": name, "op": op, "ms": statistics.median(samples)}
        for (name, op), samples in zip(nodes, per_node)
    ]
    by_op: Dict[str, Dict[str, float]] = {}
    for row in rows:
        entry = by_op.setdefault(row["op"], {"nodes": 0, "ms": 0.0})
        entry["nodes"] += 1
        entry["ms"] += row["ms"]
    return {
        "batch": len(feeds_list),
        "calls": calls,
        "nodes": rows,
        "by_op": by_op,
        "timed_ms": statistics.median(timed_totals),
        "untimed_ms": statistics.median(untimed),
    }
