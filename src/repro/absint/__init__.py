"""Graph-level abstract interpretation over compiled quantized graphs.

Layout:

* :mod:`repro.absint.liveness` — the one shared tensor-liveness pass
  (codegen emit, lint dataflow and the arena planner all consume it);
* :mod:`repro.absint.domain` — the interval abstract domain;
* :mod:`repro.absint.ranges` — value-range analysis (``LINT-QR*``):
  int32-accumulator no-overflow and rescale-encodability proofs;
* :mod:`repro.absint.memplan` — first-fit arena planner plus the
  independent no-overlap/size verifier (``LINT-MP*``);
* :mod:`repro.absint.analyze` — the driver behind ``repro analyze``.

``liveness`` and ``domain`` are dependency-free and imported eagerly;
the analyses import lint/runtime machinery and load lazily (PEP 562)
so low-level modules can ``from repro.absint.liveness import ...``
without dragging the whole stack in.
"""

from repro.absint.domain import Interval, unary_image
from repro.absint.liveness import (
    TensorLiveness,
    final_unread_definitions,
    last_use_positions,
    tensor_liveness,
)

__all__ = [
    "Interval",
    "unary_image",
    "TensorLiveness",
    "final_unread_definitions",
    "last_use_positions",
    "tensor_liveness",
    "ValueRangeAnalysis",
    "MemoryPlan",
    "ArenaSlot",
    "plan_memory",
    "verify_memory_plan",
    "AnalysisReport",
    "analyze_model",
]

_LAZY = {
    "ValueRangeAnalysis": ("repro.absint.ranges", "ValueRangeAnalysis"),
    "MemoryPlan": ("repro.absint.memplan", "MemoryPlan"),
    "ArenaSlot": ("repro.absint.memplan", "ArenaSlot"),
    "plan_memory": ("repro.absint.memplan", "plan_memory"),
    "verify_memory_plan": ("repro.absint.memplan", "verify_memory_plan"),
    "AnalysisReport": ("repro.absint.analyze", "AnalysisReport"),
    "analyze_model": ("repro.absint.analyze", "analyze_model"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
