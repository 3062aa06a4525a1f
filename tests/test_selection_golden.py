"""Golden selection digests: the chosen plans, not just their cost.

``baselines/selection/<machine>.json`` holds, per zoo model, the sha256
of the sorted ``(node_id, instruction, layout)`` assignment that
``solve_gcd2`` picks under default compiler options, the solver label,
and the number of search expansions it took (a ratchet: the committed
counts are those of the edge-blind bound PR 15 replaced, and a
regeneration tightens them to the current ones).  A change to the
selection stage that flips a floating-point tie keeps ``total_cycles``
(so the benchmark's cycle gate cannot see it) but changes the digest; a
weaker bound keeps the digest but raises the expansion count.  Both are
deterministic counts — no wall time is asserted here.

Regenerate (only when a selection change is *meant* to move plans)::

    PYTHONPATH=src python tests/test_selection_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Dict

import pytest

from repro.compiler import CompilerOptions
from repro.core.cost import CostModel
from repro.core.global_select import solve_gcd2
from repro.core.selection_common import SelectionResult
from repro.graph.passes import run_default_passes
from repro.machine.description import machine_names, resolve_machine
from repro.models.registry import build_model, model_names

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "baselines",
    "selection",
)

#: Ceiling on ``decoder_tiny``'s search effort on every machine; the
#: edge-blind bound this replaced needed ~2 000 000 expansions.
DECODER_TINY_MAX_EXPANSIONS = 5_000


def select(model_name: str, machine: str) -> SelectionResult:
    """``solve_gcd2`` exactly as a default ``compile_model`` calls it."""
    options = CompilerOptions(machine=machine)
    graph = run_default_passes(build_model(model_name))
    model = CostModel(
        include_extensions=options.include_extensions,
        other_opts=options.other_opts,
        scalar_activations=options.scalar_activations,
        transform_bytes_per_cycle=options.transform_bytes_per_cycle,
        machine=resolve_machine(machine),
    )
    return solve_gcd2(graph, model, max_operators=options.max_operators)


def assignment_digest(result: SelectionResult) -> str:
    rows = sorted(
        (
            node_id,
            plan.instruction.name if plan.instruction else None,
            plan.layout.name,
        )
        for node_id, plan in result.assignment.items()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def golden_entry(model_name: str, machine: str) -> Dict[str, object]:
    result = select(model_name, machine)
    return {
        "digest": assignment_digest(result),
        "solver": result.solver,
        "nodes": len(result.assignment),
        "expansions": result.expansions,
    }


def load_golden(machine: str) -> Dict[str, Dict[str, object]]:
    with open(os.path.join(GOLDEN_DIR, f"{machine}.json")) as handle:
        return json.load(handle)["models"]


@functools.lru_cache(maxsize=None)
def _entry(model_name: str, machine: str) -> Dict[str, object]:
    """One solve per cell, shared by the tests below."""
    return golden_entry(model_name, machine)


CELLS = [
    (model_name, machine)
    for machine in machine_names()
    for model_name in model_names()
]


def test_golden_files_cover_the_zoo():
    for machine in machine_names():
        assert sorted(load_golden(machine)) == sorted(model_names())


@pytest.mark.parametrize("model_name,machine", CELLS)
def test_assignment_matches_golden(model_name, machine):
    golden = load_golden(machine)[model_name]
    entry = _entry(model_name, machine)
    assert entry["solver"] == golden["solver"]
    assert entry["nodes"] == golden["nodes"]
    assert entry["digest"] == golden["digest"]


@pytest.mark.parametrize("model_name,machine", CELLS)
def test_expansions_never_above_recorded(model_name, machine):
    golden = load_golden(machine)[model_name]
    assert _entry(model_name, machine)["expansions"] <= golden["expansions"]


@pytest.mark.parametrize("machine", machine_names())
def test_decoder_tiny_expansion_ceiling(machine):
    expansions = _entry("decoder_tiny", machine)["expansions"]
    assert 0 < expansions <= DECODER_TINY_MAX_EXPANSIONS


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for machine in machine_names():
        payload = {
            "machine": machine,
            "models": {
                model_name: golden_entry(model_name, machine)
                for model_name in model_names()
            },
        }
        path = os.path.join(GOLDEN_DIR, f"{machine}.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
