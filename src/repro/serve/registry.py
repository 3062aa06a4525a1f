"""Model registry: names → graphs, options, compiled artefacts, state.

A registered model is either a zoo name (:mod:`repro.models`) or a
serialized-graph JSON path; its compiler options arrive as a
whitelisted payload so the HTTP API can never flip internal switches
like fault hooks.  The registry persists a *manifest* —
``<cache_dir>/serve/models.json``, written atomically after every
state change — holding exactly what is needed to rebuild the in-memory
state after a crash: sources, options and calibration seeds.  Compiled
artefacts themselves are **not** persisted; a warm restart recompiles
through the content-addressed schedule cache, which is what makes a
``kill -9`` recovery cheap (every packing lookup hits disk) and
bit-identical (same options + same cache entries → same artefact).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.compiler import CompilerOptions
from repro.errors import GraphError, ReproError, ServiceError
from repro.graph.graph import ComputationalGraph
from repro.store import write_atomic

#: Model lifecycle states.
STATE_REGISTERED = "registered"
STATE_COMPILING = "compiling"
STATE_READY = "ready"
STATE_FAILED = "failed"

#: Option keys a registration payload may set.  Everything else —
#: fault seams, verification switches, cache placement — stays under
#: the server's control.
ALLOWED_OPTION_KEYS = (
    "selection",
    "packing",
    "unrolling",
    "max_operators",
    "tuned",
    "include_extensions",
    "kernel_efficiency",
)


def resolve_graph(
    source: str, graph_root: Optional[str] = None
) -> ComputationalGraph:
    """A graph from a zoo model name or a serialized-graph JSON path.

    Path-based sources are only honoured inside ``graph_root``: the
    source is resolved against that directory (symlinks included) and
    must not escape it, so a remote client can never turn a
    registration into a filesystem probe.  With no root configured,
    path sources are rejected outright and only zoo names resolve.
    """
    from repro.models import MODELS, build_model

    if source in MODELS:
        return build_model(source)
    if source.endswith(".json") or "/" in source or "\\" in source:
        from repro.graph.serialization import load_graph

        return load_graph(str(_contained_graph_path(source, graph_root)))
    from repro.models import model_names

    raise GraphError(
        f"unknown model source {source!r}",
        details={"known_models": ", ".join(model_names())},
    )


def _contained_graph_path(source: str, graph_root: Optional[str]) -> Path:
    """Resolve a path-like source and prove it stays under the root."""
    if graph_root is None:
        raise GraphError(
            f"path-based model sources are disabled: no graph root "
            f"is configured (source {source!r})",
            stage="serve",
            details={"source": source},
        )
    root = Path(graph_root).resolve()
    candidate = Path(source)
    if not candidate.is_absolute():
        candidate = root / candidate
    candidate = candidate.resolve()
    try:
        candidate.relative_to(root)
    except ValueError:
        raise GraphError(
            f"model source {source!r} escapes the graph root",
            stage="serve",
            details={"source": source, "graph_root": str(root)},
        ) from None
    return candidate


def options_from_payload(
    payload: Optional[Dict],
    cache_dir: Optional[str] = None,
) -> CompilerOptions:
    """Build :class:`CompilerOptions` from an API payload.

    Unknown keys are rejected (a typo must not silently compile with
    defaults), allowed keys are validated by ``CompilerOptions`` itself
    — a bad value is the same structured 400 as a bad key — and the
    service's ``cache_dir`` is always attached.
    """
    payload = dict(payload or {})
    unknown = sorted(set(payload) - set(ALLOWED_OPTION_KEYS))
    if unknown:
        raise ServiceError(
            f"unknown compiler option(s) {', '.join(unknown)}",
            stage="serve",
            details={
                "unknown": unknown,
                "allowed": list(ALLOWED_OPTION_KEYS),
            },
        )
    try:
        return CompilerOptions(cache_dir=cache_dir, **payload)
    except (ReproError, TypeError) as exc:
        raise ServiceError(
            f"invalid compiler option: {getattr(exc, 'message', exc)}",
            stage="serve",
            details={"options": payload},
        ) from exc


@dataclass
class ModelEntry:
    """One registered model and everything the service knows about it."""

    name: str
    source: str
    options_payload: Dict = field(default_factory=dict)
    calibration_seed: int = 99
    calibration_samples: int = 2
    state: str = STATE_REGISTERED
    job_id: Optional[str] = None
    error: Optional[Dict] = None
    compiled: Optional[object] = None        # CompiledModel when ready
    pool: Optional[object] = None            # EnginePool when ready
    compile_stats: Dict = field(default_factory=dict)
    analysis: Optional[Dict] = None          # absint summary when ready
    registered_at: float = field(default_factory=time.monotonic)

    def manifest_payload(self) -> Dict:
        """What survives a crash: enough to rebuild, nothing volatile."""
        return {
            "name": self.name,
            "source": self.source,
            "options": dict(self.options_payload),
            "calibration_seed": self.calibration_seed,
            "calibration_samples": self.calibration_samples,
        }

    def to_payload(self) -> Dict:
        payload = {
            "name": self.name,
            "source": self.source,
            "options": dict(self.options_payload),
            "state": self.state,
            "job_id": self.job_id,
            "error": self.error,
            "compile_stats": dict(self.compile_stats),
            "calibration_seed": self.calibration_seed,
        }
        compiled = self.compiled
        if compiled is not None:
            payload["artifact"] = {
                "operators": compiled.graph.operator_count(),
                "total_cycles": compiled.total_cycles,
                "total_packets": compiled.total_packets,
                "latency_ms": round(compiled.latency_ms, 4),
            }
        if self.analysis is not None:
            payload["analysis"] = dict(self.analysis)
        return payload


class ModelRegistry:
    """Thread-safe registry with an atomic on-disk manifest."""

    def __init__(self, manifest_dir: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, ModelEntry] = {}
        self.manifest_path: Optional[Path] = (
            Path(manifest_dir) / "models.json"
            if manifest_dir is not None
            else None
        )

    # -- entries -----------------------------------------------------------

    def add(self, entry: ModelEntry) -> ModelEntry:
        with self._lock:
            self._entries[entry.name] = entry
        self.save_manifest()
        return entry

    def remove(self, name: str) -> Optional[ModelEntry]:
        """Drop one entry (admission rollback); returns what was there."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is not None:
            self.save_manifest()
        return entry

    def get(self, name: str) -> ModelEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise GraphError(
                f"model {name!r} is not registered",
                stage="serve",
                details={"registered": self.names()},
            )
        return entry

    def maybe(self, name: str) -> Optional[ModelEntry]:
        with self._lock:
            return self._entries.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> List[ModelEntry]:
        with self._lock:
            return [self._entries[name] for name in sorted(self._entries)]

    # -- manifest ----------------------------------------------------------

    def save_manifest(self) -> bool:
        """Atomically persist the registration manifest.

        Returns ``False`` (and keeps serving from memory) when the
        manifest cannot be written — a read-only disk degrades warm
        restart, never live traffic.
        """
        if self.manifest_path is None:
            return False
        with self._lock:
            payload = {
                "version": 1,
                "models": [
                    entry.manifest_payload()
                    for _, entry in sorted(self._entries.items())
                ],
            }
        try:
            self.manifest_path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(
                self.manifest_path, json.dumps(payload, indent=2)
            )
            return True
        except OSError:
            return False

    def load_manifest(self) -> List[Dict]:
        """Read the persisted registrations; corrupt manifests read as
        empty (the server starts cold rather than not at all)."""
        if self.manifest_path is None or not self.manifest_path.is_file():
            return []
        try:
            payload = json.loads(self.manifest_path.read_text())
            models = payload.get("models", [])
            return [dict(m) for m in models if isinstance(m, dict)]
        except (ValueError, OSError, AttributeError):
            # ValueError: not JSON, or not even UTF-8.
            return []
