"""Compilation diagnostics: what *actually* ran during a compile.

A :class:`CompilationDiagnostics` rides on every
:class:`~repro.compiler.CompiledModel` and records solver downgrades,
warnings and per-stage/verifier timings, so benchmarks and the CLI can
report the configuration that really produced a number — not just the
one that was requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class FallbackRecord:
    """One rung-to-rung downgrade of the selection ladder."""

    from_solver: str
    to_solver: str
    reason: str

    def __str__(self) -> str:
        return f"{self.from_solver} -> {self.to_solver}: {self.reason}"


@dataclass(frozen=True)
class DegradationRecord:
    """One recorded downgrade of any component's operating mode.

    The generic form of :class:`FallbackRecord`: ``component`` names
    what degraded (``"compile"``, ``"inference"``, …)
    and ``from_mode``/``to_mode`` the ladder step taken
    (``tuned -> default``, ``batched -> per-sample``).  Both the
    compiler and the serving layer append these so every artefact
    carries the honest story of how it was produced.
    """

    component: str
    from_mode: str
    to_mode: str
    reason: str

    def __str__(self) -> str:
        return (
            f"{self.component}: {self.from_mode} -> {self.to_mode} "
            f"({self.reason})"
        )

    def to_payload(self) -> Dict[str, str]:
        return {
            "component": self.component,
            "from": self.from_mode,
            "to": self.to_mode,
            "reason": self.reason,
        }


@dataclass
class CompilationDiagnostics:
    """Everything noteworthy that happened during one compile."""

    warnings: List[str] = field(default_factory=list)
    fallbacks: List[FallbackRecord] = field(default_factory=list)
    degradations: List[DegradationRecord] = field(default_factory=list)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    verifier_seconds: Dict[str, float] = field(default_factory=dict)
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    cache_misses: int = 0
    #: Search-tree nodes the selection solver that produced the plans
    #: tried — a deterministic effort count, unlike the stage seconds.
    selection_expansions: int = 0
    #: Kernel bodies this process ran a packer on (cache misses), and
    #: the pair classifications + candidate evaluations that took —
    #: the packing stage's deterministic effort count.
    packing_bodies: int = 0
    packing_work: int = 0
    tuning: Dict[str, object] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether selection fell back from the requested solver."""
        return bool(self.fallbacks)

    @property
    def fallback_chain(self) -> List[str]:
        """The solvers attempted, in order, ending with the one that ran."""
        if not self.fallbacks:
            return []
        chain = [self.fallbacks[0].from_solver]
        chain.extend(record.to_solver for record in self.fallbacks)
        return chain

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def record_fallback(
        self, from_solver: str, to_solver: str, reason: str
    ) -> None:
        self.fallbacks.append(
            FallbackRecord(from_solver, to_solver, reason)
        )
        self.warn(
            f"selection fell back from {from_solver} to {to_solver}: "
            f"{reason}"
        )

    def record_degradation(
        self, component: str, from_mode: str, to_mode: str, reason: str
    ) -> DegradationRecord:
        """Record one component-level mode downgrade."""
        record = DegradationRecord(component, from_mode, to_mode, reason)
        self.degradations.append(record)
        return record

    @property
    def cache_hits(self) -> int:
        """Schedule-cache hits across both tiers."""
        return self.cache_memory_hits + self.cache_disk_hits

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    def record_cache_lookup(self, tier: str) -> None:
        """Count one schedule-cache lookup by the tier that served it.

        ``tier`` is one of ``"memory"``, ``"disk"`` or ``"miss"`` (the
        strings :meth:`repro.cache.ScheduleCache.lookup` returns).
        """
        if tier == "memory":
            self.cache_memory_hits += 1
        elif tier == "disk":
            self.cache_disk_hits += 1
        else:
            self.cache_misses += 1

    def record_tuning(
        self,
        model: str,
        fingerprint: str,
        cycles: Optional[float],
        source: str,
    ) -> None:
        """Record that a tuned configuration drove this compile.

        ``fingerprint`` is the trial config's content address and
        ``cycles`` the simulated total the autotuner measured for it;
        ``source`` names where the config came from (``"trial-db"``
        for :func:`repro.compiler.compile_model` lookups, or a search
        strategy name when the tuner itself compiled the trial).
        """
        self.tuning = {
            "model": model,
            "fingerprint": fingerprint,
            "cycles": cycles,
            "source": source,
        }

    def add_stage_time(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = (
            self.stage_seconds.get(stage, 0.0) + seconds
        )

    def add_verifier_time(self, stage: str, seconds: float) -> None:
        self.verifier_seconds[stage] = (
            self.verifier_seconds.get(stage, 0.0) + seconds
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (``repro compile --json``)."""
        return {
            "warnings": list(self.warnings),
            "fallbacks": [str(record) for record in self.fallbacks],
            "degradations": [
                record.to_payload() for record in self.degradations
            ],
            "stage_seconds": dict(self.stage_seconds),
            "verifier_seconds": dict(self.verifier_seconds),
            "selection_expansions": self.selection_expansions,
            "packing_bodies": self.packing_bodies,
            "packing_work": self.packing_work,
            "cache_memory_hits": self.cache_memory_hits,
            "cache_disk_hits": self.cache_disk_hits,
            "cache_misses": self.cache_misses,
            "tuning": dict(self.tuning),
        }

    def summary_lines(self) -> List[str]:
        """Human-readable digest for the CLI's ``verify`` command."""
        lines: List[str] = []
        for stage, seconds in self.stage_seconds.items():
            verifier = self.verifier_seconds.get(stage)
            suffix = (
                f" (verifier {verifier * 1e3:.1f} ms)"
                if verifier is not None
                else ""
            )
            lines.append(f"stage {stage}: {seconds * 1e3:.1f} ms{suffix}")
        for stage, seconds in self.verifier_seconds.items():
            # Checkers with no compile stage of their own (e.g. lint).
            if stage not in self.stage_seconds:
                lines.append(f"verifier {stage}: {seconds * 1e3:.1f} ms")
        if self.selection_expansions:
            lines.append(
                f"selection search: {self.selection_expansions} "
                f"expansion(s)"
            )
        if self.packing_bodies:
            lines.append(
                f"packing: {self.packing_bodies} bodies, "
                f"{self.packing_work} evaluations"
            )
        if self.cache_lookups:
            lines.append(
                f"schedule cache: {self.cache_memory_hits} memory + "
                f"{self.cache_disk_hits} disk hit(s), "
                f"{self.cache_misses} miss(es)"
            )
        if self.tuning:
            cycles = self.tuning.get("cycles")
            suffix = (
                f" ({cycles:.0f} simulated cycles in trial)"
                if isinstance(cycles, (int, float))
                else ""
            )
            lines.append(
                f"tuned config: {str(self.tuning.get('fingerprint'))[:16]} "
                f"from {self.tuning.get('source')}{suffix}"
            )
        for record in self.degradations:
            lines.append(f"degradation: {record}")
        if self.fallbacks:
            for record in self.fallbacks:
                lines.append(f"fallback: {record}")
        else:
            lines.append("fallbacks: none")
        for warning in self.warnings:
            if not warning.startswith("selection fell back"):
                lines.append(f"warning: {warning}")
        return lines
