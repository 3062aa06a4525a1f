"""Compilation-throughput layer: content-addressed schedule caching.

Two pieces, consumed by :class:`~repro.compiler.GCD2Compiler`:

* :mod:`repro.cache.fingerprint` — total content fingerprints for
  (kernel body, packer, tuning) triples plus the machine-model schema
  hash that versions every persisted entry;
* :mod:`repro.cache.store` — the two-tier cache: bounded in-memory LRU
  over an optional on-disk JSON store whose entries re-verify on load.
"""

from repro.cache.fingerprint import (
    CACHE_SCHEMA_VERSION,
    body_signature,
    instruction_identity,
    kernel_fingerprint,
    schema_hash,
)
from repro.cache.store import (
    CacheStats,
    DiskStore,
    ScheduleCache,
    ScheduleEntry,
    TIER_DISK,
    TIER_MEMORY,
    TIER_MISS,
    default_cache_dir,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "DiskStore",
    "ScheduleCache",
    "ScheduleEntry",
    "TIER_DISK",
    "TIER_MEMORY",
    "TIER_MISS",
    "body_signature",
    "default_cache_dir",
    "instruction_identity",
    "kernel_fingerprint",
    "schema_hash",
]
