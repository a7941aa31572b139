"""The service's plan/result cache.

The :class:`~repro.kernels.memo.LRU` that backs the partition and view
caches, here holding whole query results. An entry is keyed on the
**query fingerprint** — canonical query text, execution parameters (p,
seed, strategy, split factor) — plus the **relation state**: every
input relation's name, object identity, and mutation token. The token
keying makes stale hits structurally impossible (an ``add``/``extend``
bumps the token, so the old key can never be rebuilt), and the explicit
invalidation hook reclaims the dead entries eagerly: the warehouse
calls :meth:`ResultCache.invalidate_relation` inside its write lock,
so by the time any new query can be admitted the cache no longer holds
a servable entry that mentions the mutated relation. A split entry
(``split > 1``) is not thrown away: it is kept under its fingerprint
alone (:meth:`CacheKey.base`), a key no lookup ever builds, as the base
the service patches with the rows appended since
(:meth:`ResultCache.take_base`). All operations are thread-safe under
the LRU's one internal lock, which is never held while user code runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.kernels.memo import LRU

__all__ = ["CacheKey", "CacheStats", "ResultCache"]

# (name, id(relation), mutation token) per input relation, sorted by name.
RelationState = tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class CacheKey:
    """One cached execution's identity."""

    query: str                 # canonical query text
    p: int
    seed: int
    strategy: str
    split: int
    relation_state: RelationState

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.relation_state)

    def base(self) -> "CacheKey":
        """The fingerprint alone: where a retired split entry waits to be
        patched. No query reads zero relations, so no lookup builds it."""
        return replace(self, relation_state=())


@dataclass
class CacheStats:
    """Counters the service surfaces in :class:`~repro.service.ServiceStats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0     # entries dropped by explicit invalidation
    size: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache(LRU):
    """The one :class:`~repro.kernels.memo.LRU`, over :class:`CacheKey` → result.

    ``capacity <= 0`` disables caching entirely (every lookup is a miss
    and stores are dropped).
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)

    def invalidate_relation(self, name: str) -> int:
        """Make every entry whose key mentions ``name`` unservable; returns
        the count.

        A split entry moves to its :meth:`CacheKey.base` (replacing an
        older base of the same fingerprint), every other one is dropped.
        This is the warehouse's invalidation listener: it runs inside
        the warehouse write lock, so no concurrent query can be filling
        the cache with the stale relation while it runs (fills require
        the read side).
        """
        with self._lock:
            dead = [key for key in self._entries if name in key.relation_names]
            for key in dead:
                value = self._entries.pop(key)
                if key.split > 1:
                    self._entries[key.base()] = value
            self.dropped += len(dead)
            return len(dead)

    def take_base(self, key: CacheKey) -> Any:
        """Remove and return the retired split entry of ``key``'s
        fingerprint, or ``None``; counted neither as a hit nor a miss."""
        with self._lock:
            return self._entries.pop(key.base(), None)

    def invalidate_all(self) -> int:
        return self.clear()

    def stats(self) -> CacheStats:
        """Hits, misses, evictions, invalidated entries and size, atomically."""
        return CacheStats(*self.counters())
