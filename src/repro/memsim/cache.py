"""Cache models: direct-mapped, set-associative and fully associative.

The accelerator's k-mer reuse cache (§IV-D) is direct-mapped -- the paper
settled on direct mapping after observing a hit rate within 1.2 % of fully
associative.  The same model doubles as a generic last-level-cache stand-in
when measuring how poorly FMD-index accesses cache (§II-C).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        # Derived reporting ratio, not accounting state (ERT004 exception).
        return self.hits / self.accesses if self.accesses else 0.0  # repro: allow(ERT004)


class CacheModel:
    """An LRU set-associative cache over byte addresses.

    Parameters
    ----------
    size:
        Capacity in bytes.
    line_size:
        Line size in bytes (power of two).
    ways:
        Associativity; ``1`` is direct-mapped, ``None`` is fully associative.
    """

    def __init__(self, size: int, line_size: int = 64, ways: "int | None" = 1) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        if size <= 0 or size % line_size:
            raise ValueError("size must be a positive multiple of line_size")
        n_lines = size // line_size
        if ways is None:
            ways = n_lines
        if ways <= 0 or n_lines % ways:
            raise ValueError("number of lines must be a multiple of ways")
        self.size = size
        self.line_size = line_size
        self.ways = ways
        self.n_sets = n_lines // ways
        self.stats = CacheStats()
        # Each set is an OrderedDict tag -> None, most recent last.
        self._sets = [OrderedDict() for _ in range(self.n_sets)]

    # repro: hot -- called by lookup for every memory request.
    def _locate(self, addr: int) -> "tuple[int, int]":
        line = addr // self.line_size
        return line % self.n_sets, line // self.n_sets

    # repro: hot -- called once per memory request; stats stay in CacheStats.
    def lookup(self, addr: int) -> bool:
        """Access ``addr``; return True on hit.  Misses allocate the line."""
        set_idx, tag = self._locate(addr)
        cache_set = self._sets[set_idx]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        cache_set[tag] = None
        if len(cache_set) > self.ways:
            cache_set.popitem(last=False)
        return False

    def contains(self, addr: int) -> bool:
        """Non-mutating presence probe (no stats, no LRU update)."""
        set_idx, tag = self._locate(addr)
        return tag in self._sets[set_idx]

    def invalidate(self) -> None:
        """Drop all contents; stats are preserved."""
        for cache_set in self._sets:
            cache_set.clear()

    def publish_metrics(self, prefix: str = "memsim.cache") -> None:
        """Surface the hit/miss counters as telemetry gauges.

        Gauges, not counters: the stats object is itself cumulative, so
        publishing is idempotent and can run after every batch.  No-op
        while telemetry is disabled.
        """
        from repro import telemetry

        if not telemetry.enabled():
            return
        telemetry.set_gauge(f"{prefix}.hits", self.stats.hits)
        telemetry.set_gauge(f"{prefix}.misses", self.stats.misses)
        telemetry.set_gauge(f"{prefix}.hit_rate", self.stats.hit_rate)

    def on_access(self, event) -> None:
        """Tracer-sink adapter: feed an :class:`~repro.memsim.trace.Access`."""
        self.lookup(event.addr)
