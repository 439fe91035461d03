"""Read batching: the unit of work the scheduler ships to a worker.

A :class:`ReadBatch` packs a slice of the input read set into one
contiguous ``uint8`` code array plus an offsets vector (names and
quality strings ride along as tuples).  One batch costs one pickle
round-trip regardless of read count, and :meth:`ReadBatch.reads`
materializes per-read views of the shared code array -- no per-read
copies on either side of the pipe.

The same packing feeds the serial fast path: pre-encoding a batch up
front lets the engine hoist per-read work (reverse complements, scoring
scheme construction) to batch granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class ReadBatch:
    """A fixed-size slice of the input reads, packed for one worker."""

    names: "tuple[str, ...]"
    qualities: "tuple[str, ...]"
    codes: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    def reads(self) -> "list[np.ndarray]":
        """Per-read views of the packed code array (one object per read,
        so engines may key per-read caches by identity)."""
        offsets = self.offsets
        return [self.codes[int(offsets[i]):int(offsets[i + 1])]
                for i in range(len(self.names))]


def pack_batch(reads: "Sequence[object]") -> ReadBatch:
    """Pack reads into one batch.

    Accepts either :class:`repro.sequence.simulate.Read`-like objects
    (``.name`` / ``.codes`` / ``.quality``) or bare code arrays (which
    get empty names/qualities), as ``benchmarks/`` hands them over.
    """
    names: "list[str]" = []
    qualities: "list[str]" = []
    arrays: "list[np.ndarray]" = []
    for read in reads:
        codes = getattr(read, "codes", read)
        names.append(getattr(read, "name", ""))
        qualities.append(getattr(read, "quality", ""))
        arrays.append(np.asarray(codes, dtype=np.uint8))
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    for i, arr in enumerate(arrays):
        offsets[i + 1] = offsets[i] + arr.size
    packed = (np.concatenate(arrays) if arrays
              else np.zeros(0, dtype=np.uint8))
    return ReadBatch(names=tuple(names), qualities=tuple(qualities),
                     codes=packed, offsets=offsets)


def iter_chunks(items: "Sequence[T]", size: int) -> "Iterator[Sequence[T]]":
    """Yield ``items`` in fixed-size runs (the last may be short)."""
    if size < 1:
        raise ValueError("batch size must be at least 1")
    for start in range(0, len(items), size):
        yield items[start:start + size]
