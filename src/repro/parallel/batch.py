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

from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class _ReadBatchFields(NamedTuple):
    names: "tuple[str, ...]"
    qualities: "tuple[str, ...]"
    codes: np.ndarray
    offsets: np.ndarray

    def reads(self) -> "list[np.ndarray]":
        """Per-read views of the packed code array (one object per read,
        so engines may key per-read caches by identity)."""
        codes = self.codes
        bounds = self.offsets.tolist()
        return [codes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class ReadBatch(_ReadBatchFields):
    """A fixed-size slice of the input reads, packed for one worker (a
    read-only ``NamedTuple``).  ``len(batch)`` is its read count, not
    its field count."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def _make(  # type: ignore[override]
            cls, iterable: "Iterable[object]") -> "ReadBatch":
        # The inherited ``_make`` checks the field count with ``len``.
        return cls(*iterable)


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
    np.cumsum([arr.size for arr in arrays], out=offsets[1:])
    packed = (np.concatenate(arrays) if arrays
              else np.zeros(0, dtype=np.uint8))
    return ReadBatch(names=tuple(names), qualities=tuple(qualities),
                     codes=packed, offsets=offsets)


def iter_chunks(items: "Iterable[T]", size: int) -> "Iterator[list[T]]":
    """Yield ``items`` in fixed-size runs (the last may be short),
    pulling each run from the iterable only when it is asked for."""
    if size < 1:
        raise ValueError("batch size must be at least 1")
    source = iter(items)
    while True:
        chunk = list(islice(source, size))
        if not chunk:
            return
        yield chunk
