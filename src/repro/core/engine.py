"""The ERT seeding engine (paper §III).

Forward search consumes k characters with one index-table lookup (plus one
second-level table lookup for dense k-mers, §III-E), then walks the radix
tree; LEP positions come from the entry's precomputed bits inside the k-mer
and from DIVERGE transitions in the tree.  Backward search runs the same
machinery over the reverse-complemented read -- the double-strand text makes
the structure symmetric (§III-A3).  Every search is one
:func:`~repro.core.walk.walk` over the arena.

Hits are gathered *lazily*: a search caches the ``(count, node, strand)``
it ended in, keyed by the read, and ``locate`` slices the node's run of
the Euler position pool only for the seeds that are emitted.  A key no
search cached -- a match that never left the index table or died inside
a jump-table window -- is located by an exact walk.  With
``prefix_merging`` on, adjacent backward searches are resolved in pairs
from a single traversal using the per-leaf prefix characters (§III-B);
a merged pair's hits are cached as explicit positions.

With a memory tracer or reuse cache attached to the index, the walks
report to a :class:`~repro.core.walk.FetchModel`, and the engine charges
a gather where the hardware gathers ("if we reach a dead end ... all
leaf nodes in the downstream sub-tree are gathered"): at a backward dead
end, at a LAST hit and at a ``locate`` walk, each only up to
``gather_limit`` hits; a longer hit list is walked again if located.
"""

from __future__ import annotations

import numpy as np

from repro.core.arena import ArenaCursor, arena_cursor
from repro.core.index import ErtIndex
from repro.core.walk import FetchModel, walk
from repro.seeding.engine import ForwardSearch, SeedingEngine
from repro.seeding.types import Mem
from repro.sequence.alphabet import kmer_codes, revcomp_codes

#: Builds a value type without its Python-level ``__new__``: only where
#: the line before has established what the checking constructor checks.
_new = tuple.__new__


class _Strands:
    """One read as the walks read it: both strands as ``bytes``, their
    rolling k-mer codes (None for a read shorter than k) and the reverse
    complement as an array.  A slotted class: every search reads its
    fields, and a slot is read faster than a NamedTuple field."""

    __slots__ = ("key", "n", "seq", "codes", "rc", "rc_codes", "rc_array")

    def __init__(self, key: int, n: int, seq: bytes,
                 codes: "memoryview | None", rc: bytes,
                 rc_codes: "memoryview | None",
                 rc_array: np.ndarray) -> None:
        self.key = key
        self.n = n
        self.seq = seq
        self.codes = codes
        self.rc = rc
        self.rc_codes = rc_codes
        self.rc_array = rc_array


class ErtSeedingEngine(SeedingEngine):
    """Seeding engine over an :class:`~repro.core.index.ErtIndex`.

    Besides :class:`~repro.seeding.engine.EngineStats` it counts the
    base class's per-read work counters (``walk_steps``,
    ``gather_nodes`` / ``gather_bytes``, ``reseed_launches`` and
    ``last_launches``).
    """

    def __init__(self, index: ErtIndex, gather_limit: int = 500) -> None:
        super().__init__()
        self.index = index
        self.gather_limit = gather_limit
        self.name = "ert-pm" if index.config.prefix_merging else "ert"
        # The ERT walk resolves k characters through the entry table
        # before any tree traversal, so no primitive accepts a segment
        # shorter than k; seed_batch() skips such reads up front.
        self.min_query_len = index.config.k
        # The index's column accessor, taken when the first read is
        # loaded (not here, so it reads the columns as they are then).
        self._cursor: "ArenaCursor | None" = None
        self._fetch = FetchModel(index, self.stats)
        # Both strands and rolling codes of each read of the current
        # batch, from begin_batch(); _batch_pinned holds every read for
        # as long as these id()-keyed entries live.
        self._batch: "dict[int, _Strands]" = {}
        self._batch_pinned: "dict[int, np.ndarray]" = {}
        self.begin_read()

    # ------------------------------------------------------------------
    # Per-read state
    # ------------------------------------------------------------------

    def begin_read(self) -> None:
        """Drop the per-read caches (every read's strands and hits) and
        zero the work counters."""
        super().begin_read()
        self._rev: "dict[int, _Strands]" = {}
        # (read id, start, end) -> (count, node, reverse): the node a
        # search ended in, on the reverse strand or not (node -1: count
        # only, the hits are walked again if located); or, for a merged
        # pair (§III-B), (count, hits, None).
        self._hits: "dict[tuple[int, int, int], tuple]" = {}
        # Strong references backing every id() used as a cache key: a
        # bare id(read) can be recycled once the array is garbage
        # collected, silently serving another read's strands or hits.
        self._pinned: "dict[int, np.ndarray]" = {}
        self._read: "np.ndarray | None" = None
        self._current: "_Strands | None" = None

    def begin_batch(self, reads: "list[np.ndarray]") -> None:
        """Prepare every read of a batch at once (:meth:`_prepare`)
        instead of per read; a no-op when every read is already
        prepared."""
        reads = list(reads)
        pinned = self._batch_pinned
        # ERT001 exception: a lookup, checked against the pinned read.
        if all(pinned.get(id(r)) is r  # repro: allow(ERT001)
               for r in reads):
            return
        # ERT001 exception: each id() key's referent is pinned in
        # _batch_pinned for the batch cache's lifetime.
        self._batch_pinned = {id(r): r for r in reads}  # repro: allow(ERT001)
        self._batch = self._prepare(reads)

    def _prepare(self, reads: "list[np.ndarray]") -> "dict[int, _Strands]":
        """``id(read) -> _Strands`` for each read: one reverse complement
        of the concatenated reads, its ``bytes`` and the rolling k-mer
        codes of both strands, each made once for the whole batch and
        sliced per read."""
        prepared: "dict[int, _Strands]" = {}
        if not reads:
            return prepared
        # Reverse the whole complemented buffer once so every per-read
        # slice below is contiguous and ascending.  Windows straddling
        # read boundaries are garbage and excluded by the slicing.
        buf = np.concatenate(reads) if len(reads) > 1 else reads[0]
        rev = revcomp_codes(buf)
        total = int(rev.size)
        k = self.index.config.k
        seq = np.asarray(buf, dtype=np.uint8).tobytes()
        rc = rev.tobytes()
        fwd_codes = memoryview(kmer_codes(buf, k))
        rev_codes = memoryview(kmer_codes(rev, k))
        base = 0
        for read in reads:
            n = read.size
            lo = total - base - n
            codes = rc_codes = None
            if n >= k:
                span = n - k + 1
                codes = fwd_codes[base:base + span]
                rc_codes = rev_codes[lo:lo + span]
            # ERT001 exception: the caller pins every read for as long
            # as the returned entries live.
            key = id(read)  # repro: allow(ERT001)
            prepared[key] = _Strands(key, n, seq[base:base + n], codes,
                                     rc[lo:lo + n], rc_codes,
                                     rev[lo:lo + n])
            base += n
        return prepared

    def _strands(self, read: np.ndarray) -> _Strands:
        """Load ``read`` (its strands and codes, made once per
        :meth:`begin_read`, or once per batch by :meth:`begin_batch`)."""
        if read is self._read:
            return self._current
        if self._cursor is None:
            self._cursor = arena_cursor(self.index)
        # ERT001 exception: the read is pinned in self._pinned (or, for
        # a batch read, _batch_pinned) for as long as entries keyed by
        # this id() live.
        key = id(read)  # repro: allow(ERT001)
        strands = self._rev.get(key)
        if strands is None:
            if read.size > self.index.config.max_seed_len:
                raise ValueError(
                    f"read of {read.size} bp exceeds the index's "
                    f"max_seed_len ({self.index.config.max_seed_len}); "
                    f"rebuild with a larger max_seed_len")
            self._pinned[key] = read
            strands = self._batch.get(key)
            if strands is None:
                strands = self._prepare([read])[key]
            self._rev[key] = strands
        self._read, self._current = read, strands
        return strands

    def _revcomp(self, read: np.ndarray) -> np.ndarray:
        return self._strands(read).rc_array

    # ------------------------------------------------------------------
    # Walks and hit lists
    # ------------------------------------------------------------------
    #
    # Each search below is one :func:`walk` called directly: it reads
    # the current read's strands without a method call, passes the fetch
    # model only when the index has a tracer or reuse cache attached
    # (decided per walk), and counts the walk into ``index_lookups``
    # and ``walk_steps``.

    def _charge_gather(self, count: int, nid: int,
                       fetch: FetchModel) -> int:
        """A modelled run gathers a search's hits where the hardware
        does; a list above ``gather_limit`` is left to a later walk
        (returns -1: only the count is kept)."""
        if count > self.gather_limit:
            return -1
        fetch.gather(nid)
        return nid

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    # repro: hot -- one walk per pivot.
    def forward_search(self, read: np.ndarray, start: int,
                       min_hits: int = 1) -> ForwardSearch:
        strands = (self._current if read is self._read
                   else self._strands(read))
        if min_hits > 1:  # only reseeding asks for more than one hit
            self.reseed_launches += 1
        index = self.index
        fetch = (None if index.tracer is None and index.reuse_cache is None
                 else self._fetch)
        leps: "list[int]" = []
        end, _, _, steps = walk(
            self._cursor, strands.seq, strands.codes, start, strands.n,
            min_hits, leps, min_hits == 1, 0, 0, fetch)
        self.stats.index_lookups += 1
        self.walk_steps += steps
        if end <= start:
            return _new(ForwardSearch, (start, start, ()))
        return _new(ForwardSearch, (start, end, tuple(leps)))

    # repro: hot -- one walk per backward search.
    def backward_search(self, read: np.ndarray, end: int,
                        min_hits: int = 1) -> int:
        """Maximal left extension of the segment ending at ``end``: a
        forward walk of the reverse-complemented read (§III-A3 step 6),
        whose node is cached for ``locate``."""
        strands = (self._current if read is self._read
                   else self._strands(read))
        index = self.index
        fetch = (None if index.tracer is None and index.reuse_cache is None
                 else self._fetch)
        q = strands.n - end
        rc_end, nid, count, steps = walk(
            self._cursor, strands.rc, strands.rc_codes, q, strands.n,
            min_hits, None, min_hits == 1, 0, 0, fetch)
        self.stats.index_lookups += 1
        self.walk_steps += steps
        s = end - (rc_end - q)
        if nid >= 0:
            if fetch is not None:
                nid = self._charge_gather(count, nid, fetch)
            self._hits[(strands.key, s, end)] = (count, nid, True)
        return s

    # repro: hot -- one call per emitted seed.
    def locate(self, read: np.ndarray, start: int, end: int,
               limit: "int | None" = None) -> "tuple[int, list[int]]":
        """The hits of a segment a search ended on are one slice of the
        Euler pool at the node it cached (a node's subtree is one
        contiguous run); any other segment is walked first."""
        strands = (self._current if read is self._read
                   else self._strands(read))
        cached = self._hits.get((strands.key, start, end))
        if cached is None:
            nid = -1
        else:
            count, nid, reverse = cached
            if limit is not None and count > limit:
                self.stats.truncated_hit_lists += 1
                return count, []
            if reverse is None:  # a merged pair's explicit hits
                return count, list(nid)
        if nid < 0:
            k = self.min_query_len
            if end - start < k:
                raise ValueError(
                    f"ERT locate needs segments of at least k={k} "
                    f"characters; got [{start}, {end}) -- use "
                    f"min_seed_len >= k")
            index = self.index
            fetch = (None if index.tracer is None
                     and index.reuse_cache is None else self._fetch)
            reached, nid, count, steps = walk(
                self._cursor, strands.seq, strands.codes, start, end, 1,
                None, False, 0, 0, fetch)
            self.stats.index_lookups += 1
            self.walk_steps += steps
            if reached != end or nid < 0:
                raise RuntimeError(f"segment [{start}, {end}) does not occur")
            if limit is not None and count > limit:
                self.stats.truncated_hit_lists += 1
                return count, []
            if fetch is not None:
                fetch.gather(nid)
            reverse = False
        cursor = self._cursor
        off = cursor.pos_off[nid]
        run = cursor.pool[off:off + cursor.count[nid]]
        self.gather_nodes += 1
        self.gather_bytes += run.nbytes
        if not reverse:
            return count, sorted(run)
        # An occurrence of the reverse-complemented segment at ``t`` is
        # an occurrence of the segment itself at ``2N - t - L``.
        return count, sorted(map((len(cursor.text) - end + start).__sub__,
                                 run))

    # repro: hot -- one walk per LAST launch.
    def last_seed(self, read: np.ndarray, start: int, min_len: int,
                  max_intv: int) -> "tuple[int, int] | None":
        strands = (self._current if read is self._read
                   else self._strands(read))
        if strands.n - start < self.min_query_len:
            return None
        index = self.index
        fetch = (None if index.tracer is None and index.reuse_cache is None
                 else self._fetch)
        end, nid, count, steps = walk(
            self._cursor, strands.seq, strands.codes, start, strands.n, 1,
            None, False, min_len, max_intv, fetch)
        self.stats.index_lookups += 1
        self.walk_steps += steps
        if nid < 0:  # the k-mer itself is absent: nothing was launched
            return None
        self.last_launches += 1
        if count < max_intv and end - start >= min_len:
            if fetch is not None:
                nid = self._charge_gather(count, nid, fetch)
            self._hits[(strands.key, start, end)] = (count, nid, False)
            return end, count
        return None

    # ------------------------------------------------------------------
    # Backward sweeps: plain, and prefix-merged (§III-B)
    # ------------------------------------------------------------------

    # repro: hot -- one walk per backward search of a pivot's LEPs.
    def backward_sweep(self, read: np.ndarray, leps: "tuple[int, ...]",
                       min_hits: int, prev_pivot: int,
                       use_pruning: bool) -> "list[Mem]":
        """The base class's sweep, each search one :func:`walk` made in
        the loop as :meth:`backward_search` makes it (no method call
        per search).  With prefix merging on, adjacent LEPs ``p - 1``,
        ``p`` are resolved as a pair (:meth:`_merged_sweep`)."""
        if self.index.config.prefix_merging:
            return self._merged_sweep(read, leps, min_hits, prev_pivot,
                                      use_pruning)
        strands = (self._current if read is self._read
                   else self._strands(read))
        index = self.index
        fetch = (None if index.tracer is None and index.reuse_cache is None
                 else self._fetch)
        cursor = self._cursor
        rc = strands.rc
        rc_codes = strands.rc_codes
        n = strands.n
        key = strands.key
        cache = self._hits
        jump = min_hits == 1
        mems: "list[Mem]" = []
        idx = steps = 0
        for idx in range(len(leps) - 1, -1, -1):
            p = leps[idx]
            q = n - p
            rc_end, nid, count, walked = walk(
                cursor, rc, rc_codes, q, n, min_hits, None, jump, 0, 0,
                fetch)
            steps += walked
            s = p - (rc_end - q)
            if nid >= 0:
                if fetch is not None:
                    nid = self._charge_gather(count, nid, fetch)
                cache[(key, s, p)] = (count, nid, True)
            if s < p:  # with s = n - rc_end >= 0: Mem's 0 <= start < end
                mems.append(_new(Mem, (s, p)))
            if use_pruning and s <= prev_pivot:
                self.stats.pruned_backward_searches += idx
                break
        searches = len(leps) - idx  # the loop ends at idx 0 or breaks
        stats = self.stats
        stats.index_lookups += searches
        stats.backward_searches += searches
        self.walk_steps += steps
        return mems

    def _merged_sweep(self, read: np.ndarray, leps: "tuple[int, ...]",
                      min_hits: int, prev_pivot: int,
                      use_pruning: bool) -> "list[Mem]":
        """The prefix-merged sweep (§III-B): an adjacent LEP pair is
        resolved by :meth:`_merged_pair`, any other LEP by one
        :meth:`backward_search`."""
        mems: "list[Mem]" = []
        idx = len(leps) - 1
        while idx >= 0:
            p = leps[idx]
            if idx >= 1 and leps[idx - 1] == p - 1:
                consumed, s = self._merged_pair(read, p, min_hits, mems)
            else:
                consumed = 1
                s = self.backward_search(read, p, min_hits)
                self.stats.backward_searches += 1
                if s < p:
                    mems.append(Mem(s, p))
            if use_pruning and s <= prev_pivot:
                self.stats.pruned_backward_searches += idx - (consumed - 1)
                break
            idx -= consumed
        return mems

    def _merged_pair(self, read: np.ndarray, p: int, min_hits: int,
                     mems: "list[Mem]") -> "tuple[int, int]":
        """Resolve the adjacent pair of backward searches ending at ``p``
        and ``p - 1`` with one traversal when the leaf prefix characters
        allow it.  Returns (LEPs consumed, leftmost reach of the pair) for
        the §III-F pruning decision."""
        s1 = self.backward_search(read, p - 1, min_hits)
        self.stats.backward_searches += 1
        if s1 < p - 1:
            mems.append(Mem(s1, p - 1))
        strands = self._strands(read)
        cached = self._hits.get((strands.key, s1, p - 1))
        s_p = None
        # The hardware has the hits at hand only when it gathered them.
        if cached is not None and cached[0] <= self.gather_limit:
            length1 = (p - 1) - s1
            hits1 = self.locate(read, s1, p - 1)[1]
            text = self._cursor.text
            # Prefix-character check: which occurrences of read[s1:p-1]
            # are followed by read[p-1]?  (Stored per leaf as 2-bit prefix
            # characters of the reverse-complement walk; no extra memory
            # traffic -- the leaves were just gathered.)
            want = strands.seq[p - 1]
            extenders = tuple(h for h in hits1
                              if h + length1 < len(text)
                              and text[h + length1] == want)
            if len(extenders) >= min_hits:
                s_p = s1
                self._hits[(strands.key, s1, p)] = (len(extenders),
                                                    extenders, None)
                self.stats.merged_backward_searches += 1
                mems.append(Mem(s1, p))
        if s_p is None:
            # The merged resolution failed (subset died earlier, or the
            # gather was skipped): fall back to a full traversal.
            s_p = self.backward_search(read, p, min_hits)
            self.stats.backward_searches += 1
            if s_p < p:
                mems.append(Mem(s_p, p))
        return 2, min(s_p, s1)
