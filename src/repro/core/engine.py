"""The ERT seeding engine (paper §III).

Forward search consumes k characters with one index-table lookup (plus one
second-level table lookup for dense k-mers, §III-E), then walks the radix
tree; LEP positions come from the entry's precomputed bits inside the k-mer
and from DIVERGE transitions in the tree.  Backward search runs the same
machinery over the reverse-complemented read -- the double-strand text makes
the structure symmetric (§III-A3).

Hits are gathered *eagerly* at each backward search's dead end, exactly
like the hardware flow ("if we reach a dead end ... all leaf nodes in the
downstream sub-tree are gathered"), and cached so that seed emission costs
no further walks.  With ``prefix_merging`` on, adjacent backward searches
are resolved in pairs from a single traversal using the per-leaf prefix
characters (§III-B).
"""

from __future__ import annotations

import numpy as np

from repro.core.index import EntryKind, ErtIndex
from repro.core.walker import TreeCursor
from repro.seeding.engine import ForwardSearch, SeedingEngine
from repro.seeding.types import Mem
from repro.sequence.alphabet import COMPLEMENT


class ErtSeedingEngine(SeedingEngine):
    """Seeding engine over an :class:`~repro.core.index.ErtIndex`."""

    def __init__(self, index: ErtIndex, gather_limit: int = 500) -> None:
        super().__init__()
        self.index = index
        self.gather_limit = gather_limit
        self.name = "ert-pm" if index.config.prefix_merging else "ert"
        # The ERT walk resolves k characters through the entry table
        # before any tree traversal, so no primitive accepts a segment
        # shorter than k; seed_read() skips such reads up front.
        self.min_query_len = index.config.k
        self._rev: "dict[int, np.ndarray]" = {}
        self._hits: "dict[tuple, tuple[int, tuple[int, ...]]]" = {}
        # Strong references backing every id() used as a cache key below:
        # a bare id(read) can be recycled once the array is garbage
        # collected, silently serving another read's cached revcomp/hits.
        # Pinning the array for the cache's lifetime makes its id stable.
        self._pinned: "dict[int, np.ndarray]" = {}
        # Batch-level revcomp cache filled by begin_batch(); survives
        # begin_read() so every read of the batch finds its precomputed
        # reverse complement.
        self._batch_rev: "dict[int, np.ndarray]" = {}
        self._batch_pinned: "dict[int, np.ndarray]" = {}
        # Rolling k-mer entry codes per batch sequence (forward reads
        # and their cached reverse complements), also from begin_batch().
        self._batch_codes: "dict[int, np.ndarray]" = {}
        # Big-endian 2-bit pack weights for the second-level table
        # subcode: one dot product instead of a per-character loop.
        x = index.config.table_x
        self._subcode_weights = (4 ** np.arange(x - 1, -1, -1)).astype(np.int64)

    # ------------------------------------------------------------------
    # Per-read state
    # ------------------------------------------------------------------

    def begin_read(self) -> None:
        self._rev.clear()
        self._hits.clear()
        self._pinned.clear()

    def begin_batch(self, reads: "list[np.ndarray]") -> None:
        """Precompute every read's reverse complement with one
        ``COMPLEMENT`` gather over the concatenated batch instead of one
        per read (the :mod:`repro.parallel` serial fast path)."""
        reads = list(reads)
        # ERT001 exception: each id() key's referent is pinned in
        # _batch_pinned for the batch cache's lifetime.
        self._batch_pinned = {id(r): r for r in reads}  # repro: allow(ERT001)
        self._batch_rev = {}
        self._batch_codes = {}
        if not reads:
            return
        # Reverse the whole complemented buffer once so every per-read
        # slice below is contiguous and ascending -- negative-stride
        # views made every downstream indexing op pay a gather, which is
        # what made this "fast path" lose to the per-read loop.
        buf = np.concatenate(reads)
        rev = COMPLEMENT[buf][::-1].copy()
        total = int(rev.size)
        # Rolling k-mer codes over both strands in two matmuls: every
        # _kmer_entry() lookup on a batch sequence then reads its packed
        # entry code from this cache instead of re-packing k characters
        # in Python.  Windows straddling read boundaries are garbage and
        # excluded by the per-read slicing below.
        k = self.index.config.k
        fwd_codes = rev_codes = None
        if total >= k:
            weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
            windows = np.lib.stride_tricks.sliding_window_view
            fwd_codes = windows(buf, k) @ weights
            rev_codes = windows(rev, k) @ weights
        base = 0
        for read in reads:
            n = int(read.size)
            lo = total - base - n
            rc = rev[lo:lo + n]
            self._batch_rev[id(read)] = rc  # repro: allow(ERT001)
            if n >= k and fwd_codes is not None:
                span = n - k + 1
                # ERT001 exception: read is pinned by _batch_pinned and
                # rc by _batch_rev for this cache's lifetime.
                self._batch_codes[id(read)] = (  # repro: allow(ERT001)
                    fwd_codes[base:base + span])
                self._batch_codes[id(rc)] = (  # repro: allow(ERT001)
                    rev_codes[lo:lo + span])
            base += n

    def _key(self, read: np.ndarray) -> int:
        # ERT001 exception: the very next statement pins `read` in
        # self._pinned for the cache's lifetime, so this id() cannot be
        # recycled while _rev/_hits hold entries keyed by it.
        key = id(read)  # repro: allow(ERT001)
        if key not in self._pinned:
            self._pinned[key] = read
        return key

    def _revcomp(self, read: np.ndarray) -> np.ndarray:
        key = self._key(read)
        cached = self._rev.get(key)
        if cached is None:
            cached = self._batch_rev.get(key)
            if cached is None:
                cached = COMPLEMENT[read][::-1].copy()
            self._rev[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Core walk
    # ------------------------------------------------------------------

    # repro: hot -- called by _walk for every k-mer window.
    def _kmer_entry(self, seq: np.ndarray, start: int,
                    min_hits: int) -> "tuple[int, int, list[int]]":
        """Resolve the k-mer window at ``start``.

        Returns ``(code, matched_len, lep_offsets)`` where ``matched_len``
        is how many of the window's characters match with at least
        ``min_hits`` occurrences (capped by the read tail) and
        ``lep_offsets`` are hit-count-change offsets in ``1..matched_len-1``
        relative to ``start``.
        """
        k = self.index.config.k
        n = int(seq.size)
        tail = min(k, n - start)
        # Full-k windows of a batch sequence hit the rolling-code cache
        # (begin_batch); _batch_codes keys stay pinned for its lifetime,
        # so a miss cannot alias a recycled id.
        cached = (self._batch_codes.get(id(seq))  # repro: allow(ERT001)
                  if tail == k else None)
        if cached is not None:
            code = int(cached[start])
        else:
            code = self.index.kmer_code(seq[start:start + tail])
        self.index.trace_index_entry(code)
        self.stats.index_lookups += 1
        if min_hits == 1:
            matched = min(int(self.index.prefix_len[code]), tail)
            bits = int(self.index.lep_bits[code])
            leps = [l for l in range(1, matched) if (bits >> (l - 1)) & 1]
            return code, matched, leps
        # Reseeding path: the entry's change bits do not carry counts, so
        # consult the auxiliary prefix-count tables (see index module).
        matched = 0
        leps = []
        prev = None
        for length in range(1, tail + 1):
            count = self.index.prefix_count(seq[start:start + length])
            if count < min_hits:
                break
            if prev is not None and count != prev and length - 1 >= 1:
                leps.append(length - 1)
            prev = count
            matched = length
        return code, matched, leps

    # repro: hot -- per-character tree walk; counters go into EngineStats.
    def _walk(self, seq: np.ndarray, start: int, min_hits: int,
              collect_leps: bool,
              use_table: bool = True) -> "tuple[int, list[int], TreeCursor | None]":
        """Longest match of ``seq[start:]``; returns
        ``(end, leps, cursor)`` with ``cursor`` None when the match never
        left the k-mer window."""
        index = self.index
        k = index.config.k
        n = int(seq.size)
        tail = min(k, n - start)
        code, matched, lep_offsets = self._kmer_entry(seq, start, min_hits)
        leps = [start + l for l in lep_offsets] if collect_leps else []
        if matched < tail or tail < k:
            end = start + matched
            if collect_leps and end > start and (not leps or leps[-1] != end):
                leps.append(end)
            return end, leps, None

        cursor = None
        pos = start + k
        x = index.config.table_x
        if (use_table and min_hits == 1
                and index.entry_kind[code] == EntryKind.TABLE
                and n - pos >= x):
            subcode = int(seq[pos:pos + x] @ self._subcode_weights)
            index.trace_table_entry(code, subcode)
            entry = index.tables[code][subcode]
            if collect_leps:
                leps.extend(pos + j for j in range(entry.matched)
                            if (entry.lep_bits >> j) & 1)
            if entry.matched < x:
                end = pos + entry.matched
                if collect_leps and (not leps or leps[-1] != end):
                    leps.append(end)
                return end, leps, None
            cursor = TreeCursor(index, code, min_hits, self.stats,
                                enter_root=False)
            cursor.restore(entry.state)
            pos += x
        else:
            cursor = TreeCursor(index, code, min_hits, self.stats)

        while pos < n:
            if not cursor.advance(int(seq[pos])):
                break
            if collect_leps and cursor.count_changed:
                leps.append(pos)
            pos += 1
        end = pos
        if collect_leps and end > start and (not leps or leps[-1] != end):
            leps.append(end)
        return end, leps, cursor

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def forward_search(self, read: np.ndarray, start: int,
                       min_hits: int = 1) -> ForwardSearch:
        self._check_read(read)
        end, leps, _cursor = self._walk(read, start, min_hits,
                                        collect_leps=True)
        if end <= start:
            return ForwardSearch(start, start, ())
        return ForwardSearch(start, end, tuple(leps))

    def backward_search(self, read: np.ndarray, end: int,
                        min_hits: int = 1) -> int:
        """Maximal left extension of the segment ending at ``end``: a
        forward walk of the reverse-complemented read (§III-A3 step 6)."""
        self._check_read(read)
        rc = self._revcomp(read)
        n = int(read.size)
        q = n - end
        rc_end, _leps, cursor = self._walk(rc, q, min_hits,
                                           collect_leps=False)
        length = rc_end - q
        s = end - length
        if cursor is not None and length >= self.index.config.k:
            self._cache_hits_from_rev_cursor(read, cursor, s, end)
        return s

    def _cache_hits_from_rev_cursor(self, read: np.ndarray,
                                    cursor: TreeCursor, s: int,
                                    end: int) -> None:
        """Eager leaf gathering at a backward dead end, mapped to forward
        coordinates: an occurrence of the reverse-complemented segment at
        ``t`` is an occurrence of the segment itself at ``2N - t - L``."""
        count = cursor.count
        length = end - s
        if count > self.gather_limit:
            self._hits[(self._key(read), s, end)] = (count, ())
            return
        two_n = int(self.index.text.size)
        rev_positions = cursor.gather()
        hits = tuple(sorted(two_n - t - length for t in rev_positions))
        self._hits[(self._key(read), s, end)] = (count, hits)

    def count(self, read: np.ndarray, start: int, end: int) -> int:
        self._check_read(read)
        k = self.index.config.k
        if end - start <= k:
            return self.index.prefix_count(read[start:end])
        code, matched, _ = self._kmer_entry(read, start, 1)
        if matched < k:
            return 0
        cursor = TreeCursor(self.index, code, 1, self.stats)
        for pos in range(start + k, end):
            if not cursor.advance(int(read[pos])):
                return 0
        return cursor.count

    def locate(self, read: np.ndarray, start: int, end: int,
               limit: "int | None" = None) -> "tuple[int, list[int]]":
        self._check_read(read)
        cached = self._hits.get((self._key(read), start, end))
        if cached is not None:
            count, hits = cached
            if limit is not None and count > limit:
                self.stats.truncated_hit_lists += 1
                return count, []
            if hits or count == 0:
                return count, list(hits)
        return self._locate_walk(read, start, end, limit)

    def _locate_walk(self, read: np.ndarray, start: int, end: int,
                     limit: "int | None") -> "tuple[int, list[int]]":
        k = self.index.config.k
        if end - start < k:
            raise ValueError(
                f"ERT locate needs segments of at least k={k} characters; "
                f"got [{start}, {end}) -- use min_seed_len >= k")
        cursor = self._walk_exact(read, start, end)
        count = cursor.count
        if limit is not None and count > limit:
            self.stats.truncated_hit_lists += 1
            return count, []
        return count, cursor.gather()

    def _walk_exact(self, read: np.ndarray, start: int, end: int) -> TreeCursor:
        k = self.index.config.k
        code, matched, _ = self._kmer_entry(read, start, 1)
        if matched < k:
            raise RuntimeError(f"segment [{start}, {end}) does not occur")
        cursor = TreeCursor(self.index, code, 1, self.stats)
        for pos in range(start + k, end):
            if not cursor.advance(int(read[pos])):
                raise RuntimeError(
                    f"segment [{start}, {end}) does not occur; walk died "
                    f"at {pos}")
        return cursor

    def last_seed(self, read: np.ndarray, start: int, min_len: int,
                  max_intv: int) -> "tuple[int, int] | None":
        self._check_read(read)
        k = self.index.config.k
        n = int(read.size)
        if n - start < k:
            return None
        code, matched, _ = self._kmer_entry(read, start, 1)
        if matched < k:
            return None
        cursor = TreeCursor(self.index, code, 1, self.stats)
        length = k
        count = int(self.index.kmer_count[code])
        while True:
            if length >= min_len and count < max_intv:
                self._cache_from_forward_cursor(read, cursor, start,
                                                start + length)
                return start + length, count
            if start + length >= n:
                return None
            if not cursor.advance(int(read[start + length])):
                return None
            count = cursor.count
            length += 1

    def _cache_from_forward_cursor(self, read: np.ndarray,
                                   cursor: TreeCursor, start: int,
                                   end: int) -> None:
        count = cursor.count
        if count > self.gather_limit:
            self._hits[(self._key(read), start, end)] = (count, ())
            return
        self._hits[(self._key(read), start, end)] = (count, tuple(cursor.gather()))

    # ------------------------------------------------------------------
    # Prefix-merged backward sweep (§III-B)
    # ------------------------------------------------------------------

    def backward_sweep(self, read: np.ndarray, leps: "tuple[int, ...]",
                       min_hits: int, prev_pivot: int,
                       use_pruning: bool) -> "list[Mem]":
        if not self.index.config.prefix_merging:
            return super().backward_sweep(read, leps, min_hits, prev_pivot,
                                          use_pruning)
        mems: "list[Mem]" = []
        idx = len(leps) - 1
        while idx >= 0:
            p = leps[idx]
            pair = idx >= 1 and leps[idx - 1] == p - 1
            if pair:
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
        cached = self._hits.get((self._key(read), s1, p - 1))
        s_p = None
        if cached is not None and cached[1]:
            count1, hits1 = cached
            length1 = (p - 1) - s1
            text = self.index.text
            # Prefix-character check: which occurrences of read[s1:p-1]
            # are followed by read[p-1]?  (Stored per leaf as 2-bit prefix
            # characters of the reverse-complement walk; no extra memory
            # traffic -- the leaves were just gathered.)
            want = int(read[p - 1])
            extenders = tuple(h for h in hits1
                              if h + length1 < text.size
                              and int(text[h + length1]) == want)
            if len(extenders) >= min_hits:
                s_p = s1
                self._hits[(self._key(read), s1, p)] = (len(extenders), extenders)
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

    # ------------------------------------------------------------------

    def _check_read(self, read: np.ndarray) -> None:
        if int(read.size) > self.index.config.max_seed_len:
            raise ValueError(
                f"read of {read.size} bp exceeds the index's max_seed_len "
                f"({self.index.config.max_seed_len}); rebuild with a larger "
                f"max_seed_len")
