"""The character-at-a-time cursor and seeding engine: the oracle for
seeds and modelled traffic.

:class:`TreeCursor` consumes read characters one at a time but emits
memory traffic at *node/cache-line* granularity: a UNIFORM node's whole
character run, or a leaf's reference comparison, costs one fetch
regardless of how many characters it resolves (multi-character lookup,
§III-A2), and nodes packed into one tile by the §III-D layout produce no
additional line fetches.  Node fetches are deferred until a character
actually requires the node's data -- decoding a DIVERGE node yields the
chosen child's *address*; the child itself is fetched on the next
consumed character, exactly like the hardware Tree Walker (§IV-B).

:class:`CursorSeedingEngine` steps one cursor per search, lands on jump
tables it builds itself (:func:`build_jump_table`, never the stored
``jt_*`` columns) and gathers hits eagerly at every backward dead end.
``repro.core.engine.ErtSeedingEngine`` -- run-granular walks, lazy hit
lists, the stored tables, the fetch model of ``repro.core.walk`` -- must
match it seed for seed, counter for counter and access for access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.arena import (
    CHILD_RANK,
    KIND_LEAF,
    KIND_UNIFORM,
    arena_cursor,
)
from repro.core.index import (
    PHASE_GATHER,
    PHASE_ROOT,
    PHASE_TRAVERSAL,
    EntryKind,
    ErtIndex,
)
from repro.seeding.engine import EngineStats, ForwardSearch, SeedingEngine
from repro.seeding.types import Mem
from repro.sequence.alphabet import COMPLEMENT


def prefix_count(index: ErtIndex, codes: np.ndarray) -> int:
    """Occurrences of a pattern of 1..k characters, read from the
    prefix-count tables (the length-k one is the k-mer counts) and
    traced as one index entry or one prefix-count entry."""
    length = len(codes)
    value = 0
    for c in codes:
        value = (value << 2) | int(c)
    if length == index.config.k:
        index.trace_index_entry(value)
    else:
        index.trace_prefix_count(length, value)
    return int(index.prefix_counts[length - 1][value])


@dataclass
class JumpEntry:
    """Second-level table entry: the outcome of walking ``x`` suffix
    characters from the tree root, precomputed at build time.

    ``matched``: characters of the suffix that exist (0..x).
    ``lep_bits``: bit ``j`` set iff extending from ``j`` to ``j+1``
    matched characters changes the hit count (same convention as the
    first-level LEP bits).
    ``state``: the walk state after all ``x`` characters, or ``None`` when
    the suffix dies inside the window.
    """

    matched: int
    lep_bits: int
    state: "object | None"
    count: int


LINE = 64


@dataclass
class WalkState:
    """Snapshot of a cursor (stored in second-level jump entries): arena
    node ids, ``pending`` -1 when no child fetch is deferred."""

    node: int
    within: int
    pending: int
    depth: int
    count: int


class TreeCursor:
    """Character-at-a-time walk over one k-mer's radix tree."""

    def __init__(self, index: ErtIndex, code: int, min_hits: int = 1,
                 stats: "EngineStats | None" = None,
                 enter_root: bool = True) -> None:
        self.index = index
        self.code = code
        self.min_hits = min_hits
        self.stats = stats
        self._arena = arena = arena_cursor(index)
        self._last_line = -1
        self._last_ref_line = -1
        root = arena.roots[code]
        self.node = root
        self.within = 0
        self.pending = -1
        self.depth = 0
        self.count = arena.count[root]
        self.count_changed = False
        if enter_root:
            self._enter_root(root)

    # ------------------------------------------------------------------
    # Traffic helpers
    # ------------------------------------------------------------------

    def _enter_root(self, root: int) -> None:
        # A unique k-mer's single reference pointer lives inline in the
        # 8-byte index entry (Fig 4, early path compression at the root),
        # so it costs no tree access; everything else fetches the root.
        arena = self._arena
        if arena.kind[root] != KIND_LEAF or arena.count[root] != 1:
            self._emit_node(root, PHASE_ROOT)
            if self.stats is not None:
                self.stats.tree_root_fetches += 1

    # One call per node fetch; counters live in the stats struct the
    # engine passes in, flushed to telemetry per batch.
    def _emit_node(self, nid: int, phase: str) -> None:
        """Fetch a node: one access per cache line it spans that is not
        the line most recently touched."""
        if self.stats is not None:
            self.stats.nodes_visited += 1
        index = self.index
        if index.tracer is None and index.reuse_cache is None:
            return
        layout = index.layout
        base = index.tree_base[self.code] + int(layout.offset[nid])
        first = base // LINE
        last = (base + int(layout.nbytes[nid]) - 1) // LINE
        region = index.trees_region
        for line in range(first, last + 1):
            if line == self._last_line:
                continue
            index.trace(region.base, line * LINE, LINE, phase, region.name)
        self._last_line = last

    def _emit_ref(self, text_pos: int) -> None:
        line = (text_pos // 4) // LINE
        if line != self._last_ref_line:
            self.index.trace_ref_line(text_pos)
            self._last_ref_line = line
            if self.stats is not None:
                self.stats.leaf_fetches += 1

    # ------------------------------------------------------------------
    # Walking
    # ------------------------------------------------------------------

    def _settle(self, phase: str) -> None:
        """Descend through nodes whose data is exhausted (deferred fetch)."""
        arena = self._arena
        while True:
            nid = self.node
            if self.pending >= 0:
                nid = self.pending
                self.pending = -1
            elif (arena.kind[nid] == KIND_UNIFORM
                    and self.within == arena.chars_len[nid]):
                nid += 1  # preorder: a run's one child follows it
            else:
                return
            self._emit_node(nid, phase)
            self.node = nid
            self.within = 0

    def advance(self, c: int, phase: str = PHASE_TRAVERSAL) -> bool:
        """Consume one read character; False (state unchanged) at a dead
        end -- mismatch, missing branch, text end, or a branch whose
        occupancy falls below ``min_hits``."""
        self._settle(phase)
        arena = self._arena
        nid = self.node
        self.count_changed = False
        kind = arena.kind[nid]
        if kind == KIND_LEAF:
            text = arena.text
            pos = arena.off[nid] + arena.k + self.depth
            if pos >= len(text):
                return False
            self._emit_ref(pos)
            if text[pos] != c:
                return False
            self.within += 1
            self.depth += 1
            return True
        if kind == KIND_UNIFORM:
            if arena.chars[arena.off[nid] + self.within] != c:
                return False
            self.within += 1
            self.depth += 1
            return True
        # DIVERGE: decoding selects the child; hit count changes.
        rank = CHILD_RANK[kind + c]
        if rank < 0:
            return False
        child = arena.kids[arena.off[nid] + rank - 1] if rank else nid + 1
        count = arena.count[child]
        if count < self.min_hits:
            return False
        self.pending = child
        self.within = 0
        self.count_changed = count != self.count
        self.count = count
        self.depth += 1
        return True

    # ------------------------------------------------------------------
    # Snapshots (second-level jump tables)
    # ------------------------------------------------------------------

    def snapshot(self) -> WalkState:
        return WalkState(node=self.node, within=self.within,
                         pending=self.pending, depth=self.depth,
                         count=self.count)

    def restore(self, state: WalkState, emit: bool = True,
                phase: str = PHASE_TRAVERSAL) -> None:
        """Land on a precomputed state (jump-table fast path).

        The landing node's data still has to come from memory -- the jump
        skipped the root and the top of the tree, not the node it lands
        on -- so the fetch is emitted here.
        """
        self.node = state.node
        self.within = state.within
        self.pending = state.pending
        self.depth = state.depth
        self.count = state.count
        self.count_changed = False
        if emit:
            self._emit_node(state.node, phase)

    # ------------------------------------------------------------------
    # Leaf gathering (depth-first search, §IV-B)
    # ------------------------------------------------------------------

    def gather(self) -> "list[int]":
        """All occurrence positions of the currently matched prefix.

        Runs the Leaf Gatherer's DFS over the remaining subtree; every
        node visited beyond the already-fetched current node costs memory
        traffic tagged ``leaf_gather``.  The positions are the subtree's
        run of the arena's position pool.
        """
        arena = self._arena
        root = self.pending if self.pending >= 0 else self.node
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid != self.node:
                self._emit_node(nid, PHASE_GATHER)
            kind = arena.kind[nid]
            if kind > KIND_LEAF:  # DIVERGE
                stack.extend(arena.children(nid))
            elif kind == KIND_UNIFORM:
                stack.append(nid + 1)
        flat = self.index.flat
        off = int(flat.pos_off[root])
        positions: "list[int]" = sorted(
            flat.pool[off:off + int(flat.count[root])].tolist())
        return positions


def build_jump_table(index: ErtIndex, code: int) -> "list[JumpEntry]":
    """Precompute the walk outcome of every x-character suffix (§III-E).

    A loaded index calls this when a walk first reaches the k-mer, maybe
    with a tracer or reuse cache attached; the precomputation is no
    modelled access, so both are set aside while its cursors run.
    """
    x = index.config.table_x
    entries = []
    tracer, reuse_cache = index.tracer, index.reuse_cache
    index.tracer = index.reuse_cache = None
    try:
        for subcode in range(4 ** x):
            cursor = TreeCursor(index, code, enter_root=False)
            matched = 0
            bits = 0
            for j in range(x):
                c = (subcode >> (2 * (x - 1 - j))) & 3
                if not cursor.advance(c):
                    break
                if cursor.count_changed:
                    bits |= 1 << j
                matched += 1
            state = cursor.snapshot() if matched == x else None
            entries.append(JumpEntry(matched=matched, lep_bits=bits,
                                     state=state, count=cursor.count))
    finally:
        index.tracer, index.reuse_cache = tracer, reuse_cache
    return entries


class CursorSeedingEngine(SeedingEngine):
    """The per-character seeding engine: every search steps a
    :class:`TreeCursor`, every backward dead end gathers eagerly."""

    def __init__(self, index: ErtIndex, gather_limit: int = 500) -> None:
        super().__init__()
        self.index = index
        self.gather_limit = gather_limit
        self.name = "ert-pm" if index.config.prefix_merging else "ert"
        # The ERT walk resolves k characters through the entry table
        # before any tree traversal, so no primitive accepts a segment
        # shorter than k; seed_batch() skips such reads up front.
        self.min_query_len = index.config.k
        self._rev: "dict[int, np.ndarray]" = {}
        self._hits: "dict[tuple, tuple[int, tuple[int, ...]]]" = {}
        # Strong references backing every id() used as a cache key: a
        # bare id(read) can be recycled once the array is garbage
        # collected, silently serving another read's revcomp or hits.
        self._pinned: "dict[int, np.ndarray]" = {}
        # Big-endian 2-bit pack weights for the second-level table
        # subcode: one dot product instead of a per-character loop.
        x = index.config.table_x
        self._subcode_weights = (4 ** np.arange(x - 1, -1, -1)).astype(np.int64)
        self._tables: "dict[int, list[JumpEntry]]" = {}

    def _table(self, code: int) -> "list[JumpEntry]":
        table = self._tables.get(code)
        if table is None:
            table = self._tables[code] = build_jump_table(self.index, code)
        return table

    # ------------------------------------------------------------------
    # Per-read state
    # ------------------------------------------------------------------

    def begin_read(self) -> None:
        super().begin_read()
        self._rev.clear()
        self._hits.clear()
        self._pinned.clear()

    def _key(self, read: np.ndarray) -> int:
        # ERT001 exception: pinned in self._pinned right below.
        key = id(read)  # repro: allow(ERT001)
        if key not in self._pinned:
            self._pinned[key] = read
        return key

    def _revcomp(self, read: np.ndarray) -> np.ndarray:
        key = self._key(read)
        cached = self._rev.get(key)
        if cached is None:
            cached = self._rev[key] = COMPLEMENT[read][::-1].copy()
        return cached

    # ------------------------------------------------------------------
    # Core walk
    # ------------------------------------------------------------------

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
            count = prefix_count(self.index, seq[start:start + length])
            if count < min_hits:
                break
            if prev is not None and count != prev and length - 1 >= 1:
                leps.append(length - 1)
            prev = count
            matched = length
        return code, matched, leps

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
            entry = self._table(code)[subcode]
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
