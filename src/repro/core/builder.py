"""ERT construction (§III-A3).

The paper builds the index by enumerating all 4^k k-mers and growing each
k-mer's radix tree from a pre-built FMD-index.  Functionally the trees
depend only on the k-mer's occurrence positions and the text after them,
so this builder takes the direct route, one suffix sort of the
double-strand text:

* **sort** -- prefix doubling ranks every suffix by its first
  ``k + max_ext`` characters (one ``argsort`` of the (rank, rank shifted
  by h) pairs, packed into an int64 key, per round; ⌈log2(k + max_ext)⌉
  rounds; the end of the text sorts before ``A``), keeping the int32 rank
  array of every round;
* **LCP** -- the longest common prefix of adjacent suffixes, capped at
  ``k + max_ext``, by binary lifting over those rank levels (one
  vectorised pass a level, highest first);
* **group** -- a k-mer's occurrences are a maximal run of adjacent
  suffixes with LCP >= k (a suffix shorter than k has LCP < k with both
  neighbours, so it is never in one);
* **emit** -- one pass per group over plain-``int`` position and LCP
  lists.  An interval's minimum LCP is where its shared extension ends,
  and the places it is attained are where the interval splits.

The resulting structure is identical to the paper's:

* merged singleton paths become UNIFORM nodes;
* a group of size one -- or a group whose members share their entire
  remaining extension window -- becomes an early-path-compressed LEAF
  (§III-A2, the ~2x space saving);
* occurrences whose extension string runs off the end of the text form the
  ``$`` terminations (``ended``) of a DIVERGE node;
* per-k-mer LEP bits and longest-existing-prefix lengths are computed for
  *all* 4^k entries, EMPTY ones included, from length-1..k occurrence
  count tables (these tables are retained: they answer the minimum-hit
  prefix queries reseeding needs).
"""

from __future__ import annotations

import gc

import numpy as np

from repro.core.config import ErtConfig
from repro.core.index import EntryKind, ErtIndex, JumpEntry
from repro.core.layout import LayoutStats, layout_tree
from repro.core.nodes import DivergeNode, LeafNode, Node, UniformNode
from repro.core.walker import build_jump_table
from repro.memsim.trace import AddressSpace
from repro.sequence.reference import Reference


def rolling_codes(text: np.ndarray, length: int) -> np.ndarray:
    """Big-endian 2-bit codes of every ``length``-window of ``text``."""
    n = int(text.size)
    if length > n:
        return np.empty(0, dtype=np.int64)
    out = np.zeros(n - length + 1, dtype=np.int64)
    for j in range(length):
        out <<= 2
        out |= text[j:n - length + 1 + j]
    return out


def _prefix_ranks(
    text: np.ndarray, length: int,
) -> "tuple[list[np.ndarray], list[int], np.ndarray]":
    """Rank every suffix of ``text`` by its first 1, 2, 4, ... and finally
    ``length`` characters (prefix doubling).

    Returns the rank level of every round, each int32 of ``n + 1`` entries
    (equal ranks iff equal prefixes; entry ``n``, the empty suffix, is 0 and
    every real rank is >= 1, so the end of the text sorts before ``A``),
    the prefix length each level ranks by, and the suffix order of the
    last round.  Suffixes that tie on all ``length`` characters come in
    no particular order.
    """
    n = int(text.size)
    rank = np.zeros(n + 1, dtype=np.int32)
    rank[:n] = text
    rank[:n] += 1
    levels = [rank]
    spans = [1]
    order = np.arange(n)  # replaced by the first round (length >= 2)
    span = 1
    while span < length:
        # Overlapping windows: (first span chars, chars [shift, shift +
        # span)) spell exactly the first span + shift characters.  The
        # pair is packed into one int64 key (ranks are <= n).
        shift = min(span, length - span)
        key = rank[:n].astype(np.int64)
        key *= n + 1
        key[:max(n - shift, 0)] += rank[shift:n]
        order = np.argsort(key)
        key = key[order]
        new = np.empty(n, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
        rank = np.zeros(n + 1, dtype=np.int32)
        rank[order] = np.cumsum(new, dtype=np.int32)
        span += shift
        levels.append(rank)
        spans.append(span)
    return levels, spans, order


def _pair_lcp(levels: "list[np.ndarray]", spans: "list[int]",
              a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest common prefix of suffixes ``a[i]`` and ``b[i]`` (distinct
    positions), capped at ``spans[-1]``.

    Binary lifting, highest level first: the top level answers "all
    ``spans[-1]`` characters equal"; below it the levels are powers of two
    and the uncapped remainder is below twice the largest of them.  Two
    distinct suffixes that matched ``lcp`` characters both have at least
    ``lcp`` of them, so ``a + lcp`` and ``b + lcp`` stay within the
    ``n + 1`` rank entries.
    """
    full = levels[-1][a] == levels[-1][b]
    lcp = np.where(full, spans[-1], 0).astype(np.int32)
    for rank, span in zip(levels[-2::-1], spans[-2::-1]):
        same = rank[a + lcp] == rank[b + lcp]
        same &= ~full
        lcp[same] += span
    return lcp


class _NodePass:
    """The node pass over k-mer groups: every group's members in suffix
    order and the extension LCP (LCP - k, capped at ``max_ext``) of each
    member with the one before it, as plain ``int`` lists."""

    def __init__(self, text: np.ndarray, k: int, cap: int,
                 positions: "list[int]", ext: "list[int]") -> None:
        self.text = text
        # Indexing bytes yields an int without a numpy scalar round trip.
        self.chars = text.tobytes()
        self.k = k
        self.cap = cap
        self.pos = positions
        self.ext = ext

    def node(self, lo: int, hi: int, depth: int) -> Node:
        """Subtree over members ``lo:hi``, which share ``depth`` extension
        characters."""
        if hi - lo == 1:
            return self._leaf(lo, hi)
        # The shared run ends where the interval's minimum LCP says (at
        # ``max_ext`` at the latest: the LCPs are capped there).
        m = min(self.ext[lo + 1:hi])
        child = (self._leaf(lo, hi) if m >= self.cap
                 else self._diverge(lo, hi, m))
        if m == depth:
            return child
        start = self.pos[lo] + self.k
        return UniformNode(self.text[start + depth:start + m].copy(), child,
                           hi - lo)

    def _leaf(self, lo: int, hi: int) -> LeafNode:
        """The leaf over members ``lo:hi``: what
        :func:`repro.core.nodes.leaf_over` makes, reading the preceding
        characters from the bytes copy."""
        positions = (tuple(sorted(self.pos[lo:hi])) if hi - lo > 1
                     else (self.pos[lo],))
        chars = self.chars
        return LeafNode(positions,
                        tuple([chars[p - 1] if p else -1 for p in positions]))

    def _diverge(self, lo: int, hi: int, depth: int) -> DivergeNode:
        """Branch of members ``lo:hi`` after ``depth`` shared characters:
        the sub-intervals split where the LCP equals ``depth``."""
        pos = self.pos
        ext = self.ext
        ended: "tuple[int, ...]" = ()
        start = lo
        # A suffix whose extension ends here is a prefix of the next one,
        # so it sorts first; distinct positions allow at most one.
        if pos[lo] + self.k + depth == len(self.chars):
            ended = (pos[lo],)
            start += 1
        children: "dict[int, Node]" = {}
        while start < hi:
            try:
                stop = ext.index(depth, start + 1, hi)
            except ValueError:
                stop = hi
            char = self.chars[pos[start] + self.k + depth]
            children[char] = self.node(start, stop, depth + 1)
            start = stop
        return DivergeNode(children, ended, hi - lo)


def _entry_metadata(
    text: np.ndarray, config: ErtConfig,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]":
    """LEP bits, longest-prefix lengths and counts for all 4^k entries."""
    k = config.k
    n_entries = config.n_entries
    counts_by_len = [
        np.bincount(rolling_codes(text, length), minlength=4 ** length)
        .astype(np.int64)
        for length in range(1, k + 1)
    ]
    all_codes = np.arange(n_entries, dtype=np.int64)
    lep_bits = np.zeros(n_entries, dtype=np.int32)
    prefix_len = np.zeros(n_entries, dtype=np.int8)
    prev = counts_by_len[0][all_codes >> (2 * (k - 1))]
    prefix_len += (prev > 0).astype(np.int8)
    for length in range(2, k + 1):
        cur = counts_by_len[length - 1][all_codes >> (2 * (k - length))]
        # Bit (length - 2): hit count changes when the match grows from
        # length-1 to length characters (leaving convention; see
        # repro.seeding.engine docstring).
        lep_bits |= ((cur != prev).astype(np.int32)) << (length - 2)
        prefix_len += ((cur > 0) & (prev > 0)).astype(np.int8)
        prev = cur
    kmer_count = counts_by_len[-1]
    return lep_bits, prefix_len, kmer_count, counts_by_len


def _kmer_groups(
    reference: Reference, config: ErtConfig, method: str,
) -> "tuple[list[int], list[int], _NodePass]":
    """Every occurring k-mer's code, ascending, the member bounds of its
    group (group ``i`` is members ``bounds[i]:bounds[i + 1]``) and the
    node pass over those groups."""
    text = reference.both_strands
    k = config.k
    levels, spans, order = _prefix_ranks(text, config.max_seed_len)
    if method == "fmd":
        codes, found = _occurrences_via_fmd(reference, k)
        sizes = [group.size for group in found]
        members = np.concatenate(found) if found else order[:0]
        members = members[np.lexsort((
            levels[-1][members], np.repeat(np.arange(len(sizes)), sizes)))]
        bounds = np.cumsum([0] + sizes)
        lcp = _pair_lcp(levels, spans, members[:-1], members[1:])
    else:
        # Suffixes of at least k characters, in suffix order.
        members = order[order <= text.size - k]
        lcp = _pair_lcp(levels, spans, members[:-1], members[1:])
        bounds = np.append(np.flatnonzero(np.concatenate(
            ([members.size > 0], lcp < k))), members.size)
        codes = rolling_codes(text, k)[members[bounds[:-1]]].tolist()
    del levels, order
    ext = [0]
    ext += (lcp - k).tolist()
    return (codes, bounds.tolist(),
            _NodePass(text, k, config.max_ext, members.tolist(), ext))


def build_ert(reference: Reference, config: "ErtConfig | None" = None,
              space: "AddressSpace | None" = None,
              method: str = "scan") -> ErtIndex:
    """Build a complete ERT index for ``reference``.

    ``method`` selects how k-mer occurrences are enumerated:

    * ``"scan"`` (default) -- the runs of the suffix sort whose adjacent
      LCPs reach k;
    * ``"fmd"`` -- the paper's own construction path (§III-A3: "built by
      first enumerating all possible k-mers and then querying a pre-built
      FMD-index"), kept as a structurally independent cross-check: both
      methods must produce identical indexes
      (``tests/test_fmd_construction.py``).

    Either way the groups, ordered by the same suffix ranks, go through
    the one node pass.
    """
    config = config or ErtConfig()
    if method not in ("scan", "fmd"):
        raise ValueError(f"unknown construction method {method!r}")
    text = reference.both_strands

    lep_bits, prefix_len, kmer_count, counts_by_len = _entry_metadata(
        text, config)
    codes, bounds, node_pass = _kmer_groups(reference, config, method)

    entry_kind = np.zeros(config.n_entries, dtype=np.uint8)
    roots: "dict[int, Node]" = {}
    tree_base: "dict[int, int]" = {}
    layout_stats = LayoutStats()
    trees_bytes = 0
    table_codes = []

    # The forest is acyclic, so the cyclic collector finds nothing in it;
    # left on, it rescans the growing heap (a third of a 200 kbp build).
    collecting = gc.isenabled()
    gc.disable()
    try:
        for code, lo, hi in zip(codes, bounds, bounds[1:]):
            root = node_pass.node(lo, hi, 0)
            roots[code] = root
            if isinstance(root, LeafNode):
                entry_kind[code] = EntryKind.LEAF
            elif config.multilevel and hi - lo > config.table_threshold:
                entry_kind[code] = EntryKind.TABLE
                table_codes.append(code)
            else:
                entry_kind[code] = EntryKind.TREE
            blob = layout_tree(root, config, layout_stats)
            tree_base[code] = trees_bytes
            trees_bytes += blob
    finally:
        if collecting:
            gc.enable()

    # Filled below: a jump table is precomputed by walking the index.
    tables: "dict[int, list[JumpEntry]]" = {code: [] for code in table_codes}
    index = ErtIndex(
        reference=reference, config=config, entry_kind=entry_kind,
        lep_bits=lep_bits, prefix_len=prefix_len, kmer_count=kmer_count,
        roots=roots, tree_base=tree_base, tables=tables,
        prefix_counts=counts_by_len, trees_bytes=trees_bytes,
        layout_stats=layout_stats, space=space)

    for code in table_codes:
        tables[code] = build_jump_table(index, code)
    return index


def _occurrences_via_fmd(
    reference: Reference, k: int,
) -> "tuple[list[int], list[np.ndarray]]":
    """Enumerate per-k-mer occurrence groups by FMD-index queries.

    This mirrors the paper's construction: every possible k-mer is looked
    up in a pre-built FMD-index of the reference; existing ones have
    their suffix-array interval located.  Returns the codes that occur,
    ascending, and each one's sorted positions.
    """
    from repro.fmindex.fmd import FmdIndex

    fmd = FmdIndex(reference)
    groups = []
    codes = []
    n = int(reference.both_strands.size)
    for code in range(4 ** k):
        pattern = np.array([(code >> (2 * (k - 1 - j))) & 3
                            for j in range(k)], dtype=np.uint8)
        bi = fmd.pattern_interval(pattern)
        if bi.is_empty:
            continue
        positions = [p for p in fmd.locate(bi) if p + k <= n]
        if positions:
            groups.append(np.array(sorted(positions), dtype=np.int64))
            codes.append(code)
    return codes, groups
