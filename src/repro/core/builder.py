"""ERT construction (§III-A3).

The paper builds the index by enumerating all 4^k k-mers and growing each
k-mer's radix tree from a pre-built FMD-index.  Functionally the trees
depend only on the k-mer's occurrence positions and the text after them,
so this builder takes the direct route, one suffix sort of the
double-strand text (the paper's FMD route is the test oracle of its
k-mer groups, ``tests/test_fmd_construction.py``):

* **sort** -- the suffix sorter the FMD-index is built with,
  :func:`repro.fmindex.suffix_array.prefix_ranks`, capped: prefix
  doubling ranks every suffix by its first ``k + max_ext`` characters
  (one ``argsort`` of a packed int64 key per round; at most
  ⌈log2(k + max_ext)⌉ rounds; the end of the text sorts before ``A``),
  and the builder keeps the int32 rank array of every round;
* **LCP** -- the longest common prefix of adjacent suffixes, capped at
  ``k + max_ext``, by binary lifting over those rank levels
  (:func:`repro.fmindex.suffix_array.pair_lcp`, one vectorised pass a
  level, highest first);
* **group** -- a k-mer's occurrences are a maximal run of adjacent
  suffixes with LCP >= k (a suffix shorter than k has LCP < k with both
  neighbours, so it is never in one);
* **emit** -- the arena's columns (:mod:`repro.core.arena`), straight
  from the LCP intervals, with no node object: an interval's minimum LCP
  is where its shared extension ends and the places it is attained are
  where it splits, so the interval tree is found by array passes, one
  per level; every interval is one or two arena rows (a UNIFORM run and
  the LEAF or DIVERGE below it), numbered in preorder, so a node's
  (first) child is the next row and a DIVERGE node stores its child
  bitmap and the rest of its children in the kids pool; the pool is the
  members in suffix order with each LEAF's run sorted by position;
* **lay out and assemble** -- jump tables walked over the columns, the
  forest laid out once from the columns
  (:func:`repro.core.layout.forest_layout`) and every node's offset
  stored as the ``offset`` column, and the index assembled exactly as a
  loaded one is (:func:`repro.core.io.index_over`).

The resulting structure is identical to the paper's:

* merged singleton paths become UNIFORM nodes;
* a group of size one -- or a group whose members share their entire
  remaining extension window -- becomes an early-path-compressed LEAF
  (§III-A2, the ~2x space saving);
* occurrences whose extension string runs off the end of the text form the
  ``$`` terminations (``ended``) of a DIVERGE node;
* per-k-mer LEP bits and longest-existing-prefix lengths are computed for
  *all* 4^k entries, EMPTY ones included, from length-1..k occurrence
  count tables (these tables are retained -- the length-k one as the
  entry counts -- they answer the minimum-hit prefix queries reseeding
  needs).
"""

from __future__ import annotations

import numpy as np

from repro.core.arena import (
    ARENA_DTYPES,
    KIND_DIVERGE,
    KIND_LEAF,
    KIND_UNIFORM,
    ArenaLimitError,
    FlatTrees,
    check_fits,
    jump_columns,
)
from repro.core.config import ErtConfig
from repro.core.index import EntryKind, ErtIndex
from repro.core.io import index_over
from repro.core.layout import forest_layout
from repro.fmindex.suffix_array import pair_lcp, prefix_ranks
from repro.sequence.alphabet import kmer_codes
from repro.sequence.reference import Reference


def _entry_metadata(
    text: np.ndarray, config: ErtConfig,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]":
    """LEP bits, longest-prefix lengths and counts for all 4^k entries."""
    k = config.k
    n_entries = config.n_entries
    counts_by_len = [
        np.bincount(kmer_codes(text, length), minlength=4 ** length)
        .astype(np.int32)
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
    text: np.ndarray, config: ErtConfig,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Every occurring k-mer's code, ascending; the member bounds of its
    group (group ``i`` is members ``bounds[i]:bounds[i + 1]``); the
    members, the suffixes of at least k characters in suffix order; and
    ``ext``, one entry per member plus one: member ``i``'s extension LCP
    (LCP - k, capped at ``max_ext``) with member ``i - 1``, -1 where a
    group opens and at the end."""
    k = config.k
    levels, spans = [], []
    for rank, span, order in prefix_ranks(text, config.max_seed_len):
        levels.append(rank)
        spans.append(span)
    members = order[order <= text.size - k]
    del order, rank
    lcp = pair_lcp(levels, spans, members[:-1], members[1:])
    del levels
    opens = np.flatnonzero(np.concatenate(([members.size > 0], lcp < k)))
    codes = kmer_codes(text, k)[members[opens]]
    ext = np.full(members.size + 1, -1, dtype=np.int32)
    np.maximum(lcp - k, -1, out=ext[1:-1])
    return codes, np.append(opens, members.size), members, ext


def _tree_intervals(
    text: np.ndarray, k: int, cap: int, bounds: np.ndarray,
    members: np.ndarray, ext: np.ndarray,
) -> "dict[str, np.ndarray]":
    """The LCP-interval tree of every group, one round per level.

    An interval of members at extension ``depth`` is a LEAF if it holds
    one member or its minimum extension LCP ``m`` reaches ``cap``;
    otherwise it is a DIVERGE at ``m``, whose child intervals split
    where the LCP equals ``m`` (a member whose extension ends at ``m``
    is a prefix of the next one, so it sorts first and becomes the
    node's ``ended`` hit, not a child).  Either way ``m > depth`` puts a
    UNIFORM run of ``m - depth`` characters above it.  Returns, per
    interval (the groups first, in k-mer order): its first member
    ``lo``, ``size``, ``depth``, ``m``, the interval of the DIVERGE above
    it (-1 for a root), the character that leads to it, and ``pre``, its
    place in preorder: by first member, and an interval before the ones
    inside it, which later rounds make.
    """
    lo, hi = bounds[:-1].astype(np.int32), bounds[1:].astype(np.int32)
    depth = np.zeros(lo.size, dtype=np.int32)
    parent = np.full(lo.size, -1, dtype=np.int32)
    char = np.zeros(lo.size, dtype=np.uint8)
    # How many intervals found so far open at each member.
    opened = np.zeros(members.size, dtype=np.int16)
    rounds = []
    made = 0
    while True:
        m = depth.copy()
        multi = np.flatnonzero(hi - lo > 1)
        spans = np.empty(2 * multi.size, dtype=np.int64)
        spans[0::2] = lo[multi] + 1
        spans[1::2] = hi[multi]
        if multi.size:
            m[multi] = np.minimum.reduceat(ext, spans)[0::2]
        del spans
        rounds.append([lo, hi - lo, depth, m, parent, char, opened[lo]])
        opened[lo] += 1
        branch = multi[m[multi] < cap]
        if not branch.size:
            break
        ids = (made + branch).astype(np.int32)
        made += lo.size
        lo, hi, m = lo[branch], hi[branch], m[branch]
        # Every member past an interval's first is a candidate split.
        inner = hi - lo - 1
        owner = np.repeat(np.arange(branch.size, dtype=np.int32), inner)
        at = (np.arange(owner.size, dtype=np.int32)
              + np.repeat(lo + 1 - (np.cumsum(inner, dtype=np.int32)
                                    - inner), inner))
        split = ext[at] == m[owner]
        starts = np.concatenate((lo, at[split]))
        owner = np.concatenate((np.arange(branch.size, dtype=np.int32),
                                owner[split]))
        del at, split
        by_start = np.argsort(starts, kind="stable")
        starts, owner = starts[by_start], owner[by_start]
        del by_start
        stops = np.empty_like(starts)
        stops[:-1] = starts[1:]
        last = np.append(owner[1:] != owner[:-1], True)
        stops[last] = hi[owner[last]]
        child = ~((starts == lo[owner])
                  & (members[starts] + k + m[owner] == text.size))
        lo, hi, owner = starts[child], stops[child], owner[child]
        depth = m[owner] + 1
        parent = ids[owner]
        char = text[members[lo] + k + depth - 1]
    tree = {}
    for i, name in enumerate(("lo", "size", "depth", "m", "parent", "char",
                              "pre")):
        tree[name] = np.concatenate([r[i] for r in rounds])
        for r in rounds:
            r[i] = None
    # Intervals opening before a member's come first.
    before = np.cumsum(opened, dtype=np.int32)
    before -= opened
    tree["pre"] = tree["pre"] + before[tree["lo"]]
    return tree


def _emit_nodes(
    text: np.ndarray, config: ErtConfig, codes: np.ndarray,
    bounds: np.ndarray, members: np.ndarray, ext: np.ndarray,
) -> "dict[str, np.ndarray]":
    """The arena's node columns and ``roots``: one row per node, in
    preorder with children in character order (an interval's UNIFORM
    run, then its LEAF or DIVERGE, then the intervals below that).
    Every column is scattered in by interval; each interval array is
    dropped once the columns that need it are made."""
    k, cap = config.k, config.max_ext
    tree = _tree_intervals(text, k, cap, bounds, members, ext)
    lo, size, depth, m = (tree.pop(name)
                          for name in ("lo", "size", "depth", "m"))
    uniform = m > depth
    leaf = (size == 1) | (m >= cap)
    # Each interval's first node (its UNIFORM run, if any) and its LEAF
    # or DIVERGE node.
    rows = uniform + np.int32(1)
    first = np.zeros(lo.size, dtype=np.int32)
    first[tree["pre"]] = rows
    first = np.cumsum(first, dtype=np.int32)[tree.pop("pre")] - rows
    del rows
    inner = first + uniform
    n_nodes = lo.size + int(np.count_nonzero(uniform))
    runs = first[uniform]
    run_len = (m - depth)[uniform]
    check_fits(int(text.size), n_nodes, int(members.size),
               int(run_len.sum(dtype=np.int64)))

    kind = np.full(n_nodes, KIND_DIVERGE, dtype=np.uint8)
    kind[inner[leaf]] = KIND_LEAF
    kind[runs] = KIND_UNIFORM
    chars_len = np.zeros(n_nodes, dtype=np.int32)
    chars_len[runs] = run_len
    off = np.cumsum(chars_len, dtype=np.int32)
    off -= chars_len
    # A run's characters follow its first member's k-mer at its depth;
    # the runs lie in the pool in preorder.
    by_node = np.argsort(runs)
    at = np.repeat((members[lo[uniform]] + k + depth[uniform]
                    - off[runs]).astype(np.int32)[by_node],
                   run_len[by_node])
    at += np.arange(at.size, dtype=np.int32)
    chars_pool = text[at]
    del at, by_node, runs, run_len, depth, m, uniform

    # The pool is the members in suffix order, each LEAF's run sorted by
    # position (one segmented sort).
    pool = members.astype(np.int32)
    runs_lo, runs_size = lo[leaf & (size > 1)], size[leaf & (size > 1)]
    at = np.arange(int(runs_size.sum()), dtype=np.int32) + np.repeat(
        runs_lo - (np.cumsum(runs_size, dtype=np.int32) - runs_size),
        runs_size)
    segment = np.repeat(np.arange(runs_lo.size, dtype=np.int32), runs_size)
    pool[at] = pool[at][np.lexsort((pool[at], segment))]
    del at, segment, runs_lo, runs_size
    off[inner[leaf]] = pool[lo[leaf]]
    count = np.empty(n_nodes, dtype=np.int32)
    pos_off = np.empty(n_nodes, dtype=np.int32)
    for rows_of in (first, inner):
        count[rows_of] = size
        pos_off[rows_of] = lo
    del lo, size, leaf
    roots = np.full(config.n_entries, -1, dtype=np.int32)
    roots[codes] = first[:codes.size]
    # Every other interval hangs off its parent's DIVERGE by a character:
    # the edges in (parent, character) order.  A parent's first child is
    # the node after it in preorder; the others fill the kids pool.
    parent = tree.pop("parent")
    below = np.flatnonzero(parent >= 0)
    char = tree.pop("char")[below]
    parent = inner[parent[below]]
    by_edge = np.argsort(parent.astype(np.int64) * 4 + char)
    parent, char, child = parent[by_edge], char[by_edge], first[below][by_edge]
    del below, by_edge
    # One run of edges per DIVERGE node, the nodes ascending.
    starts = np.flatnonzero(np.diff(parent, prepend=-1))
    diverge = parent[starts]
    kind[diverge] = np.bitwise_or.reduceat(np.uint8(4) << char, starts)
    more = np.diff(np.append(starts, parent.size)) - 1
    off[diverge] = np.cumsum(more, dtype=np.int32) - more
    later = np.ones(parent.size, dtype=bool)
    later[starts] = False
    kids = child[later]
    return {"kind": kind, "count": count, "kids": kids, "off": off,
            "chars_len": chars_len, "chars_pool": chars_pool,
            "pos_off": pos_off, "pool": pool, "roots": roots}


def build_ert(reference: Reference,
              config: "ErtConfig | None" = None) -> ErtIndex:
    """Build a complete ERT index for ``reference``: the arena emitted
    from the suffix sort, laid out, and assembled as a loaded index is
    (:func:`repro.core.io.index_over`)."""
    config = config or ErtConfig()
    text = reference.both_strands
    lep_bits, prefix_len, kmer_count, counts_by_len = _entry_metadata(
        text, config)
    nodes = {name: column.astype(ARENA_DTYPES[name], copy=False)
             for name, column in _emit_nodes(
                 text, config, *_kmer_groups(text, config)).items()}

    codes = np.flatnonzero(nodes["roots"] >= 0)
    root = nodes["roots"][codes]
    entry_kind = np.zeros(config.n_entries, dtype=np.uint8)
    entry_kind[codes] = np.where(nodes["kind"][root] == KIND_LEAF,
                                 EntryKind.LEAF, EntryKind.TREE)
    if config.multilevel:
        entry_kind[codes[(nodes["kind"][root] != KIND_LEAF)
                         & (nodes["count"][root] > config.table_threshold)]
                   ] = EntryKind.TABLE
    nodes.update(jump_columns(
        nodes, text, config.k, config.table_x,
        np.flatnonzero(entry_kind == EntryKind.TABLE), config.n_entries))
    layout = forest_layout(nodes, config)
    if layout.trees_bytes > np.iinfo(np.int32).max:
        raise ArenaLimitError(
            f"the modelled trees region ({layout.trees_bytes:,} B) does "
            f"not fit the int32 tree bases")
    nodes["offset"] = layout.offset
    flat = FlatTrees(k=config.k, table_x=config.table_x, **nodes)

    arrays = {"entry_kind": entry_kind, "lep_bits": lep_bits,
              "prefix_len": prefix_len, "kmer_count": kmer_count,
              "tree_bases": layout.tree_bases.astype(np.int32)}
    for length, counts in enumerate(counts_by_len[:-1], start=1):
        arrays[f"prefix_counts_{length}"] = counts
    return index_over(reference, config, flat, arrays.__getitem__,
                      layout.trees_bytes)
