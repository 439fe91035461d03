"""ERT construction (§III-A3).

The paper builds the index by enumerating all 4^k k-mers and growing each
k-mer's radix tree from a pre-built FMD-index.  Functionally the trees
depend only on the k-mer's occurrence positions, so this builder takes the
direct route: a vectorized scan groups every window of the double-strand
text by k-mer code, and each group is partitioned recursively on successive
extension characters.  The resulting structure is identical to the paper's:

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

import numpy as np

from repro.core.config import ErtConfig
from repro.core.index import EntryKind, ErtIndex, JumpEntry
from repro.core.layout import LayoutStats, layout_tree
from repro.core.nodes import (
    DivergeNode,
    LeafNode,
    Node,
    UniformNode,
    leaf_over,
)
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


def _leaf(text: np.ndarray, positions: np.ndarray) -> LeafNode:
    return leaf_over(text, tuple(int(p) for p in np.sort(positions)))


def _build_node(text: np.ndarray, positions: np.ndarray, depth: int,
                k: int, cap: int) -> Node:
    """Subtree over ``positions`` (k-mer starts) at extension ``depth``."""
    if positions.size == 1 or depth >= cap:
        return _leaf(text, positions)
    # Collect the longest shared singleton run starting at `depth`.
    run = []
    d = depth
    n = int(text.size)
    while d < cap:
        ext = positions + k + d
        if int(ext.max()) >= n:
            break  # someone's extension string terminates here
        chars = text[ext]
        first = int(chars[0])
        if not (chars == first).all():
            break  # divergence
        run.append(first)
        d += 1
    if d >= cap:
        child: Node = _leaf(text, positions)
    else:
        child = _build_diverge(text, positions, d, k, cap)
    if run:
        return UniformNode(np.array(run, dtype=np.uint8), child,
                           int(positions.size))
    return child


def _build_diverge(text: np.ndarray, positions: np.ndarray, depth: int,
                   k: int, cap: int) -> DivergeNode:
    ext = positions + k + depth
    alive_mask = ext < text.size
    ended = tuple(int(p) for p in np.sort(positions[~alive_mask]))
    alive = positions[alive_mask]
    children: "dict[int, Node]" = {}
    if alive.size:
        chars = text[alive + k + depth]
        for c in range(4):
            sub = alive[chars == c]
            if sub.size:
                children[c] = _build_node(text, sub, depth + 1, k, cap)
    return DivergeNode(children, ended, int(positions.size))


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


def build_ert(reference: Reference, config: "ErtConfig | None" = None,
              space: "AddressSpace | None" = None,
              method: str = "scan") -> ErtIndex:
    """Build a complete ERT index for ``reference``.

    ``method`` selects how k-mer occurrences are enumerated:

    * ``"scan"`` (default) -- a vectorized sliding-window scan of the
      double-strand text;
    * ``"fmd"`` -- the paper's own construction path (§III-A3: "built by
      first enumerating all possible k-mers and then querying a pre-built
      FMD-index"), kept as a structurally independent cross-check: both
      methods must produce identical indexes
      (``tests/test_fmd_construction.py``).
    """
    config = config or ErtConfig()
    text = reference.both_strands
    k = config.k
    cap = config.max_ext

    lep_bits, prefix_len, kmer_count, counts_by_len = _entry_metadata(
        text, config)

    if method == "fmd":
        starts, ends, sorted_codes, order = _occurrences_via_fmd(
            reference, k)
    elif method == "scan":
        codes = rolling_codes(text, k)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_codes.size]))
    else:
        raise ValueError(f"unknown construction method {method!r}")

    entry_kind = np.zeros(config.n_entries, dtype=np.uint8)
    roots: "dict[int, Node]" = {}
    tree_base: "dict[int, int]" = {}
    layout_stats = LayoutStats()
    trees_bytes = 0
    table_codes = []

    for lo, hi in zip(starts, ends):
        code = int(sorted_codes[lo])
        positions = np.sort(order[lo:hi])
        root = _build_node(text, positions, 0, k, cap)
        roots[code] = root
        if isinstance(root, LeafNode):
            entry_kind[code] = EntryKind.LEAF
        elif config.multilevel and positions.size > config.table_threshold:
            entry_kind[code] = EntryKind.TABLE
            table_codes.append(code)
        else:
            entry_kind[code] = EntryKind.TREE
        blob = layout_tree(root, config, layout_stats)
        tree_base[code] = trees_bytes
        trees_bytes += blob

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
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Enumerate per-k-mer occurrence groups by FMD-index queries.

    This mirrors the paper's construction: every possible k-mer is looked
    up in a pre-built FMD-index of the reference; existing ones have
    their suffix-array interval located.  Returns the same
    (starts, ends, sorted_codes, order) shape the scan path produces.
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
    starts = []
    ends = []
    order_parts = []
    total = 0
    sorted_codes = []
    for code, positions in zip(codes, groups):
        starts.append(total)
        total += positions.size
        ends.append(total)
        order_parts.append(positions)
        sorted_codes.extend([code] * positions.size)
    order = (np.concatenate(order_parts) if order_parts
             else np.empty(0, dtype=np.int64))
    return (np.array(starts, dtype=np.int64),
            np.array(ends, dtype=np.int64),
            np.array(sorted_codes, dtype=np.int64), order)
