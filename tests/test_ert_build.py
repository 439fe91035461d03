"""Tests for ERT construction: entry metadata, trees, tables, sizes, and
the column emitter against the recursive object builder, object layout
and object compile it replaced."""

import dataclasses
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ErtConfig, EntryKind, LayoutPolicy, build_ert, save_ert
from repro.core.arena import (
    ARENA_COLUMNS,
    ARENA_DTYPES,
    KIND_DIVERGE,
    KIND_LEAF,
    KIND_UNIFORM,
    FlatTrees,
)
from repro.core.builder import _entry_metadata, rolling_codes
from repro.core.index import ErtIndex
from repro.core.layout import TILE, LayoutStats
from repro.core.walker import WalkState, build_jump_table
from repro.seeding.oracle import count_occurrences
from repro.sequence import GenomeSimulator, Reference
from repro.sequence.alphabet import decode
from repro.sequence.multi import MultiReference
from tests.frames import read_frame
from tests.nodes import (
    DivergeNode,
    LeafNode,
    UniformNode,
    decoded,
    forest,
    leaf_over,
)
from tests.serialize import size_of, trees_equal


@pytest.fixture(scope="module")
def ref():
    return GenomeSimulator(seed=31).generate(2000)


@pytest.fixture(scope="module")
def index(ref):
    return build_ert(ref, ErtConfig(k=5, max_seed_len=60,
                                    table_threshold=16, table_x=2))


def test_rolling_codes_known():
    text = np.array([0, 1, 2, 3], dtype=np.uint8)  # ACGT
    codes = rolling_codes(text, 2)
    assert codes.tolist() == [0b0001, 0b0110, 0b1011]


def test_rolling_codes_short_text():
    assert rolling_codes(np.array([1], dtype=np.uint8), 3).size == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ErtConfig(k=1)
    with pytest.raises(ValueError):
        ErtConfig(k=8, max_seed_len=8)
    with pytest.raises(ValueError):
        ErtConfig(table_x=0)


def test_entry_counts_match_brute_force(ref, index):
    text = decode(ref.both_strands)
    k = index.config.k
    rng = np.random.default_rng(1)
    for _ in range(30):
        code = int(rng.integers(0, 4 ** k))
        kmer = "".join("ACGT"[(code >> (2 * (k - 1 - j))) & 3]
                       for j in range(k))
        assert int(index.kmer_count[code]) == count_occurrences(text, kmer)


def test_prefix_len_matches_brute_force(ref, index):
    text = decode(ref.both_strands)
    k = index.config.k
    rng = np.random.default_rng(2)
    for _ in range(30):
        code = int(rng.integers(0, 4 ** k))
        kmer = "".join("ACGT"[(code >> (2 * (k - 1 - j))) & 3]
                       for j in range(k))
        expected = 0
        for length in range(1, k + 1):
            if count_occurrences(text, kmer[:length]) == 0:
                break
            expected = length
        assert int(index.prefix_len[code]) == expected


def test_lep_bits_match_brute_force(ref, index):
    """Bit l-1 set iff count changes when the match grows from l to l+1."""
    text = decode(ref.both_strands)
    k = index.config.k
    rng = np.random.default_rng(3)
    for _ in range(30):
        code = int(rng.integers(0, 4 ** k))
        kmer = "".join("ACGT"[(code >> (2 * (k - 1 - j))) & 3]
                       for j in range(k))
        bits = int(index.lep_bits[code])
        for length in range(1, k):
            expected = (count_occurrences(text, kmer[:length + 1])
                        != count_occurrences(text, kmer[:length]))
            assert bool((bits >> (length - 1)) & 1) == expected, (kmer, length)


def test_entry_kinds_consistent(index):
    kinds = index.entry_kind
    counts = index.kmer_count
    assert np.all((kinds == EntryKind.EMPTY) == (counts == 0))
    for code, root in forest(index).items():
        if kinds[code] == EntryKind.LEAF:
            assert isinstance(root, LeafNode)
        if kinds[code] == EntryKind.TABLE:
            assert counts[code] > index.config.table_threshold
            assert index.tables[code] is not None
            assert len(index.tables[code]) == 4 ** index.config.table_x


def test_tree_counts_sum(index):
    """Every node's count equals the occurrences below it."""
    def check(node):
        if isinstance(node, LeafNode):
            assert node.count == len(node.positions)
            return node.count
        if isinstance(node, UniformNode):
            below = check(node.child)
            assert node.count == below
            return below
        assert isinstance(node, DivergeNode)
        below = len(node.ended) + sum(check(c)
                                      for c in node.children_nodes())
        assert node.count == below
        return below

    for code, root in forest(index).items():
        assert check(root) == int(index.kmer_count[code])


def test_tree_paths_spell_reference_substrings(ref, index):
    """Every root-to-leaf path must spell a string present in the text."""
    text = ref.both_strands
    k = index.config.k

    def leaf_positions_consistent(node, depth):
        if isinstance(node, LeafNode):
            # All occurrences share the suffix read from positions[0].
            p0 = node.positions[0]
            for p in node.positions:
                length = min(text.size - (p + k + depth),
                             text.size - (p0 + k + depth),
                             index.config.max_ext - depth)
                if length > 0:
                    assert np.array_equal(
                        text[p + k + depth:p + k + depth + length],
                        text[p0 + k + depth:p0 + k + depth + length])
        elif isinstance(node, UniformNode):
            leaf_positions_consistent(node.child,
                                      depth + int(node.chars.size))
        else:
            for c, child in node.children.items():
                leaf_positions_consistent(child, depth + 1)

    for code in list(index.roots)[:200]:
        leaf_positions_consistent(decoded(index, code), 0)


def test_uniform_nodes_are_singleton_paths(index):
    """UNIFORM nodes must never hide a divergence."""
    text = index.text
    k = index.config.k

    def check(node, depth):
        if isinstance(node, UniformNode):
            # Gather any leaf position below and verify the run.
            probe = node
            while not isinstance(probe, LeafNode):
                if isinstance(probe, UniformNode):
                    probe = probe.child
                else:
                    probe = next(iter(probe.children.values()), None)
                    if probe is None:
                        return
            p = probe.positions[0]
            # The uniform characters must appear in the text at the right
            # offset for this occurrence.
            check(node.child, depth + int(node.chars.size))
        elif isinstance(node, DivergeNode):
            assert len(node.children) + (1 if node.ended else 0) >= 2 or \
                node.ended
            for child in node.children.values():
                check(child, depth + 1)

    for code in list(index.roots)[:100]:
        check(decoded(index, code), 0)


def test_index_bytes_structure(index):
    sizes = index.index_bytes()
    assert sizes["index_table"] == 4 ** index.config.k * 8
    assert sizes["total"] == sum(v for key, v in sizes.items()
                                 if key != "total")
    assert sizes["trees"] > 0


def test_ert_trades_space_for_bandwidth(ref):
    """Fig 1b: the ERT index is much larger than the FMD-index."""
    from repro.fmindex import FmdConfig, FmdIndex
    ert = build_ert(ref, ErtConfig(k=5, max_seed_len=60))
    fmd = FmdIndex(ref, FmdConfig.bwa_mem2())
    assert ert.index_bytes()["total"] > fmd.index_bytes()["total"]


def test_multilevel_off_has_no_tables(ref):
    index = build_ert(ref, ErtConfig(k=5, max_seed_len=60,
                                     multilevel=False))
    assert not index.tables
    assert not np.any(index.entry_kind == EntryKind.TABLE)
    assert index.tables_region.size == 0


def test_reference_shorter_than_k_builds_an_empty_forest():
    index = build_ert(Reference("r", np.array([1], dtype=np.uint8)),
                      ErtConfig(k=4, max_seed_len=10))
    assert not index.roots
    assert not np.any(index.entry_kind != EntryKind.EMPTY)


# ----------------------------------------------------------------------
# The oracle: the recursive constructor, the object layout and the
# object compile the column emitter replaced, kept verbatim, with the
# build loop around them.
# ----------------------------------------------------------------------


def _leaf(text, positions):
    return leaf_over(text, tuple(int(p) for p in np.sort(positions)))


def _build_node(text, positions, depth, k, cap):
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
        child = _leaf(text, positions)
    else:
        child = _build_diverge(text, positions, d, k, cap)
    if run:
        return UniformNode(np.array(run, dtype=np.uint8), child,
                           int(positions.size))
    return child


def _build_diverge(text, positions, depth, k, cap):
    ext = positions + k + depth
    alive_mask = ext < text.size
    ended = tuple(int(p) for p in np.sort(positions[~alive_mask]))
    alive = positions[alive_mask]
    children = {}
    if alive.size:
        chars = text[alive + k + depth]
        for c in range(4):
            sub = alive[chars == c]
            if sub.size:
                children[c] = _build_node(text, sub, depth + 1, k, cap)
    return DivergeNode(children, ended, int(positions.size))


def _dfs_offsets(root):
    offset = 0
    stack = [root]
    while stack:
        node = stack.pop()
        node.offset = offset
        offset += node.nbytes
        stack.extend(reversed(node.children_nodes()))
    return offset


def _bfs_offsets(root):
    offset = 0
    queue = deque([root])
    while queue:
        node = queue.popleft()
        node.offset = offset
        offset += node.nbytes
        queue.extend(node.children_nodes())
    return offset


def _tiled_offsets(root):
    offset = 0
    pending = deque([root])
    placed = set()
    while pending:
        start = pending.popleft()
        if id(start) in placed:  # repro: allow(ERT001)
            continue
        offset = (offset + TILE - 1) & ~(TILE - 1)
        room = TILE
        local = deque([start])
        first_in_tile = True
        while local:
            node = local.popleft()
            if id(node) in placed:  # repro: allow(ERT001)
                continue
            if node.nbytes <= room or first_in_tile:
                node.offset = offset
                offset += node.nbytes
                room -= node.nbytes
                placed.add(id(node))  # repro: allow(ERT001)
                first_in_tile = False
                local.extend(node.children_nodes())
                if room <= 0:
                    break
            else:
                pending.append(node)
        pending.extend(local)
    return offset


def oracle_layout_tree(root, config, stats):
    """Lay one object tree out; return its blob size (whole tiles)."""
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        node.nbytes = size_of(node, config.prefix_merging)
        nodes.append(node)
        stack.extend(reversed(node.children_nodes()))
    size = {LayoutPolicy.DFS: _dfs_offsets, LayoutPolicy.BFS: _bfs_offsets,
            LayoutPolicy.TILED: _tiled_offsets}[config.layout](root)
    size = (size + TILE - 1) & ~(TILE - 1)
    stats.total_bytes += size
    stats.n_nodes += len(nodes)
    tiles = {}
    for node in nodes:
        tiles[node.offset // TILE] = tiles.get(node.offset // TILE, 0) + 1
    stats.n_tiles += len(tiles)
    for count in tiles.values():
        stats.nodes_per_tile[count] = stats.nodes_per_tile.get(count, 0) + 1
    return size


def _settle_nid(kind, chars_len, child, nid, within):
    while kind[nid] == KIND_UNIFORM and within == chars_len[nid]:
        nid = child[nid]
        within = 0
    return nid, within


def oracle_compile(roots, config, n_tables):
    """Number every node of the object trees ``roots`` (by k-mer code)
    in preorder, children in character order, and emit one row each;
    the ``n_tables`` jump tables' columns are left for
    :func:`oracle_jump_tables` to fill."""
    lists = {name: [] for name in ("kind", "count", "children", "child",
                                   "chars_off", "chars_len", "chars_pool",
                                   "leaf_text0", "pos_off", "pool")}
    kind, children, pool = lists["kind"], lists["children"], lists["pool"]
    n_entries = 4 ** config.k
    root_ids = np.full(n_entries, -1, dtype=np.int32)
    for code in sorted(roots):
        root_ids[code] = len(kind)
        stack = [(roots[code], -1)]
        while stack:
            node, slot = stack.pop()
            nid = len(kind)
            if slot >= 0:
                children[slot] = nid
            lists["count"].append(int(node.count))
            lists["pos_off"].append(len(pool))
            children.extend((-1, -1, -1, -1))
            if isinstance(node, LeafNode):
                kind.append(KIND_LEAF)
                lists["child"].append(-1)
                lists["chars_off"].append(0)
                lists["chars_len"].append(0)
                lists["leaf_text0"].append(int(node.positions[0]))
                pool.extend(node.positions)
            elif isinstance(node, UniformNode):
                kind.append(KIND_UNIFORM)
                lists["child"].append(nid + 1)
                lists["chars_off"].append(len(lists["chars_pool"]))
                lists["chars_len"].append(int(node.chars.size))
                lists["chars_pool"].extend(node.chars.tolist())
                lists["leaf_text0"].append(-1)
                stack.append((node.child, -1))
            else:
                kind.append(KIND_DIVERGE)
                lists["child"].append(-1)
                lists["chars_off"].append(0)
                lists["chars_len"].append(0)
                lists["leaf_text0"].append(-1)
                pool.extend(node.ended)
                for c in sorted(node.children, reverse=True):
                    stack.append((node.children[c], 4 * nid + c))

    shape = (max(n_tables, 1), 4 ** config.table_x)
    jt = {"table_slot": np.full(n_entries, -1, dtype=np.int32)}
    for name in ("jt_matched", "jt_lep", "jt_within", "jt_depth",
                 "jt_count"):
        jt[name] = np.zeros(shape, dtype=np.int32)
    jt["jt_node"] = np.full(shape, -1, dtype=np.int32)
    arrays = {name: np.array(values, dtype=ARENA_DTYPES[name])
              for name, values in lists.items()}
    arrays["children"] = arrays["children"].reshape(-1, 4)
    return FlatTrees(k=config.k, table_x=config.table_x, roots=root_ids,
                     **jt, **arrays)


def oracle_jump_tables(index):
    """Fill the arena's jump-table columns from the cursor-built tables,
    each state eagerly settled."""
    flat = index.flat
    for slot, code in enumerate(sorted(index.tables)):
        flat.table_slot[code] = slot
        for subcode, entry in enumerate(index.tables[code]):
            flat.jt_matched[slot, subcode] = entry.matched
            flat.jt_lep[slot, subcode] = entry.lep_bits
            state = entry.state
            if state is None:
                continue
            assert isinstance(state, WalkState)
            if state.pending >= 0:
                nid, within = state.pending, 0
            else:
                nid, within = state.node, state.within
            nid, within = _settle_nid(flat.kind, flat.chars_len, flat.child,
                                      nid, within)
            flat.jt_node[slot, subcode] = nid
            flat.jt_within[slot, subcode] = within
            flat.jt_depth[slot, subcode] = state.depth
            flat.jt_count[slot, subcode] = state.count


def oracle_build_ert(reference, config):
    """``build_ert`` before the suffix sort and the column emitter:
    rolling-code groups, each partitioned recursively, laid out and
    compiled as objects.  Returns the index (its arena the compile), the
    layout's tile statistics and the object trees by k-mer code."""
    text = reference.both_strands
    k = config.k
    cap = config.max_ext
    lep_bits, prefix_len, kmer_count, counts_by_len = _entry_metadata(
        text, config)
    codes = rolling_codes(text, k)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_codes.size]))

    entry_kind = np.zeros(config.n_entries, dtype=np.uint8)
    roots = {}
    tree_base = {}
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
        blob = oracle_layout_tree(root, config, layout_stats)
        tree_base[code] = trees_bytes
        trees_bytes += blob

    tables = {code: [] for code in table_codes}
    index = ErtIndex(
        reference=reference, config=config, entry_kind=entry_kind,
        lep_bits=lep_bits, prefix_len=prefix_len, kmer_count=kmer_count,
        tree_bases=np.array([tree_base[code] for code in sorted(tree_base)],
                            dtype=np.int64),
        tables=tables, prefix_counts=counts_by_len, trees_bytes=trees_bytes,
        flat=oracle_compile(roots, config, len(table_codes)))
    for code in table_codes:
        tables[code] = build_jump_table(index, code)
    oracle_jump_tables(index)
    return index, layout_stats, roots


def _assert_same_build(got, want, want_stats, want_roots):
    assert list(got.roots) == list(want.roots) == sorted(want_roots)
    for code, root in want_roots.items():
        ours, theirs = [decoded(got, code)], [root]
        assert trees_equal(ours[0], root, check_prefix=True), code
        while ours:
            a, b = ours.pop(), theirs.pop()
            assert (a.offset, a.nbytes) == (b.offset, b.nbytes), code
            ours.extend(a.children_nodes())
            theirs.extend(b.children_nodes())
    assert np.array_equal(got.entry_kind, want.entry_kind)
    for name in ARENA_COLUMNS:
        a, b = getattr(got.flat, name), getattr(want.flat, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got.tree_base == want.tree_base
    assert got.trees_region.size == want.trees_region.size
    assert got.index_bytes() == want.index_bytes()
    assert got.layout_stats == want_stats


# Adversarial texts, each a list of 2-bit codes (the reference strand;
# the index is built over it and its reverse complement).
_BASES = st.integers(0, 3)


@st.composite
def _homopolymer(draw, k, span):
    text = [draw(_BASES)] * draw(st.integers(3, 80))
    for i in draw(st.lists(st.integers(0, len(text) - 1), max_size=3)):
        text[i] = draw(_BASES)
    return text


@st.composite
def _tandem_repeat(draw, k, span):
    unit = draw(st.lists(_BASES, min_size=1, max_size=6))
    return (unit * draw(st.integers(3, 20))
            + draw(st.lists(_BASES, max_size=3)))


@st.composite
def _two_letters(draw, k, span):
    # (0, 3) and (1, 2) are closed under reverse complement.
    pair = draw(st.sampled_from([(0, 1), (0, 3), (1, 2), (2, 3)]))
    return draw(st.lists(st.sampled_from(pair), min_size=3, max_size=80))


@st.composite
def _mutated_blocks(draw, k, span):
    block = draw(st.lists(_BASES, min_size=4, max_size=25))
    text = []
    for _ in range(draw(st.integers(2, 4))):
        copy = list(block)
        for i in draw(st.lists(st.integers(0, len(block) - 1), max_size=2)):
            copy[i] = draw(_BASES)
        text += copy + draw(st.lists(_BASES, max_size=3))
    return text


@st.composite
def _shorter_than_span(draw, k, span):
    return draw(st.lists(_BASES, min_size=3, max_size=max(3, span - 1)))


@st.composite
def _ends_in_a_repeat(draw, k, span):
    """``B + middle + revcomp(B)``: the double-strand text ends in
    ``revcomp(B)``, which also occurs mid-text, so an extension that
    reaches the end sits beside ones that continue (``ended``)."""
    block = draw(st.lists(_BASES, min_size=k, max_size=k + 8))
    middle = draw(st.lists(_BASES, max_size=10))
    return block + middle + [3 - c for c in reversed(block)]


@st.composite
def _repeat_at_the_cap(draw, k, span):
    """Two copies of a block ``k + max_ext`` +- 1 long: shared runs that
    stop one short of, exactly at, or beyond ``max_ext``."""
    length = span + draw(st.integers(-1, 1))
    block = draw(st.lists(_BASES, min_size=length, max_size=length))
    return (block + draw(st.lists(_BASES, min_size=1, max_size=4)) + block
            + draw(st.lists(_BASES, max_size=2)))


_KINDS = [_homopolymer, _tandem_repeat, _two_letters, _mutated_blocks,
          _shorter_than_span, _ends_in_a_repeat, _repeat_at_the_cap]


@st.composite
def _adversarial_builds(draw):
    k = draw(st.integers(2, 6))
    config = ErtConfig(k=k, max_seed_len=k + draw(st.integers(1, 10)),
                       table_threshold=draw(st.integers(2, 8)),
                       table_x=draw(st.integers(1, 2)),
                       layout=draw(st.sampled_from(list(LayoutPolicy))),
                       prefix_merging=draw(st.booleans()))
    text = draw(draw(st.sampled_from(_KINDS))(k, config.max_seed_len))
    return Reference("adversarial", np.array(text, dtype=np.uint8)), config


@settings(max_examples=200, deadline=None)
@given(_adversarial_builds())
def test_suffix_sort_build_equals_the_recursive_oracle(case):
    reference, config = case
    _assert_same_build(build_ert(reference, config),
                       *oracle_build_ert(reference, config))


def _read_archive(path):
    directory, arrays = read_frame(path)
    return {**arrays, "directory": np.frombuffer(
        json.dumps(directory).encode(), dtype=np.uint8)}


@pytest.mark.parametrize("prefix_merging", [False, True],
                         ids=["plain", "merged"])
@pytest.mark.parametrize("layout", list(LayoutPolicy),
                         ids=lambda layout: layout.value)
@pytest.mark.parametrize("reference, config", [
    (GenomeSimulator(seed=2021).generate(10_000),
     ErtConfig(k=6, table_threshold=24, table_x=2)),
    (MultiReference([GenomeSimulator(seed=40 + i).generate(
        600 + 300 * i, name=f"chr{i + 1}") for i in range(3)]).concatenated,
     ErtConfig(k=4, max_seed_len=60, table_threshold=8, table_x=2)),
], ids=["10kbp-k6", "multi-contig-k4"])
def test_saved_index_equals_the_oracle_member_for_member(
        tmp_path, reference, config, layout, prefix_merging):
    config = dataclasses.replace(config, layout=layout,
                                 prefix_merging=prefix_merging)
    built = build_ert(reference, config)
    assert (built.entry_kind == EntryKind.TABLE).any()
    oracle, stats, trees = oracle_build_ert(reference, config)
    _assert_same_build(built, oracle, stats, trees)
    save_ert(built, tmp_path / "built.npz")
    save_ert(oracle, tmp_path / "oracle.npz")
    got = _read_archive(tmp_path / "built.npz")
    want = _read_archive(tmp_path / "oracle.npz")
    assert sorted(got) == sorted(want)
    for name, value in want.items():
        assert got[name].dtype == value.dtype, name
        assert got[name].shape == value.shape, name
        assert np.array_equal(got[name], value), name
