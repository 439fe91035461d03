"""Round-trip tests for the binary node format and the on-disk index."""

import numpy as np
import pytest

from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    build_ert,
    load_ert,
    save_ert,
)
from repro.core.io import IndexFormatError
from repro.core.layout import layout_tree, node_size
from repro.core.nodes import DivergeNode, LeafNode, UniformNode
from repro.core.serialize import (
    SerializeError,
    _decode_node,
    decode_tree,
    encode_tree,
    trees_equal,
)
from repro.seeding import SeedingParams, seed_read
from repro.sequence import GenomeSimulator, ReadSimulator


@pytest.fixture(scope="module")
def ref():
    return GenomeSimulator(seed=101).generate(3000)


@pytest.fixture(scope="module", params=[False, True],
                ids=["plain", "prefix-merged"])
def index(ref, request):
    return build_ert(ref, ErtConfig(k=5, max_seed_len=80,
                                    table_threshold=24, table_x=2,
                                    prefix_merging=request.param))


def _blob_size(index, root):
    """Laying a tree out again returns its blob size (and reassigns the
    offsets it already has: the layout is a pure function of shape)."""
    return layout_tree(root, index.config)


def test_every_tree_roundtrips(index):
    pm = index.config.prefix_merging
    for code, root in index.roots.items():
        blob = encode_tree(root, _blob_size(index, root), pm)
        back = decode_tree(blob, root.offset)
        assert trees_equal(root, back, check_prefix=pm), code


def test_decoded_sizes_match_size_model(index):
    pm = index.config.prefix_merging
    code = max(index.roots, key=lambda c: index.kmer_count[c])
    root = index.roots[code]
    blob = encode_tree(root, _blob_size(index, root), pm)
    stack = [decode_tree(blob, root.offset)]
    while stack:
        node = stack.pop()
        if pm or not isinstance(node, LeafNode):
            assert node.nbytes == node_size(node, pm)
        stack.extend(node.children_nodes())


def test_prefix_chars_survive_roundtrip(ref):
    index = build_ert(ref, ErtConfig(k=5, max_seed_len=80,
                                     prefix_merging=True))
    checked = 0
    for code, root in index.roots.items():
        blob = encode_tree(root, _blob_size(index, root), True)
        back = decode_tree(blob, root.offset)
        stack_a, stack_b = [root], [back]
        while stack_a:
            a, b = stack_a.pop(), stack_b.pop()
            if isinstance(a, LeafNode):
                assert a.prefix_chars == b.prefix_chars
                checked += 1
            stack_a.extend(a.children_nodes())
            stack_b.extend(b.children_nodes())
        if checked > 200:
            break
    assert checked > 0


def test_encode_requires_layout():
    leaf = LeafNode((3,), (-1,))
    with pytest.raises(SerializeError):
        encode_tree(leaf, 64, False)


def test_encode_rejects_blob_overflow(index):
    code = next(iter(index.roots))
    with pytest.raises(SerializeError):
        encode_tree(index.roots[code], 1, index.config.prefix_merging)


def test_decode_rejects_bad_offset():
    with pytest.raises(SerializeError):
        decode_tree(b"\x00" * 8, 100)


def test_decode_rejects_unknown_kind():
    with pytest.raises(SerializeError):
        _decode_node(bytes([3]) + b"\x00" * 8, 0)


def test_trees_equal_detects_differences():
    a = LeafNode((1, 2), (-1, 0))
    b = LeafNode((1, 3), (-1, 0))
    assert trees_equal(a, a)
    assert not trees_equal(a, b)
    u = UniformNode(np.array([1], dtype=np.uint8), a, 2)
    d = DivergeNode({0: a}, (5,), 3)
    assert not trees_equal(u, d)


def test_save_load_roundtrip(tmp_path, ref, index):
    path = tmp_path / "index.npz"
    save_ert(index, path)
    loaded = load_ert(path)
    assert loaded.config == index.config
    assert np.array_equal(loaded.entry_kind, index.entry_kind)
    assert np.array_equal(loaded.lep_bits, index.lep_bits)
    assert np.array_equal(loaded.kmer_count, index.kmer_count)
    assert loaded.tree_base == index.tree_base
    assert set(loaded.tables) == set(index.tables)
    for code, root in index.roots.items():
        assert trees_equal(root, loaded.roots[code])


def test_loaded_index_seeds_identically(tmp_path, ref, index):
    path = tmp_path / "index.npz"
    save_ert(index, path)
    loaded = load_ert(path)
    params = SeedingParams(min_seed_len=10)
    reads = ReadSimulator(ref, read_length=50, seed=102).simulate(10)
    original = ErtSeedingEngine(index)
    reloaded = ErtSeedingEngine(loaded)
    for read in reads:
        assert seed_read(original, read.codes, params).key() == \
            seed_read(reloaded, read.codes, params).key()


def test_load_rejects_future_format(tmp_path, index):
    import json
    path = tmp_path / "index.npz"
    save_ert(index, path)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode())
    meta["format_version"] = 999
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(),
                                        dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(IndexFormatError):
        load_ert(path)
