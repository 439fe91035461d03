"""Round-trip tests for the binary node format and the on-disk index."""

import numpy as np
import pytest

from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    build_ert,
    decode_tree,
    encode_tree,
    load_ert,
    save_ert,
    trees_equal,
)
from repro.core.io import IndexFormatError, _blob_sizes
from repro.core.layout import node_size
from repro.core.nodes import DivergeNode, LeafNode, UniformNode
from repro.core.serialize import SerializeError, _decode_node
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


def test_every_tree_roundtrips(index):
    pm = index.config.prefix_merging
    sizes = _blob_sizes(index)
    for code, root in index.roots.items():
        blob = encode_tree(root, sizes[code], pm)
        back = decode_tree(blob, root.offset)
        assert trees_equal(root, back, check_prefix=pm), code


def test_decoded_sizes_match_size_model(index):
    pm = index.config.prefix_merging
    code = max(index.roots, key=lambda c: index.kmer_count[c])
    root = index.roots[code]
    blob = encode_tree(root, _blob_sizes(index)[code], pm)
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
    sizes = _blob_sizes(index)
    for code, root in index.roots.items():
        blob = encode_tree(root, sizes[code], True)
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
        assert trees_equal(root, loaded.roots[code],
                           check_prefix=index.config.prefix_merging)


def test_blob_sizes_keep_file_and_buffer_bytes(tmp_path, index,
                                               monkeypatch):
    """The one-sort ``_blob_sizes`` sizes every tree exactly as the
    per-tree scan over all bases that it replaced, so what
    ``save_ert`` writes and the shared-memory buffer are unchanged."""
    from repro.core import io

    def scanned(index):
        sizes = {}
        for code, base in index.tree_base.items():
            larger = [b for b in index.tree_base.values() if b > base]
            end = min(larger) if larger else index.trees_region.size
            sizes[code] = end - base
        return sizes

    assert _blob_sizes(index) == scanned(index)
    buffer = io.index_to_buffer(index)
    save_ert(index, tmp_path / "sorted.npz")
    monkeypatch.setattr(io, "_blob_sizes", scanned)
    assert io.index_to_buffer(index) == buffer
    save_ert(index, tmp_path / "scanned.npz")
    with np.load(tmp_path / "sorted.npz") as new, \
            np.load(tmp_path / "scanned.npz") as old:
        assert new.files == old.files
        for name in old.files:
            assert new[name].tobytes() == old[name].tobytes(), name


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
