"""The version-2 index payload: the stored arena, lazy node objects,
re-framing without re-encoding, and typed errors on hostile input."""

import gc
import json
import zipfile

import numpy as np
import pytest

from repro.core import ErtConfig, build_ert, load_ert, save_ert, trees_equal
from repro.core import serialize
from repro.core.arena import ARENA_COLUMNS, flat_trees
from repro.core.builder import rolling_codes
from repro.core.index import EntryKind
from repro.core.io import (
    IndexFormatError,
    index_from_buffer,
    index_to_buffer,
)
from repro.core.serialize import decode_tree, tree_blob_view
from repro.parallel import ParallelConfig, seed_reads
from repro.parallel.shm import SharedIndexBuffer, attach_index
from repro.seeding import SeedingParams
from repro.sequence import GenomeSimulator, ReadSimulator
from repro.sequence.alphabet import revcomp_codes
from repro.sequence.multi import MultiReference


def _multi_contig_reference():
    contigs = [GenomeSimulator(seed=30 + i).generate(700 + 200 * i,
                                                     name=f"chr{i + 1}")
               for i in range(3)]
    return MultiReference(contigs).concatenated


@pytest.fixture(scope="module", params=[
    (4, False), (4, True), (6, False), (6, True)],
    ids=lambda p: f"k{p[0]}-{'merged' if p[1] else 'plain'}")
def built(request):
    k, prefix_merging = request.param
    index = build_ert(_multi_contig_reference(), ErtConfig(
        k=k, max_seed_len=80, table_threshold=6, table_x=2,
        prefix_merging=prefix_merging))
    assert (index.entry_kind == EntryKind.TABLE).any()
    return index


@pytest.fixture()
def saved(built, tmp_path):
    path = tmp_path / "index.npz"
    save_ert(built, path)
    return path


def _assert_same_arena(got, want):
    assert (got.k, got.table_x) == (want.k, want.table_x)
    for name in ARENA_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_stored_arena_equals_the_compile(built, saved):
    compiled = flat_trees(built)
    _assert_same_arena(flat_trees(load_ert(saved)), compiled)
    _assert_same_arena(
        flat_trees(index_from_buffer(index_to_buffer(built))), compiled)


def test_lazy_roots_equal_eager_decode(built, saved):
    loaded = load_ert(saved)
    stored = loaded.stored
    assert list(loaded.roots) == stored.codes.tolist() == sorted(built.roots)
    for code, base, size in zip(stored.codes.tolist(),
                                stored.bases.tolist(),
                                stored.sizes.tolist()):
        eager = [decode_tree(tree_blob_view(stored.blobs, base, size))]
        lazy = [loaded.roots[code]]
        assert lazy[0] is loaded.roots[code]  # made once
        assert trees_equal(lazy[0], eager[0])
        assert trees_equal(lazy[0], built.roots[code],
                           check_prefix=built.config.prefix_merging)
        while lazy:
            a, b = lazy.pop(), eager.pop()
            assert (a.offset, a.nbytes) == (b.offset, b.nbytes)
            lazy.extend(a.children_nodes())
            eager.extend(b.children_nodes())
    assert set(loaded.tables) == set(built.tables)
    for code, entries in built.tables.items():
        assert [(e.matched, e.lep_bits, e.count)
                for e in loaded.tables[code]] \
            == [(e.matched, e.lep_bits, e.count) for e in entries]
    stats = loaded.layout_stats
    assert (stats.total_bytes, stats.n_nodes, stats.n_tiles) == (
        built.layout_stats.total_bytes, built.layout_stats.n_nodes,
        built.layout_stats.n_tiles)


def test_vector_run_decodes_nothing_scalar_only_what_it_touches(
        built, saved, monkeypatch):
    reference = built.reference
    reads = ReadSimulator(reference, read_length=60, seed=41).simulate(6)
    params = SeedingParams(min_seed_len=10)
    expected, _ = seed_reads(built, reads, params,
                             ParallelConfig(workers=1, kernels="scalar"))

    def refuse(blob, root_offset=0):
        raise AssertionError("the vector path asked for a node object")

    monkeypatch.setattr(serialize, "decode_tree", refuse)
    lines, _ = seed_reads(load_ert(saved), reads, params,
                          ParallelConfig(workers=1, kernels="vector"))
    assert lines == expected

    decoded = []

    def counting(blob, root_offset=0):
        decoded.append(1)
        return decode_tree(blob, root_offset)

    monkeypatch.setattr(serialize, "decode_tree", counting)
    loaded = load_ert(saved)
    lines, _ = seed_reads(loaded, reads, params,
                          ParallelConfig(workers=1, kernels="scalar"))
    assert lines == expected
    k = built.config.k
    touched = set()
    for read in reads:
        for codes in (read.codes, revcomp_codes(read.codes)):
            touched.update(rolling_codes(codes, k).tolist())
    assert 0 < len(decoded) <= len(touched & set(loaded.roots))
    assert len(decoded) < len(loaded.roots)
    assert loaded.flat is None  # nor did it read the arena members


def test_publish_reframes_without_encoding(built, saved, monkeypatch):
    want = index_to_buffer(built)

    def refuse(root, blob_size, prefix_merging):
        raise AssertionError("a loaded index re-encoded a tree")

    monkeypatch.setattr(serialize, "encode_tree", refuse)
    loaded = load_ert(saved)
    assert index_to_buffer(loaded) == want
    with SharedIndexBuffer(loaded) as shared:
        assert shared.size == len(want)
        attached = attach_index(shared.name, shared.size)
        shm = attached._shm
        try:
            flat = flat_trees(attached)
            _assert_same_arena(flat, flat_trees(built))
            segment = np.frombuffer(shm.buf, dtype=np.uint8)
            for name in ARENA_COLUMNS:
                column = getattr(flat, name)
                assert not column.flags.owndata, name
                assert not column.flags.writeable, name
                assert np.shares_memory(column, segment), name
        finally:
            del attached, flat, segment, column
            gc.collect()
            shm.close()


def _rewrite_meta(path, **changes):
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(arrays["meta_json"].tobytes())
    meta.update(changes)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(),
                                        dtype=np.uint8)
    np.savez(path, **arrays)


def test_version_1_is_refused_naming_the_rebuild(built, saved):
    _rewrite_meta(saved, format_version=1)
    with pytest.raises(IndexFormatError, match="rebuild.*build-index"):
        load_ert(saved)
    old = b"ERTBUF01" + index_to_buffer(built)[8:]
    with pytest.raises(IndexFormatError, match="rebuild.*build-index"):
        index_from_buffer(old)


def test_truncated_and_garbled_archives_are_format_errors(saved, tmp_path):
    raw = saved.read_bytes()
    for name, data in (("cut.npz", raw[:len(raw) // 2]),
                       ("stub.npz", raw[:40]),
                       ("empty.npz", b""),
                       ("text.npz", b"not an index\n")):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(IndexFormatError):
            load_ert(path)
    bare = tmp_path / "bare.npz"
    with open(bare, "wb") as handle:
        np.save(handle, np.arange(4))
    with pytest.raises(IndexFormatError):
        load_ert(bare)
    # A member damaged in place is found when it is read: the arena's,
    # when the arena is first asked for.
    with zipfile.ZipFile(saved) as archive:
        damaged = {}
        for member in ("tree_blobs", "arena_children"):
            at = archive.getinfo(member + ".npy").header_offset + 120
            path = damaged[member] = tmp_path / (member + ".npz")
            path.write_bytes(raw[:at] + bytes(60) + raw[at + 60:])
    with pytest.raises(IndexFormatError, match="tree_blobs"):
        load_ert(damaged["tree_blobs"])
    opened = load_ert(damaged["arena_children"])
    with pytest.raises(IndexFormatError, match="arena_children"):
        flat_trees(opened)
    missing = tmp_path / "missing.npz"
    with np.load(saved) as archive:
        np.savez(missing, **{name: archive[name] for name in archive.files
                             if name != "arena_pool"})
    with pytest.raises(IndexFormatError, match="arena_pool"):
        flat_trees(load_ert(missing))


def test_truncated_and_garbled_buffers_are_format_errors(built):
    buffer = index_to_buffer(built)
    directory_len = int.from_bytes(buffer[8:16], "little")
    for cut in (0, 7, 15, 16 + directory_len // 2, 16 + directory_len,
                len(buffer) // 2, len(buffer) - 1):
        with pytest.raises(IndexFormatError):
            index_from_buffer(buffer[:cut])
    garbled = bytearray(buffer)
    garbled[16:24] = b"\xff" * 8
    with pytest.raises(IndexFormatError):
        index_from_buffer(bytes(garbled))
    # An array the directory places past the payload's end.
    directory = json.loads(buffer[16:16 + directory_len])
    directory["arrays"][-1]["offset"] = directory["nbytes"] - 8
    moved = json.dumps(directory).encode().ljust(directory_len)
    assert len(moved) == directory_len
    with pytest.raises(IndexFormatError):
        index_from_buffer(buffer[:16] + moved + buffer[16 + directory_len:])
