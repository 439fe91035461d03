"""The version-3 index payload: one stored forest (the arena), node
objects decoded from it, re-framing without compiling, the member table
as a contract, and typed errors on hostile input."""

import dataclasses
import gc
import json
import zipfile

import numpy as np
import pytest

from repro.analysis.datavol import measure_traffic
from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    LayoutPolicy,
    build_ert,
    load_ert,
    save_ert,
)
from repro.core import arena, io
from repro.core.arena import ARENA_COLUMNS, ArenaLimitError, flat_trees
from repro.core.builder import rolling_codes
from repro.core.index import EntryKind
from repro.core.io import (
    IndexFormatError,
    index_from_buffer,
    index_to_buffer,
)
from repro.core.serialize import trees_equal
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


@pytest.fixture(scope="module")
def archive_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("payload") / "index.npz"
    save_ert(build_ert(_multi_contig_reference(), ErtConfig(
        k=4, max_seed_len=80, table_threshold=6, table_x=2)), path)
    return path.read_bytes()


def _on_attached(index, check):
    """``check(index as a pool worker sees it)``: attached from a
    shared-memory segment, which is detached again once ``check`` has
    let go of its views."""
    with SharedIndexBuffer(index) as shared:
        attached = attach_index(shared.name, shared.size)
        shm = attached._shm
        try:
            return check(attached)
        finally:
            del attached
            gc.collect()
            shm.close()


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


def _assert_same_forest(got, want):
    """Every tree of ``got`` (decoded from its arena) is the tree the
    builder made, node for node, at the builder's offsets."""
    assert list(got.roots) == sorted(want.roots)
    assert got.tree_base == want.tree_base
    assert got.index_bytes() == want.index_bytes()
    for code, root in want.roots.items():
        lazy = got.roots[code]
        assert lazy is got.roots[code]  # made once
        assert trees_equal(lazy, root, check_prefix=True), code
        ours, theirs = [lazy], [root]
        while ours:
            a, b = ours.pop(), theirs.pop()
            assert (a.offset, a.nbytes) == (b.offset, b.nbytes)
            ours.extend(a.children_nodes())
            theirs.extend(b.children_nodes())
    assert set(got.tables) == set(want.tables)
    for code, entries in want.tables.items():
        assert [(e.matched, e.lep_bits, e.count)
                for e in got.tables[code]] \
            == [(e.matched, e.lep_bits, e.count) for e in entries]
    stats = got.layout_stats
    assert (stats.total_bytes, stats.n_nodes, stats.n_tiles) == (
        want.layout_stats.total_bytes, want.layout_stats.n_nodes,
        want.layout_stats.n_tiles)


@pytest.mark.parametrize("layout", list(LayoutPolicy),
                         ids=lambda layout: layout.value)
def test_decoded_forest_equals_the_built_one(built, tmp_path, layout):
    """The oracle's node objects come from the arena now, so pin the
    decode differentially: multi-contig reference, TABLE k-mers, prefix
    merging off and on, every layout policy; loaded and shm-attached."""
    index = build_ert(built.reference,
                      dataclasses.replace(built.config, layout=layout))
    save_ert(index, tmp_path / "index.npz")
    loaded = load_ert(tmp_path / "index.npz")
    _assert_same_forest(loaded, index)
    assert index_to_buffer(loaded) == index_to_buffer(index)
    _on_attached(index, lambda attached: _assert_same_forest(attached, index))


def test_lazy_roots_equal_eager_decode(built, saved, ert_index, tmp_path):
    """A root decoded on first access is the tree a direct decode of its
    arena node gives, laid out: on the payload fixture and on the
    suite's shared fixture index."""
    from repro.core.layout import layout_tree

    save_ert(ert_index, tmp_path / "fixture.npz")
    for want, path in ((built, saved), (ert_index, tmp_path / "fixture.npz")):
        loaded = load_ert(path)
        flat = flat_trees(loaded)
        assert list(loaded.roots) == np.flatnonzero(flat.roots >= 0).tolist()
        for code in loaded.roots:
            eager = arena.tree_at(flat, loaded.text, int(flat.roots[code]))
            layout_tree(eager, loaded.config)
            assert trees_equal(loaded.roots[code], eager)
        _assert_same_forest(loaded, want)


def test_modelled_traffic_is_equal_on_built_loaded_and_attached(built, saved):
    """Memsim addresses are the region base plus the laid-out offset, so
    a tracer sees the same requests whichever form the index is in."""
    reads = [read.codes for read in ReadSimulator(
        built.reference, read_length=60, seed=43).simulate(8)]
    params = SeedingParams(min_seed_len=10)

    def traffic(index):
        profile = measure_traffic(ErtSeedingEngine(index), reads, params)
        assert profile.requests_total > 0
        return (profile.requests_per_read, profile.bytes_per_read,
                profile.by_phase)

    want = traffic(built)
    assert traffic(load_ert(saved)) == want
    assert _on_attached(built, traffic) == want


def test_vector_run_decodes_nothing_scalar_only_what_it_touches(
        built, saved, monkeypatch):
    reference = built.reference
    reads = ReadSimulator(reference, read_length=60, seed=41).simulate(6)
    params = SeedingParams(min_seed_len=10)
    expected, _ = seed_reads(built, reads, params,
                             ParallelConfig(workers=1, kernels="scalar"))

    def no_compile(index):
        raise AssertionError("a loaded index compiled its arena again")

    def no_decode(flat, text, nid):
        raise AssertionError("the vector path asked for a node object")

    monkeypatch.setattr(arena, "_compile", no_compile)
    monkeypatch.setattr(io, "tree_at", no_decode)
    lines, _ = seed_reads(load_ert(saved), reads, params,
                          ParallelConfig(workers=1, kernels="vector"))
    assert lines == expected

    decoded = []

    def counting(flat, text, nid):
        decoded.append(nid)
        return arena.tree_at(flat, text, nid)

    monkeypatch.setattr(io, "tree_at", counting)
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
    assert len(decoded) == len(set(decoded)) < len(loaded.roots)


def test_publish_reframes_without_encoding(built, saved, monkeypatch):
    want = index_to_buffer(built)

    def refuse(*args):
        raise AssertionError("re-framing compiled or decoded a tree")

    monkeypatch.setattr(arena, "_compile", refuse)
    monkeypatch.setattr(io, "tree_at", refuse)
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


# ----------------------------------------------------------------------
# The payload as a contract
# ----------------------------------------------------------------------

#: Every version-3 member: dtype and rank.  ``prefix_counts_<length>``
#: stands for one member per length 1..k.
V3_MEMBERS = {
    "reference": ("uint8", 1),
    "entry_kind": ("uint8", 1),
    "lep_bits": ("int32", 1),
    "prefix_len": ("int8", 1),
    "kmer_count": ("int64", 1),
    "tree_bases": ("int64", 1),
    "prefix_counts_<length>": ("int64", 1),
    "arena_kind": ("uint8", 1),
    "arena_count": ("int32", 1),
    "arena_children": ("int32", 2),
    "arena_child": ("int32", 1),
    "arena_chars_off": ("int32", 1),
    "arena_chars_len": ("int32", 1),
    "arena_chars_pool": ("uint8", 1),
    "arena_leaf_text0": ("int32", 1),
    "arena_pos_off": ("int32", 1),
    "arena_pool": ("int32", 1),
    "arena_roots": ("int32", 1),
    "arena_table_slot": ("int32", 1),
    "arena_jt_matched": ("int32", 2),
    "arena_jt_lep": ("int32", 2),
    "arena_jt_node": ("int32", 2),
    "arena_jt_within": ("int32", 2),
    "arena_jt_depth": ("int32", 2),
    "arena_jt_count": ("int32", 2),
}


def test_both_formats_carry_exactly_the_member_table(built, saved):
    want = {}
    for name, spec in V3_MEMBERS.items():
        if name == "prefix_counts_<length>":
            for length in range(1, built.config.k + 1):
                want[f"prefix_counts_{length}"] = spec
        else:
            want[name] = spec
    with np.load(saved) as archive:
        in_archive = {name: (str(archive[name].dtype), archive[name].ndim)
                      for name in archive.files if name != "meta_json"}
        meta = json.loads(archive["meta_json"].tobytes())
    buffer = index_to_buffer(built)
    assert buffer[:8] == b"ERTBUF03"
    directory = json.loads(buffer[16:16 + int.from_bytes(buffer[8:16],
                                                         "little")])
    in_buffer = {spec["name"]: (str(np.dtype(spec["dtype"])),
                                len(spec["shape"]))
                 for spec in directory["arrays"]}
    assert in_archive == want and in_buffer == want
    assert list(in_archive) == list(in_buffer)  # one table, one order
    for header in (meta, directory):
        assert header["format_version"] == 3
        assert header["trees_bytes"] == built.index_bytes()["trees"]
    wide = {name for name, (dtype, _rank) in want.items()
            if np.dtype(dtype).itemsize > 4}
    assert wide == {"kmer_count", "tree_bases"} | {
        name for name in want if name.startswith("prefix_counts_")}


def test_compile_refuses_a_forest_past_the_column_width(monkeypatch):
    """Widths are constants; a forest that does not fit is a typed
    error, never a wider (or wrapped) column."""
    reference = GenomeSimulator(seed=5).generate(400)
    config = ErtConfig(k=4, max_seed_len=60)
    flat = flat_trees(build_ert(reference, config))
    largest = max(2 * len(reference), flat.kind.size, flat.pool.size,
                  flat.chars_pool.size)
    monkeypatch.setattr(arena, "ID_LIMIT", largest)
    with pytest.raises(ArenaLimitError, match="does not fit"):
        flat_trees(build_ert(reference, config))
    monkeypatch.setattr(arena, "ID_LIMIT", largest + 1)
    _assert_same_arena(flat_trees(build_ert(reference, config)), flat)


# ----------------------------------------------------------------------
# Hostile input
# ----------------------------------------------------------------------


def _rewrite(path, meta=None, **members):
    """Save ``path`` again with header fields and members replaced (a
    member given as ``None`` is dropped)."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays["meta_json"].tobytes())
    header.update(meta or {})
    arrays["meta_json"] = np.frombuffer(json.dumps(header).encode(),
                                        dtype=np.uint8)
    arrays.update(members)
    np.savez(path, **{name: arr for name, arr in arrays.items()
                      if arr is not None})


def test_version_1_is_refused_naming_the_rebuild(built, saved):
    """No reader for what earlier builds wrote: version 1 (tree blobs
    only) and version 2 (blobs next to an int64 arena) archives, and
    their buffers, all end in the rebuild message."""
    buffer = index_to_buffer(built)
    for version, magic in ((1, b"ERTBUF01"), (2, b"ERTBUF02")):
        _rewrite(saved, meta={"format_version": version})
        with pytest.raises(IndexFormatError, match="rebuild.*build-index"):
            load_ert(saved)
        with pytest.raises(IndexFormatError, match="rebuild.*build-index"):
            index_from_buffer(magic + buffer[8:])


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
    # A member damaged in place, or missing, is found by the load.
    with zipfile.ZipFile(saved) as archive:
        for member in ("arena_pool", "tree_bases"):
            at = archive.getinfo(member + ".npy").header_offset + 120
            path = tmp_path / (member + ".npz")
            path.write_bytes(raw[:at] + bytes(60) + raw[at + 60:])
            with pytest.raises(IndexFormatError, match=member):
                load_ert(path)
            gone = tmp_path / (member + "-gone.npz")
            gone.write_bytes(raw)
            _rewrite(gone, **{member: None})
            with pytest.raises(IndexFormatError, match=member):
                load_ert(gone)


@pytest.mark.parametrize("member, damage", [
    ("arena_kind", lambda a: a.astype(np.int64)),
    ("arena_pool", lambda a: a.astype(np.int64)),
    ("arena_count", lambda a: a[:-1]),
    ("arena_child", lambda a: a[:-1]),
    ("arena_chars_off", lambda a: a[:-1]),
    ("arena_chars_len", lambda a: a[:-1]),
    ("arena_leaf_text0", lambda a: a[:-1]),
    ("arena_pos_off", lambda a: a[:-1]),
    ("arena_children", lambda a: a[:-1]),
    ("arena_children", lambda a: a.reshape(-1, 2)),
    ("arena_roots", lambda a: a[:-1]),
    ("arena_table_slot", lambda a: a[:-1]),
    ("arena_jt_node", lambda a: a[:, :-1]),
    ("arena_jt_count", lambda a: a[:-1]),
    ("arena_pool", lambda a: a.reshape(1, -1)),
    ("tree_bases", lambda a: a[:-1]),
    ("tree_bases", lambda a: a.astype(np.int32)),
])
def test_mismatched_members_are_format_errors(archive_bytes, tmp_path,
                                              member, damage):
    """Columns index each other, so one of the wrong width or length is
    refused when the index is opened, not found by a wrong walk."""
    path = tmp_path / "index.npz"
    path.write_bytes(archive_bytes)
    with np.load(path) as archive:
        _rewrite(path, **{member: damage(archive[member])})
    with pytest.raises(IndexFormatError, match="corrupt"):
        load_ert(path)
    _rewrite(path, meta={"trees_bytes": "many"})
    with pytest.raises(IndexFormatError):
        load_ert(path)


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
    # A column the directory declares at another width.
    directory = json.loads(buffer[16:16 + directory_len])
    spec = next(spec for spec in directory["arrays"]
                if spec["name"] == "arena_chars_pool")
    spec["dtype"] = "|i1"
    retyped = json.dumps(directory).encode().ljust(directory_len)
    assert len(retyped) == directory_len
    with pytest.raises(IndexFormatError, match="arena_chars_pool"):
        index_from_buffer(buffer[:16] + retyped
                          + buffer[16 + directory_len:])
