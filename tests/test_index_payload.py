"""The version-4 index payload: one stored forest (the arena, its layout
offsets included), walked as it lies, re-framing without compiling, the
frame and its member table as a contract, and typed errors on hostile
input."""

import gc
import hashlib
import json
import mmap
import os
import zlib

import numpy as np
import pytest

from repro.analysis.datavol import measure_traffic
from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    KmerReuseDriver,
    LayoutPolicy,
    build_ert,
    load_ert,
    save_ert,
)
from repro.core import arena
from repro.core import layout as layout_module
from repro.core.arena import ARENA_COLUMNS, ArenaLimitError, flat_trees
from repro.core.index import EntryKind
from repro.core import io as index_io
from repro.core.io import (
    IndexFormatError,
    index_from_buffer,
    index_to_buffer,
)
from repro.memsim import MemoryTracer
from repro.parallel import (
    ParallelConfig,
    align_pairs,
    align_reads,
    seed_reads,
)
from repro.parallel.shm import SharedIndexBuffer, attach_index
from repro.seeding import SeedingParams, seed_read
from repro.sequence import GenomeSimulator, ReadSimulator
from repro.sequence.multi import MultiReference
from repro.sequence.simulate import PairedReadSimulator
from tests.frames import read_frame, rewrite, save_as_archive
from tests.nodes import decoded
from tests.serialize import decode_tree, encode_tree, trees_equal


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
    """Loaded and re-framed arenas are the one the builder emitted."""
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
    for code in want.roots:
        ours, theirs = [decoded(got, code)], [decoded(want, code)]
        assert trees_equal(ours[0], theirs[0], check_prefix=True), code
        while ours:
            a, b = ours.pop(), theirs.pop()
            assert (a.offset, a.nbytes) == (b.offset, b.nbytes)
            ours.extend(a.children_nodes())
            theirs.extend(b.children_nodes())
    for name in ("table_slot", "jt_matched", "jt_lep", "jt_count"):
        assert np.array_equal(getattr(got.flat, name),
                              getattr(want.flat, name)), name
    stats = got.layout_stats
    assert (stats.total_bytes, stats.n_nodes, stats.n_tiles) == (
        want.layout_stats.total_bytes, want.layout_stats.n_nodes,
        want.layout_stats.n_tiles)


@pytest.mark.parametrize("layout", list(LayoutPolicy),
                         ids=lambda layout: layout.value)
def test_decoded_forest_equals_the_built_one(built, tmp_path, layout):
    """A loaded or shm-attached index walks the stored arena, laid out
    again from its columns when a modelled walk asks, so pin both
    differentially: multi-contig reference, TABLE k-mers, prefix merging
    off and on, every layout policy."""
    index = build_ert(built.reference, built.config._replace(layout=layout))
    save_ert(index, tmp_path / "index.npz")
    loaded = load_ert(tmp_path / "index.npz")
    _assert_same_forest(loaded, index)
    assert index_to_buffer(loaded) == index_to_buffer(index)
    _on_attached(index, lambda attached: _assert_same_forest(attached, index))


@pytest.mark.parametrize("layout", list(LayoutPolicy),
                         ids=lambda layout: layout.value)
def test_stored_offsets_are_where_the_wire_format_puts_every_node(
        built, tmp_path, layout):
    """The ``offset`` column, built and loaded, is where the paper's wire
    format (``tests/serialize.py``) puts every node: each tree, encoded
    at the stored offsets into its blob, parses back from the blob's
    start to itself, node for node at the stored offsets and sizes."""
    index = build_ert(built.reference, built.config._replace(layout=layout))
    save_ert(index, tmp_path / "index.npz")
    merged = index.config.prefix_merging
    ends = list(index.tree_base.values())[1:] + [index.trees_region.size]
    for form in (index, load_ert(tmp_path / "index.npz")):
        layout_of = form.layout
        for (code, base), end in zip(form.tree_base.items(), ends):
            root = decoded(form, code)
            back = decode_tree(encode_tree(root, end - base, merged), 0)
            assert trees_equal(back, root, check_prefix=merged), code
            placed, stack = [], [back]
            while stack:  # preorder, children in character order
                node = stack.pop()
                placed.append((node.offset, node.nbytes))
                stack.extend(reversed(node.children_nodes()))
            nid = form.roots[code]
            rows = slice(nid, nid + len(placed))
            assert placed == list(zip(form.flat.offset[rows].tolist(),
                                      layout_of.nbytes[rows].tolist())), code


def test_lazy_roots_equal_eager_decode(built, saved, ert_index, tmp_path):
    """``roots`` maps every k-mer with a tree, and only those, to the
    root node id the stored column holds, without a Python object per
    k-mer until one is asked for; the loaded forest is the built one, on
    the payload fixture and on the suite's shared fixture index."""
    save_ert(ert_index, tmp_path / "fixture.npz")
    for want, path in ((built, saved), (ert_index, tmp_path / "fixture.npz")):
        loaded = load_ert(path)
        column = flat_trees(loaded).roots
        assert list(loaded.roots) == np.flatnonzero(column >= 0).tolist()
        assert len(loaded.roots) == np.count_nonzero(column >= 0)
        assert all(loaded.roots[code] == column[code]
                   for code in loaded.roots)
        assert not any(code in loaded.roots
                       for code in np.flatnonzero(column < 0)[:50].tolist())
        _assert_same_forest(loaded, want)


#: sha256 of the modelled request stream, one ``addr size phase`` line
#: per line fetch in fetch order, by ``(k, prefix_merging)``: per-read
#: seeding, then one :class:`KmerReuseDriver` batch with its reuse cache.
#: A change that moves, adds or drops a fetch on purpose updates these
#: with the traffic tables under ``benchmarks/results/``.
TRAFFIC_STREAMS = {
    (4, False): (
        "8ae03ba83bed11cfd1cba8d3dcf0eb6682e515ec331fdf3c7c04bc313b16e304",
        "ab3223f2f3d8c4661af9869c5e289bd799073a7c68fa961b38424ef914122955"),
    (4, True): (
        "1b27a244e6b68fd7908b0d03cb3be1420e7f38bfca4dc59a3097cefe5f2d9f97",
        "f466b99e1d2fc843c674c414b7690b5f2f23313bfc913d6b83a92be00cb42581"),
    (6, False): (
        "16d957afaa7a1bf8646c8bde694a85476c8997dd455d222107f4a25062e4060b",
        "18f398493303a185c6896b9721ef94d70658ee5a099fb89072ee4e83f2c849c2"),
    (6, True): (
        "e6caed59e4df8d0d0363a8c849ff4766d5b3dd2f24f2f5f3d3d5408561c14bca",
        "79413bf5d7c1b96c44f4f0cf202437188aae876f7fa2b20c7ccae1d7302dd84f"),
}


def _traffic_streams(index):
    """The stream digests of the pinned reads on ``index``: per-read
    seeding, then one reuse-cache batch."""
    reads = [read.codes for read in ReadSimulator(
        index.reference, read_length=60, seed=43).simulate(8)]
    params = SeedingParams(min_seed_len=10)

    def per_read(engine):
        for read in reads:
            seed_read(engine, read, params)

    def reuse(engine):
        KmerReuseDriver(engine, params,
                        cache_bytes=8 * 1024).seed_batch(reads)

    return _stream_digest(index, per_read), _stream_digest(index, reuse)


def _stream_digest(index, run):
    tracer = MemoryTracer(keep_trace=True)
    index.attach_tracer(tracer)
    try:
        run(ErtSeedingEngine(index))
    finally:
        index.attach_tracer(None)
    assert tracer.trace
    digest = hashlib.sha256()
    for access in tracer.trace:
        digest.update(f"{access.addr} {access.size} {access.phase}\n"
                      .encode())
    return digest.hexdigest()


def test_modelled_traffic_is_equal_on_built_loaded_and_attached(built, saved):
    """Memsim addresses are the region base plus the laid-out offset, so
    a tracer sees the same requests whichever form the index is in --
    and the same stream, fetch for fetch, as the pinned digests."""
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
    pinned = TRAFFIC_STREAMS[built.config.k, built.config.prefix_merging]
    assert _traffic_streams(built) == pinned
    assert _traffic_streams(load_ert(saved)) == pinned
    assert _on_attached(built, _traffic_streams) == pinned


#: sha256 of what ``seed`` (TSV lines), ``align`` and ``align-pe``
#: (SAM lines) return on the payload fixture's reads: one triple for
#: every fixture, kernel and index form.
RUN_OUTPUTS = (
    "96c6904149fb637e3727fead4153bf21e7fa5f9e75cf6e47e165af19cc119cf7",
    "6830650e62a0eba9e22ed39fe2c65932c7ec562835e67a8eed28d960b0386ea0",
    "af095705b40f00fe6da45c69751381204f7393e8bbe1c585ecb63ec69ea0b5ed",
)


def _digest(lines):
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_runs_on_a_loaded_index_never_lay_the_forest_out(
        built, saved, monkeypatch):
    """``seed``, ``align`` and ``align-pe`` on a loaded index, scalar
    and vector, return the pinned outputs, and a modelled walk the
    pinned request streams, while the layout model refuses to run: a
    loaded index reads the offsets the builder stored."""
    reference = built.reference
    reads = ReadSimulator(reference, read_length=60, seed=41).simulate(6)
    pairs = [read for pair in PairedReadSimulator(
        reference, read_length=60, insert_mean=200, insert_sd=20,
        seed=42).simulate(3) for read in (pair.first, pair.second)]
    params = SeedingParams(min_seed_len=10)

    def refuse(*args):
        raise AssertionError("an unmodelled run laid the forest out")

    monkeypatch.setattr(layout_module, "forest_layout", refuse)
    for kernels in ("scalar", "vector"):
        loaded = load_ert(saved)
        config = ParallelConfig(workers=1, kernels=kernels)
        seeds, _ = seed_reads(loaded, reads, params, config)
        sam, _ = align_reads(loaded, reads, params, config=config)
        paired, _ = align_pairs(loaded, pairs, params, config=config)
        assert (_digest(seeds),
                _digest(record.to_line() + "\n" for record in sam),
                _digest(record.to_line() + "\n" for record in paired)) \
            == RUN_OUTPUTS, kernels
    assert _traffic_streams(load_ert(saved)) == TRAFFIC_STREAMS[
        built.config.k, built.config.prefix_merging]


def test_publish_reframes_without_encoding(built, saved, monkeypatch):
    want = index_to_buffer(built)

    def refuse(*args):
        raise AssertionError("re-framing laid the forest out")

    monkeypatch.setattr(layout_module, "forest_layout", refuse)
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

#: Every version-4 member: dtype and rank.  ``prefix_counts_<length>``
#: stands for one member per length 1..k-1 (length k is ``kmer_count``).
V4_MEMBERS = {
    "reference": ("uint8", 1),
    "entry_kind": ("uint8", 1),
    "lep_bits": ("int32", 1),
    "prefix_len": ("int8", 1),
    "kmer_count": ("int32", 1),
    "tree_bases": ("int32", 1),
    "prefix_counts_<length>": ("int32", 1),
    "arena_kind": ("uint8", 1),
    "arena_count": ("int32", 1),
    "arena_kids": ("int32", 1),
    "arena_off": ("int32", 1),
    "arena_chars_len": ("uint8", 1),
    "arena_chars_pool": ("uint8", 1),
    "arena_pos_off": ("int32", 1),
    "arena_pool": ("int32", 1),
    "arena_offset": ("int32", 1),
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
    """The file and the buffer are one frame, byte for byte: the member
    table in stored order, every array aligned, and a crc32 per array."""
    want = {}
    for name, spec in V4_MEMBERS.items():
        if name == "prefix_counts_<length>":
            for length in range(1, built.config.k):
                want[f"prefix_counts_{length}"] = spec
        else:
            want[name] = spec
    buffer = index_to_buffer(built)
    assert saved.read_bytes() == buffer
    assert buffer[:8] == b"ERTBUF04"
    directory = json.loads(buffer[16:16 + int.from_bytes(buffer[8:16],
                                                         "little")])
    in_frame = {spec["name"]: (str(np.dtype(spec["dtype"])),
                               len(spec["shape"]))
                for spec in directory["arrays"]}
    assert in_frame == want
    assert list(in_frame) == list(index_io._payload(built))  # one order
    assert directory["format_version"] == 4
    assert directory["trees_bytes"] == built.index_bytes()["trees"]
    assert directory["nbytes"] == len(buffer)
    _directory, arrays = read_frame(saved)
    for spec in directory["arrays"]:
        assert spec["offset"] % 64 == 0
        assert spec["crc32"] == zlib.crc32(arrays[spec["name"]])
    assert all(np.dtype(dtype).itemsize <= 4
               for dtype, _rank in want.values())
    loaded = load_ert(saved)
    assert np.shares_memory(loaded.prefix_counts[-1], loaded.kmer_count)


def test_a_loaded_index_is_views_into_one_read_only_mapping(built, saved):
    """Every array of a loaded index lies in the mapped file, read-only,
    and the index records which file that is."""
    loaded = load_ert(saved)
    status = os.stat(saved)
    assert loaded.source.path == os.path.abspath(saved)
    assert loaded.source.identity == (status.st_dev, status.st_ino,
                                      status.st_size, status.st_mtime_ns)
    assert loaded.source.crc_ms >= 0
    assert built.source is None
    columns = [getattr(loaded.flat, name) for name in ARENA_COLUMNS]
    columns += [loaded.reference.codes, loaded.entry_kind,
                loaded.tree_bases, *loaded.prefix_counts]

    def mapped_by(column):
        base = column
        while isinstance(base, np.ndarray):
            base = base.base
        return base.obj if isinstance(base, memoryview) else base

    mapping = mapped_by(columns[0])
    assert isinstance(mapping, mmap.mmap) and len(mapping) == status.st_size
    for column in columns:
        assert not column.flags.owndata and not column.flags.writeable
        assert mapped_by(column) is mapping


def test_save_replaces_the_file_whole(built, saved, monkeypatch):
    """``save_ert`` writes a sibling temp file and renames it over the
    target: a mapped old file stays readable, and a failed write leaves
    the old file as it was and no temp file behind."""
    before = saved.read_bytes()
    mapped = load_ert(saved)
    save_ert(mapped, saved)
    assert saved.read_bytes() == before
    assert os.stat(saved).st_ino != mapped.source.identity[1]
    assert np.array_equal(flat_trees(mapped).pool, flat_trees(built).pool)

    def fail(self, out):
        out.write(self.head)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(index_io.Frame, "write", fail)
    with pytest.raises(OSError, match="No space"):
        save_ert(built, saved)
    assert saved.read_bytes() == before
    assert sorted(os.listdir(saved.parent)) == [saved.name]


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


def test_version_1_is_refused_naming_the_rebuild(built, saved, tmp_path):
    """No reader for what earlier builds wrote: version 1 (tree blobs
    only), version 2 (blobs next to an int64 arena) and version 3 (a
    four-slot child table, no stored offsets) frames, as files and as
    buffers, and the zip (``.npz``) archive every index file was before
    the frame, all end in the rebuild message."""
    buffer = index_to_buffer(built)
    for version, magic in ((1, b"ERTBUF01"), (2, b"ERTBUF02"),
                           (3, b"ERTBUF03")):
        old = tmp_path / f"v{version}.npz"
        old.write_bytes(saved.read_bytes())
        rewrite(old, meta={"format_version": version})
        with pytest.raises(IndexFormatError,
                           match=f"version {version}.*rebuild.*build-index"):
            load_ert(old)
        with pytest.raises(IndexFormatError, match="rebuild.*build-index"):
            index_from_buffer(magic + buffer[8:])
    archive = tmp_path / "archive.npz"
    save_as_archive(archive, saved)
    assert archive.read_bytes()[:4] == b"PK\x03\x04"
    with pytest.raises(IndexFormatError, match="zip.*rebuild.*build-index"):
        load_ert(archive)


def _member_offset(raw, member):
    directory = json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])
    return next(spec["offset"] for spec in directory["arrays"]
                if spec["name"] == member)


def test_truncated_and_garbled_archives_are_format_errors(saved, tmp_path):
    """Every way an index file can be cut short, garbled or be no index
    at all ends in :class:`IndexFormatError`; a member damaged in place
    fails its crc32 and is named, and so is a missing one."""
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
    for member in ("arena_pool", "tree_bases"):
        at = _member_offset(raw, member) + 120
        assert raw[at:at + 60] != bytes(60)
        path = tmp_path / (member + ".npz")
        path.write_bytes(raw[:at] + bytes(60) + raw[at + 60:])
        with pytest.raises(IndexFormatError, match=f"{member}.*crc32"):
            load_ert(path)
        gone = tmp_path / (member + "-gone.npz")
        gone.write_bytes(raw)
        rewrite(gone, **{member: None})
        with pytest.raises(IndexFormatError, match=member):
            load_ert(gone)


@pytest.mark.parametrize("member, damage", [
    ("arena_kind", lambda a: a.astype(np.int64)),
    ("arena_pool", lambda a: a.astype(np.int64)),
    ("arena_count", lambda a: a[:-1]),
    ("arena_offset", lambda a: a[:-1]),
    ("arena_off", lambda a: a[:-1]),
    ("arena_chars_len", lambda a: a[:-1]),
    ("arena_pos_off", lambda a: a[:-1]),
    ("arena_kids", lambda a: a[:-1]),
    ("arena_kids", lambda a: a.reshape(1, -1)),
    ("arena_roots", lambda a: a[:-1]),
    ("arena_table_slot", lambda a: a[:-1]),
    ("arena_jt_node", lambda a: a[:, :-1]),
    ("arena_jt_count", lambda a: a[:-1]),
    ("arena_pool", lambda a: a.reshape(1, -1)),
    ("tree_bases", lambda a: a[:-1]),
    ("tree_bases", lambda a: a.astype(np.int64)),
])
def test_mismatched_members_are_format_errors(archive_bytes, tmp_path,
                                              member, damage):
    """Columns index each other, so one of the wrong width or length is
    refused when the index is opened, not found by a wrong walk."""
    path = tmp_path / "index.npz"
    path.write_bytes(archive_bytes)
    rewrite(path, **{member: damage(read_frame(path)[1][member])})
    with pytest.raises(IndexFormatError, match="corrupt"):
        load_ert(path)
    path.write_bytes(archive_bytes)
    rewrite(path, meta={"trees_bytes": "many"})
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
