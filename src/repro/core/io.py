"""On-disk and in-memory ERT index formats: build once, reuse everywhere.

The paper stresses that ERT construction (~1 h for GRCh38) happens once
per reference and is amortized over many runs (§III-A3); that only works
with a persistent format.  Two formats hold one payload
(:func:`_payload`): the reference (2-bit codes), the four entry-metadata
arrays, the 1..k prefix-count tables, each tree's base offset in the
modelled trees region, and the forest itself, stored once: the columns
of the flat arena (:mod:`repro.core.arena`), at the widths the arena
compiles them to:

* the **archive format** (:func:`save_ert` / :func:`load_ert`) -- a
  single ``.npz`` of the payload plus the structural config as JSON;

* the **flat buffer format** (:func:`index_to_buffer` /
  :func:`index_from_buffer`) -- the same payload framed as one
  contiguous byte buffer: magic, a JSON directory, then every array
  64-byte aligned.  Loading from a buffer builds numpy *views* into it
  (zero copy), which is how :mod:`repro.parallel` attaches one shared
  index to N worker processes through ``multiprocessing.shared_memory``
  without pickling the index per worker.

Loading makes no node object.  The batched kernels walk the stored
arena; the scalar cursor (and ``census``, ``divergence``, ``explain``)
gets a k-mer's tree decoded from the same columns
(:func:`~repro.core.arena.tree_at`) and laid out again -- the
layout is a pure function of tree shape, so every node gets the offset
the builder gave it -- and its jump table rebuilt, the first time it
asks for that k-mer (:class:`~repro.core.index.LazyByCode`).  The paper
wire format of :mod:`repro.core.serialize` is stored nowhere: it is the
reference the layout model's node sizes are tested against.  Every way
a file or buffer can be cut short or garbled ends in
:class:`IndexFormatError`.
"""

from __future__ import annotations

import json
import os
import weakref
import zipfile
import zlib
from typing import Callable, Mapping, Union

import numpy as np

from repro.core.arena import (
    ARENA_COLUMNS,
    ARENA_DTYPES,
    FlatTrees,
    flat_trees,
    tree_at,
)
from repro.core.config import ErtConfig, LayoutPolicy
from repro.core.index import EntryKind, ErtIndex, JumpEntry, LazyByCode
from repro.core.nodes import Node
from repro.core.walker import build_jump_table
from repro.sequence.reference import Reference

FORMAT_VERSION = 3

#: Frame marker of the flat buffer format (8 bytes, versioned).
BUFFER_MAGIC = b"ERTBUF03"

#: Every array payload in the flat buffer starts on this alignment so
#: zero-copy views keep natural numpy alignment (and cache-line tiling).
BUFFER_ALIGN = 64

#: Payload names of the arena's columns are the column names behind this.
ARENA_PREFIX = "arena_"

#: Deflate level of the archive members.  The arena is 1.7 MB of small
#: integers at k=6 / 10 kbp: level 1 writes the archive in 21 ms at
#: 0.35 MB, numpy's default level 6 in 71 ms at 0.30 MB -- and
#: ``build-index`` pays that on every run.
ARCHIVE_COMPRESSLEVEL = 1

_REBUILD = "rebuild the index with build-index"


class IndexFormatError(ValueError):
    """Raised when an index file or buffer cannot be understood."""


#: Anything ``open`` / ``np.load`` accept as a file location.
PathLike = Union[str, "os.PathLike[str]"]


# ----------------------------------------------------------------------
# Shared encode/assemble helpers
# ----------------------------------------------------------------------


def _payload(index: ErtIndex) -> "dict[str, np.ndarray]":
    """Every array of both formats, by member name, in stored order."""
    arrays = {
        "reference": index.reference.codes,
        "entry_kind": index.entry_kind,
        "lep_bits": index.lep_bits,
        "prefix_len": index.prefix_len,
        "kmer_count": index.kmer_count,
        # One per tree, in k-mer order (the arena's non-negative roots).
        "tree_bases": np.array(
            [index.tree_base[code] for code in sorted(index.tree_base)],
            dtype=np.int64),
    }
    for length, counts in enumerate(index.prefix_counts, start=1):
        arrays[f"prefix_counts_{length}"] = counts
    flat = flat_trees(index)
    for name in ARENA_COLUMNS:
        arrays[ARENA_PREFIX + name] = getattr(flat, name)
    return {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}


def _meta_dict(index: ErtIndex) -> "dict[str, object]":
    return {
        "format_version": FORMAT_VERSION,
        "reference_name": index.reference.name,
        "trees_bytes": index.trees_region.size,
        "config": {
            "k": index.config.k,
            "max_seed_len": index.config.max_seed_len,
            "table_threshold": index.config.table_threshold,
            "table_x": index.config.table_x,
            "multilevel": index.config.multilevel,
            "layout": index.config.layout.value,
            "prefix_merging": index.config.prefix_merging,
        },
    }


def _parse_meta(raw: bytes, what: str) -> "dict[str, object]":
    """The JSON header of either format, version-checked."""
    try:
        meta = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IndexFormatError(
            f"{what}: header is not JSON ({exc}); the index is truncated "
            f"or corrupt") from exc
    if not isinstance(meta, dict):
        raise IndexFormatError(f"{what}: header is not a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"{what}: index format version {version!r}, this build reads "
            f"version {FORMAT_VERSION}; {_REBUILD}")
    return meta


def _config_from_meta(meta: "Mapping[str, object]", what: str) -> ErtConfig:
    try:
        cfg = meta["config"]
        assert isinstance(cfg, dict)
        return ErtConfig(
            k=cfg["k"], max_seed_len=cfg["max_seed_len"],
            table_threshold=cfg["table_threshold"], table_x=cfg["table_x"],
            multilevel=cfg["multilevel"],
            layout=LayoutPolicy(cfg["layout"]),
            prefix_merging=cfg["prefix_merging"])
    except (AssertionError, KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(
            f"{what}: header carries no usable config ({exc!r})") from exc


def _stored_arena(
    config: ErtConfig, what: str, member: "Callable[[str], np.ndarray]",
) -> FlatTrees:
    """The arena columns of a payload, each checked for the dtype it is
    compiled to and for a shape that agrees with the others: a walk
    indexes one column with what it read from another."""
    columns = {name: member(ARENA_PREFIX + name) for name in ARENA_COLUMNS}
    nodes = columns["kind"].shape[:1]
    jumps = columns["jt_node"].shape[:1] + (4 ** config.table_x,)
    shapes = {"children": nodes + (4,),
              "roots": (config.n_entries,),
              "table_slot": (config.n_entries,),
              "chars_pool": (columns["chars_pool"].size,),
              "pool": (columns["pool"].size,)}
    for name, column in columns.items():
        shape = shapes.get(name, jumps if name.startswith("jt_") else nodes)
        if column.dtype != ARENA_DTYPES[name] or column.shape != shape:
            raise IndexFormatError(
                f"{what}: member {ARENA_PREFIX + name!r} is {column.dtype}"
                f"{list(column.shape)}, expected {ARENA_DTYPES[name]}"
                f"{list(shape)}; the index is corrupt")
    return FlatTrees(k=config.k, table_x=config.table_x, **columns)


def _assemble_index(
    meta: "Mapping[str, object]", what: str,
    member: "Callable[[str], np.ndarray]",
) -> ErtIndex:
    """Build an :class:`ErtIndex` over a stored payload.

    ``member(name)`` fetches one array of the payload: the archive
    loader reads it from the file, the buffer loader hands out a
    zero-copy view.  The arena columns become the index's arena as they
    are; node objects are decoded from them per k-mer, when asked for.
    """
    config = _config_from_meta(meta, what)
    reference_name = meta.get("reference_name")
    trees_bytes = meta.get("trees_bytes")
    if not isinstance(reference_name, str):
        raise IndexFormatError(f"{what}: header names no reference")
    if not isinstance(trees_bytes, int) or trees_bytes < 0:
        raise IndexFormatError(f"{what}: header sizes no trees region")
    flat = _stored_arena(config, what, member)
    codes = np.flatnonzero(flat.roots >= 0)
    bases = member("tree_bases")
    if bases.dtype != np.int64 or bases.shape != codes.shape:
        raise IndexFormatError(
            f"{what}: {bases.dtype}{list(bases.shape)} tree bases for "
            f"{codes.size} trees; the index is corrupt")
    entry_kind = member("entry_kind")
    reference = Reference(name=reference_name, codes=member("reference"))
    text = reference.both_strands

    def decode(code: int) -> Node:
        # The layout model loads with the first tree a scalar cursor
        # asks for; the batched kernels walk the arena and never do.
        from repro.core.layout import layout_tree

        root = tree_at(flat, text, int(flat.roots[code]))
        layout_tree(root, config)
        return root

    def jump_table(code: int) -> "list[JumpEntry]":
        owner = index_ref()
        assert owner is not None  # it is asking
        return build_jump_table(owner, code)

    index = ErtIndex(
        reference=reference, config=config, entry_kind=entry_kind,
        lep_bits=member("lep_bits"), prefix_len=member("prefix_len"),
        kmer_count=member("kmer_count"),
        roots=LazyByCode(codes.tolist(), decode),
        tree_base=dict(zip(codes.tolist(), bases.tolist())),
        tables=LazyByCode(
            codes[entry_kind[codes] == EntryKind.TABLE].tolist(),
            jump_table),
        prefix_counts=[member(f"prefix_counts_{length}")
                       for length in range(1, config.k + 1)],
        trees_bytes=trees_bytes)
    index.flat = flat
    # Weak, or index -> tables -> jump_table -> index is a cycle and the
    # cyclic collector finalizes an attached index's shared-memory
    # mapping while the views into it are still alive (BufferError).
    index_ref = weakref.ref(index)
    return index


# ----------------------------------------------------------------------
# Archive format (.npz)
# ----------------------------------------------------------------------


def save_ert(index: ErtIndex, path: PathLike) -> None:
    """Write an ERT index to exactly ``path`` (an ``.npz`` archive,
    whatever the name's suffix)."""
    arrays = {"meta_json": np.frombuffer(
        json.dumps(_meta_dict(index)).encode(), dtype=np.uint8)}
    arrays.update(_payload(index))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                         compresslevel=ARCHIVE_COMPRESSLEVEL) as archive:
        for name, arr in arrays.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as out:
                np.lib.format.write_array(out, arr, allow_pickle=False)


#: What reading a damaged archive member can raise: zip framing and CRC
#: (``BadZipFile``), the deflate stream (``zlib.error``), a member cut
#: short (``EOFError``), a missing member (``KeyError``) and the ``.npy``
#: header inside it (``ValueError``).
_ARCHIVE_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, KeyError,
                   ValueError)


def load_ert(path: PathLike) -> ErtIndex:
    """Load an ERT index written by :func:`save_ert`.  Every member is
    read here, once; the file is closed when this returns."""
    what = os.fspath(path)
    with open(path, "rb") as handle:
        try:
            archive = np.lib.npyio.NpzFile(handle, allow_pickle=False)
        except _ARCHIVE_ERRORS as exc:
            raise IndexFormatError(
                f"{what}: not a zip archive ({exc}); the file is truncated, "
                f"corrupt or no index") from exc

        def member(name: str) -> np.ndarray:
            try:
                return archive[name]
            except _ARCHIVE_ERRORS as exc:
                raise IndexFormatError(
                    f"{what}: member {name!r} is missing or unreadable "
                    f"({exc!r}); the file is truncated or corrupt") from exc

        with archive:
            meta = _parse_meta(member("meta_json").tobytes(), what)
            return _assemble_index(meta, what, member)


# ----------------------------------------------------------------------
# Flat buffer format (shared-memory attach)
# ----------------------------------------------------------------------


def _align_up(offset: int, align: int = BUFFER_ALIGN) -> int:
    return (offset + align - 1) // align * align


def index_to_buffer(index: ErtIndex) -> bytes:
    """Serialize ``index`` into one contiguous flat buffer.

    Layout: ``BUFFER_MAGIC``, a little-endian ``uint64`` directory
    length, the UTF-8 JSON directory (meta, total ``nbytes``, plus
    per-array name, dtype, shape, offset), then each array payload
    aligned to :data:`BUFFER_ALIGN`.  The buffer is
    position-independent, so it can be dropped into a
    ``multiprocessing.shared_memory`` segment and re-opened with
    :func:`index_from_buffer` as pure views.
    """
    arrays = _payload(index)
    directory = _meta_dict(index)
    # Directory size depends on the offsets, which depend on the
    # directory size; reserve the directory with placeholder offsets
    # first, then fill real offsets into the same-sized rendering.
    specs: "list[dict[str, object]]" = [
        {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
         "offset": 2 ** 60} for name, arr in arrays.items()]
    directory["nbytes"] = 2 ** 60
    directory["arrays"] = specs
    header_len = len(json.dumps(directory).encode())

    cursor = len(BUFFER_MAGIC) + 8 + header_len
    for spec, arr in zip(specs, arrays.values()):
        spec["offset"] = cursor = _align_up(cursor)
        cursor += arr.nbytes
    directory["nbytes"] = cursor
    header = json.dumps(directory).encode()
    # Offsets render at fixed width (the placeholder is wider than any
    # real offset), so the directory can only have shrunk; pad it back.
    if len(header) > header_len:
        raise IndexFormatError("buffer directory grew past its reservation")
    header = header + b" " * (header_len - len(header))

    out = bytearray(cursor)
    out[:len(BUFFER_MAGIC)] = BUFFER_MAGIC
    out[len(BUFFER_MAGIC):len(BUFFER_MAGIC) + 8] = len(header).to_bytes(
        8, "little")
    out[len(BUFFER_MAGIC) + 8:len(BUFFER_MAGIC) + 8 + len(header)] = header
    for spec, arr in zip(specs, arrays.values()):
        offset = spec["offset"]
        assert isinstance(offset, int)
        out[offset:offset + arr.nbytes] = arr.tobytes()
    return bytes(out)


def index_from_buffer(
        buffer: "Union[bytes, bytearray, memoryview]") -> ErtIndex:
    """Open a buffer written by :func:`index_to_buffer` as an index.

    Every array -- the arena's columns included -- becomes a
    **read-only zero-copy view** into ``buffer`` (``np.frombuffer``);
    nothing is materialized per process but the node objects and jump
    tables of the k-mers a scalar walk asks for.  The caller owns the
    buffer's lifetime -- for a shared-memory segment, keep the segment
    open for as long as the returned index is in use
    (:func:`repro.parallel.attach_index` pins it for you).
    """
    view = memoryview(buffer)
    if view.format != "B":
        view = view.cast("B")
    header_base = len(BUFFER_MAGIC) + 8
    if view.nbytes < header_base:
        raise IndexFormatError("buffer too short for an index frame")
    magic = bytes(view[:len(BUFFER_MAGIC)])
    if magic != BUFFER_MAGIC:
        raise IndexFormatError(
            f"buffer magic {magic!r}, this build reads {BUFFER_MAGIC!r}; "
            f"not an ERT buffer, or one of another version: {_REBUILD}")
    header_len = int.from_bytes(bytes(view[len(BUFFER_MAGIC):header_base]),
                                "little")
    if header_base + header_len > view.nbytes:
        raise IndexFormatError(
            f"buffer of {view.nbytes} bytes ends inside its "
            f"{header_len}-byte directory: truncated")
    meta = _parse_meta(bytes(view[header_base:header_base + header_len]),
                       "buffer")
    nbytes, specs = meta.get("nbytes"), meta.get("arrays")
    if not isinstance(nbytes, int) or not isinstance(specs, list):
        raise IndexFormatError("buffer directory lists no arrays")
    if view.nbytes < nbytes:
        raise IndexFormatError(
            f"buffer holds {view.nbytes} of its {nbytes} bytes: truncated")

    arrays: "dict[str, np.ndarray]" = {}
    payload = view[:nbytes]
    for spec in specs:
        try:
            name = spec["name"]
            dtype, shape = np.dtype(spec["dtype"]), tuple(spec["shape"])
            # frombuffer refuses an array that leaves the payload.
            arr = np.frombuffer(
                payload, dtype=dtype, offset=spec["offset"],
                count=int(np.prod(shape, dtype=np.int64))).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"buffer directory entry {spec!r} is unusable "
                f"({exc})") from exc
        # The buffer may be shared across processes: views stay read-only
        # so no worker can scribble on another worker's index.
        arr.flags.writeable = False
        arrays[name] = arr

    def member(name: str) -> np.ndarray:
        try:
            return arrays[name]
        except KeyError:
            raise IndexFormatError(
                f"buffer holds no array {name!r}") from None

    return _assemble_index(meta, "buffer", member)
