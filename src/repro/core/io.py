"""On-disk and in-memory ERT index formats: build once, reuse everywhere.

The paper stresses that ERT construction (~1 h for GRCh38) happens once
per reference and is amortized over many runs (§III-A3); that only works
with a persistent format.  Two formats hold one payload
(:func:`_payload`): the reference (2-bit codes), the four entry-metadata
arrays, the 1..k prefix-count tables, every radix tree as its
*serialized blob* (the wire format of :mod:`repro.core.serialize`)
concatenated exactly as the trees region lays them out with the
per-k-mer base offsets, and the columns of the flat arena
(:mod:`repro.core.arena`) compiled from those trees:

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
gets a k-mer's tree decoded from its blob, and its jump table rebuilt,
the first time it asks for that k-mer
(:class:`~repro.core.index.LazyByCode`).  The archive loader does not
even read the arena members until :func:`~repro.core.arena.flat_trees`
is first called, so a scalar run never holds them.  Every way a file or
buffer can be cut short or garbled ends in :class:`IndexFormatError`.
"""

from __future__ import annotations

import json
import os
import weakref
import zipfile
import zlib
from typing import TYPE_CHECKING, Callable, Mapping, Union

import numpy as np

from repro.core.arena import ARENA_COLUMNS, flat_trees
from repro.core.config import ErtConfig, LayoutPolicy
from repro.core.index import (
    EntryKind,
    ErtIndex,
    JumpEntry,
    LazyByCode,
    StoredTrees,
)
from repro.core.nodes import Node
from repro.core.walker import build_jump_table
from repro.sequence.reference import Reference

if TYPE_CHECKING:
    from repro.core.serialize import BlobLike

FORMAT_VERSION = 2

#: Frame marker of the flat buffer format (8 bytes, versioned).
BUFFER_MAGIC = b"ERTBUF02"

#: Every array payload in the flat buffer starts on this alignment so
#: zero-copy views keep natural numpy alignment (and cache-line tiling).
BUFFER_ALIGN = 64

#: Payload names of the arena's columns are the column names behind this.
ARENA_PREFIX = "arena_"

#: Deflate level of the archive members.  The arena is 4 MB of small
#: integers at k=6 / 10 kbp: level 1 writes it in 18 ms at 0.42 MB,
#: numpy's default level 6 in 75 ms at 0.33 MB -- and ``build-index``
#: pays that on every run.
ARCHIVE_COMPRESSLEVEL = 1

_REBUILD = "rebuild the index with build-index"


class IndexFormatError(ValueError):
    """Raised when an index file or buffer cannot be understood."""


#: Anything ``open`` / ``np.load`` accept as a file location.
PathLike = Union[str, "os.PathLike[str]"]


# ----------------------------------------------------------------------
# Shared encode/assemble helpers
# ----------------------------------------------------------------------


def _encode_trees(
    index: ErtIndex,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Serialize every tree into the concatenated blobs region.

    Returns ``(codes, bases, sizes, blobs)`` with the trees encoded at
    exactly the offsets the layout assigned.
    """
    from repro.core.serialize import encode_tree

    codes = sorted(index.roots)
    blobs = bytearray(index.trees_region.size)
    bases = np.empty(len(codes), dtype=np.int64)
    sizes = np.empty(len(codes), dtype=np.int64)
    blob_sizes = _blob_sizes(index)
    for i, code in enumerate(codes):
        root = index.roots[code]
        base = index.tree_base[code]
        blob_size = blob_sizes[code]
        encoded = encode_tree(root, blob_size,
                              index.config.prefix_merging)
        blobs[base:base + blob_size] = encoded
        bases[i] = base
        sizes[i] = blob_size
    return (np.array(codes, dtype=np.int64), bases, sizes,
            np.frombuffer(bytes(blobs), dtype=np.uint8))


def _blob_sizes(index: ErtIndex) -> "dict[int, int]":
    """Every tree's blob size: the distance from its base to the next
    larger base (or the region end), from one sort of the bases."""
    starts = sorted(set(index.tree_base.values()))
    end_of = dict(zip(starts, starts[1:] + [index.trees_region.size]))
    return {code: end_of[base] - base
            for code, base in index.tree_base.items()}


def _payload(index: ErtIndex) -> "dict[str, np.ndarray]":
    """Every array of both formats, by member name, in stored order.

    A loaded index hands back the serialized trees it was opened from;
    a built one encodes them here.  The arena comes from
    :func:`flat_trees` either way (stored columns, or the compile).
    """
    stored = index.stored
    codes, bases, sizes, blobs = (
        (stored.codes, stored.bases, stored.sizes, stored.blobs)
        if stored is not None else _encode_trees(index))
    arrays = {
        "reference": index.reference.codes,
        "entry_kind": index.entry_kind,
        "lep_bits": index.lep_bits,
        "prefix_len": index.prefix_len,
        "kmer_count": index.kmer_count,
        "tree_codes": codes,
        "tree_bases": bases,
        "tree_sizes": sizes,
        "tree_blobs": blobs,
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


def _arena_columns(
    member: "Callable[[str], np.ndarray]",
) -> "dict[str, np.ndarray]":
    return {name: member(ARENA_PREFIX + name) for name in ARENA_COLUMNS}


def _assemble_index(
    meta: "Mapping[str, object]", what: str,
    member: "Callable[[str], np.ndarray]",
    arena: "Callable[[], Mapping[str, np.ndarray]]",
) -> ErtIndex:
    """Build an :class:`ErtIndex` over a stored payload.

    ``member(name)`` fetches one array of the payload -- the archive
    loader reads it from the file, the buffer loader hands out a
    zero-copy view -- for everything but the arena columns; ``arena()``
    fetches those, when :func:`flat_trees` first runs.  The tree blobs
    are only ever *read through* (per-tree windows via
    :func:`tree_blob_view`), never copied.
    """
    config = _config_from_meta(meta, what)
    reference_name = meta.get("reference_name")
    if not isinstance(reference_name, str):
        raise IndexFormatError(f"{what}: header names no reference")
    entry_kind = member("entry_kind")
    stored = StoredTrees(
        codes=member("tree_codes"), bases=member("tree_bases"),
        sizes=member("tree_sizes"), blobs=member("tree_blobs"),
        arena=arena)
    codes, bases = stored.codes.tolist(), stored.bases.tolist()
    window = dict(zip(codes, zip(bases, stored.sizes.tolist())))

    def decode(code: int) -> Node:
        # The wire format loads with the first tree a scalar cursor asks
        # for; the batched kernels walk the arena and never do.
        from repro.core.serialize import decode_tree, tree_blob_view

        base, size = window[code]
        return decode_tree(tree_blob_view(stored.blobs, base, size))

    def jump_table(code: int) -> "list[JumpEntry]":
        owner = index_ref()
        assert owner is not None  # it is asking
        return build_jump_table(owner, code)

    is_table = entry_kind[stored.codes] == EntryKind.TABLE
    index = ErtIndex(
        reference=Reference(name=reference_name, codes=member("reference")),
        config=config, entry_kind=entry_kind,
        lep_bits=member("lep_bits"), prefix_len=member("prefix_len"),
        kmer_count=member("kmer_count"),
        roots=LazyByCode(codes, decode),
        tree_base=dict(zip(codes, bases)),
        tables=LazyByCode(stored.codes[is_table].tolist(), jump_table),
        prefix_counts=[member(f"prefix_counts_{length}")
                       for length in range(1, config.k + 1)],
        trees_bytes=int((stored.bases + stored.sizes).max(initial=0)),
        stored=stored)
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
    """Load an ERT index written by :func:`save_ert`.

    The arena members are not read here: the archive stays open behind
    the returned index until :func:`flat_trees` has read them (or the
    index is dropped), so a scalar run never holds them.
    """
    what = os.fspath(path)
    handle = open(path, "rb")
    try:
        # Not np.load: it leaves the file open when the zip is unreadable.
        archive = np.lib.npyio.NpzFile(handle, own_fid=True,
                                       allow_pickle=False)
    except _ARCHIVE_ERRORS as exc:
        handle.close()
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

    def arena() -> "dict[str, np.ndarray]":
        with archive:
            return _arena_columns(member)

    try:
        meta = _parse_meta(member("meta_json").tobytes(), what)
        return _assemble_index(meta, what, member, arena)
    except BaseException:
        archive.close()
        raise


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


def index_from_buffer(buffer: BlobLike) -> ErtIndex:
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

    return _assemble_index(meta, "buffer", member,
                           lambda: _arena_columns(member))
