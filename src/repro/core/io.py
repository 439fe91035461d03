"""The ERT index format: build once, map everywhere.

The paper stresses that ERT construction (~1 h for GRCh38) happens once
per reference and is amortized over many runs (§III-A3), and its seeding
lanes all read one memory-resident index (§IV): an index is mapped, not
inflated per process.  One format holds one payload (:func:`_payload`):
the reference (2-bit codes), the four entry-metadata arrays, the 1..k
prefix-count tables, each tree's base offset in the modelled trees
region, and the forest itself, stored once: the columns of the flat
arena (:mod:`repro.core.arena`), at the widths the builder emits them
at.  The **frame** (:class:`Frame`) lays that payload out as one
contiguous run of bytes: magic, a JSON directory (meta, and per array
its name, dtype, shape, offset and crc32), then every array 64-byte
aligned.  It lives in two places:

* a **file** (:func:`save_ert` / :func:`load_ert`) -- streamed to a
  sibling temp file and renamed into place; loading maps it read-only
  (``mmap``), checks every array's crc32, and opens the arrays as
  zero-copy views, so every process that loads one file shares one copy
  of it in the page cache (a ``--workers N`` run maps its index file in
  each worker);
* a **buffer** (:func:`index_to_buffer` / :func:`index_from_buffer`) --
  the same bytes in memory, e.g. a ``multiprocessing.shared_memory``
  segment (:mod:`repro.parallel.shm`).

A built index is assembled by the same code as a loaded one
(:func:`index_over`), over the arena the builder emitted, and every
walk -- the batched kernels, the scalar cursor, ``census``,
``divergence``, ``explain`` -- reads those columns as they lie.  The
scalar cursor's jump table for a TABLE k-mer is rebuilt the first time
it reaches that k-mer (:class:`~repro.core.index.LazyByCode`), and a
loaded index lays the forest out
(:func:`~repro.core.layout.forest_layout`) only when a modelled walk
first asks where a node lies.  The paper wire format
(``tests/serialize.py``) is stored nowhere: it is the reference the
layout model's node sizes are tested against.  Every way a file or
buffer can be cut short or garbled ends in :class:`IndexFormatError`.
"""

from __future__ import annotations

import json
import mmap
import os
import weakref
import zlib
from typing import (
    TYPE_CHECKING,
    BinaryIO,
    Callable,
    Mapping,
    NamedTuple,
    Tuple,
    Union,
)

import numpy as np

from repro.core.arena import (
    ARENA_COLUMNS,
    ARENA_DTYPES,
    FlatTrees,
    flat_trees,
)
from repro.core.config import ErtConfig, LayoutPolicy
from repro.core.index import EntryKind, ErtIndex, JumpEntry, LazyByCode
from repro.core.walker import build_jump_table
from repro.sequence.reference import Reference
from repro.telemetry.spans import Tracer

if TYPE_CHECKING:
    from repro.core.layout import ForestLayout

FORMAT_VERSION = 3

#: Frame marker (8 bytes, versioned), followed by the little-endian
#: ``uint64`` length of the JSON directory.
FRAME_MAGIC = b"ERTBUF03"
_HEAD = len(FRAME_MAGIC) + 8

#: Every array payload in the frame starts on this alignment so
#: zero-copy views keep natural numpy alignment (and cache-line tiling).
FRAME_ALIGN = 64

#: Payload names of the arena's columns are the column names behind this.
ARENA_PREFIX = "arena_"

#: What an index file began with before the frame became the one format:
#: a zip (``.npz``) archive of deflated ``.npy`` members.
_ZIP_MAGIC = b"PK\x03\x04"

_REBUILD = "rebuild the index with build-index"


class IndexFormatError(ValueError):
    """Raised when an index file or buffer cannot be understood."""


#: Anything ``open`` accepts as a file location.
PathLike = Union[str, "os.PathLike[str]"]

#: ``(st_dev, st_ino, st_size, st_mtime_ns)``: which file a path named
#: when it was mapped.  A file replaced since (``os.replace``) differs.
Identity = Tuple[int, int, int, int]


class IndexFile(NamedTuple):
    """The file a loaded index is mapped from (:attr:`ErtIndex.source`)."""

    #: Absolute path, as it was opened.
    path: str
    identity: Identity
    #: Wall time :func:`load_ert` spent checking the arrays' crc32s.
    crc_ms: float


def file_identity(status: os.stat_result) -> Identity:
    """The :data:`Identity` of the file ``status`` describes."""
    return (status.st_dev, status.st_ino, status.st_size,
            status.st_mtime_ns)


# ----------------------------------------------------------------------
# Shared encode/assemble helpers
# ----------------------------------------------------------------------


def _payload(index: ErtIndex) -> "dict[str, np.ndarray]":
    """Every array of the frame, by member name, in stored order."""
    arrays = {
        "reference": index.reference.codes,
        "entry_kind": index.entry_kind,
        "lep_bits": index.lep_bits,
        "prefix_len": index.prefix_len,
        "kmer_count": index.kmer_count,
        "tree_bases": index.tree_bases,
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
    """The frame's JSON directory, version-checked."""
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

    ``member(name)`` fetches one array of the frame, a zero-copy view
    whose crc32 has been checked.  Every array's dtype and shape is
    checked here; :func:`index_over` assembles the index.
    """
    config = _config_from_meta(meta, what)
    reference_name = meta.get("reference_name")
    trees_bytes = meta.get("trees_bytes")
    if not isinstance(reference_name, str):
        raise IndexFormatError(f"{what}: header names no reference")
    if not isinstance(trees_bytes, int) or trees_bytes < 0:
        raise IndexFormatError(f"{what}: header sizes no trees region")
    flat = _stored_arena(config, what, member)
    bases = member("tree_bases")
    trees = int(np.count_nonzero(flat.roots >= 0))
    if bases.dtype != np.int64 or bases.shape != (trees,):
        raise IndexFormatError(
            f"{what}: {bases.dtype}{list(bases.shape)} tree bases for "
            f"{trees} trees; the index is corrupt")
    reference = Reference(name=reference_name, codes=member("reference"))
    return index_over(reference, config, flat, member, trees_bytes)


def index_over(
    reference: Reference, config: ErtConfig, flat: FlatTrees,
    member: "Callable[[str], np.ndarray]", trees_bytes: int,
    layout: "ForestLayout | None" = None,
) -> ErtIndex:
    """The index over an arena and the payload's other arrays, built,
    loaded or attached alike.  The arena is the index's as it is; the
    scalar walk's jump tables are made from it per k-mer, when asked
    for."""
    entry_kind = member("entry_kind")

    def jump_table(code: int) -> "list[JumpEntry]":
        owner = index_ref()
        assert owner is not None  # it is asking
        return build_jump_table(owner, code)

    index = ErtIndex(
        reference=reference, config=config, entry_kind=entry_kind,
        lep_bits=member("lep_bits"), prefix_len=member("prefix_len"),
        kmer_count=member("kmer_count"), tree_bases=member("tree_bases"),
        tables=LazyByCode(np.flatnonzero(entry_kind == EntryKind.TABLE),
                          jump_table),
        prefix_counts=[member(f"prefix_counts_{length}")
                       for length in range(1, config.k + 1)],
        trees_bytes=trees_bytes, flat=flat, layout=layout)
    # Weak, or index -> tables -> jump_table -> index is a cycle and the
    # cyclic collector finalizes an attached index's shared-memory
    # mapping while the views into it are still alive (BufferError).
    index_ref = weakref.ref(index)
    return index


# ----------------------------------------------------------------------
# The frame
# ----------------------------------------------------------------------


def _align_up(offset: int, align: int = FRAME_ALIGN) -> int:
    return (offset + align - 1) // align * align


def _bytes_of(arr: np.ndarray) -> np.ndarray:
    """A contiguous array's bytes, as a flat ``uint8`` view (no copy)."""
    return arr.reshape(-1).view(np.uint8)


class Frame:
    """A payload laid out as a frame, before it is written.

    The frame is :data:`FRAME_MAGIC`, a little-endian ``uint64``
    directory length, the UTF-8 JSON directory (meta, total ``nbytes``,
    and per array its name, dtype, shape, offset and crc32), then each
    array at its :data:`FRAME_ALIGN`-aligned offset, zero bytes between.
    It is position-independent.  One writer puts it in a file
    (:meth:`write`) or a buffer (:meth:`fill`), each array straight
    from where it lies: no second copy of the payload is made.
    """

    def __init__(self, meta: "Mapping[str, object]",
                 arrays: "Mapping[str, np.ndarray]") -> None:
        directory = dict(meta)
        # Directory size depends on the offsets, which depend on the
        # directory size; reserve the directory with the widest values
        # first, then fill the real ones into the same-sized rendering.
        specs: "list[dict[str, object]]" = [
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
             "offset": 2 ** 60, "crc32": 2 ** 32 - 1}
            for name, arr in arrays.items()]
        directory["nbytes"] = 2 ** 60
        directory["arrays"] = specs
        reserved = len(json.dumps(directory).encode())

        #: ``(offset, array)`` in stored order.
        self.arrays: "list[tuple[int, np.ndarray]]" = []
        cursor = _HEAD + reserved
        for spec, arr in zip(specs, arrays.values()):
            spec["offset"] = cursor = _align_up(cursor)
            spec["crc32"] = zlib.crc32(arr)
            self.arrays.append((cursor, arr))
            cursor += arr.nbytes
        directory["nbytes"] = self.nbytes = cursor
        header = json.dumps(directory).encode()
        # The placeholders are as wide as any real value, so the
        # directory can only have shrunk; pad it back.
        if len(header) > reserved:
            raise IndexFormatError(
                "frame directory grew past its reservation")
        #: Magic, directory length and directory.
        self.head = (FRAME_MAGIC + reserved.to_bytes(8, "little")
                     + header.ljust(reserved))

    @classmethod
    def of(cls, index: ErtIndex) -> "Frame":
        return cls(_meta_dict(index), _payload(index))

    def write(self, out: BinaryIO) -> None:
        """Stream the frame to ``out``."""
        out.write(self.head)
        cursor = len(self.head)
        for offset, arr in self.arrays:
            out.write(bytes(offset - cursor))
            out.write(_bytes_of(arr))
            cursor = offset + arr.nbytes

    def fill(self, buffer: "Union[bytearray, memoryview]") -> None:
        """Write the frame into the first :attr:`nbytes` of a writable
        ``buffer``."""
        out = np.frombuffer(buffer, dtype=np.uint8, count=self.nbytes)
        cursor = len(self.head)
        out[:cursor] = np.frombuffer(self.head, dtype=np.uint8)
        for offset, arr in self.arrays:
            out[cursor:offset] = 0
            out[offset:offset + arr.nbytes] = _bytes_of(arr)
            cursor = offset + arr.nbytes


def _open_frame(view: memoryview, what: str) \
        -> "tuple[dict[str, object], dict[str, np.ndarray], float]":
    """The directory and the arrays of the frame in ``view`` -- read-only
    zero-copy views, each checked against its crc32 -- and the ms the
    checks took."""
    if bytes(view[:len(_ZIP_MAGIC)]) == _ZIP_MAGIC:
        raise IndexFormatError(
            f"{what}: a zip (.npz) archive, the index format of earlier "
            f"builds; this build maps one frame: {_REBUILD}")
    if view.nbytes < _HEAD:
        raise IndexFormatError(
            f"{what}: {view.nbytes} bytes, too short for an index frame; "
            f"the file is truncated or no index")
    magic = bytes(view[:len(FRAME_MAGIC)])
    if magic != FRAME_MAGIC:
        raise IndexFormatError(
            f"{what}: frame magic {magic!r}, this build reads "
            f"{FRAME_MAGIC!r}; not an ERT index, or one of another "
            f"version: {_REBUILD}")
    header_len = int.from_bytes(bytes(view[len(FRAME_MAGIC):_HEAD]),
                                "little")
    if _HEAD + header_len > view.nbytes:
        raise IndexFormatError(
            f"{what}: {view.nbytes} bytes end inside the "
            f"{header_len}-byte directory: truncated")
    meta = _parse_meta(bytes(view[_HEAD:_HEAD + header_len]), what)
    nbytes, specs = meta.get("nbytes"), meta.get("arrays")
    if not isinstance(nbytes, int) or not isinstance(specs, list):
        raise IndexFormatError(f"{what}: directory lists no arrays")
    if view.nbytes < nbytes:
        raise IndexFormatError(
            f"{what}: holds {view.nbytes} of its {nbytes} bytes: truncated")

    arrays: "dict[str, np.ndarray]" = {}
    crcs: "dict[str, int]" = {}
    payload = view[:nbytes]
    for spec in specs:
        try:
            name = spec["name"]
            crcs[name] = int(spec["crc32"])
            dtype, shape = np.dtype(spec["dtype"]), tuple(spec["shape"])
            # frombuffer refuses an array that leaves the payload.
            arr = np.frombuffer(
                payload, dtype=dtype, offset=spec["offset"],
                count=int(np.prod(shape, dtype=np.int64))).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"{what}: directory entry {spec!r} is unusable "
                f"({exc})") from exc
        # A frame may be shared across processes: views stay read-only
        # so no worker can scribble on another worker's index.
        arr.flags.writeable = False
        arrays[name] = arr
    clock = Tracer()
    with clock.span("crc32"):
        for name, arr in arrays.items():
            if zlib.crc32(arr) != crcs[name]:
                raise IndexFormatError(
                    f"{what}: member {name!r} fails its crc32 check; the "
                    f"index is corrupt")
    return meta, arrays, clock.stats["crc32"].total_s * 1e3


def _open_index(view: memoryview, what: str) -> "tuple[ErtIndex, float]":
    meta, arrays, crc_ms = _open_frame(view, what)

    def member(name: str) -> np.ndarray:
        try:
            return arrays[name]
        except KeyError:
            raise IndexFormatError(
                f"{what}: holds no member {name!r}; the index is "
                f"truncated or corrupt") from None

    return _assemble_index(meta, what, member), crc_ms


# ----------------------------------------------------------------------
# The frame as a file
# ----------------------------------------------------------------------


def save_ert(index: ErtIndex, path: PathLike) -> None:
    """Write ``index`` to exactly ``path``, whatever the name's suffix.

    The frame is streamed to a temp file beside ``path`` and renamed
    over it: a failed write leaves no partial index, and a process that
    has the old file mapped keeps reading the old file.
    """
    frame = Frame.of(index)
    target = os.fspath(path)
    temp = os.path.join(os.path.dirname(target),
                        f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as out:
            frame.write(out)
        os.replace(temp, target)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def load_ert(path: PathLike, identity: "Identity | None" = None) \
        -> ErtIndex:
    """Map an index file written by :func:`save_ert` and open it.

    The file is mapped read-only (``mmap``), every array's crc32 is
    checked, and every array of the index is a zero-copy view into the
    mapping, which lives as long as they do; :attr:`ErtIndex.source`
    records which file it is.  With ``identity``, the file must still be
    the one that had it (a pool worker mapping its parent's file): one
    replaced or rewritten since is refused.
    """
    what = os.fspath(path)
    with open(path, "rb") as handle:
        status = os.fstat(handle.fileno())
        if identity is not None and file_identity(status) != tuple(identity):
            raise IndexFormatError(
                f"{what}: no longer the file the run mapped (replaced or "
                f"rewritten since)")
        if status.st_size == 0:
            raise IndexFormatError(f"{what}: empty file, no index")
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    index, crc_ms = _open_index(memoryview(mapping), what)
    index.source = IndexFile(os.path.abspath(what), file_identity(status),
                             crc_ms)
    return index


# ----------------------------------------------------------------------
# The frame as a buffer
# ----------------------------------------------------------------------


def index_to_buffer(index: ErtIndex) -> bytearray:
    """The frame of ``index`` in memory: the bytes :func:`save_ert`
    writes."""
    frame = Frame.of(index)
    out = bytearray(frame.nbytes)
    frame.fill(out)
    return out


def index_from_buffer(
        buffer: "Union[bytes, bytearray, memoryview]") -> ErtIndex:
    """Open a frame held in memory as an index.

    Every array -- the arena's columns included -- becomes a
    **read-only zero-copy view** into ``buffer``, checked against its
    crc32; nothing is materialized but the jump tables of the TABLE
    k-mers a scalar walk reaches.  The caller owns the buffer's
    lifetime -- for a shared-memory segment, keep the segment open for
    as long as the returned index is in use
    (:func:`repro.parallel.shm.attach_index` pins it for you).
    """
    view = memoryview(buffer)
    if view.format != "B":
        view = view.cast("B")
    return _open_index(view, "buffer")[0]
