"""On-disk and in-memory ERT index formats: build once, reuse everywhere.

The paper stresses that ERT construction (~1 h for GRCh38) happens once
per reference and is amortized over many runs (§III-A3); that only works
with a persistent format.  Two formats share one assembly path:

* the **archive format** (:func:`save_ert` / :func:`load_ert`) -- a
  single ``.npz`` holding the reference (name + 2-bit codes), the
  structural config as JSON, the four entry-metadata arrays, the 1..k
  prefix-count tables, and every radix tree as its *serialized blob*
  (the wire format of :mod:`repro.core.serialize`) concatenated exactly
  as the trees region lays them out, plus the per-k-mer base offsets;

* the **flat buffer format** (:func:`index_to_buffer` /
  :func:`index_from_buffer`) -- the same payload framed as one
  contiguous byte buffer: magic, a JSON directory, then every array
  64-byte aligned.  Loading from a buffer builds numpy *views* into it
  (zero copy), which is how :mod:`repro.parallel` attaches one shared
  index to N worker processes through ``multiprocessing.shared_memory``
  without pickling the index per worker.

Loading decodes the blobs back into node objects and rebuilds the jump
tables (cheap relative to tree construction).
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Union

import numpy as np

from repro.core.builder import _build_jump_table
from repro.core.config import ErtConfig, LayoutPolicy
from repro.core.index import EntryKind, ErtIndex
from repro.core.layout import LayoutStats, layout_tree
from repro.core.nodes import Node
from repro.core.serialize import (
    BlobLike,
    decode_tree,
    encode_tree,
    tree_blob_view,
)
from repro.sequence.reference import Reference

FORMAT_VERSION = 1

#: Frame marker of the flat buffer format (8 bytes, versioned).
BUFFER_MAGIC = b"ERTBUF01"

#: Every array payload in the flat buffer starts on this alignment so
#: zero-copy views keep natural numpy alignment (and cache-line tiling).
BUFFER_ALIGN = 64


class IndexFormatError(ValueError):
    """Raised when an index file or buffer cannot be understood."""


#: Anything ``np.savez``/``np.load`` accept as a file location.
PathLike = Union[str, "os.PathLike[str]"]


# ----------------------------------------------------------------------
# Shared encode/assemble helpers
# ----------------------------------------------------------------------


def _encode_trees(
    index: ErtIndex,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, bytes]":
    """Serialize every tree into the concatenated blobs region.

    Returns ``(codes, bases, sizes, blobs)`` with the trees encoded at
    exactly the offsets the layout assigned.
    """
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
    return (np.array(codes, dtype=np.int64), bases, sizes, bytes(blobs))


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


def _config_from_meta(meta: "Mapping[str, object]") -> ErtConfig:
    if meta.get("format_version") != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format {meta.get('format_version')!r}")
    cfg = meta["config"]
    assert isinstance(cfg, dict)
    return ErtConfig(
        k=cfg["k"], max_seed_len=cfg["max_seed_len"],
        table_threshold=cfg["table_threshold"], table_x=cfg["table_x"],
        multilevel=cfg["multilevel"],
        layout=LayoutPolicy(cfg["layout"]),
        prefix_merging=cfg["prefix_merging"])


def _assemble_index(meta: "Mapping[str, object]",
                    arrays: "Mapping[str, np.ndarray]",
                    blobs: BlobLike) -> ErtIndex:
    """Build an :class:`ErtIndex` from its decoded payload.

    ``arrays`` values are used as-is -- the archive loader hands in
    copies, the buffer loader hands in zero-copy views -- and ``blobs``
    is only ever *read through* (per-tree windows via
    :func:`tree_blob_view`), never copied.
    """
    config = _config_from_meta(meta)
    reference_name = meta["reference_name"]
    assert isinstance(reference_name, str)
    reference = Reference(name=reference_name, codes=arrays["reference"])
    entry_kind = arrays["entry_kind"]
    prefix_counts = [arrays[f"prefix_counts_{length}"]
                     for length in range(1, config.k + 1)]

    roots: "dict[int, Node]" = {}
    tree_base: "dict[int, int]" = {}
    layout_stats = LayoutStats()
    trees_bytes = 0
    for code, base, size in zip(arrays["tree_codes"].tolist(),
                                arrays["tree_bases"].tolist(),
                                arrays["tree_sizes"].tolist()):
        root = decode_tree(tree_blob_view(blobs, base, size))
        # Re-lay-out to rebuild layout statistics; offsets are identical
        # because the layout is a pure function of the tree shape.
        layout_tree(root, config, layout_stats)
        roots[code] = root
        tree_base[code] = base
        trees_bytes = max(trees_bytes, base + size)

    tables = {code: None for code in arrays["tree_codes"].tolist()
              if entry_kind[code] == EntryKind.TABLE}
    index = ErtIndex(
        reference=reference, config=config, entry_kind=entry_kind,
        lep_bits=arrays["lep_bits"], prefix_len=arrays["prefix_len"],
        kmer_count=arrays["kmer_count"], roots=roots, tree_base=tree_base,
        tables=tables, prefix_counts=prefix_counts,
        trees_bytes=trees_bytes, layout_stats=layout_stats)
    for code in tables:
        index.tables[code] = _build_jump_table(index, code)
    return index


# ----------------------------------------------------------------------
# Archive format (.npz)
# ----------------------------------------------------------------------


def save_ert(index: ErtIndex, path: PathLike) -> None:
    """Write an ERT index to ``path`` (a ``.npz`` archive)."""
    codes, bases, sizes, blobs = _encode_trees(index)
    arrays = {
        "meta_json": np.frombuffer(json.dumps(_meta_dict(index)).encode(),
                                   dtype=np.uint8),
        "reference": index.reference.codes,
        "entry_kind": index.entry_kind,
        "lep_bits": index.lep_bits,
        "prefix_len": index.prefix_len,
        "kmer_count": index.kmer_count,
        "tree_codes": codes,
        "tree_bases": bases,
        "tree_sizes": sizes,
        "tree_blobs": np.frombuffer(blobs, dtype=np.uint8),
    }
    for length, counts in enumerate(index.prefix_counts, start=1):
        arrays[f"prefix_counts_{length}"] = counts
    np.savez_compressed(path, **arrays)


def _blob_sizes(index: ErtIndex) -> "dict[int, int]":
    """Every tree's blob size: the distance from its base to the next
    larger base (or the region end), from one sort of the bases."""
    starts = sorted(set(index.tree_base.values()))
    end_of = dict(zip(starts, starts[1:] + [index.trees_region.size]))
    return {code: end_of[base] - base
            for code, base in index.tree_base.items()}


def load_ert(path: PathLike) -> ErtIndex:
    """Load an ERT index written by :func:`save_ert`."""
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta_json"].tobytes()).decode())
        arrays = {name: archive[name].copy() for name in archive.files
                  if name not in ("meta_json", "tree_blobs")}
        blobs = archive["tree_blobs"].tobytes()
    return _assemble_index(meta, arrays, blobs)


# ----------------------------------------------------------------------
# Flat buffer format (shared-memory attach)
# ----------------------------------------------------------------------


def _align_up(offset: int, align: int = BUFFER_ALIGN) -> int:
    return (offset + align - 1) // align * align


def index_to_buffer(index: ErtIndex) -> bytes:
    """Serialize ``index`` into one contiguous flat buffer.

    Layout: ``BUFFER_MAGIC``, a little-endian ``uint64`` directory
    length, the UTF-8 JSON directory (meta plus per-array name, dtype,
    shape, offset), then each array payload aligned to
    :data:`BUFFER_ALIGN`.  The buffer is position-independent, so it can
    be dropped into a ``multiprocessing.shared_memory`` segment and
    re-opened with :func:`index_from_buffer` as pure views.
    """
    codes, bases, sizes, blobs = _encode_trees(index)
    arrays: "dict[str, np.ndarray]" = {
        "reference": np.ascontiguousarray(index.reference.codes),
        "entry_kind": np.ascontiguousarray(index.entry_kind),
        "lep_bits": np.ascontiguousarray(index.lep_bits),
        "prefix_len": np.ascontiguousarray(index.prefix_len),
        "kmer_count": np.ascontiguousarray(index.kmer_count),
        "tree_codes": codes,
        "tree_bases": bases,
        "tree_sizes": sizes,
        "tree_blobs": np.frombuffer(blobs, dtype=np.uint8),
    }
    for length, counts in enumerate(index.prefix_counts, start=1):
        arrays[f"prefix_counts_{length}"] = np.ascontiguousarray(counts)

    directory = _meta_dict(index)
    specs: "list[dict[str, object]]" = []
    # Directory size depends on the offsets, which depend on the
    # directory size; reserve the directory with placeholder offsets
    # first, then fill real offsets into the same-sized rendering.
    placeholder = [{"name": name, "dtype": arr.dtype.str,
                    "shape": list(arr.shape), "offset": 2 ** 60}
                   for name, arr in arrays.items()]
    directory["arrays"] = placeholder
    header_len = len(json.dumps(directory).encode())
    payload_base = _align_up(len(BUFFER_MAGIC) + 8 + header_len)

    cursor = payload_base
    for name, arr in arrays.items():
        cursor = _align_up(cursor)
        specs.append({"name": name, "dtype": arr.dtype.str,
                      "shape": list(arr.shape), "offset": cursor})
        cursor += arr.nbytes
    directory["arrays"] = specs
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

    Every array becomes a **read-only zero-copy view** into ``buffer``
    (``np.frombuffer``); only the tree node objects and jump tables are
    materialized per process.  The caller owns the buffer's lifetime --
    for a shared-memory segment, keep the segment open for as long as
    the returned index is in use (:func:`repro.parallel.attach_index`
    pins it for you).
    """
    view = memoryview(buffer)
    if view.format != "B":
        view = view.cast("B")
    if view.nbytes < len(BUFFER_MAGIC) + 8:
        raise IndexFormatError("buffer too short for an index frame")
    if bytes(view[:len(BUFFER_MAGIC)]) != BUFFER_MAGIC:
        raise IndexFormatError(
            f"bad magic {bytes(view[:len(BUFFER_MAGIC)])!r}; not an ERT "
            f"buffer")
    header_len = int.from_bytes(
        bytes(view[len(BUFFER_MAGIC):len(BUFFER_MAGIC) + 8]), "little")
    header_base = len(BUFFER_MAGIC) + 8
    meta = json.loads(bytes(view[header_base:header_base + header_len]))

    arrays: "dict[str, np.ndarray]" = {}
    specs = meta["arrays"]
    assert isinstance(specs, list)
    for spec in specs:
        shape = tuple(spec["shape"])
        count = 1
        for dim in shape:
            count *= dim
        arr = np.frombuffer(view, dtype=np.dtype(spec["dtype"]),
                            count=count, offset=spec["offset"])
        arr = arr.reshape(shape)
        # The buffer may be shared across processes: views stay read-only
        # so no worker can scribble on another worker's index.
        arr.flags.writeable = False
        arrays[spec["name"]] = arr
    blobs = arrays["tree_blobs"]
    return _assemble_index(meta, arrays, blobs)
