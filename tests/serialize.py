"""Binary node encoding: the serialized form the size model describes.

:mod:`repro.core.layout` gives every arena node a byte offset and size;
this module actually produces those bytes and parses them back, so the
layout is not merely a size estimate -- every tree round-trips through
its blob (``tests/test_serialize.py``).  That is its whole role: it is
the reference the modelled node sizes (:func:`repro.core.layout.node_size`)
and memsim addresses are held to, and the home of :func:`trees_equal`.
No index format stores these blobs (:mod:`repro.core.io` stores the flat
arena).

Wire format (little-endian):

``DIVERGE``  (size ``5 + 4*children + 4*ended``)
    byte 0      kind=0 in bits 0-1, child-presence bitmap in bits 2-5
    byte 1      number of ended occurrences (uint8)
    bytes 2-4   occurrence count below this node (uint24, exact at the
                genome sizes this reproduction runs)
    then        4-byte blob offset per present child, in code order
    then        4-byte text position per ended occurrence

``UNIFORM``  (size ``9 + ceil(len/4)``)
    byte 0      kind=1
    byte 1      run length (uint8; max_seed_len < 256 guarantees fit)
    bytes 2-4   occurrence count (uint24)
    bytes 5-8   child blob offset (uint32)
    then        run characters, 2-bit packed, 4 per byte

``LEAF``     (size ``3 + 4*positions [+ prefix block]``)
    byte 0      kind=2, bit 2 = prefix block present
    bytes 1-2   number of occurrence positions (uint16)
    then        4-byte text position per occurrence (sorted)
    prefix block (only with prefix merging): 2-bit prefix characters,
                4 per byte, then a validity bitmap (1 bit per position;
                an occurrence at text position 0 has no prefix)

Decoding is buffer-backed: every parse helper reads through the buffer
protocol, so a tree can be decoded straight out of ``bytes``, a
``memoryview`` or a ``uint8`` numpy array.
"""

from __future__ import annotations

import struct
from typing import Sequence, Union

import numpy as np

from repro.core.layout import node_size
from tests.nodes import DivergeNode, LeafNode, Node, UniformNode

KIND_DIVERGE = 0
KIND_UNIFORM = 1
KIND_LEAF = 2

#: Anything the decode path accepts: the buffer protocol is all it needs.
BlobLike = Union[bytes, bytearray, memoryview, "np.ndarray"]

_U32 = struct.Struct("<I")


class SerializeError(ValueError):
    """Raised when a tree cannot be encoded or a blob cannot be parsed."""


def size_of(node: Node, prefix_merging: bool) -> int:
    """The size model's bytes for one node object (a type that is no
    node kind is a TypeError)."""
    if isinstance(node, DivergeNode):
        args = (KIND_DIVERGE, node.count, len(node.children),
                len(node.ended), 0)
    elif isinstance(node, UniformNode):
        args = (KIND_UNIFORM, node.count, 1, 0, int(node.chars.size))
    elif isinstance(node, LeafNode):
        args = (KIND_LEAF, node.count, 0, 0, 0)
    else:
        raise TypeError(f"unknown node type {type(node)!r}")
    return int(node_size(*args, prefix_merging))


def _pack_u24(buf: bytearray, offset: int, value: int) -> None:
    if not 0 <= value < 1 << 24:
        raise SerializeError(f"count {value} exceeds uint24")
    buf[offset:offset + 3] = value.to_bytes(3, "little")


def _unpack_u24(blob: BlobLike, offset: int) -> int:
    return int.from_bytes(bytes(blob[offset:offset + 3]), "little")


def _pack_2bit(values: "Sequence[int]") -> bytes:
    out = bytearray((len(values) + 3) // 4)
    for i, v in enumerate(values):
        out[i // 4] |= (int(v) & 3) << (2 * (i % 4))
    return bytes(out)


def _unpack_2bit(blob: BlobLike, offset: int, count: int) -> "list[int]":
    return [(int(blob[offset + i // 4]) >> (2 * (i % 4))) & 3
            for i in range(count)]


def _pack_bits(flags: "Sequence[bool]") -> bytes:
    out = bytearray((len(flags) + 7) // 8)
    for i, flag in enumerate(flags):
        if flag:
            out[i // 8] |= 1 << (i % 8)
    return bytes(out)


def _unpack_bits(blob: BlobLike, offset: int, count: int) -> "list[bool]":
    return [bool(int(blob[offset + i // 8]) >> (i % 8) & 1)
            for i in range(count)]


def encode_tree(root: Node, blob_size: int, prefix_merging: bool) -> bytes:
    """Encode a laid-out tree (offsets already assigned) into its blob."""
    blob = bytearray(blob_size)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.offset < 0:
            raise SerializeError("node has no layout offset; lay out first")
        encoded = _encode_node(node, prefix_merging)
        expected = size_of(node, prefix_merging)
        if len(encoded) != expected:
            raise SerializeError(
                f"{node.kind} node encoded to {len(encoded)} bytes, size "
                f"model says {expected}")
        end = node.offset + len(encoded)
        if end > blob_size:
            raise SerializeError("node extends past the blob")
        blob[node.offset:end] = encoded
        stack.extend(node.children_nodes())
    return bytes(blob)


def _encode_node(node: Node, prefix_merging: bool) -> bytes:
    if isinstance(node, DivergeNode):
        bitmap = 0
        for code in node.children:
            bitmap |= 1 << code
        if len(node.ended) > 255:
            raise SerializeError("more than 255 ended occurrences")
        out = bytearray(5)
        out[0] = KIND_DIVERGE | (bitmap << 2)
        out[1] = len(node.ended)
        _pack_u24(out, 2, node.count)
        for code in sorted(node.children):
            out += _U32.pack(node.children[code].offset)
        for pos in node.ended:
            out += _U32.pack(pos)
        return bytes(out)
    if isinstance(node, UniformNode):
        if node.chars.size > 255:
            raise SerializeError("uniform run longer than 255 characters")
        out = bytearray(9)
        out[0] = KIND_UNIFORM
        out[1] = int(node.chars.size)
        _pack_u24(out, 2, node.count)
        out[5:9] = _U32.pack(node.child.offset)
        out += _pack_2bit(node.chars.tolist())
        return bytes(out)
    if isinstance(node, LeafNode):
        npos = len(node.positions)
        if npos >= 1 << 16:
            raise SerializeError("leaf with more than 65535 occurrences")
        out = bytearray(3)
        out[0] = KIND_LEAF | ((1 << 2) if prefix_merging else 0)
        out[1:3] = struct.pack("<H", npos)
        for pos in node.positions:
            out += _U32.pack(pos)
        if prefix_merging:
            chars = [max(0, c) for c in node.prefix_chars]
            valid = [c >= 0 for c in node.prefix_chars]
            out += _pack_2bit(chars)
            out += _pack_bits(valid)
        return bytes(out)
    raise SerializeError(f"unknown node type {type(node)!r}")


def decode_tree(blob: BlobLike, root_offset: int = 0) -> Node:
    """Parse a tree blob back into node objects (offsets preserved).
    ``blob`` may be any buffer-protocol object."""
    return _decode_node(blob, root_offset)


def _decode_node(blob: BlobLike, offset: int) -> Node:
    if offset < 0 or offset >= len(blob):
        raise SerializeError(f"node offset {offset} outside blob")
    header = int(blob[offset])
    kind = header & 3
    if kind == KIND_DIVERGE:
        bitmap = (header >> 2) & 0xF
        n_ended = int(blob[offset + 1])
        count = _unpack_u24(blob, offset + 2)
        cursor = offset + 5
        children = {}
        for code in range(4):
            if bitmap >> code & 1:
                child_off, = _U32.unpack_from(blob, cursor)
                cursor += 4
                children[code] = _decode_node(blob, child_off)
        ended = []
        for _ in range(n_ended):
            pos, = _U32.unpack_from(blob, cursor)
            cursor += 4
            ended.append(pos)
        node = DivergeNode(children, tuple(ended), count)
        node.offset = offset
        node.nbytes = cursor - offset
        return node
    if kind == KIND_UNIFORM:
        length = int(blob[offset + 1])
        if length == 0:
            raise SerializeError("uniform node with empty run")
        count = _unpack_u24(blob, offset + 2)
        child_off, = _U32.unpack_from(blob, offset + 5)
        chars = np.array(_unpack_2bit(blob, offset + 9, length),
                         dtype=np.uint8)
        node = UniformNode(chars, _decode_node(blob, child_off), count)
        node.offset = offset
        node.nbytes = 9 + (length + 3) // 4
        return node
    if kind == KIND_LEAF:
        has_prefix = bool(header >> 2 & 1)
        npos, = struct.unpack_from("<H", blob, offset + 1)
        if npos == 0:
            raise SerializeError("leaf with no occurrences")
        cursor = offset + 3
        positions = []
        for _ in range(npos):
            pos, = _U32.unpack_from(blob, cursor)
            cursor += 4
            positions.append(pos)
        if has_prefix:
            chars = _unpack_2bit(blob, cursor, npos)
            cursor += (npos + 3) // 4
            valid = _unpack_bits(blob, cursor, npos)
            cursor += (npos + 7) // 8
            prefix = tuple(c if v else -1 for c, v in zip(chars, valid))
        else:
            prefix = tuple(-1 for _ in range(npos))
        node = LeafNode(tuple(positions), prefix)
        node.offset = offset
        node.nbytes = cursor - offset
        return node
    raise SerializeError(f"unknown node kind {kind}")


def trees_equal(a: Node, b: Node, check_prefix: bool = True) -> bool:
    """Structural equality of two trees (used by round-trip tests)."""
    if a.kind != b.kind or a.count != b.count:
        return False
    if isinstance(a, LeafNode):
        if a.positions != b.positions:
            return False
        return not check_prefix or a.prefix_chars == b.prefix_chars
    if isinstance(a, UniformNode):
        return (np.array_equal(a.chars, b.chars)
                and trees_equal(a.child, b.child, check_prefix))
    if isinstance(a, DivergeNode):
        if a.ended != b.ended or set(a.children) != set(b.children):
            return False
        return all(trees_equal(a.children[c], b.children[c], check_prefix)
                   for c in a.children)
    return False
