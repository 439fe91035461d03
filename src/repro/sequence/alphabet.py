"""The 2-bit DNA alphabet and conversions between strings and code arrays.

All index structures in this repository operate on numpy ``uint8`` arrays of
*codes* in ``{0, 1, 2, 3}`` standing for ``A, C, G, T`` (the same 2-bit
encoding BWA-MEM uses).  Code 4 is reserved for the sentinel used by the
suffix-array machinery and never appears in a read or reference.
"""

from __future__ import annotations

import numpy as np

#: The DNA alphabet in code order: ``BASES[code]`` is the base character.
BASES = "ACGT"

#: Number of real (non-sentinel) symbols.
SIGMA = 4

#: Sentinel code, lexicographically *smallest* in the suffix-array ordering
#: used by :mod:`repro.fmindex` (it is remapped there); reads and references
#: never contain it.
SENTINEL = 4

_CHAR_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _CHAR_TO_CODE[ord(_b)] = _i
    _CHAR_TO_CODE[ord(_b.lower())] = _i

#: ``_CHAR_TO_CODE`` as a ``bytes.translate`` table: one C pass per
#: string, about a third of a numpy lookup's cost on a 100 bp read.
_TRANSLATE = _CHAR_TO_CODE.tobytes()

#: ``COMPLEMENT[code]`` is the code of the Watson-Crick complement
#: (A<->T, C<->G), i.e. ``3 - code``.
COMPLEMENT = np.array([3, 2, 1, 0], dtype=np.uint8)


class AlphabetError(ValueError):
    """Raised when a sequence contains characters outside ``ACGT``."""


def encode(seq: str) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` code array.

    Ambiguous bases (``N`` etc.) are rejected; the paper's methodology
    processes ambiguous-base reads on the host CPU and converts ambiguous
    reference bases to standard nucleotides before indexing (§V), so by the
    time sequences reach the index layer they are pure ``ACGT``.

    >>> encode("ACGT").tolist()
    [0, 1, 2, 3]
    """
    raw = seq.encode("ascii").translate(_TRANSLATE)
    if b"\xff" in raw:
        bad = seq[raw.index(b"\xff")]
        raise AlphabetError(f"non-ACGT character {bad!r} in sequence")
    return np.frombuffer(bytearray(raw), dtype=np.uint8)


def decode(codes: np.ndarray) -> str:
    """Decode a code array back into a DNA string.

    >>> decode(np.array([0, 1, 2, 3], dtype=np.uint8))
    'ACGT'
    """
    arr = np.asarray(codes)
    if arr.size and (arr.min() < 0 or arr.max() > 3):
        raise AlphabetError("code array contains values outside 0..3")
    lut = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)
    return lut[arr].tobytes().decode("ascii")


def revcomp_codes(codes: np.ndarray) -> np.ndarray:
    """Reverse-complement a code array.

    >>> revcomp_codes(encode("AACG")).tolist() == encode("CGTT").tolist()
    True
    """
    return COMPLEMENT[np.asarray(codes, dtype=np.uint8)][::-1].copy()


def kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """The int64 code of every ``k``-window of ``codes``, big-endian 2-bit
    (``codes[p + c]`` in bits ``2 (k - 1 - c)`` of code ``p``): ``k - 1``
    shifted ORs over the whole array, empty when ``k`` exceeds its length.

    >>> kmer_codes(encode("ACGT"), 2).tolist()
    [1, 6, 11]
    """
    span = codes.size - k + 1
    if span <= 0:
        return np.empty(0, dtype=np.int64)
    out = codes[:span].astype(np.int64)
    for c in range(1, k):
        out <<= 2
        out |= codes[c:c + span]
    return out


def revcomp(seq: str) -> str:
    """Reverse-complement a DNA string."""
    return decode(revcomp_codes(encode(seq)))
