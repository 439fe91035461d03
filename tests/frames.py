"""Index files taken apart and put back together: a frame's directory
and arrays by name, and a rewrite with header fields or members
replaced.  A rewrite recomputes the crc32s, so what it changes reaches
the checks behind them (dtype, shape, version)."""

import json
from pathlib import Path

import numpy as np

from repro.core.io import Frame, _open_frame


def read_frame(path):
    """``(directory, arrays)`` of the index file at ``path``, every
    crc32 checked; the arrays are copies."""
    raw = Path(path).read_bytes()
    directory, arrays, _crc_ms = _open_frame(memoryview(raw), str(path))
    return directory, {name: arr.copy() for name, arr in arrays.items()}


def rewrite(path, meta=None, **members):
    """Write ``path`` again with header fields and members replaced (a
    member given as ``None`` is dropped)."""
    header, arrays = read_frame(path)
    header.update(meta or {})
    arrays.update(members)
    frame = Frame(header, {name: np.ascontiguousarray(arr)
                           for name, arr in arrays.items()
                           if arr is not None})
    with open(path, "wb") as out:
        frame.write(out)


def save_as_archive(path, source):
    """What ``save_ert`` wrote before the frame: the index file at
    ``source`` as a zip (``.npz``) archive of ``.npy`` members."""
    header, arrays = read_frame(source)
    meta = {key: value for key, value in header.items()
            if key not in ("nbytes", "arrays")}
    with open(path, "wb") as out:  # a path would gain a ".npz" suffix
        np.savez(out, meta_json=np.frombuffer(json.dumps(meta).encode(),
                                              dtype=np.uint8), **arrays)
