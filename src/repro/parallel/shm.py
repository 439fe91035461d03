"""Zero-copy index sharing via ``multiprocessing.shared_memory``.

No run path uses this module: a ``--workers N`` pool maps the index
*file* in each worker (:func:`repro.core.io.load_ert`), which shares one
copy through the page cache with no segment to publish or unlink.  It is
kept for ``benchmarks/pipeline/layers.py``, whose traced replay times a
publish and an attach, and goes when that replay is re-pointed.

The owner (:class:`SharedIndexBuffer`) writes an index's frame
(:class:`repro.core.io.Frame`) straight into a POSIX shared-memory
segment; :func:`attach_index` opens the segment by name with
:func:`repro.core.io.index_from_buffer`, every array a read-only view
straight into it.

Lifecycle contract (enforced mechanically by checker rule ERT008): only
this package constructs ``SharedMemory`` objects.  The owner creates,
closes and unlinks the segment; an attach merely closes its mapping.
Because a segment outliving its owner is a system-wide leak (it survives
the interpreter), every owner path is hardened: construction failures
unlink eagerly, context-manager exit unlinks even when close fails, and
an ``atexit`` guard sweeps any segment still registered when the
interpreter shuts down.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory

from repro.core.index import ErtIndex
from repro.core.io import Frame, index_from_buffer
from repro.logging import get_logger

_log = get_logger("parallel.shm")

#: Segments created by this process that are not yet unlinked, by name.
#: The atexit sweep below is a *guard*, not the cleanup path: normal
#: runs unlink through ``SharedIndexBuffer.__exit__`` and leave this
#: empty.
_LIVE_SEGMENTS: "dict[str, SharedIndexBuffer]" = {}


def _sweep_live_segments() -> None:
    """Last-chance unlink of any segment whose owner never ran: without
    it, a run killed between creation and cleanup leaves the payload in
    ``/dev/shm`` until reboot."""
    for owner in list(_LIVE_SEGMENTS.values()):
        _log.warn("shm.sweep", segment=owner.name, size=owner.size)
        try:
            owner.close()
            owner.unlink()
        except OSError:
            pass  # already gone (e.g. swept by the resource tracker)


atexit.register(_sweep_live_segments)


class SharedIndexBuffer:
    """Parent-side owner of one index's shared-memory segment.

    Usable as a context manager; exiting closes *and unlinks* the
    segment, so keep it open for as long as any worker may attach.
    """

    def __init__(self, index: ErtIndex) -> None:
        frame = Frame.of(index)
        self._shm: "shared_memory.SharedMemory | None" = \
            shared_memory.SharedMemory(create=True, size=frame.nbytes)
        try:
            frame.fill(self._shm.buf)
        except Exception:
            # The segment exists but holds no usable payload; remove it
            # now or nothing ever will.
            self._shm.close()
            self._shm.unlink()
            self._shm = None
            raise
        #: Segment name workers pass to :func:`attach_index`.
        self.name: str = self._shm.name
        #: Logical payload size (the kernel may round the segment up).
        self.size: int = frame.nbytes
        _LIVE_SEGMENTS[self.name] = self

    def close(self) -> None:
        """Drop the parent's mapping (the segment itself survives)."""
        if self._shm is not None:
            self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system; call once, after every
        worker is done."""
        if self._shm is not None:
            _LIVE_SEGMENTS.pop(self.name, None)
            shm, self._shm = self._shm, None
            shm.unlink()

    def __enter__(self) -> "SharedIndexBuffer":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            self.close()
        finally:
            self.unlink()


def attach_index(name: str, size: int) -> ErtIndex:
    """Worker-side attach: open segment ``name`` and reconstruct the
    index over it without copying the payload.

    The returned index pins the segment mapping (``_shm`` attribute), so
    its array views stay valid for the index's lifetime.  If
    reconstruction fails, the mapping is closed before the error
    propagates -- a worker that dies during initialization must not
    hold the segment mapped for the rest of its (possibly pooled)
    process lifetime.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        # Attach-only mapping: the parent owns the segment's lifetime.
        # On POSIX a worker, forked or spawned, inherits the parent's
        # resource tracker, so the attach's re-register is an idempotent
        # set-add there; unregistering here would erase the parent's
        # own registration, and the parent's unlink would then end in a
        # tracker ``KeyError`` traceback at exit.
        index = index_from_buffer(shm.buf[:size])
    except Exception:
        shm.close()
        raise
    index._shm = shm  # type: ignore[attr-defined]
    return index
