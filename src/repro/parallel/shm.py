"""Zero-copy index sharing via ``multiprocessing.shared_memory``.

The parent serializes a built :class:`~repro.core.index.ErtIndex` once
with :func:`repro.core.io.index_to_buffer` and places the flat payload in
a POSIX shared-memory segment.  Each worker process then *attaches* the
segment by name and opens it with :func:`repro.core.io.index_from_buffer`
-- every numpy array of the reconstructed index is a read-only view
straight into the segment, so N workers share one physical copy of the
entry table, tree blobs and packed reference (the software analogue of
the paper's 64 seeding lanes hitting one ERT, §IV).

Lifecycle contract (enforced mechanically by checker rule ERT008): only
this package constructs ``SharedMemory`` objects.  The parent owns the
segment -- it creates, closes and unlinks it; workers attach and merely
close their mapping when the process exits.  Because a segment outliving
the run is a system-wide leak (it survives the interpreter), every parent
path is hardened: construction failures unlink eagerly, context-manager
exit unlinks even when close fails, and an ``atexit`` guard sweeps any
segment still registered when the interpreter shuts down -- e.g. when an
unhandled worker-crash error unwinds past the owner.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory

from repro.core.index import ErtIndex
from repro.core.io import index_from_buffer, index_to_buffer
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
        payload = index_to_buffer(index)
        self._shm: "shared_memory.SharedMemory | None" = \
            shared_memory.SharedMemory(create=True, size=len(payload))
        try:
            self._shm.buf[:len(payload)] = payload
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
        self.size: int = len(payload)
        _LIVE_SEGMENTS[self.name] = self
        _log.info("shm.create", segment=self.name, size=self.size)

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
            _log.info("shm.unlink", segment=self.name)

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
