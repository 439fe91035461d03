"""No process outlives the benchmark.

``python -m repro.cli ... --workers 2`` starts a pool and, through
``multiprocessing.shared_memory``, a resource tracker that only exits
*after* the CLI process has: waiting for the CLI process alone leaves
an orphan behind (a zombie under an init that does not reap).  So the
benchmark makes itself the sub-reaper of its descendants, starts every
command in a process group of its own, and after the command has
exited waits until that whole group is gone.

Standard library only: ``run.py`` imports this before it measures.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: How long stragglers get to exit by themselves before SIGKILL.
GRACE_S = 10.0
POLL_S = 0.002


def become_subreaper() -> None:
    """Orphaned descendants are re-parented to this process, not to
    init, so :func:`reap_group` / :func:`reap_children` can wait for
    them.  Linux only, like ``os.wait4`` accounting of a process tree."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        failed = libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0
    except (OSError, AttributeError) as exc:
        raise OSError(f"cannot become a child sub-reaper: {exc}")
    if failed:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def exit_on_sigterm() -> None:
    """A terminated benchmark unwinds through its ``finally`` blocks."""
    def handler(_signum, _frame):
        raise SystemExit(128 + signal.SIGTERM)
    signal.signal(signal.SIGTERM, handler)


def _wait_all(wait_one, kill, grace_s: float) -> int:
    """Reap with ``wait_one(flags)`` until no child is left; ``kill()``
    the rest after ``grace_s``.  Returns how many were reaped."""
    deadline = time.monotonic() + grace_s
    flags = os.WNOHANG
    reaped = 0
    while True:
        try:
            pid = wait_one(flags)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
        elif time.monotonic() > deadline:
            kill()
            flags = 0
        else:
            time.sleep(POLL_S)


def reap_group(pgid: int, grace_s: float = GRACE_S) -> int:
    """Wait until no process of group ``pgid`` is left (sub-reaper: an
    orphan of the group is our child the moment its parent exits).
    ``grace_s = 0`` kills the group first."""
    def kill() -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if grace_s <= 0:
        kill()
    return _wait_all(lambda flags: os.waitpid(-pgid, flags)[0], kill,
                     grace_s)


def _child_pids() -> "list[int]":
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    # pid (comm) state ppid ...; comm may hold spaces.
                    ppid = handle.read().rpartition(")")[2].split()[1]
            except OSError:
                continue
            if int(ppid) == me:
                found.append(int(entry))
    return found


def reap_children(grace_s: float = GRACE_S) -> int:
    """Before exit: stop what an in-process pool call left running in
    *this* process (the traced run's resource tracker, which otherwise
    ends only after we have) and wait for every remaining child."""
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()

    def kill() -> None:
        for pid in _child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return _wait_all(lambda flags: os.waitpid(-1, flags)[0], kill, grace_s)
