"""Structured JSONL logging: the sanctioned operational event stream.

Rule ERT010 bans ad-hoc console writes in library code, and ERT011 bans
routing events through the stdlib ``logging`` root handlers (whose
global, import-order-sensitive configuration is exactly what a
deterministic pipeline must not depend on).  This module is the one
approved path for library subsystems (the batch scheduler, the
fault-recovery path, the workers' index maps) to emit
machine-readable operational events.

Design points:

* **Off by default, zero-cost when off.**  Until :func:`configure` is
  called, every emit returns after one ``None`` check -- the same
  contract as the telemetry flag.  The CLI wires it to ``--log-jsonl``.
* **Structured.**  One JSON object per line::

      {"ts": 1754604042.1, "level": "info", "subsystem":
       "parallel.scheduler", "event": "pool.spawn", "workers": 2, ...}

  ``ts`` is absolute epoch seconds (operational logs are correlated
  with the outside world; the deterministic-output guarantees never
  depend on log content).
* **Levelled, not filtered.**  Every record carries its ``level``
  (``info`` / ``warn`` / ``error``); a run emits a handful of events, so
  all of them are written.

Loggers are cheap handles bound to a subsystem name; module-level
``_log = get_logger("parallel.scheduler")`` is the expected idiom (the
handle checks the live sink at emit time, so configure order never
matters).
"""

from __future__ import annotations

import json
import time

LEVELS = ("info", "warn", "error")


class _Sink:
    """The configured destination: a stream, and whether to close it."""

    def __init__(self, stream, owns_stream: bool) -> None:
        self.stream = stream
        self.owns_stream = owns_stream

    def emit(self, record: "dict[str, object]") -> None:
        self.stream.write(json.dumps(record, sort_keys=True, default=str)
                          + "\n")
        self.flush()

    def flush(self) -> None:
        try:
            self.stream.flush()
        except (AttributeError, ValueError, OSError):
            pass


#: The single live sink (or None: logging disabled).
_sink: "_Sink | None" = None


def configure(path: "str | None" = None, stream=None) -> None:
    """Open the JSONL event stream.

    Exactly one of ``path`` (opened in append mode, closed by
    :func:`shutdown`) or ``stream`` (caller-owned) must be given.
    Reconfiguring replaces the previous sink.
    """
    global _sink
    if (path is None) == (stream is None):
        raise ValueError("configure() needs exactly one of path/stream")
    shutdown()
    if path is not None:
        _sink = _Sink(open(path, "a"), owns_stream=True)
    else:
        _sink = _Sink(stream, owns_stream=False)


def configured() -> bool:
    return _sink is not None


def shutdown() -> None:
    """Flush and close the sink.  Safe to call when logging was never
    configured."""
    global _sink
    sink, _sink = _sink, None
    if sink is None:
        return
    sink.flush()
    if sink.owns_stream:
        sink.stream.close()


class StructuredLogger:
    """A subsystem-bound handle; see :func:`get_logger`."""

    __slots__ = ("subsystem",)

    def __init__(self, subsystem: str) -> None:
        self.subsystem = subsystem

    def log(self, level: str, event: str, **fields: object) -> None:
        sink = _sink
        if sink is None:
            return
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r}; expected one of {LEVELS}")
        record: "dict[str, object]" = {
            "ts": round(time.time(), 6), "level": level,
            "subsystem": self.subsystem, "event": event}
        record.update(fields)
        sink.emit(record)

    def info(self, event: str, **fields: object) -> None:
        self.log("info", event, **fields)

    def warn(self, event: str, **fields: object) -> None:
        self.log("warn", event, **fields)

    def error(self, event: str, **fields: object) -> None:
        self.log("error", event, **fields)


def get_logger(subsystem: str) -> StructuredLogger:
    """A logger handle for ``subsystem`` (dotted, mirroring the module
    path by convention: ``parallel.scheduler``, ``parallel.shm``)."""
    return StructuredLogger(subsystem)


__all__ = [
    "LEVELS",
    "StructuredLogger",
    "configure",
    "configured",
    "get_logger",
    "shutdown",
]
