"""Structured JSONL logging: the sanctioned operational event stream.

Rule ERT010 bans ad-hoc console writes in library code, and ERT011 bans
routing events through the stdlib ``logging`` root handlers (whose
global, import-order-sensitive configuration is exactly what a
deterministic pipeline must not depend on).  This module is the one
approved path for library subsystems (the batch scheduler, the
fault-recovery path, the shared-memory lifecycle) to emit
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
* **Rate-limited.**  A token bucket caps sustained volume; dropped
  records are *counted* and surfaced in a final summary record at
  :func:`shutdown`, never silently lost.
* **Level-filtered.**  ``debug < info < warn < error``, filtered at the
  emit site before any formatting cost.

Loggers are cheap handles bound to a subsystem name; module-level
``_log = get_logger("parallel.scheduler")`` is the expected idiom (the
handle checks the live sink at emit time, so configure order never
matters).
"""

from __future__ import annotations

import json
import time

LEVELS = ("debug", "info", "warn", "error")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

#: Default sustained rate cap (records/second) and burst allowance.
DEFAULT_MAX_PER_SEC = 200.0


class _TokenBucket:
    """Sustained-rate limiter: ``rate`` tokens/s, burst of ``rate``."""

    def __init__(self, rate: float, clock) -> None:
        self.rate = float(rate)
        self.capacity = max(1.0, float(rate))
        self.tokens = self.capacity
        self._clock = clock
        self._last = clock()

    def allow(self) -> bool:
        now = self._clock()
        self.tokens = min(self.capacity,
                          self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class _Sink:
    """The configured destination: a stream, its filters, its limiter."""

    def __init__(self, stream, owns_stream: bool, level: str,
                 max_per_sec: float, clock) -> None:
        if level not in _LEVEL_RANK:
            raise ValueError(
                f"unknown log level {level!r}; expected one of {LEVELS}")
        self.stream = stream
        self.owns_stream = owns_stream
        self.min_rank = _LEVEL_RANK[level]
        self.bucket = _TokenBucket(max_per_sec, clock)
        self.dropped = 0
        self.emitted = 0

    def emit(self, record: "dict[str, object]") -> None:
        if not self.bucket.allow():
            self.dropped += 1
            return
        self.emitted += 1
        self.stream.write(json.dumps(record, sort_keys=True, default=str)
                          + "\n")
        try:
            self.stream.flush()
        except (AttributeError, ValueError, OSError):
            pass


#: The single live sink (or None: logging disabled).
_sink: "_Sink | None" = None


def configure(path: "str | None" = None, stream=None,
              level: str = "info",
              max_per_sec: float = DEFAULT_MAX_PER_SEC,
              clock=time.monotonic) -> None:
    """Open the JSONL event stream.

    Exactly one of ``path`` (opened in append mode, closed by
    :func:`shutdown`) or ``stream`` (caller-owned) must be given.
    Reconfiguring replaces the previous sink after flushing its summary.
    """
    global _sink
    if (path is None) == (stream is None):
        raise ValueError("configure() needs exactly one of path/stream")
    shutdown()
    if path is not None:
        handle = open(path, "a")
        _sink = _Sink(handle, owns_stream=True, level=level,
                      max_per_sec=max_per_sec, clock=clock)
    else:
        _sink = _Sink(stream, owns_stream=False, level=level,
                      max_per_sec=max_per_sec, clock=clock)


def configured() -> bool:
    return _sink is not None


def shutdown() -> None:
    """Flush a summary record (emitted/dropped counts) and close the
    sink.  Safe to call when logging was never configured."""
    global _sink
    sink, _sink = _sink, None
    if sink is None:
        return
    if sink.dropped:
        record = {"ts": round(time.time(), 6), "level": "warn",
                  "subsystem": "logging", "event": "records.dropped",
                  "dropped": sink.dropped, "emitted": sink.emitted}
        sink.stream.write(json.dumps(record, sort_keys=True) + "\n")
    try:
        sink.stream.flush()
    except (AttributeError, ValueError, OSError):
        pass
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
        rank = _LEVEL_RANK.get(level)
        if rank is None:
            raise ValueError(
                f"unknown log level {level!r}; expected one of {LEVELS}")
        if rank < sink.min_rank:
            return
        record: "dict[str, object]" = {
            "ts": round(time.time(), 6), "level": level,
            "subsystem": self.subsystem, "event": event}
        record.update(fields)
        sink.emit(record)

    def debug(self, event: str, **fields: object) -> None:
        self.log("debug", event, **fields)

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
    "DEFAULT_MAX_PER_SEC",
    "LEVELS",
    "StructuredLogger",
    "configure",
    "configured",
    "get_logger",
    "shutdown",
]
