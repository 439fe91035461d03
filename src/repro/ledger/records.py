"""Run manifests and the append-only JSONL ledger file.

One *record* per run::

    {"schema": 1, "benchmark": "seed_throughput", "label": "ci",
     "recorded_at": "2026-02-11T08:30:00+00:00",
     "env": {"python": "3.11.8", ...},
     "workload": {"reads": 2000, ...}, "config": {"workers": 2, ...},
     "metrics": {"seeding.reads_per_sec": 18432.7, ...}}

Metrics are a flat ``name -> number`` mapping.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from typing import Any, Iterable, Mapping

#: Bump when the record shape changes incompatibly; ``diff`` refuses to
#: compare across schema versions.
LEDGER_SCHEMA = 1

DEFAULT_LEDGER_PATH = os.path.join("benchmarks", "ledger.jsonl")


def env_fingerprint() -> "dict[str, Any]":
    """Where a run happened: enough to explain a throughput delta that
    is really a hardware/interpreter change, cheap enough to record
    every run."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def snapshot_metrics(snapshot: "Mapping[str, Any]") -> "dict[str, float]":
    """Ledger-worthy numbers from a telemetry snapshot (the JSON written
    by ``--metrics-out``): per-root-span wall clock, every counter, and
    a derived ``seeding.reads_per_sec`` throughput when the snapshot
    holds both the ``seeding.reads`` counter and the ``seed`` span."""
    out: "dict[str, float]" = {}
    spans = snapshot.get("spans", {}) or {}
    for path, stat in spans.items():
        if "/" not in path:
            out[f"span.{path}.total_s"] = float(stat.get("total_s", 0.0))
    counters = snapshot.get("counters", {}) or {}
    for name, value in counters.items():
        if _is_number(value):
            out[f"counter.{name}"] = float(value)
    reads = counters.get("seeding.reads")
    seed_total = (spans.get("seed") or {}).get("total_s", 0.0)
    if _is_number(reads) and reads and seed_total:
        out["seeding.reads_per_sec"] = float(reads) / float(seed_total)
    return out


def build_record(benchmark: str, metrics: "Mapping[str, float]",
                 label: str = "",
                 workload: "Mapping[str, Any] | None" = None,
                 config: "Mapping[str, Any] | None" = None,
                 telemetry: "Mapping[str, Any] | None" = None,
                 recorded_at: "str | None" = None) -> "dict[str, Any]":
    """Assemble one run manifest.  ``recorded_at`` is injectable for
    deterministic tests; it defaults to the current UTC instant."""
    if recorded_at is None:
        recorded_at = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
    record: "dict[str, Any]" = {
        "schema": LEDGER_SCHEMA,
        "benchmark": benchmark,
        "label": label,
        "recorded_at": recorded_at,
        "env": env_fingerprint(),
        "metrics": {name: float(value)
                    for name, value in sorted(metrics.items())},
    }
    if workload:
        record["workload"] = dict(workload)
    if config:
        record["config"] = dict(config)
    if telemetry:
        record["telemetry"] = dict(telemetry)
    return record


def append_record(path: str, record: "Mapping[str, Any]") -> None:
    """Append one manifest to the ledger (created on first use)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_ledger(path: str) -> "list[dict[str, Any]]":
    """Every record in the ledger, oldest first.  A missing file is an
    empty ledger; a malformed line is an error naming the line (ledgers
    are append-only artifacts -- corruption means something else wrote
    to the file and silently skipping would hide it)."""
    if not os.path.exists(path):
        return []
    records: "list[dict[str, Any]]" = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON record ({exc})") from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: record is not a JSON object")
            records.append(record)
    return records


def last_runs(records: "Iterable[Mapping[str, Any]]",
              benchmark: str) -> "list[dict[str, Any]]":
    """The last two records for ``benchmark``, oldest first (so ``[-2]``
    vs ``[-1]`` reads previous vs current)."""
    matching = [dict(rec) for rec in records
                if rec.get("benchmark") == benchmark]
    return matching[-2:]


def benchmarks_in(records: "Iterable[Mapping[str, Any]]") -> "list[str]":
    """Distinct benchmark names, in first-appearance order."""
    seen: "dict[str, None]" = {}
    for rec in records:
        name = rec.get("benchmark")
        if isinstance(name, str):
            seen.setdefault(name, None)
    return list(seen)
