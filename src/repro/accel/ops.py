"""Turning functional seeding runs into simulator op streams.

The paper's evaluation methodology (§V): "we developed a cycle-accurate
model using our software implementation and generated memory traces from
the corresponding software runs".  This module is that trace generator.

A *job* is an ordered list of :class:`Op` -- each op is a compute burst
(node decode, comparison) followed by one line-sized memory access.  For
the per-read configurations a job is one read's seeding; for the k-mer
reuse configuration phase 1 yields one job per read and phase 3 one job
per k-mer group (the accelerator processes groups back to back, §IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import ErtSeedingEngine
from repro.core.index import ErtIndex
from repro.core.reuse import KmerReuseDriver
from repro.memsim.trace import MemoryTracer
from repro.seeding.algorithm import SeedingParams, seed_read


@dataclass(frozen=True)
class Op:
    """One simulator step: ``cycles`` of PE compute, then a memory access
    at ``addr`` (line granular; ``phase`` picks the PE class and tags the
    DRAM stats)."""

    cycles: int
    addr: int
    phase: str


def _trace_to_ops(accesses, decode_cycles) -> "list[Op]":
    return [Op(cycles=decode_cycles.get(a.phase, 1), addr=a.addr,
               phase=a.phase)
            for a in accesses]


def capture_ert_jobs(index: ErtIndex, reads, params: SeedingParams,
                     decode_cycles: "dict[str, int]") -> "list[list[Op]]":
    """Per-read jobs for the ERT / ERT-PM configurations."""
    engine = ErtSeedingEngine(index)
    tracer = MemoryTracer(keep_trace=True)
    index.attach_tracer(tracer)
    jobs = []
    try:
        for read in reads:
            mark = len(tracer.trace)
            seed_read(engine, read, params)
            jobs.append(_trace_to_ops(tracer.trace[mark:], decode_cycles))
    finally:
        index.attach_tracer(None)
    return jobs


def capture_reuse_jobs(index: ErtIndex, reads, params: SeedingParams,
                       decode_cycles: "dict[str, int]"
                       ) -> "tuple[list[list[Op]], object]":
    """Jobs for the ERT-KR configuration plus the driver's reuse stats.

    The driver's unit hook splits the global trace at read boundaries
    (phase 1) and k-mer group boundaries (phase 3); reads whose traces are
    interleaved with others' stay correctly attributed because the hook
    fires synchronously between units.
    """
    engine = ErtSeedingEngine(index)
    driver = KmerReuseDriver(engine, params)
    tracer = MemoryTracer(keep_trace=True)
    index.attach_tracer(tracer)
    jobs = []
    mark = [0]

    def hook(_label: str) -> None:
        if len(tracer.trace) > mark[0]:
            jobs.append(_trace_to_ops(tracer.trace[mark[0]:], decode_cycles))
            mark[0] = len(tracer.trace)

    driver.unit_hook = hook
    try:
        driver.seed_batch(list(reads))
        hook("tail")
    finally:
        index.attach_tracer(None)
    return jobs, driver.last_stats
