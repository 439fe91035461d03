"""Analysis layer: data-volume measurement, roofline CPU model, reports.

The benchmark harness (``benchmarks/``) is a thin printing layer over
this package:

* :mod:`repro.analysis.datavol` -- per-read memory requests and bytes by
  phase for every engine configuration (Figs 1a, 12);
* :mod:`repro.analysis.roofline` -- the Fig 1a roofline and the CPU
  throughput model used for the software bars of Fig 11 and Table V;
* :mod:`repro.analysis.report` -- aligned-text tables shared by the
  benchmark scripts and EXPERIMENTS.md generation.
"""

from repro.analysis.datavol import TrafficProfile, measure_traffic
from repro.analysis.divergence import DivergenceReport, measure_divergence
from repro.analysis.report import format_table
from repro.analysis.roofline import CpuSystem, OpCosts, cpu_throughput

__all__ = [
    "CpuSystem",
    "DivergenceReport",
    "OpCosts",
    "TrafficProfile",
    "cpu_throughput",
    "format_table",
    "measure_divergence",
    "measure_traffic",
]
