"""Workload table and input sizes of the pipeline benchmark.

Pure data plus path/argv helpers -- no numpy, no ``repro`` import -- so
the orchestrator (``run.py``) stays a small process: a child's
``ru_maxrss`` starts at its parent's resident size, so a heavy harness
would put a floor under ``peak_rss_mb``.

Names here are final: ``BENCHMARK.json`` and every later performance
claim refer to them.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

READ_LENGTH = 101
#: The paper's trace mix: ~80 % perfect reads, ~20 % with substitutions.
ERROR_READ_FRACTION = 0.2
SUBSTITUTION_RATE = 0.01
#: ``abs(POS - 1 - origin)`` tolerance of the SAM truth check (a
#: soft-clipped alignment starts a few bases right of the read's origin).
POSITION_TOLERANCE = 10
#: Seed of the one reference genome every run aligns to (the repo's
#: standard, as in benchmarks/conftest.py); ``--seed`` draws the reads.
#: Work per read depends on the genome's repeat structure: across ten
#: *genomes* walk steps per read spread 34 % (quartiles over median) and
#: extension lanes 15 %, across ten *read sets* of one genome 6 % and
#: 4 % -- a genome per seed would put the spread of every timing metric
#: above any usable regression bound.
REFERENCE_SEED = 2021
#: A ``calibrate.py`` reading on the reference host (2-core Xeon
#: 2.1 GHz, quiet).  Times scaled by ``NOMINAL_CAL_S / reading`` read as
#: if measured there.
NOMINAL_CAL_S = 0.2


class BenchmarkError(RuntimeError):
    """The run is invalid: no metrics, non-zero exit."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes: fixed here and in ``BENCHMARK.json``, never scaled
    per host."""

    genome_len: int
    k: int
    seed_reads: int
    align_reads: int
    pairs: int
    warm_reads: int
    #: How many times a run makes its inputs from nothing (``setup_s``
    #: is the median).
    setup_reps: int
    #: Fewest timed CLI repetitions, whatever ``--seconds`` says.
    min_reps: int


#: Sized so one run (3 set-ups + warm-up + ``run_seconds`` of timed
#: repetitions + checks) stays near 25 s: the driver makes 4 + 22 x 4
#: runs inside 3420 s.  10 kbp / k = 6 puts ~5 text positions behind
#: each index entry, the density of the paper's k = 15 at 3 Gbp.
FULL = Sizes(genome_len=10_000, k=6, seed_reads=3_000, align_reads=300,
             pairs=90, warm_reads=64, setup_reps=3, min_reps=3)
#: ``--quick``: every workload, check and the traced run in seconds.
QUICK = Sizes(genome_len=3_000, k=5, seed_reads=100, align_reads=100,
              pairs=20, warm_reads=16, setup_reps=1, min_reps=1)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``ert-repro`` subcommand.
    command: str
    kernels: str
    workers: int
    #: Which read set it consumes: "seed", "align" (both single-end) or
    #: "pairs" (interleaved paired-end).
    reads: str
    why: str

    @property
    def output_name(self) -> str:
        return "out.tsv" if self.command == "seed" else "out.sam"

    def n_reads(self, sizes: Sizes) -> int:
        """Reads in the input file; mates count individually."""
        return {"seed": sizes.seed_reads, "align": sizes.align_reads,
                "pairs": 2 * sizes.pairs}[self.reads]


WORKLOADS = {w.name: w for w in (
    Workload("seed_se_vec_w1", "seed", "vector", 1, "seed",
             "Seeding only: kernels.seeding/walk/flat, FASTQ parse and "
             "TSV formatting do all the work, the extension layers none"),
    Workload("align_se_vec_w1", "align", "vector", 1, "align",
             "Extension-dominated: extend.pipeline + kernels.traceback; "
             "seeding is a small share, so a seeding gain barely moves it"),
    Workload("align_se_vec_w2", "align", "vector", 2, "align",
             "The same reads through parallel.shm + parallel.scheduler: "
             "publish, pool spawn, attach, pickle, ordered merge; output "
             "must equal align_se_vec_w1 byte for byte"),
    Workload("align_pe_scalar_w1", "align-pe", "scalar", 1, "pairs",
             "The scalar oracle (core.engine cursor walk, "
             "extend.traceback) plus extend.paired mate rescue: a "
             "vector-kernel gain must not move it"),
)}


@dataclass(frozen=True)
class InputPaths:
    """Where one set-up puts a workload's inputs."""

    root: str

    @property
    def reference(self) -> str:
        return os.path.join(self.root, "ref.fa")

    @property
    def reads(self) -> str:
        return os.path.join(self.root, "reads.fq")

    @property
    def warm_reads(self) -> str:
        return os.path.join(self.root, "warm.fq")

    @property
    def truth(self) -> str:
        return os.path.join(self.root, "truth.tsv")

    @property
    def index(self) -> str:
        return os.path.join(self.root, "index.npz")


def cli_argv(workload: Workload, index: str, reads: str, out: str,
             workers: "int | None" = None) -> "list[str]":
    """The timed command: CLI defaults except what the workload names
    (no ``--batch-size``, no telemetry flags)."""
    return [sys.executable, "-m", "repro.cli", workload.command,
            "--index", index, "--reads", reads, "--out", out,
            "--kernels", workload.kernels,
            "--workers", str(workers or workload.workers)]


def build_index_argv(paths: InputPaths, sizes: Sizes) -> "list[str]":
    return [sys.executable, "-m", "repro.cli", "build-index",
            "--reference", paths.reference, "--k", str(sizes.k),
            "--out", paths.index]


def child_env(src_dir: str, pycache_dir: str) -> "dict[str, str]":
    """Fixed child environment: the CI matrix's ``REPRO_*`` switches
    cannot change the workload, BLAS stays single-threaded, and byte
    code is cached under the run's scratch directory (a user's install
    has ``.pyc`` files; the warm-up invocation writes them)."""
    env = dict(os.environ)
    for name in ("REPRO_WORKERS", "REPRO_KERNELS", "REPRO_RETRIES",
                 "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env.update(PYTHONPATH=src_dir, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=pycache_dir, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env
