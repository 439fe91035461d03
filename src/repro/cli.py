"""Command-line interface: the workflows a downstream user actually runs.

``ert-repro`` mirrors the shape of real aligner tooling (index once,
align many times):

* ``simulate-genome`` / ``simulate-reads`` -- produce FASTA/FASTQ inputs;
* ``build-index``  -- construct an ERT and save it as one index file;
* ``index-stats``  -- census of a persisted index (Fig 8 / §III-A3 data);
* ``seed``         -- three-round seeding, one TSV line per seed;
* ``align`` / ``align-pe`` -- full pipeline to SAM;
* ``report``       -- render a saved telemetry snapshot as a profile;
* ``explain``      -- replay one read through the serial engine with
  full instrumentation and print its cost attribution;
* ``check``        -- run the repository's static-analysis rules
  (:mod:`repro.checks`, see docs/static_analysis.md).

``check`` is handed, before any parser is built, to the ``main(argv)``
of :mod:`repro.checks.cli`; this module does not import that package.

``seed``, ``align`` and ``align-pe`` are one run path (:func:`_cmd_run`):
load the index, count the FASTQ's records, then stream -- parse one
batch of reads at a time, run it through :func:`repro.parallel.map_reads`,
write each merged batch as it arrives -- and print a summary line (a
``--reads`` pipe or FIFO, readable only once, is parsed whole first).
Their ``--out`` appears only when the run succeeds (a sibling
temporary file is renamed into place); ``-``, a FIFO or a device is
written as the batches merge, so a run that fails mid-stream has
written the batches before the defect there.  They and ``compare`` take
``--profile`` (print a per-stage wall-clock/counter report),
``--metrics-out FILE`` (write the full telemetry snapshot as JSON, the
input of ``report``),
``--slowlog FILE`` (append the per-read exemplar sample -- reservoir
plus top-K slowest -- as JSONL), ``--log-jsonl FILE`` (structured
operational logs: scheduler, fault recovery, worker index maps)
and ``--trace-out FILE`` (record a timeline and write Chrome/Perfetto
``trace_event`` JSON -- open it at https://ui.perfetto.dev).

The three run commands take ``--workers N`` and ``--batch-size M``:
reads stream through the :mod:`repro.parallel` batch scheduler
(every worker maps the index file, order-preserving merge), so the output is
byte-identical at any worker count.  The default worker count comes
from ``$REPRO_WORKERS`` (else 1).  With workers > 1 they also take
``--retries R`` (per-batch retry budget after a worker crash or batch
timeout; default ``$REPRO_RETRIES``, else 2) and ``--batch-timeout
SEC``; see the failure model in ``docs/performance.md``.  ``--kernels``
picks the traceback kernel: the batched one
(:mod:`repro.kernels.traceback`, the default, ``vector``) or, ``scalar``,
one ``banded_sw_traceback`` per lane; the output is byte-identical.

A malformed, missing or unreadable index, FASTA or FASTQ file, a FASTA
of more than one record, a read longer than the index's
``max_seed_len``, an index parameter ``ErtConfig`` rejects (``--k``,
``--max-seed-len``, ``--table-threshold``, ``--table-x``), an ``--out``
that cannot be written (checked before the compute starts) -- and a
missing or malformed ``report --metrics`` / ``explain --slowlog`` file
-- ends in one ``ert-repro <command>: <message>`` line on stderr and
exit status 2.

Every subcommand is a thin shell over the library API, so everything it
does is equally available programmatically.

When :func:`main` runs the process's own command line (no ``argv``:
``python -m repro.cli``, the ``ert-repro`` script), the process ends
with the command, so ``seed`` / ``align`` / ``align-pe`` freeze the
start-up heap (``gc.freeze``) once the index is loaded: the
run, its forked workers and the interpreter's exit stop re-scanning the
numpy and repro modules' objects.  Cyclic collection is off from
:func:`main`'s entry until that freeze point (the objects start-up
makes are frozen there anyway, so collecting them first buys nothing),
and every other subcommand turns it back on once its arguments are
parsed.  A call with an ``argv`` list leaves the caller's collector as
it found it.

Start-up is paid on every invocation, so this module imports only what
:func:`build_parser` needs; each handler imports what it runs
(``ert-repro --help`` loads no numpy, a ``seed`` run no extension
layer, a one-worker run no pool -- ``tests/test_cli.py`` holds the
list).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import importlib
import os
import stat
import sys

from repro.kernels import KERNEL_CHOICES

#: Subcommands that live in their own module: ``main`` hands them the
#: rest of the command line before building this module's parser, so a
#: read-driven run never imports the linter.
_DELEGATED = {
    "check": ("repro.checks.cli",
              "run the repo's static-analysis rules (non-zero exit on "
              "violations)"),
}


def build_parser(command: "str | None" = None) -> argparse.ArgumentParser:
    """The ``ert-repro`` parser.  Every subcommand is listed; with
    ``command`` given, only that subcommand's arguments are added (all
    of them by default), which is all :func:`main` needs to parse one
    command line and spares the rest's ``add_argument`` calls."""
    parser = argparse.ArgumentParser(
        prog="ert-repro",
        description="Enumerated Radix Tree seeding (ISCA 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=summary)
        if command is None or command == name:
            add_arguments(subparser)
    # Listed for ``ert-repro --help`` only; ``main`` never parses them.
    for name, (_module, summary) in _DELEGATED.items():
        sub.add_parser(name, help=summary, add_help=False)
    return parser


def _simulate_genome_args(parser) -> None:
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--name", default="synthetic")
    parser.add_argument("--out", required=True)


def _simulate_reads_args(parser) -> None:
    parser.add_argument("--reference", required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--read-length", type=int, default=101)
    parser.add_argument("--error-fraction", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)


def _build_index_args(parser) -> None:
    parser.add_argument("--reference", required=True)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--max-seed-len", type=int, default=151)
    parser.add_argument("--table-threshold", type=int, default=256)
    parser.add_argument("--table-x", type=int, default=4)
    parser.add_argument("--prefix-merging", action="store_true")
    parser.add_argument("--out", required=True)


def _index_stats_args(parser) -> None:
    parser.add_argument("--index", required=True)


def _seed_args(parser) -> None:
    parser.add_argument("--index", required=True)
    parser.add_argument("--reads", required=True)
    _add_seeding_args(parser, max_hits=True)
    parser.add_argument("--out", default="-")
    _add_telemetry_args(parser)
    _add_parallel_args(parser)


def _align_args(parser) -> None:
    parser.add_argument("--index", required=True)
    parser.add_argument("--reads", required=True)
    _add_seeding_args(parser)
    parser.add_argument("--out", required=True)
    _add_telemetry_args(parser)
    _add_parallel_args(parser)


def _align_pe_args(parser) -> None:
    parser.add_argument("--index", required=True)
    parser.add_argument("--reads", required=True,
                        help="interleaved FASTQ (mate1, mate2, ...)")
    _add_seeding_args(parser)
    parser.add_argument("--insert-mean", type=int, default=350)
    parser.add_argument("--insert-sd", type=int, default=50)
    parser.add_argument("--out", required=True)
    _add_telemetry_args(parser)
    _add_parallel_args(parser)


def _report_args(parser) -> None:
    parser.add_argument("--metrics", required=True,
                        help="JSON file written by --metrics-out")


def _explain_args(parser) -> None:
    parser.add_argument("--index", required=True)
    parser.add_argument("--reads", required=True,
                        help="FASTQ holding the read to replay")
    parser.add_argument("--read-id", required=True,
                        help="read name as shown in the slowlog / "
                             "exemplar tables")
    parser.add_argument("--task", choices=("seed", "align"),
                        default="seed")
    _add_seeding_args(parser, max_hits=True)
    parser.add_argument(
        "--slowlog", default=None, metavar="FILE",
        help="cross-check the replayed counters against this slowlog's "
             "recorded entry for the read (non-zero exit on mismatch)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the replayed record as JSON instead "
                             "of tables")


def _compare_args(parser) -> None:
    parser.add_argument("--reference", required=True)
    parser.add_argument("--reads", required=True)
    parser.add_argument("--k", type=int, default=8)
    _add_seeding_args(parser)
    _add_telemetry_args(parser)


#: subcommand -> (``--help`` summary, the function adding its
#: arguments), in ``ert-repro --help`` order.
_SUBCOMMANDS = {
    "simulate-genome": ("generate a repeat-rich synthetic genome",
                        _simulate_genome_args),
    "simulate-reads": ("sample Illumina-like reads from a FASTA",
                       _simulate_reads_args),
    "build-index": ("build and persist an ERT", _build_index_args),
    "index-stats": ("census of a persisted ERT", _index_stats_args),
    "seed": ("seed reads, one TSV line per seed", _seed_args),
    "align": ("align reads to SAM", _align_args),
    "align-pe": ("align interleaved paired-end reads to SAM",
                 _align_pe_args),
    "report": ("render a saved telemetry snapshot (--metrics-out file) "
               "as a per-stage profile", _report_args),
    "explain": ("replay one read from a FASTQ through the serial engine "
                "with full instrumentation and print where its time went",
                _explain_args),
    "compare": ("measure FMD vs ERT memory traffic on a read set (Fig 12)",
                _compare_args),
}


def _add_seeding_args(parser, max_hits: bool = False) -> None:
    parser.add_argument("--min-seed-len",
                        type=_bounded("--min-seed-len"), default=19)
    if max_hits:
        parser.add_argument("--max-hits", type=_bounded("--max-hits"),
                            default=500)


def _add_telemetry_args(parser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="collect telemetry and print a per-stage profile")
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="collect telemetry and write the snapshot as JSON "
             "('ert-repro report' renders it)")
    parser.add_argument(
        "--slowlog", default=None, metavar="FILE",
        help="sample per-read exemplars and append them (reservoir + "
             "top-K slowest) to FILE as JSONL; feed any read id shown "
             "there to 'ert-repro explain'")
    parser.add_argument(
        "--log-jsonl", default=None, metavar="FILE",
        help="append structured operational logs (scheduler, fault "
             "recovery, worker index maps) to FILE as JSONL")
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record a timeline and write Chrome/Perfetto trace_event "
             "JSON (open at https://ui.perfetto.dev); includes "
             "per-worker tracks at --workers > 1")


def _bounded(label, op=">=", bound=1, cast=int):
    """Argparse type factory: a number (``cast``: ``int`` or ``float``)
    that must be ``op`` (``">="`` or ``">"``) ``bound``, with an error
    message naming the option (rejected at parse time rather than
    silently clamped deep inside ``ParallelConfig``)."""
    noun = "an integer" if cast is int else "a number"

    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be {noun}, got {text!r}")
        if value < bound or (op == ">" and value == bound):
            raise argparse.ArgumentTypeError(
                f"{label} must be {op} {bound}, got {value}")
        return value
    return parse


def _add_parallel_args(parser) -> None:
    parser.add_argument(
        "--workers", type=_bounded("--workers"), default=None,
        metavar="N",
        help="worker processes for the batch scheduler (default: "
             "$REPRO_WORKERS, else 1 = in-process); output is "
             "byte-identical at any count")
    parser.add_argument(
        "--batch-size", type=_bounded("--batch-size"), default=64,
        metavar="M",
        help="reads per scheduler batch (default 64)")
    parser.add_argument(
        "--retries", type=_bounded("--retries", ">=", 0), default=None,
        metavar="R",
        help="per-batch retry budget after a worker crash or batch "
             "timeout (default: $REPRO_RETRIES, else 2; 0 = fail on "
             "first fault)")
    parser.add_argument(
        "--batch-timeout", type=_bounded("--batch-timeout", ">", 0, float),
        default=None, metavar="SEC",
        help="seconds to wait for one batch before killing and "
             "respawning the pool (default: wait forever)")
    parser.add_argument(
        "--kernels", choices=KERNEL_CHOICES, default="vector",
        help="traceback kernel: vector (the batched row-scan SW "
             "traceback, the default) or scalar (one traceback per "
             "lane); byte-identical output")


def _parallel_config(args):
    from repro.parallel import ParallelConfig

    return ParallelConfig(workers=args.workers, batch_size=args.batch_size,
                          retries=args.retries,
                          batch_timeout=args.batch_timeout,
                          kernels=args.kernels)


def _telemetry_begin(args) -> bool:
    """Enable telemetry for this command iff the user asked for output.
    Returns whether a metrics session is active (the default stays a
    true no-op).  ``--trace-out`` additionally starts timeline
    recording, and ``--log-jsonl`` opens the structured-log sink; both
    are independent of the metrics flag."""
    from repro import telemetry

    active = bool(args.profile or args.metrics_out or args.slowlog)
    if active:
        telemetry.reset()
        telemetry.enable()
    if args.log_jsonl:
        from repro import logging as repro_logging

        repro_logging.configure(path=args.log_jsonl)
    if args.trace_out:
        telemetry.start_recording()
    return active


def _write_slowlog(path, exemplars: dict) -> None:
    """Append the sampled exemplar records as JSONL, slowlog entries
    first (they are what ``explain`` cross-checks against)."""
    import json

    seen = set()
    with open(path, "a") as handle:
        for source in ("slowest", "reservoir"):
            for rec in exemplars.get(source, []):
                key = (rec["read_id"], rec.get("task"), rec["wall_ms"])
                if key in seen:
                    continue
                seen.add(key)
                record = {"source": source}
                record.update(rec)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _telemetry_finish(args, active: bool, title: str,
                      profile_stream=None) -> None:
    """Write what the telemetry flags asked for, then turn metrics off
    and empty the registry, so nothing of the run outlives it."""
    from repro import telemetry

    if args.trace_out:
        telemetry.stop_recording()
        telemetry.write_trace(args.trace_out, telemetry.current_trace())
        print(f"wrote timeline trace to {args.trace_out} "
              f"(open at https://ui.perfetto.dev)", file=sys.stderr)
    if args.log_jsonl:
        from repro import logging as repro_logging

        repro_logging.shutdown()
    if not active:
        return
    telemetry.disable()
    snap = telemetry.snapshot()
    if args.metrics_out:
        telemetry.write_json(args.metrics_out, snap)
        print(f"wrote telemetry snapshot to {args.metrics_out}",
              file=sys.stderr)
    if args.slowlog:
        exemplars = snap.get("exemplars", {})
        _write_slowlog(args.slowlog, exemplars)
        print(f"wrote {len(exemplars.get('slowest', []))} slowlog + "
              f"{len(exemplars.get('reservoir', []))} reservoir "
              f"exemplars to {args.slowlog}", file=sys.stderr)
    if args.profile:
        print(telemetry.render_profile(snap, title=title),
              file=profile_stream or sys.stdout)
    # The run's metrics are written: a later caller in this process
    # starts from an empty registry.
    telemetry.reset()


def _telemetry_abort(args, active: bool) -> None:
    """Close what :func:`_telemetry_begin` opened and empty the
    registry, writing no artifact: the run failed part-way."""
    from repro import telemetry

    if args.trace_out:
        telemetry.stop_recording()
    if args.log_jsonl:
        from repro import logging as repro_logging

        repro_logging.shutdown()
    if active:
        telemetry.disable()
        telemetry.reset()


def _cmd_simulate_genome(args) -> int:
    from repro.sequence import GenomeSimulator, write_fasta

    reference = GenomeSimulator(seed=args.seed).generate(args.length,
                                                         name=args.name)
    write_fasta(args.out, [reference])
    print(f"wrote {len(reference):,} bp to {args.out}")
    return 0


class _RefusedArgument(Exception):
    """A value a command refuses before doing any work; ``main`` reports
    it like a bad input file: one line, exit 2."""


def _single_reference(path: str):
    """The one record of the FASTA file at ``path``.  The CLI has no
    multi-contig coordinates (``MultiReference`` is library-only), so a
    file of several records is refused rather than cut to its first."""
    from repro.sequence import read_fasta

    records = read_fasta(path)
    if len(records) > 1:
        raise _RefusedArgument(
            f"{path}: holds {len(records)} FASTA records; the CLI takes a "
            f"single-sequence reference")
    return records[0]


def _index_config(**flags):
    """``ErtConfig(**flags)``, every field set by the flag of the same
    name; a value it rejects is refused naming that flag (``ErtConfig``'s
    messages open with the field)."""
    from repro.core import ErtConfig

    try:
        return ErtConfig(**flags)
    except ValueError as exc:
        field = str(exc).split()[0]
        named = (f"--{field.replace('_', '-')} {flags[field]}: "
                 if field in flags else "")
        raise _RefusedArgument(f"{named}{exc}") from None


def _check_min_seed_len(args, k: int) -> None:
    """Refuse a ``--min-seed-len`` below the index's ``k``: the ERT
    resolves k characters at once, so it cannot count shorter matches."""
    if args.min_seed_len < k:
        raise _RefusedArgument(
            f"--min-seed-len {args.min_seed_len}: below the index's k ({k}); "
            f"seeds must be at least k long")


def _cmd_simulate_reads(args) -> int:
    from repro.sequence import ReadSimulator, write_fastq

    reference = _single_reference(args.reference)
    sim = ReadSimulator(reference, read_length=args.read_length,
                        error_read_fraction=args.error_fraction,
                        seed=args.seed)
    reads = sim.simulate(args.count)
    write_fastq(args.out, reads)
    print(f"wrote {len(reads)} reads to {args.out}")
    return 0


def _cmd_build_index(args) -> int:
    from repro.core import build_ert, save_ert

    config = _index_config(k=args.k, max_seed_len=args.max_seed_len,
                           table_threshold=args.table_threshold,
                           table_x=args.table_x,
                           prefix_merging=args.prefix_merging)
    _check_writable(args.out)
    reference = _single_reference(args.reference)
    index = build_ert(reference, config)
    save_ert(index, args.out)
    sizes = index.index_bytes()
    print(f"built ERT (k={args.k}) over {len(reference):,} bp: "
          f"{sizes['total'] / 1024:.0f} KiB "
          f"(table {sizes['index_table'] / 1024:.0f}, "
          f"trees {sizes['trees'] / 1024:.0f}); saved to {args.out}")
    return 0


def _cmd_index_stats(args) -> int:
    from repro.core import hit_distribution, index_census, load_ert

    index = load_ert(args.index)
    census = index_census(index)
    print(f"reference      : {index.reference.name} "
          f"({len(index.reference):,} bp)")
    print(f"k              : {index.config.k} "
          f"({census.n_entries:,} entries)")
    print(f"entry kinds    : EMPTY {census.empty:,} "
          f"({census.empty_fraction * 100:.1f}%), LEAF {census.leaf:,}, "
          f"TREE {census.tree:,}, TABLE {census.table:,}")
    for key, value in census.index_bytes.items():
        print(f"bytes[{key:13s}]: {value:,}")
    print("hit distribution (k-mers with > X hits):")
    for threshold, count in hit_distribution(index):
        print(f"  > {threshold:5d}: {count:,}")
    return 0


# ----------------------------------------------------------------------
# The read-driven run: seed / align / align-pe
# ----------------------------------------------------------------------
#
# One skeleton (`_cmd_run`); a command is its scheduler task, its output
# header and body, what its summary counts and its summary line.  The SAM
# writers import `repro.extend` inside, so `seed` never loads it.


def _write_tsv_header(out, _reference) -> None:
    out.write("read\tstart\tlength\thit_count\thits\n")


def _write_lines(out, lines) -> None:
    out.write("".join(lines))


def _write_sam_header(out, reference) -> None:
    from repro.extend.sam import write_sam_header

    write_sam_header(out, reference)


def _write_sam_records(out, records) -> None:
    from repro.extend.sam import write_sam_records

    write_sam_records(out, records)


def _mapped(records) -> int:
    return sum(1 for rec in records if not rec.flag & 0x4)


def _proper(records) -> int:
    return sum(1 for rec in records if rec.flag & 0x2)


def _seed_summary(args, reads, seeds, stats) -> str:
    truncated = stats.truncated_hit_lists
    clipped = (f" ({truncated} hit lists truncated by "
               f"--max-hits {args.max_hits})" if truncated else "")
    return f"seeded {reads} reads -> {seeds} seeds{clipped}"


def _align_summary(args, reads, mapped, _stats) -> str:
    return f"aligned {reads} reads ({mapped} mapped) -> {args.out}"


def _align_pe_summary(args, reads, proper_mates, _stats) -> str:
    return (f"aligned {reads // 2} pairs ({proper_mates // 2} proper) -> "
            f"{args.out}")


#: command -> (header writer, batch writer, per-batch tally, summary).
_RUNS = {
    "seed": (_write_tsv_header, _write_lines, len, _seed_summary),
    "align": (_write_sam_header, _write_sam_records, _mapped,
              _align_summary),
    "align-pe": (_write_sam_header, _write_sam_records, _proper,
                 _align_pe_summary),
}


def _written_in_place(path: str) -> bool:
    """Whether output to ``path`` is written straight into it: it exists
    and is neither a regular file nor a directory -- a FIFO, or a device
    such as ``/dev/null``, or ``/dev/stdout`` on a pipe or terminal.
    ``os.stat`` follows the link, so this is decided on what ``path``
    names now; any other ``--out`` is written to a sibling temporary
    file."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return False
    return not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` that writing the output to ``path`` would,
    now rather than after the run has started: a FIFO or device must be
    writable; for a file, so must the (symlink-resolved) file if it
    exists and the directory the temporary file goes to.  Creates
    nothing: a run that fails later still leaves no output file."""
    if path == "-":
        return
    if _written_in_place(path):
        written = [path]
        directory = None
    else:
        target = os.path.realpath(path)
        directory = os.path.dirname(target)
        written = [target] if os.path.exists(target) else []
        written.append(directory)
    if os.path.isdir(path):
        code = errno.EISDIR
    elif directory is not None and not os.path.isdir(directory):
        code = errno.ENOENT
    elif not all(os.access(name, os.W_OK) for name in written):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


@contextlib.contextmanager
def _output(path: str):
    """The stream a run writes its output to.

    ``-`` is stdout, and a FIFO or device is opened and written in
    place: a run that fails mid-stream leaves what it wrote there.
    Anything else gets a sibling temporary file, renamed over the
    (symlink-resolved) path only when the block exits cleanly, so a
    failed run leaves neither a partial output nor the temporary file.
    """
    if path == "-":
        yield sys.stdout
        return
    if _written_in_place(path):
        with open(path, "w") as out:
            yield out
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    out = open(temp, "x")
    try:
        with out:
            if os.path.exists(target):
                os.chmod(temp, os.stat(target).st_mode & 0o7777)
            yield out
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


class _ReadStream:
    """The run's reads, refusing the first one longer than the index's
    ``max_seed_len`` (``limit``) when the stream reaches it; ``count``
    is how many it has passed on."""

    def __init__(self, reads, limit: int, path: str) -> None:
        self._reads = reads
        self._limit = limit
        self._path = path
        self.count = 0

    def __iter__(self):
        limit = self._limit
        for read in self._reads:
            if read.codes.size > limit:
                raise _RefusedArgument(
                    f"{self._path}: read {read.name!r} is "
                    f"{read.codes.size} bp, over the index's max_seed_len "
                    f"({limit}); rebuild the index with a larger "
                    f"--max-seed-len")
            self.count += 1
            yield read


def _cmd_run(args) -> int:
    """``seed`` / ``align`` / ``align-pe``: a pipeline of batches.

    A ``--reads`` that is a regular file has its records counted (on the
    raw bytes) before any output or telemetry sink opens; then reads are
    parsed ``--batch-size`` at a time as the scheduler asks for them and
    each merged batch is written at once, so the process holds one
    in-flight window, not the read set.  A ``--reads`` that can be read
    only once (a pipe, ``/dev/stdin``, a FIFO) is parsed whole up front
    instead.  A bad record found mid-stream ends the run (exit 2) after
    the batches before it were written -- to the temporary file of a
    file ``--out``, which is then removed, or in place to ``-``, a FIFO
    or a device.
    """
    from repro.core import load_ert
    from repro.parallel import map_reads
    from repro.seeding import SeedingParams
    from repro.seeding.engine import EngineStats
    from repro.sequence.io import count_fastq_records, iter_fastq, read_fastq

    write_header, write, tally, summary = _RUNS[args.command]
    _check_writable(args.out)
    index = load_ert(args.index)
    _check_min_seed_len(args, index.config.k)
    if os.path.isfile(args.reads):
        n_reads = count_fastq_records(args.reads)
        parsed = iter_fastq(args.reads, args.batch_size)
    else:
        parsed = read_fastq(args.reads)
        n_reads = len(parsed)
    if args.command == "align-pe" and n_reads % 2:
        print(f"ert-repro align-pe: {args.reads}: interleaved FASTQ must "
              f"hold an even read count, not {n_reads}", file=sys.stderr)
        return 2
    reads = _ReadStream(parsed, index.config.max_seed_len, args.reads)
    params = SeedingParams(min_seed_len=args.min_seed_len)
    if args.command == "seed":
        params = SeedingParams(min_seed_len=args.min_seed_len,
                               max_hits_per_seed=args.max_hits)
    pairs = ({"insert_mean": args.insert_mean, "insert_sd": args.insert_sd}
             if args.command == "align-pe" else {})
    active = _telemetry_begin(args)
    if args.process_exits:
        gc.freeze()
        gc.enable()
    stats = EngineStats()
    count = 0
    try:
        with _output(args.out) as out:
            write_header(out, index.reference)
            for payload, stat_delta in map_reads(
                    index, args.command, reads, params,
                    _parallel_config(args), **pairs):
                write(out, payload)
                count += tally(payload)
                stats.add_dict(stat_delta)
    except BaseException:
        _telemetry_abort(args, active)
        raise
    print(summary(args, reads.count, count, stats), file=sys.stderr)
    # With the output on stdout the profile must not corrupt it.
    _telemetry_finish(args, active,
                      title=f"{args.command} profile ({args.reads})",
                      profile_stream=sys.stderr if args.out == "-"
                      else sys.stdout)
    return 0


def _cmd_report(args) -> int:
    from repro import telemetry

    try:
        snap = telemetry.load_snapshot(args.metrics)
    except (OSError, ValueError) as exc:
        print(f"ert-repro report: cannot read --metrics {args.metrics}: "
              f"{exc}", file=sys.stderr)
        return 2
    print(telemetry.render_profile(snap, title=f"telemetry report "
                                               f"({args.metrics})"))
    return 0


def _explain_replay(args, read) -> "dict | None":
    """Replay ``read`` through the engine exactly as the batch scheduler
    would run it and return the captured exemplar record.

    Every replay seeds through :class:`ErtSeedingEngine` and extends
    through the default kernels (the packed extension, here at batch
    size 1).  A read's searches do not depend on its batch mates, and
    its extension counters do not depend on the kernels, so the
    replayed record matches what a full batch recorded for this read,
    under either ``--kernels``, field-for-field.
    """
    from repro import telemetry
    from repro.core import ErtSeedingEngine, load_ert
    from repro.parallel import ParallelConfig, map_batches, pack_batch
    from repro.seeding import SeedingParams

    # Mirror the CLI seeding path: the scheduler builds the engine with
    # its default gather limit and the per-seed hit cap rides in
    # SeedingParams.
    index = load_ert(args.index)
    _check_min_seed_len(args, index.config.k)
    engine = ErtSeedingEngine(index)
    if args.task == "seed":
        params = SeedingParams(min_seed_len=args.min_seed_len,
                               max_hits_per_seed=args.max_hits)
    else:
        params = SeedingParams(min_seed_len=args.min_seed_len)
    config = ParallelConfig(workers=1)
    telemetry.reset()
    telemetry.enable()
    try:
        # A one-read batch through the scheduler's own in-process
        # runner: the same capture hooks as the run that wrote the
        # record.
        list(map_batches(("local", engine), args.task,
                         {"params": params, "kernels": config.kernels},
                         [pack_batch([read])], config))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
    slowest = snap.get("exemplars", {}).get("slowest", [])
    return slowest[0] if slowest else None


def _load_slowlog_entry(path, read_id: str, task: str) -> "dict | None":
    import json

    entry = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not a slowlog record: " + line[:40])
            if record.get("read_id") == read_id and \
                    record.get("task") == task:
                entry = record
    return entry


def _cmd_explain(args) -> int:
    import json

    from repro.sequence import read_fastq

    reads = [r for r in read_fastq(args.reads) if r.name == args.read_id]
    if not reads:
        print(f"read {args.read_id!r} not found in {args.reads}",
              file=sys.stderr)
        return 2
    # Read the slowlog before the replay: a bad file exits 2 at once.
    try:
        recorded = (_load_slowlog_entry(args.slowlog, args.read_id,
                                        args.task)
                    if args.slowlog else None)
    except (OSError, ValueError) as exc:
        print(f"ert-repro explain: cannot read --slowlog {args.slowlog}: "
              f"{exc}", file=sys.stderr)
        return 2
    rec = _explain_replay(args, reads[0])
    if rec is None:
        print("replay recorded no exemplar (telemetry disabled?)",
              file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(rec, sort_keys=True))
    else:
        counters = rec.get("counters", {})
        print(f"read {rec['read_id']} ({rec['task']}): "
              f"{rec['wall_ms']:.3f} ms replayed wall time")
        width = max([len(k) for k in counters] or [7])
        for name, value in sorted(counters.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            print(f"  {name.ljust(width)}  {value:,}")
    if not args.slowlog:
        return 0
    if recorded is None:
        print(f"no {rec['task']} entry for {args.read_id!r} in "
              f"{args.slowlog}", file=sys.stderr)
        return 2
    mismatches = []
    replayed = rec.get("counters", {})
    for name in sorted(set(replayed) | set(recorded.get("counters", {}))):
        want = recorded.get("counters", {}).get(name, 0)
        got = replayed.get(name, 0)
        if want != got:
            mismatches.append(f"  {name}: recorded {want:,} != "
                              f"replayed {got:,}")
    if mismatches:
        print(f"counter mismatch against {args.slowlog}:",
              file=sys.stderr)
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    print(f"replay matches the slowlog record exactly "
          f"({len(replayed)} counters; recorded wall "
          f"{recorded['wall_ms']:.3f} ms)", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis import format_table, measure_traffic
    from repro.seeding import SeedingParams
    from repro.sequence import read_fastq

    config = _index_config(k=args.k)
    _check_min_seed_len(args, config.k)
    reference = _single_reference(args.reference)
    reads = [r.codes for r in read_fastq(args.reads)]
    params = SeedingParams(min_seed_len=args.min_seed_len)
    active = _telemetry_begin(args)
    rows = []
    profiles = {}
    for name, engine, size in _comparison_engines(reference, config):
        profile = measure_traffic(engine, reads, params, name=name)
        profiles[name] = profile
        rows.append([name, profile.requests_per_read, profile.kb_per_read,
                     size / 1024])
    print(format_table(
        ["config", "mem requests/read", "KB/read", "index KiB"], rows,
        title=f"FMD vs ERT memory traffic over {len(reads)} reads "
              f"(paper Fig 12)"))
    ratio = (profiles["BWA-MEM2 (FMD)"].bytes_per_read
             / profiles["ERT"].bytes_per_read)
    print(f"\nERT data-efficiency gain: {ratio:.1f}x "
          f"(paper: 4.5x at human scale)")
    _telemetry_finish(args, active,
                      title=f"compare profile ({args.reads})",
                      profile_stream=sys.stderr)
    return 0


def _comparison_engines(reference, config):
    from repro.core import ErtSeedingEngine, build_ert
    from repro.fmindex import FmdConfig, FmdIndex, FmdSeedingEngine

    fmd_index = FmdIndex(reference, FmdConfig.bwa_mem2())
    ert_index = build_ert(reference, config)
    return [
        ("BWA-MEM2 (FMD)", FmdSeedingEngine(fmd_index),
         fmd_index.index_bytes()["total"]),
        ("ERT", ErtSeedingEngine(ert_index),
         ert_index.index_bytes()["total"]),
    ]


_COMMANDS = {
    "simulate-genome": _cmd_simulate_genome,
    "simulate-reads": _cmd_simulate_reads,
    "build-index": _cmd_build_index,
    "index-stats": _cmd_index_stats,
    "seed": _cmd_run,
    "align": _cmd_run,
    "align-pe": _cmd_run,
    "report": _cmd_report,
    "explain": _cmd_explain,
    "compare": _cmd_compare,
}


def _input_errors() -> tuple:
    """What a bad input ends in: a malformed index / FASTA / FASTQ, one
    that cannot be opened, or a refused argument.  ``main``'s ``except``
    clause calls this, i.e. only once something was raised, so the
    modules defining the types are no start-up cost."""
    from repro.core.io import IndexFormatError
    from repro.sequence.alphabet import AlphabetError
    from repro.sequence.io import FastaError

    return (IndexFormatError, FastaError, AlphabetError, OSError,
            _RefusedArgument)


def main(argv: "list[str] | None" = None) -> int:
    own_command_line = argv is None
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _DELEGATED:
        module = importlib.import_module(_DELEGATED[argv[0]][0])
        return module.main(argv[1:])
    if own_command_line:
        gc.disable()
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    args.process_exits = own_command_line
    if own_command_line and _COMMANDS[args.command] is not _cmd_run:
        gc.enable()
    try:
        return _COMMANDS[args.command](args)
    except _input_errors() as exc:
        # Whatever subcommand touched the file: one line, no traceback.
        message = (f"{exc.filename}: {exc.strerror}"
                   if isinstance(exc, OSError) and exc.filename is not None
                   else str(exc))
        print(f"ert-repro {args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
