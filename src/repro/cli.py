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
  (:mod:`repro.checks`, see docs/static_analysis.md);
* ``ledger``       -- record benchmark runs and gate on throughput
  regressions (:mod:`repro.ledger`, see docs/observability.md).

``check`` and ``ledger`` are handed, before any parser is built, to the
``main(argv)`` of :mod:`repro.checks.cli` / :mod:`repro.ledger.cli`;
this module imports neither package.

``seed``, ``align`` and ``align-pe`` are one run path (:func:`_cmd_run`):
load the index, parse the reads, call the :mod:`repro.parallel` entry
point, write, print a summary line.  They and ``compare`` take
``--profile`` (print a per-stage wall-clock/counter report),
``--metrics-out FILE`` (write the full telemetry snapshot as JSON, the
input of ``report`` and ``ledger record --metrics``),
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
SEC``; see the failure model in ``docs/performance.md``.  ``--kernels vector`` (default
``$REPRO_KERNELS``, else scalar) routes seeding through the batched
numpy kernels (:mod:`repro.kernels`) with byte-identical output.

A malformed, missing or unreadable index, FASTA or FASTQ file, a FASTA
of more than one record, an index parameter ``ErtConfig`` rejects
(``--k``, ``--max-seed-len``, ``--table-threshold``, ``--table-x``), an
``--out`` that cannot be written (checked before the compute starts), a
bad ``$REPRO_KERNELS`` -- and a missing or malformed ``report
--metrics`` / ``explain --slowlog`` file -- ends in one ``ert-repro
<command>: <message>`` line on stderr and exit status 2.

Every subcommand is a thin shell over the library API, so everything it
does is equally available programmatically.

When :func:`main` runs the process's own command line (no ``argv``:
``python -m repro.cli``, the ``ert-repro`` script), the process ends
with the command, so ``seed`` / ``align`` / ``align-pe`` freeze the
start-up heap (``gc.freeze``) once the index and reads are loaded: the
run, its forked workers and the interpreter's exit stop re-scanning the
numpy and repro modules' objects.  A call with an ``argv`` list leaves
the caller's collector as it found it.

Start-up is paid on every invocation, so this module imports only what
:func:`build_parser` needs; each handler imports what it runs
(``ert-repro --help`` loads no numpy, a ``seed`` run no extension
layer, a one-worker run no pool -- ``tests/test_cli.py`` holds the
list).
"""

from __future__ import annotations

import argparse
import errno
import importlib
import os
import sys

from repro.kernels import KERNEL_CHOICES, resolve_kernels

#: Subcommands that live in their own module: ``main`` hands them the
#: rest of the command line before building this module's parser, so a
#: read-driven run never imports the linter or the ledger.
_DELEGATED = {
    "check": ("repro.checks.cli",
              "run the repo's static-analysis rules (non-zero exit on "
              "violations)"),
    "ledger": ("repro.ledger.cli",
               "record benchmark runs and gate on throughput regressions "
               "(non-zero exit on a regression)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ert-repro",
        description="Enumerated Radix Tree seeding (ISCA 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim_g = sub.add_parser("simulate-genome",
                           help="generate a repeat-rich synthetic genome")
    sim_g.add_argument("--length", type=int, required=True)
    sim_g.add_argument("--seed", type=int, default=0)
    sim_g.add_argument("--name", default="synthetic")
    sim_g.add_argument("--out", required=True)

    sim_r = sub.add_parser("simulate-reads",
                           help="sample Illumina-like reads from a FASTA")
    sim_r.add_argument("--reference", required=True)
    sim_r.add_argument("--count", type=int, required=True)
    sim_r.add_argument("--read-length", type=int, default=101)
    sim_r.add_argument("--error-fraction", type=float, default=0.2)
    sim_r.add_argument("--seed", type=int, default=0)
    sim_r.add_argument("--out", required=True)

    build = sub.add_parser("build-index", help="build and persist an ERT")
    build.add_argument("--reference", required=True)
    build.add_argument("--k", type=int, default=8)
    build.add_argument("--max-seed-len", type=int, default=151)
    build.add_argument("--table-threshold", type=int, default=256)
    build.add_argument("--table-x", type=int, default=4)
    build.add_argument("--prefix-merging", action="store_true")
    build.add_argument("--out", required=True)

    stats = sub.add_parser("index-stats", help="census of a persisted ERT")
    stats.add_argument("--index", required=True)

    seed = sub.add_parser("seed", help="seed reads, one TSV line per seed")
    seed.add_argument("--index", required=True)
    seed.add_argument("--reads", required=True)
    _add_seeding_args(seed, max_hits=True)
    seed.add_argument("--out", default="-")
    _add_telemetry_args(seed)
    _add_parallel_args(seed)

    align = sub.add_parser("align", help="align reads to SAM")
    align.add_argument("--index", required=True)
    align.add_argument("--reads", required=True)
    _add_seeding_args(align)
    align.add_argument("--out", required=True)
    _add_telemetry_args(align)
    _add_parallel_args(align)

    align_pe = sub.add_parser(
        "align-pe", help="align interleaved paired-end reads to SAM")
    align_pe.add_argument("--index", required=True)
    align_pe.add_argument("--reads", required=True,
                          help="interleaved FASTQ (mate1, mate2, ...)")
    _add_seeding_args(align_pe)
    align_pe.add_argument("--insert-mean", type=int, default=350)
    align_pe.add_argument("--insert-sd", type=int, default=50)
    align_pe.add_argument("--out", required=True)
    _add_telemetry_args(align_pe)
    _add_parallel_args(align_pe)

    report = sub.add_parser(
        "report", help="render a saved telemetry snapshot (--metrics-out "
                       "file) as a per-stage profile")
    report.add_argument("--metrics", required=True,
                        help="JSON file written by --metrics-out")

    explain = sub.add_parser(
        "explain",
        help="replay one read from a FASTQ through the serial engine "
             "with full instrumentation and print where its time went")
    explain.add_argument("--index", required=True)
    explain.add_argument("--reads", required=True,
                         help="FASTQ holding the read to replay")
    explain.add_argument("--read-id", required=True,
                         help="read name as shown in the slowlog / "
                              "exemplar tables")
    explain.add_argument("--task", choices=("seed", "align"),
                         default="seed")
    explain.add_argument("--kernels", choices=("scalar", "vector"),
                         default=None,
                         help="replay through the scalar engine or the "
                              "batched vector kernels; defaults to "
                              "whatever the slowlog record says the run "
                              "used (else scalar)")
    _add_seeding_args(explain, max_hits=True)
    explain.add_argument(
        "--slowlog", default=None, metavar="FILE",
        help="cross-check the replayed counters against this slowlog's "
             "recorded entry for the read (non-zero exit on mismatch)")
    explain.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the replayed record as JSON instead "
                              "of tables")

    compare = sub.add_parser(
        "compare",
        help="measure FMD vs ERT memory traffic on a read set (Fig 12)")
    compare.add_argument("--reference", required=True)
    compare.add_argument("--reads", required=True)
    compare.add_argument("--k", type=int, default=8)
    _add_seeding_args(compare)
    _add_telemetry_args(compare)

    # Listed for ``ert-repro --help`` only; ``main`` never parses them.
    for name, (_module, summary) in _DELEGATED.items():
        sub.add_parser(name, help=summary, add_help=False)
    return parser


def _add_seeding_args(parser, max_hits: bool = False) -> None:
    parser.add_argument("--min-seed-len",
                        type=_positive_int("--min-seed-len"), default=19)
    if max_hits:
        parser.add_argument("--max-hits", type=_positive_int("--max-hits"),
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


def _positive_int(label):
    """Argparse type factory: an int that must be >= 1, with an error
    message naming the option (rejected at parse time rather than
    silently clamped deep inside ``ParallelConfig``)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be an integer, got {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{label} must be >= 1, got {value}")
        return value
    return parse


def _nonnegative_int(label):
    """Argparse type for an int >= 0 (retry budgets: 0 = fail fast)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be an integer, got {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"{label} must be >= 0, got {value}")
        return value
    return parse


def _positive_float(label):
    """Argparse type for a float that must be > 0 (timeouts)."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} must be a number, got {text!r}")
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"{label} must be > 0, got {value}")
        return value
    return parse


def _add_parallel_args(parser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int("--workers"), default=None,
        metavar="N",
        help="worker processes for the batch scheduler (default: "
             "$REPRO_WORKERS, else 1 = in-process); output is "
             "byte-identical at any count")
    parser.add_argument(
        "--batch-size", type=_positive_int("--batch-size"), default=64,
        metavar="M",
        help="reads per scheduler batch (default 64)")
    parser.add_argument(
        "--retries", type=_nonnegative_int("--retries"), default=None,
        metavar="R",
        help="per-batch retry budget after a worker crash or batch "
             "timeout (default: $REPRO_RETRIES, else 2; 0 = fail on "
             "first fault)")
    parser.add_argument(
        "--batch-timeout", type=_positive_float("--batch-timeout"),
        default=None, metavar="SEC",
        help="seconds to wait for one batch before killing and "
             "respawning the pool (default: wait forever)")
    parser.add_argument(
        "--kernels", choices=KERNEL_CHOICES, default=None,
        help="seeding/extension kernels: scalar (the per-read oracle) "
             "or vector (batched numpy walks + row-scan SW "
             "traceback; byte-identical output).  Default: "
             "$REPRO_KERNELS, else "
             "scalar")


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
# One skeleton (`_cmd_run`); a command is its scheduler entry point, its
# output writer and its summary line.  Each entry imports its own layer,
# so `seed` never loads the extension code.


def _seed_entry(args, index, reads, config):
    from repro.parallel import seed_reads
    from repro.seeding import SeedingParams

    params = SeedingParams(min_seed_len=args.min_seed_len,
                           max_hits_per_seed=args.max_hits)
    return seed_reads(index, reads, params, config=config)


def _align_entry(args, index, reads, config):
    from repro.parallel import align_reads
    from repro.seeding import SeedingParams

    return align_reads(index, reads,
                       SeedingParams(min_seed_len=args.min_seed_len),
                       config=config)


def _align_pe_entry(args, index, reads, config):
    from repro.parallel import align_pairs
    from repro.seeding import SeedingParams

    return align_pairs(index, reads,
                       SeedingParams(min_seed_len=args.min_seed_len),
                       insert_mean=args.insert_mean,
                       insert_sd=args.insert_sd, config=config)


def _write_tsv(path, _reference, lines) -> None:
    out = sys.stdout if path == "-" else open(path, "w")
    try:
        out.write("read\tstart\tlength\thit_count\thits\n")
        out.writelines(lines)
    finally:
        if out is not sys.stdout:
            out.close()


def _write_sam(path, reference, records) -> None:
    from repro.extend import write_sam

    write_sam(path, reference, records)


def _seed_summary(args, reads, lines, stats) -> str:
    truncated = stats.truncated_hit_lists
    clipped = (f" ({truncated} hit lists truncated by "
               f"--max-hits {args.max_hits})" if truncated else "")
    return f"seeded {len(reads)} reads -> {len(lines)} seeds{clipped}"


def _align_summary(args, reads, records, _stats) -> str:
    mapped = sum(1 for rec in records if not rec.flag & 0x4)
    return f"aligned {len(reads)} reads ({mapped} mapped) -> {args.out}"


def _align_pe_summary(args, reads, records, _stats) -> str:
    proper = sum(1 for rec in records if rec.flag & 0x2) // 2
    return (f"aligned {len(reads) // 2} pairs ({proper} proper) -> "
            f"{args.out}")


_RUNS = {
    "seed": (_seed_entry, _write_tsv, _seed_summary),
    "align": (_align_entry, _write_sam, _align_summary),
    "align-pe": (_align_pe_entry, _write_sam, _align_pe_summary),
}


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` that opening ``path`` for writing would,
    now rather than after the whole run has been computed.  Creates
    nothing: a run that fails later still leaves no output file."""
    if path == "-":
        return
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else directory,
                       os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _cmd_run(args) -> int:
    from repro.core import load_ert
    from repro.sequence import read_fastq

    entry, write, summary = _RUNS[args.command]
    _check_writable(args.out)
    index = load_ert(args.index)
    _check_min_seed_len(args, index.config.k)
    reads = read_fastq(args.reads)
    limit = index.config.max_seed_len
    too_long = next((r for r in reads if r.codes.size > limit), None)
    if too_long is not None:
        print(f"ert-repro {args.command}: {args.reads}: read "
              f"{too_long.name!r} is {too_long.codes.size} bp, over the "
              f"index's max_seed_len ({limit}); rebuild the index with a "
              f"larger --max-seed-len", file=sys.stderr)
        return 2
    if args.command == "align-pe" and len(reads) % 2:
        print(f"ert-repro align-pe: {args.reads}: interleaved FASTQ must "
              f"hold an even read count, not {len(reads)}", file=sys.stderr)
        return 2
    active = _telemetry_begin(args)
    if args.process_exits:
        import gc

        gc.freeze()
    results, stats = entry(args, index, reads, _parallel_config(args))
    write(args.out, index.reference, results)
    print(summary(args, reads, results, stats), file=sys.stderr)
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


def _explain_replay(args, read, kernels: str = "scalar") -> "dict | None":
    """Replay ``read`` through the engine exactly as the batch scheduler
    would run it and return the captured exemplar record.

    ``kernels="vector"`` drives the arena seeding engine and the packed
    extension at batch size 1; a read's searches do not depend on its
    batch mates, so its kernel counters are batch-composition invariant
    and the replayed record matches what a full vector batch recorded
    for this read field-for-field.
    """
    from repro import telemetry
    from repro.core import ErtSeedingEngine, load_ert
    from repro.parallel import ParallelConfig, map_batches, pack_batch
    from repro.seeding import SeedingParams

    # Mirror the CLI seeding path: the scheduler builds the engine with
    # gather_limit=500 and the per-seed hit cap rides in SeedingParams.
    index = load_ert(args.index)
    _check_min_seed_len(args, index.config.k)
    engine = ErtSeedingEngine(index, gather_limit=500)
    if args.task == "seed":
        params = SeedingParams(min_seed_len=args.min_seed_len,
                               max_hits_per_seed=args.max_hits)
    else:
        params = SeedingParams(min_seed_len=args.min_seed_len)
    telemetry.reset()
    telemetry.enable()
    try:
        # A one-read batch through the scheduler's own in-process
        # runner: the same capture hooks, and (vector) the same packed
        # extension path, as the run that wrote the record.
        list(map_batches(("local", engine), args.task,
                         {"params": params, "kernels": kernels},
                         [pack_batch([read])], ParallelConfig(workers=1)))
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
    # Peek at the slowlog record first: when the run used the vector
    # kernels the record says so, and the replay must go through the
    # same path for the counters to be comparable.  Without a slowlog
    # to consult, fall back to the usual $REPRO_KERNELS resolution so
    # an explain run in a vector environment replays vector.
    try:
        recorded = (_load_slowlog_entry(args.slowlog, args.read_id,
                                        args.task)
                    if args.slowlog else None)
    except (OSError, ValueError) as exc:
        print(f"ert-repro explain: cannot read --slowlog {args.slowlog}: "
              f"{exc}", file=sys.stderr)
        return 2
    kernels = (args.kernels or (recorded or {}).get("kernels")
               or resolve_kernels())
    rec = _explain_replay(args, reads[0], kernels=kernels)
    if rec is None:
        print("replay recorded no exemplar (telemetry disabled?)",
              file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(rec, sort_keys=True))
    else:
        counters = rec.get("counters", {})
        mode = rec.get("kernels", "scalar")
        print(f"read {rec['read_id']} ({rec['task']}, {mode} kernels): "
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
    args = build_parser().parse_args(argv)
    args.process_exits = own_command_line
    try:
        if hasattr(args, "kernels"):
            # A bad $REPRO_KERNELS is refused like a bad --kernels.
            resolve_kernels(args.kernels)
    except ValueError as exc:
        print(f"ert-repro {args.command}: {exc}", file=sys.stderr)
        return 2
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
