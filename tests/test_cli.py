"""End-to-end CLI tests (the index-once / align-many workflow)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the whole CLI workflow once; individual tests inspect it."""
    root = tmp_path_factory.mktemp("cli")
    ref = root / "ref.fa"
    reads = root / "reads.fq"
    index = root / "index.npz"
    assert main(["simulate-genome", "--length", "3000", "--seed", "5",
                 "--out", str(ref)]) == 0
    assert main(["simulate-reads", "--reference", str(ref), "--count", "12",
                 "--read-length", "60", "--seed", "6",
                 "--out", str(reads)]) == 0
    assert main(["build-index", "--reference", str(ref), "--k", "5",
                 "--max-seed-len", "100", "--out", str(index)]) == 0
    return root, ref, reads, index


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulated_files_exist(workspace):
    _root, ref, reads, index = workspace
    assert ref.read_text().startswith(">")
    assert reads.read_text().startswith("@")
    assert index.stat().st_size > 0


def test_index_stats(workspace, capsys):
    _root, _ref, _reads, index = workspace
    assert main(["index-stats", "--index", str(index)]) == 0
    out = capsys.readouterr().out
    assert "entry kinds" in out
    assert "hit distribution" in out


def test_seed_tsv(workspace, capsys):
    root, _ref, reads, index = workspace
    out_path = root / "seeds.tsv"
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "read\tstart\tlength\thit_count\thits"
    assert len(lines) > 12  # at least one seed per read on average
    for line in lines[1:]:
        name, start, length, count, _hits = line.split("\t")
        assert int(length) >= 12
        assert int(count) >= 1


def test_seed_to_stdout(workspace, capsys):
    _root, _ref, reads, index = workspace
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("read\t")


def test_align_sam(workspace):
    root, _ref, reads, index = workspace
    sam = root / "out.sam"
    assert main(["align", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(sam)]) == 0
    lines = sam.read_text().splitlines()
    assert lines[0].startswith("@HD")
    body = [line for line in lines if not line.startswith("@")]
    assert len(body) == 12
    mapped = [line for line in body
              if not int(line.split("\t")[1]) & 0x4]
    assert len(mapped) >= 10


def test_align_pe(workspace, tmp_path):
    """Interleaved paired-end alignment through the CLI."""
    from repro.sequence import GenomeSimulator, write_fastq
    from repro.sequence.simulate import PairedReadSimulator
    from repro.sequence.io import read_fasta

    root, ref_path, _reads, index = workspace
    ref = read_fasta(ref_path)[0]
    pairs = PairedReadSimulator(ref, read_length=60, insert_mean=250,
                                insert_sd=20, seed=7).simulate(6)
    interleaved = []
    for pair in pairs:
        interleaved.extend([pair.first, pair.second])
    fq = tmp_path / "pairs.fq"
    write_fastq(fq, interleaved)
    sam = tmp_path / "pe.sam"
    assert main(["align-pe", "--index", str(index), "--reads", str(fq),
                 "--min-seed-len", "12", "--insert-mean", "250",
                 "--insert-sd", "20", "--out", str(sam)]) == 0
    body = [line for line in sam.read_text().splitlines()
            if not line.startswith("@")]
    assert len(body) == 12
    flags = [int(line.split("\t")[1]) for line in body]
    assert all(flag & 0x1 for flag in flags)  # paired
    assert any(flag & 0x2 for flag in flags)  # some proper pairs


def test_align_pe_rejects_odd_count(workspace, tmp_path, capsys):
    """A malformed input like any other: one line, exit 2, and refused
    before anything is opened -- no output, no ``--log-jsonl`` sink."""
    root, _ref, _reads, index = workspace
    fq = tmp_path / "odd.fq"
    fq.write_text("@r1\nACGTACGTACGT\n+\nIIIIIIIIIIII\n")
    sam, log = tmp_path / "x.sam", tmp_path / "log.jsonl"
    assert main(["align-pe", "--index", str(index), "--reads", str(fq),
                 "--out", str(sam), "--log-jsonl", str(log)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"ert-repro align-pe: {fq}: ")
    assert "even read count" in err[0]
    assert not sam.exists() and not log.exists()


def test_compare(workspace, capsys):
    _root, ref, reads, _index = workspace
    assert main(["compare", "--reference", str(ref), "--reads", str(reads),
                 "--k", "5", "--min-seed-len", "12"]) == 0
    out = capsys.readouterr().out
    assert "KB/read" in out
    assert "data-efficiency gain" in out


def test_compare_takes_no_scheduler_flags(workspace, capsys):
    """``compare`` traces reads in-process, one engine at a time: a
    scheduler flag is an argparse error, not a silently ignored one."""
    _root, ref, reads, _index = workspace
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", "--reference", str(ref), "--reads", str(reads),
              "--workers", "2"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_workers_flag_rejects_zero_and_negative(workspace, capsys):
    _root, _ref, reads, index = workspace
    for bad in ("0", "-2", "abc"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["seed", "--index", str(index), "--reads", str(reads),
                 "--out", "-", "--workers", bad])
        assert "--workers" in capsys.readouterr().err


def test_batch_size_flag_rejects_nonpositive(workspace, capsys):
    _root, _ref, reads, index = workspace
    for bad in ("0", "-64", "x"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["seed", "--index", str(index), "--reads", str(reads),
                 "--out", "-", "--batch-size", bad])
        assert "--batch-size" in capsys.readouterr().err


def test_retry_flags_validate(workspace, capsys):
    _root, _ref, reads, index = workspace
    args = build_parser().parse_args(
        ["seed", "--index", str(index), "--reads", str(reads),
         "--out", "-", "--retries", "0", "--batch-timeout", "1.5"])
    assert args.retries == 0
    assert args.batch_timeout == 1.5
    for flag, bad in (("--retries", "-1"), ("--retries", "two"),
                      ("--batch-timeout", "0"), ("--batch-timeout", "-3")):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["seed", "--index", str(index), "--reads", str(reads),
                 "--out", "-", flag, bad])
        assert flag in capsys.readouterr().err


def _seeding_argv(command, workspace, out, log):
    """A run of ``command`` on the workspace that opens ``out`` and the
    ``--log-jsonl`` sink ``log`` where the command has them."""
    from repro.sequence import read_fastq

    _root, ref, reads, index = workspace
    if command == "compare":
        return ["compare", "--reference", str(ref), "--reads", str(reads),
                "--k", "5", "--log-jsonl", str(log)]
    if command == "explain":
        return ["explain", "--index", str(index), "--reads", str(reads),
                "--read-id", read_fastq(reads)[0].name]
    return [command, "--index", str(index), "--reads", str(reads),
            "--out", str(out), "--log-jsonl", str(log)]


@pytest.mark.parametrize("command", ["seed", "align", "align-pe",
                                     "explain", "compare"])
def test_seeding_flags_reject_nonpositive(workspace, tmp_path, capsys,
                                          command):
    """``--max-hits -1`` used to clip every hit list and ``--min-seed-len
    0`` to end in a traceback: both are argparse errors naming the flag."""
    argv = _seeding_argv(command, workspace, tmp_path / "out",
                         tmp_path / "log.jsonl")
    flags = ["--min-seed-len"]
    if command in ("seed", "explain"):
        flags.append("--max-hits")
    for flag in flags:
        for bad in ("0", "-1", "x"):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + [flag, bad])
            assert exit_info.value.code == 2
            assert f"argument {flag}: {flag} must be" in \
                capsys.readouterr().err


@pytest.mark.parametrize("command", ["seed", "align", "align-pe",
                                     "explain", "compare"])
def test_min_seed_len_below_k_is_one_line_and_exit_two(workspace, tmp_path,
                                                        capsys, command):
    """Below the index's k (5 here) LAST cannot count a match: refused
    naming the flag and k before telemetry opens -- not a ``ValueError``
    traceback, and no output or log file."""
    out, log = tmp_path / "out", tmp_path / "log.jsonl"
    argv = _seeding_argv(command, workspace, out, log)
    assert main(argv + ["--min-seed-len", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ert-repro {command}: --min-seed-len 4: below "
                            f"the index's k (5); seeds must be at least k "
                            f"long\n")
    assert not out.exists() and not log.exists()
    try:
        assert main(argv + ["--min-seed-len", "5"]) == 0
    finally:
        from repro import telemetry

        telemetry.reset()  # explain replays with metrics on


def test_repro_workers_garbage_values(workspace, monkeypatch, capsys):
    """Garbage in $REPRO_WORKERS must not break a run: "abc" warns and
    runs serial; "-3" clamps to 1 worker."""
    _root, _ref, reads, index = workspace
    monkeypatch.setenv("REPRO_WORKERS", "abc")
    with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
        assert main(["seed", "--index", str(index), "--reads", str(reads),
                     "--min-seed-len", "12", "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("read\t")
    monkeypatch.setenv("REPRO_WORKERS", "-3")
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("read\t")


def test_seed_output_matches_library(workspace):
    """The CLI must produce exactly what the library produces."""
    from repro.core import ErtSeedingEngine, load_ert
    from repro.seeding import SeedingParams, seed_read
    from repro.sequence import read_fastq

    root, _ref, reads_path, index_path = workspace
    out_path = root / "seeds2.tsv"
    main(["seed", "--index", str(index_path), "--reads", str(reads_path),
          "--min-seed-len", "12", "--out", str(out_path)])

    engine = ErtSeedingEngine(load_ert(index_path))
    params = SeedingParams(min_seed_len=12)
    expected = []
    for read in read_fastq(reads_path):
        for seed in seed_read(engine, read.codes, params).all_seeds:
            expected.append((read.name, seed.read_start, seed.length,
                             seed.hit_count))
    got = []
    for line in out_path.read_text().splitlines()[1:]:
        name, start, length, count, _ = line.split("\t")
        got.append((name, int(start), int(length), int(count)))
    assert got == expected


def test_build_index_writes_exactly_the_path_it_reports(workspace, capsys):
    """``--out idx`` (no ``.npz``) must create ``idx`` -- numpy's savez
    used to append the suffix, so the reported path did not exist."""
    root, ref, reads, _index = workspace
    bare = root / "idx"
    assert main(["build-index", "--reference", str(ref), "--k", "5",
                 "--max-seed-len", "100", "--out", str(bare)]) == 0
    assert f"saved to {bare}" in capsys.readouterr().out
    assert bare.is_file() and not (root / "idx.npz").exists()
    assert main(["seed", "--index", str(bare), "--reads", str(reads),
                 "--min-seed-len", "12",
                 "--out", str(root / "seeds-bare.tsv")]) == 0


@pytest.mark.parametrize("command", ["seed", "align", "align-pe",
                                     "index-stats"])
def test_damaged_index_is_one_line_and_a_nonzero_exit(workspace, tmp_path,
                                                      capsys, command):
    """Cut short, written by an earlier build (no reader is kept for
    version 2: rebuild), or carrying an arena column of another width."""
    _root, _ref, reads, index = workspace
    raw = index.read_bytes()
    with np.load(index) as archive:
        members = {name: archive[name] for name in archive.files}
    meta = json.loads(members["meta_json"].tobytes())
    assert meta["format_version"] == 3
    old = np.frombuffer(json.dumps({**meta, "format_version": 2}).encode(),
                        dtype=np.uint8)
    damaged = {"cut.npz": None, "v2.npz": {"meta_json": old},
               "wide.npz": {"arena_count":
                            members["arena_count"].astype(np.int64)}}
    for name, changes in damaged.items():
        bad = tmp_path / name
        if changes is None:
            bad.write_bytes(raw[:len(raw) // 2])
        else:
            np.savez(bad, **{**members, **changes})
        argv = [command, "--index", str(bad)]
        if command != "index-stats":
            argv += ["--reads", str(reads), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"ert-repro {command}: {bad}: ")
        assert "Traceback" not in captured.err
        assert ("rebuild the index with build-index" in captured.err) \
            == (name == "v2.npz")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["seed", "align", "align-pe"])
@pytest.mark.parametrize("text", [
    "@\nACGTACGTACGT\n+\nIIIIIIIIIIII\n",            # bare '@' header
    "@r1\nACGTACGTACGT\n+\n",                         # 3-line record
    "@r1\nACGTNCGTACGT\n+\nIIIIIIIIIIII\n",          # N in a read
], ids=["bare-at", "three-lines", "non-acgt"])
def test_malformed_reads_are_one_line_and_exit_two(workspace, tmp_path,
                                                   capsys, command, text):
    _root, _ref, _reads, index = workspace
    bad = tmp_path / "bad.fq"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--index", str(index), "--reads", str(bad),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"ert-repro {command}: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kernels", ["scalar", "vector"])
@pytest.mark.parametrize("command", ["seed", "align"])
def test_read_over_max_seed_len_is_one_line_and_exit_two(
        workspace, tmp_path, capsys, command, kernels, workers):
    """A read the index cannot hold (longer than its ``max_seed_len``,
    100 here) is refused before any batch runs: not a ``ValueError``
    traceback from the engine, nor a ``BatchTaskError`` chain from a
    pool worker."""
    _root, _ref, reads, index = workspace
    bad = tmp_path / "long.fq"
    bad.write_text(reads.read_text()
                   + f"@toolong\n{'ACGT' * 30}\n+\n{'I' * 120}\n")
    out = tmp_path / "out"
    assert main([command, "--index", str(index), "--reads", str(bad),
                 "--kernels", kernels, "--workers", workers,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"ert-repro {command}: {bad}: ")
    assert "'toolong' is 120 bp" in captured.err
    assert "max_seed_len (100)" in captured.err
    assert not out.exists()


def test_sequence_before_first_fasta_header_is_a_typed_error(tmp_path,
                                                             capsys):
    bad = tmp_path / "bad.fa"
    bad.write_text("ACGT\n>late\nACGT\n")
    out = tmp_path / "idx.npz"
    assert main(["build-index", "--reference", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("ert-repro build-index: sequence data before first "
                   "FASTA header\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, named", [
    ("build-index", ["--k", "20"], "--k 20: "),
    ("build-index", ["--k", "1"], "--k 1: "),
    ("build-index", ["--k", "6", "--max-seed-len", "400"],
     "--max-seed-len 400: "),
    ("build-index", ["--k", "6", "--max-seed-len", "6"], "--max-seed-len 6: "),
    ("build-index", ["--table-x", "0"], "--table-x 0: "),
    ("build-index", ["--table-threshold", "1"], "--table-threshold 1: "),
    ("compare", ["--k", "20"], "--k 20: "),
], ids=["k-20", "k-1", "span-over-255", "span-0", "table-x-0",
        "table-threshold-1", "compare-k-20"])
def test_bad_index_parameter_is_one_line_naming_the_flag(
        workspace, tmp_path, capsys, monkeypatch, command, flags, named):
    """Not a ``ValueError`` traceback from ``ErtConfig``: refused before
    the reference is read or anything is built."""
    _root, ref, reads, _index = workspace
    import repro.core

    def refuse(*args, **kwargs):
        raise AssertionError("built before the parameters were checked")
    monkeypatch.setattr(repro.core, "build_ert", refuse)
    out = tmp_path / "idx.npz"
    argv = [command, "--reference", str(ref)] + flags
    argv += (["--out", str(out)] if command == "build-index"
             else ["--reads", str(reads)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"ert-repro {command}: {named}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-index", "simulate-reads",
                                     "compare"])
def test_multi_record_fasta_is_refused_not_truncated(workspace, tmp_path,
                                                     capsys, command):
    """The CLI has no multi-contig coordinates: a second record must not
    be dropped silently."""
    _root, _ref, reads, _index = workspace
    two = tmp_path / "two.fa"
    two.write_text(">a\n" + "ACGTTGCA" * 4 + "\n>b\nTTTTGGGGCCCCAAAA\n")
    out = tmp_path / "out"
    argv = [command, "--reference", str(two)]
    argv += {"build-index": ["--k", "4", "--out", str(out)],
             "simulate-reads": ["--count", "3", "--out", str(out)],
             "compare": ["--k", "4", "--reads", str(reads)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ert-repro {command}: {two}: holds 2 FASTA "
                            f"records; the CLI takes a single-sequence "
                            f"reference\n")
    assert not out.exists()


def test_build_index_checks_out_before_building(workspace, tmp_path, capsys,
                                                monkeypatch):
    _root, ref, _reads, _index = workspace
    import repro.core

    def refuse(*args, **kwargs):
        raise AssertionError("built before --out was checked")
    monkeypatch.setattr(repro.core, "build_ert", refuse)
    out = tmp_path / "nodir" / "idx.npz"
    assert main(["build-index", "--reference", str(ref), "--k", "5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ert-repro build-index: {out}: No such file or directory\n")


#: What a read-driven subcommand shares with the other two; anything
#: else on it is that command's own I/O.
SHARED_RUN_OPTIONS = {
    "--profile", "--metrics-out", "--slowlog", "--log-jsonl",
    "--trace-out", "--workers", "--batch-size", "--retries",
    "--batch-timeout", "--kernels",
}
OWN_OPTIONS = {
    "seed": {"--index", "--reads", "--min-seed-len", "--max-hits",
             "--out"},
    "align": {"--index", "--reads", "--min-seed-len", "--out"},
    "align-pe": {"--index", "--reads", "--min-seed-len", "--insert-mean",
                 "--insert-sd", "--out"},
}


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
def test_run_subcommand_option_surface_is_pinned(command):
    """A new knob on the run path has to be added here on purpose."""
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "command")
    options = {flag for action in subparsers.choices[command]._actions
               for flag in action.option_strings} - {"-h", "--help"}
    assert options == SHARED_RUN_OPTIONS | OWN_OPTIONS[command]


def test_cli_import_leaves_checks_and_ledger_unloaded():
    code = (
        "import sys, repro.cli\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.split('.')[:2] in (['repro', 'checks'],\n"
        "                                  ['repro', 'ledger'])]\n"
        "assert not loaded, loaded\n"
        "assert repro.cli.main(['check', '--list-rules']) == 0\n"
        "assert 'repro.checks.cli' in sys.modules\n"
        "try:\n"
        "    repro.cli.main(['ledger', '--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert 'repro.ledger.cli' in sys.modules\n")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(repo, "src")})
    assert proc.returncode == 0, proc.stderr
    assert "ERT001" in proc.stdout
    assert "usage: ert-repro ledger" in proc.stdout


# ----------------------------------------------------------------------
# The start-up diet: a run imports only what it executes
# ----------------------------------------------------------------------

#: Nothing under these may load on a one-worker seed / align / align-pe
#: run (or while the parser is built): models, baselines, the builder
#: and the simulators, the exporters, the tooling, the pool.
COLD = (
    "repro.fmindex", "repro.accel", "repro.analysis", "repro.baselines",
    "repro.checks", "repro.ledger", "repro.memsim.cache",
    "repro.memsim.dram", "repro.core.builder", "repro.core.census",
    "repro.core.reuse", "repro.sequence.simulate", "repro.sequence.multi",
    "repro.seeding.oracle", "repro.seeding.verify",
    "repro.telemetry.export", "repro.parallel.pool", "repro.parallel.shm",
    "multiprocessing", "concurrent.futures",
)
POOL = ("repro.parallel.pool", "repro.parallel.shm", "multiprocessing",
        "concurrent.futures")

#: ``import numpy`` comes first and is not charged: what it loads
#: differs between the tier-1 Pythons.  The last stdout line is the
#: list of modules the command itself added to ``sys.modules``.
_IMPORT_PROBE = """\
import json, sys
import numpy
for name in json.loads(sys.argv[1]):
    __import__(name)
before = set(sys.modules)
import repro.cli
argv = json.loads(sys.argv[2])
status = repro.cli.main(argv) if argv else repro.cli.build_parser() and 0
sys.stdout.flush()
print(json.dumps([status, sorted(set(sys.modules) - before)]))
"""


def _modules_added_by(argv, preload=()):
    """Run ``main(argv)`` (or ``build_parser()`` for no argv) in a fresh
    interpreter; returns what it imported and the process."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_WORKERS", "REPRO_KERNELS")}
    env["PYTHONPATH"] = os.path.join(repo, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(list(preload)),
         json.dumps([str(a) for a in argv])],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    status, added = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0, proc.stderr
    return added, proc


def _under(modules, prefixes):
    return sorted(m for m in modules for p in prefixes
                  if m == p or m.startswith(p + "."))


@pytest.fixture(scope="module")
def pairs_fastq(workspace):
    from repro.sequence import read_fasta
    from repro.sequence.io import write_fastq
    from repro.sequence.simulate import PairedReadSimulator

    root, ref, _reads, _index = workspace
    pairs = PairedReadSimulator(read_fasta(ref)[0], read_length=60,
                                seed=9).simulate(4)
    path = root / "diet-pairs.fq"
    write_fastq(path, [m for p in pairs for m in (p.first, p.second)])
    return path


@pytest.mark.parametrize("command, kernels, also_cold", [
    (None, None, ("numpy", "repro.core", "repro.sequence", "repro.seeding",
                  "repro.extend", "repro.parallel", "repro.telemetry",
                  "repro.logging", "json")),
    ("seed", "vector", ("repro.extend.pipeline", "repro.extend.paired",
                        "repro.kernels.traceback", "repro.core.layout")),
    ("align", "vector", ("repro.extend.paired", "repro.core.layout")),
    ("align-pe", "scalar", ("repro.core.layout",)),
], ids=["parser", "seed", "align", "align-pe"])
def test_one_worker_run_imports_only_what_it_executes(
        workspace, pairs_fastq, tmp_path, command, kernels, also_cold):
    _root, _ref, reads, index = workspace
    argv = []
    if command is not None:
        argv = [command, "--index", index,
                "--reads", pairs_fastq if command == "align-pe" else reads,
                "--out", tmp_path / "out", "--kernels", kernels,
                "--workers", "1"]
    added, _proc = _modules_added_by(argv)
    assert _under(added, COLD + also_cold) == []
    if command is None:
        # numpy is preloaded by the probe, so check it the other way:
        # building the parser loads no repro module that needs it.
        assert {m for m in added if m.startswith("repro")} <= {
            "repro", "repro._lazy", "repro.cli", "repro.kernels"}


def test_pool_modules_load_in_the_parent_only_at_workers_two(workspace,
                                                             tmp_path):
    _root, _ref, reads, index = workspace
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"w{workers}.sam"
        added, _proc = _modules_added_by(
            ["align", "--index", index, "--reads", reads, "--out",
             outs[workers], "--kernels", "vector", "--workers", workers,
             "--batch-size", "4"])
        if workers == "1":
            assert _under(added, POOL) == []
        else:
            assert set(POOL) <= set(added)
    assert outs["1"].read_bytes() == outs["2"].read_bytes()
    # No unmodelled walk asks where a node lies, so neither the parent
    # nor a scalar worker loads the layout model.
    added, _proc = _modules_added_by(
        ["align", "--index", index, "--reads", reads, "--out",
         tmp_path / "scalar.sam", "--kernels", "scalar", "--workers", "2",
         "--batch-size", "4"])
    assert "repro.core.layout" not in added
    assert (tmp_path / "scalar.sam").read_bytes() == outs["1"].read_bytes()


def test_observed_run_loads_the_exporters_and_writes_what_an_eager_one_does(
        workspace, tmp_path):
    """``--profile --metrics-out --slowlog --trace-out`` is when the
    exporters load; importing everything up front instead changes no
    artifact (timings aside)."""
    _root, _ref, reads, index = workspace
    runs = {}
    for label, preload in (("lazy", ()),
                           ("eager", ("repro.telemetry.export",
                                      "repro.core.builder",
                                      "repro.sequence.simulate",
                                      "repro.parallel.pool",
                                      "repro.extend.paired"))):
        base = tmp_path / label
        base.mkdir()
        added, proc = _modules_added_by(
            ["align", "--index", index, "--reads", reads,
             "--out", base / "out.sam", "--kernels", "vector",
             "--workers", "1", "--profile",
             "--metrics-out", base / "metrics.json",
             "--slowlog", base / "slow.jsonl",
             "--trace-out", base / "trace.json"], preload=preload)
        if label == "lazy":
            assert "repro.telemetry.export" in added
            assert _under(added, tuple(set(COLD)
                                       - {"repro.telemetry.export"})) == []
        snap = json.loads((base / "metrics.json").read_text())
        slow = [json.loads(line)
                for line in (base / "slow.jsonl").read_text().splitlines()]
        trace = json.loads((base / "trace.json").read_text())
        runs[label] = {
            "sam": (base / "out.sam").read_bytes(),
            "counters": snap["counters"],
            "histograms": {name: hist["count"]
                           for name, hist in snap["histograms"].items()},
            "spans": {path: span["count"]
                      for path, span in snap["spans"].items()},
            "reservoir": sorted(
                (rec["read_id"], sorted(rec["counters"].items()))
                for rec in slow if rec["source"] == "reservoir"),
            "trace": sorted({event["name"]
                             for event in trace["traceEvents"]}),
            "profile": [line.split()[0] for line in proc.stdout.splitlines()
                        if line.startswith(("seed", "align", "kernels."))],
        }
        assert "== per-stage wall clock ==" in proc.stdout
    assert runs["lazy"] == runs["eager"]


# ----------------------------------------------------------------------
# Files that cannot be opened: one line, exit 2, nothing written
# ----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["seed", "align"])
@pytest.mark.parametrize("broken", ["index-missing", "index-unreadable",
                                    "reads-missing", "out-unwritable"])
def test_unopenable_file_is_one_line_and_exit_two(workspace, tmp_path,
                                                  capsys, monkeypatch,
                                                  command, broken):
    """Not a ``FileNotFoundError`` traceback -- and an ``--out`` nobody
    can write is refused before the run is computed, not after."""
    _root, _ref, reads, index = workspace
    out = tmp_path / "out"
    paths = {"--index": index, "--reads": reads, "--out": out}
    if broken == "index-unreadable":
        paths["--index"] = tmp_path            # a directory
    elif broken == "out-unwritable":
        paths["--out"] = out = tmp_path / "nodir" / "out"
        import repro.parallel.scheduler as scheduler

        def refuse(*args, **kwargs):
            raise AssertionError("computed before --out was checked")
        monkeypatch.setattr(scheduler, "_map_reads", refuse)
    else:
        paths["--" + broken.split("-")[0]] = tmp_path / "absent"
    culprit = paths["--" + broken.split("-")[0]]
    assert main([command] + [str(x) for kv in paths.items()
                             for x in kv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"ert-repro {command}: {culprit}: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-index", "simulate-reads"])
def test_missing_reference_is_one_line_and_exit_two(tmp_path, capsys,
                                                    command):
    out = tmp_path / "out"
    argv = [command, "--reference", str(tmp_path / "absent.fa"),
            "--out", str(out)]
    if command == "simulate-reads":
        argv += ["--count", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"ert-repro {command}: {tmp_path / 'absent.fa'}: "
                   f"No such file or directory\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["seed", "align", "explain"])
def test_bad_repro_kernels_is_one_line_and_exit_two(workspace, tmp_path,
                                                    capsys, monkeypatch,
                                                    command):
    """Like a bad ``--kernels`` (an argparse error), not a ``ValueError``
    traceback from ``resolve_kernels`` after the index was loaded."""
    _root, _ref, reads, index = workspace
    monkeypatch.setenv("REPRO_KERNELS", "bogus")
    out = tmp_path / "out"
    argv = [command, "--index", str(index), "--reads", str(reads)]
    argv += (["--read-id", "x"] if command == "explain"
             else ["--out", str(out)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ert-repro {command}: unknown REPRO_KERNELS value 'bogus'; "
        f"expected one of scalar/vector\n")
    assert not out.exists()
    # An explicit --kernels wins over the environment, as before.
    if command != "explain":
        assert main(argv + ["--kernels", "scalar"]) == 0


def test_top_level_help_lists_delegated_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "check " in out and "ledger " in out
