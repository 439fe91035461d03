"""Cross-read lane packing on the vector SAM paths.

``--kernels vector`` extends the (read, window) lanes of a whole
scheduler batch in packed wavefront sweeps.  Which lanes share a sweep
depends on the batch size, the worker count and the read lengths of the
batch; the records, the per-read counters and the replay contract must
not.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.core import ErtSeedingEngine, save_ert
from repro.extend.paired import PairedAligner
from repro.extend.pipeline import ReadAligner
from repro.kernels import batched_sw_traceback
from repro.parallel import ParallelConfig, align_pairs, align_reads
from repro.sequence import write_fastq


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def mixed_reads(reference, reads):
    """Two read lengths in one batch (80 bp and 57 bp, interleaved), one
    length nothing else shares, and in the middle a read that seeds
    nowhere and so contributes no lane at all."""
    rng = np.random.default_rng(808)
    codes = [read.codes if i % 2 else read.codes[11:68]
             for i, read in enumerate(reads[:12])]
    codes.insert(6, np.zeros(5, dtype=np.uint8))
    codes.insert(9, reference.codes[100:171].copy())
    codes.append(rng.integers(0, 4, size=80).astype(np.uint8))
    return codes


def test_align_sam_batch_matches_scalar_per_read(ert_index, mixed_reads,
                                                 params):
    reference = ert_index.reference
    scalar = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params)
    packed = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params, tb_batch=batched_sw_traceback)
    names = [f"r{i}" for i in range(len(mixed_reads))]
    want = [scalar.align_sam(read, name)
            for read, name in zip(mixed_reads, names)]
    assert any(rec.flag & 0x4 for rec in want)       # the zero-lane read
    assert packed.align_sam_batch(mixed_reads, names,
                                  [""] * len(names)) == want
    # The scalar aligner's batch entry point is the same oracle.
    assert scalar.align_sam_batch(mixed_reads, names,
                                  [""] * len(names)) == want


def test_align_pairs_batch_matches_scalar_per_pair(ert_index, mixed_reads,
                                                   params):
    reference = ert_index.reference
    scalar = PairedAligner(ReadAligner(
        reference, ErtSeedingEngine(ert_index), params=params))
    packed = PairedAligner(ReadAligner(
        reference, ErtSeedingEngine(ert_index), params=params,
        tb_batch=batched_sw_traceback))
    reads = mixed_reads[:len(mixed_reads) - len(mixed_reads) % 2]
    names = [f"p{i}" for i in range(len(reads) // 2)]
    want = []
    for i, name in enumerate(names):
        want.extend(scalar.align_pair(reads[2 * i], reads[2 * i + 1], name))
    assert packed.align_pairs(reads, names, [""] * len(reads)) == want


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, ert_index, reference):
    """A persisted index, 70 single-end reads (more than one 64-read
    batch) and 12 interleaved pairs."""
    from repro.sequence import PairedReadSimulator, ReadSimulator

    root = tmp_path_factory.mktemp("packed")
    save_ert(ert_index, str(root / "idx.npz"))
    write_fastq(str(root / "reads.fq"),
                ReadSimulator(reference, read_length=80,
                              seed=44).simulate(70))
    pairs = PairedReadSimulator(reference, read_length=70,
                                seed=45).simulate(12)
    write_fastq(str(root / "pairs.fq"),
                [mate for pair in pairs
                 for mate in (pair.first, pair.second)])
    return root


def _run(workspace, command, reads, out, *extra):
    assert main([command, "--index", str(workspace / "idx.npz"),
                 "--reads", str(workspace / reads), "--min-seed-len", "12",
                 "--out", str(workspace / out), *extra]) == 0
    return (workspace / out).read_bytes()


@pytest.mark.parametrize("command,reads", [("align", "reads.fq"),
                                           ("align-pe", "pairs.fq")])
def test_sam_identical_at_any_batch_size_and_worker_count(workspace,
                                                          command, reads):
    """``--kernels vector`` and the default (no flag) both write the
    scalar oracle's SAM."""
    oracle = _run(workspace, command, reads, "scalar.sam",
                  "--kernels", "scalar", "--workers", "1")
    for batch_size, workers in ((1, 1), (7, 1), (64, 1), (7, 3), (64, 3)):
        for kernels in (("--kernels", "vector"), ()):
            assert _run(workspace, command, reads, "vector.sam",
                        *kernels, "--batch-size", str(batch_size),
                        "--workers", str(workers)) == oracle, \
                (batch_size, workers, kernels)


def test_observed_packed_run_is_dark_identical_and_explainable(workspace,
                                                               capsys):
    dark = _run(workspace, "align", "reads.fq", "dark.sam",
                "--kernels", "vector", "--workers", "1")
    slowlog = workspace / "align.slowlog.jsonl"
    observed = _run(workspace, "align", "reads.fq", "observed.sam",
                    "--kernels", "vector", "--workers", "1",
                    "--metrics-out", str(workspace / "metrics.json"),
                    "--slowlog", str(slowlog))
    assert observed == dark
    snap = json.loads((workspace / "metrics.json").read_text())
    assert snap["counters"]["align.reads"] == 70
    # Two scheduler batches (64 + 6 reads), each a handful of packed
    # sweeps -- not one kernel call per read.
    assert 2 <= snap["counters"]["kernels.sweeps"] < 20
    assert snap["histograms"]["read.wall_ms"]["count"] == 70
    entry = json.loads(slowlog.read_text().splitlines()[0])
    assert entry["counters"]["sw_cells"] > 0
    capsys.readouterr()
    code = main(["explain", "--index", str(workspace / "idx.npz"),
                 "--reads", str(workspace / "reads.fq"),
                 "--read-id", entry["read_id"], "--task", "align",
                 "--min-seed-len", "12", "--slowlog", str(slowlog)])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "matches the slowlog record exactly" in out.err


@pytest.mark.parametrize("task", ["align", "align-pe"])
def test_packed_exemplars_carry_the_scalar_extension_counters(
        ert_index, reads, params, task):
    """Each read's -- or pair's, mates summed -- ``chains`` /
    ``sw_extensions`` / ``sw_cells`` / ``exact_lanes`` are the same
    whether its lanes were traced alone (scalar) or packed with other
    reads'; 25 reads fit the reservoir, so every one is kept."""
    run = align_reads if task == "align" else align_pairs
    reads = reads[:len(reads) - len(reads) % 2]

    def exemplars(kernels):
        telemetry.reset()
        telemetry.enable()
        try:
            records, _ = run(
                ert_index, reads, params,
                config=ParallelConfig(workers=1, batch_size=10,
                                      kernels=kernels))
            kept = telemetry.snapshot()["exemplars"]["reservoir"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert {rec["task"] for rec in kept} == {task}
        keys = ("seeds", "seed_hits", "chains", "sw_extensions", "sw_cells",
                "exact_lanes")
        return records, {rec["read_id"]: {key: rec["counters"].get(key, 0)
                                          for key in keys}
                         for rec in kept}

    scalar_records, scalar = exemplars("scalar")
    vector_records, vector = exemplars("vector")
    assert vector_records == scalar_records
    assert len(scalar) == len(reads) // (2 if task == "align-pe" else 1)
    assert vector == scalar
    assert sum(c["sw_cells"] for c in vector.values()) > 0
    assert sum(c["exact_lanes"] for c in vector.values()) > 0


@pytest.mark.parametrize("tb_batch", [None, batched_sw_traceback])
def test_exact_lanes_change_no_record_and_count_apart(
        ert_index, reads, params, monkeypatch, tb_batch):
    """Lanes answered by ``exact_lane`` leave every record as the DP
    alone would make it; they count as ``align.exact_lanes``, not
    ``align.sw_extensions``, and the two add up to the chains
    extended."""
    def records(aligner_reads):
        aligner = PairedAligner(ReadAligner(
            ert_index.reference, ErtSeedingEngine(ert_index),
            params=params, tb_batch=tb_batch))
        names = [f"p{i}" for i in range(len(aligner_reads) // 2)]
        return aligner.align_pairs(aligner_reads, names,
                                   [""] * len(aligner_reads))

    codes = [read.codes for read in reads[:len(reads) - len(reads) % 2]]
    telemetry.enable()
    fast = records(codes)
    counters = telemetry.snapshot()["counters"]
    telemetry.disable()
    assert counters["align.exact_lanes"] > 0
    assert counters["align.sw_extensions"] + counters["align.exact_lanes"] \
        == counters["align.chains_extended"]
    monkeypatch.setattr("repro.extend.pipeline.exact_lane",
                        lambda *args, **kwargs: None)
    monkeypatch.setattr("repro.extend.paired.exact_lane",
                        lambda *args, **kwargs: None)
    assert records(codes) == fast


def test_scalar_and_vector_profiles_have_the_same_root_spans(workspace):
    """``--kernels`` only picks the seeder: either backend seeds a batch
    under a root ``seed`` span, then extends it under ``align``."""
    def roots(kernels):
        metrics = workspace / f"{kernels}.metrics.json"
        _run(workspace, "align", "reads.fq", f"{kernels}.spans.sam",
             "--kernels", kernels, "--workers", "1",
             "--metrics-out", str(metrics))
        return {path.split("/")[0]
                for path in json.loads(metrics.read_text())["spans"]}

    assert roots("scalar") == roots("vector") == {"seed", "align"}
