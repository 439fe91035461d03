"""Truth evaluator on hand-written SAM / seed-TSV fixtures.

    PYTHONPATH=src python -m pytest benchmarks/pipeline
"""

from truth import SEED_HEADER, evaluate, load_truth

GENOME_LEN = 1000
SEQ = "A" * 101
HEADER = "@HD\tVN:1.6\tSO:unknown\n@SQ\tSN:synthetic\tLN:1000\n"


def sam_line(name, flag, pos, cigar="101M"):
    rname = "*" if flag & 0x4 else "synthetic"
    return "\t".join([name, str(flag), rname, str(pos), "60", cigar, "*",
                      "0", "0", SEQ, "I" * 101, "AS:i:101"]) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def truth_of(tmp_path, rows):
    return load_truth(write(tmp_path, "truth.tsv", "".join(
        f"{name}\t{origin}\t{strand}\n" for name, origin, strand in rows)))


def test_sam_forward_reverse_and_soft_clip(tmp_path):
    truth = truth_of(tmp_path, [("fwd", 100, "+"), ("rev", 300, "-"),
                                ("clip", 500, "+")])
    sam = write(tmp_path, "out.sam", HEADER
                + sam_line("fwd", 0, 101)
                # Reverse strand: FLAG 0x10, POS is still the leftmost
                # forward coordinate, i.e. origin + 1.
                + sam_line("rev", 0x10, 301)
                # 7 bases soft-clipped: POS moves right by 7, within 10.
                + sam_line("clip", 0, 508, cigar="7S94M"))
    result = evaluate("align", sam, truth, GENOME_LEN)
    assert (result.attempted, result.failed, result.correct) == (3, 0, 3)
    assert result.correct_frac == 1.0 and result.failed_frac == 0.0


def test_sam_wrong_strand_far_position_and_unmapped_are_incorrect(tmp_path):
    truth = truth_of(tmp_path, [("strand", 100, "+"), ("far", 300, "+"),
                                ("unmapped", 500, "-"), ("good", 700, "-")])
    sam = write(tmp_path, "out.sam", HEADER
                + sam_line("strand", 0x10, 101)
                + sam_line("far", 0, 312)
                + sam_line("unmapped", 0x4, 0, cigar="*")
                + sam_line("good", 0x10, 701))
    result = evaluate("align", sam, truth, GENOME_LEN)
    assert (result.failed, result.correct) == (0, 1)
    assert result.correct_frac == 0.25


def test_sam_missing_record_is_a_failure(tmp_path):
    truth = truth_of(tmp_path, [("a", 100, "+"), ("b", 300, "+")])
    sam = write(tmp_path, "out.sam", HEADER + sam_line("a", 0, 101))
    result = evaluate("align", sam, truth, GENOME_LEN)
    assert (result.attempted, result.failed, result.correct) == (2, 1, 1)
    assert result.failed_frac == 0.5


def test_sam_truncated_or_missing_file_fails_every_read(tmp_path):
    truth = truth_of(tmp_path, [("a", 100, "+"), ("b", 300, "+")])
    whole = HEADER + sam_line("a", 0, 101) + sam_line("b", 0, 301)
    cut_mid_line = write(tmp_path, "cut.sam", whole[:-40])
    cut_mid_record = write(tmp_path, "short.sam",
                           HEADER + sam_line("a", 0, 101) + "b\t0\n")
    for path in (cut_mid_line, cut_mid_record,
                 str(tmp_path / "absent.sam")):
        result = evaluate("align", path, truth, GENOME_LEN)
        assert (result.failed, result.correct) == (2, 0), path
        assert result.failed_frac == 1.0


def test_sam_paired_mates_count_individually(tmp_path):
    truth = truth_of(tmp_path, [("pair_0/1", 100, "+"),
                                ("pair_0/2", 350, "-")])
    sam = write(tmp_path, "out.sam", HEADER
                + sam_line("pair_0", 0x1 | 0x2 | 0x20 | 0x40, 101)
                # Second mate placed on the wrong strand.
                + sam_line("pair_0", 0x1 | 0x80, 351)
                # A secondary record is not the read's placement.
                + sam_line("pair_0", 0x1 | 0x80 | 0x100 | 0x10, 351))
    result = evaluate("align-pe", sam, truth, GENOME_LEN)
    assert (result.attempted, result.failed, result.correct) == (2, 0, 1)


def test_seed_hits_use_both_strands_text_offsets(tmp_path):
    truth = truth_of(tmp_path, [("fwd", 100, "+"), ("rev", 300, "-"),
                                ("off", 500, "+"), ("none", 700, "+")])
    # Reverse read: offset 2n - origin - 101 = 1599 in the both-strands
    # text; a seed starting at read offset 20 must hit 1619.
    tsv = write(tmp_path, "out.tsv", SEED_HEADER
                + "fwd\t0\t101\t2\t640,100\n"
                + "rev\t20\t40\t1\t1619\n"
                + "rev\t0\t19\t1\t12\n"
                + "off\t10\t30\t1\t515\n")
    result = evaluate("seed", tsv, truth, GENOME_LEN)
    assert (result.attempted, result.failed, result.correct) == (4, 1, 2)


def test_seed_truncated_or_headerless_file_fails_every_read(tmp_path):
    truth = truth_of(tmp_path, [("fwd", 100, "+")])
    whole = SEED_HEADER + "fwd\t0\t101\t1\t100\n"
    for name, text in (("cut.tsv", whole[:-3]),
                       ("nohead.tsv", "fwd\t0\t101\t1\t100\n"),
                       ("fields.tsv", SEED_HEADER + "fwd\t0\t101\n")):
        result = evaluate("seed", write(tmp_path, name, text), truth,
                          GENOME_LEN)
        assert result.failed_frac == 1.0, name
