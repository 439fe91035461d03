"""Tests for the SIMT divergence analysis (§VII claim)."""

import pytest

from repro.analysis.divergence import DivergenceReport, measure_divergence
from repro.sequence import ReadSimulator


def test_divergence_report_defaults():
    report = DivergenceReport()
    assert report.control_coherence == 1.0
    assert report.transactions_per_step == 0.0


def test_measure_divergence_basic(ert_index, read_codes):
    report = measure_divergence(ert_index, read_codes, warp_size=8)
    assert report.warps >= 1
    assert report.steps > 0
    assert 0.0 < report.control_coherence <= 1.0
    # The §VII claim: warp lanes scatter across trees, so each lockstep
    # step needs several memory transactions, not one coalesced access.
    assert report.transactions_per_step > 2.0


def test_identical_reads_are_coherent(ert_index, read_codes):
    """A warp of copies of one read walks one tree in lockstep: the
    counter-factual that would make GPUs viable."""
    warp = [read_codes[0].copy() for _ in range(8)]
    report = measure_divergence(ert_index, warp, warp_size=8)
    assert report.control_coherence == 1.0
    assert report.transactions_per_step == pytest.approx(1.0)


def test_diverse_warp_less_coherent_than_identical(ert_index, reference):
    reads = [r.codes for r in
             ReadSimulator(reference, read_length=60, seed=55).simulate(32)]
    diverse = measure_divergence(ert_index, reads, warp_size=32)
    identical = measure_divergence(ert_index,
                                   [reads[0].copy() for _ in range(32)],
                                   warp_size=32)
    assert diverse.transactions_per_step > identical.transactions_per_step


def test_lane_nodes_are_the_cursor_steps(ert_index, reference):
    """Each lane's node sequence, taken from a recorded walk, is the
    node the per-character oracle cursor stands on before every
    character it tries: the child after a DIVERGE step, the run itself
    once a UNIFORM run is used up."""
    from repro.analysis.divergence import _lane_nodes
    from repro.core.arena import KIND_UNIFORM, arena_cursor
    from tests.cursor import TreeCursor

    cursor = arena_cursor(ert_index)
    k = ert_index.config.k
    reads = [r.codes for r in
             ReadSimulator(reference, read_length=60, seed=56).simulate(40)]
    used_up = 0
    for read in reads:
        code = ert_index.kmer_code(read[:k])
        if code not in ert_index.roots:
            continue
        oracle = TreeCursor(ert_index, code, enter_root=False)
        want = []
        pos = k
        while True:
            node = oracle.pending if oracle.pending >= 0 else oracle.node
            want.append(node)
            used_up += (cursor.kind[node] == KIND_UNIFORM
                        and oracle.within == cursor.chars_len[node])
            if pos >= read.size or not oracle.advance(int(read[pos])):
                break
            pos += 1
        assert _lane_nodes(cursor, read, code) == want
    assert used_up  # the fixture reaches the used-up run case
