"""Tests for colinear seed chaining."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.extend import chain_seeds
from repro.extend.chaining import (
    MAX_CHAINS,
    MAX_DIAG_DRIFT,
    MAX_GAP,
    Anchor,
    Chain,
)
from repro.seeding import Seed
from tests import chaining_oracle


def seed(start, length, hits):
    return Seed(read_start=start, length=length, hits=tuple(hits),
                hit_count=len(hits))


def test_colinear_seeds_form_one_chain():
    seeds = [seed(0, 10, [100]), seed(12, 10, [112]), seed(25, 10, [125])]
    chains = chain_seeds(seeds)
    assert len(chains) == 1
    assert len(chains[0].anchors) == 3
    assert chains[0].score == 30


def test_distant_hits_split_chains():
    seeds = [seed(0, 10, [100, 5000])]
    chains = chain_seeds(seeds)
    assert len(chains) == 2


def test_diagonal_drift_limit():
    # A second anchor drifted by more than the limit opens a new chain;
    # one drifted by exactly the limit joins the first.
    for drift, n_chains in ((MAX_DIAG_DRIFT + 1, 2), (MAX_DIAG_DRIFT, 1)):
        seeds = [seed(0, 10, [100]), seed(10, 10, [110 + drift])]
        assert len(chain_seeds(seeds)) == n_chains, drift


def test_small_indel_absorbed():
    # 3 bp drift (a small indel) stays in one chain.
    seeds = [seed(0, 10, [100]), seed(12, 10, [115])]
    chains = chain_seeds(seeds)
    assert len(chains) == 1


def test_chains_sorted_by_score():
    seeds = [seed(0, 30, [100]), seed(50, 10, [5000])]
    chains = chain_seeds(seeds)
    assert chains[0].score >= chains[1].score


def test_overlapping_anchor_coverage_not_double_counted():
    chain = Chain(anchors=[Anchor(0, 100, 10), Anchor(5, 105, 10)])
    assert chain.score == 15


def test_truncated_hit_lists_contribute_nothing():
    seeds = [seed(0, 10, [])]
    assert chain_seeds(seeds) == []


def test_max_chains_cap():
    # Every hit is far from the others: one chain each, MAX_CHAINS kept.
    seeds = [seed(0, 10, [i * 1000 for i in range(MAX_CHAINS + 10)])]
    chains = chain_seeds(seeds)
    assert len(chains) == MAX_CHAINS
    assert [c.ref_start for c in chains] == [i * 1000
                                             for i in range(MAX_CHAINS)]


def test_chain_properties():
    chain = Chain(anchors=[Anchor(2, 102, 10), Anchor(14, 114, 8)])
    assert chain.ref_start == 102
    assert chain.read_start == 2
    assert chain.diagonal == 100
    # Score and starts do not depend on the anchors' order.
    chain = Chain(anchors=[Anchor(14, 114, 8), Anchor(2, 102, 10)])
    assert (chain.score, chain.ref_start, chain.read_start) == (18, 102, 2)


# ----------------------------------------------------------------------
# The oracle: chain_seeds as first written, one anchor object at a time
# ----------------------------------------------------------------------

#: Drifts and gaps at the absorb test's limits, one past them, and inside.
EDGE_DRIFTS = (0, MAX_DIAG_DRIFT, MAX_DIAG_DRIFT + 1, -MAX_DIAG_DRIFT,
               -MAX_DIAG_DRIFT - 1)
EDGE_GAPS = (MAX_GAP, MAX_GAP + 1, 0, -5)


@st.composite
def seed_sets(draw):
    """Seeds whose anchors sit at the absorb test's edges.

    Each new seed is placed after one of the last few anchors: on its
    diagonal or drifted by exactly :data:`MAX_DIAG_DRIFT` or one past
    it, with its read or reference gap exactly :data:`MAX_GAP`, one past
    it, or overlapping; or at an earlier anchor's reference start.  A
    repetitive seed hits far and wide (enough hits make more than
    :data:`MAX_CHAINS` chains); a truncated one has no hits."""
    anchors = []
    seeds = []
    for _ in range(draw(st.integers(0, 30))):
        placement = draw(st.sampled_from(
            ("after", "after", "after", "same_ref", "repeat", "truncated")))
        length = draw(st.integers(1, 40))
        read_start = draw(st.integers(0, 150))
        if placement == "truncated":
            seeds.append(Seed(read_start, length, (), 600))
            continue
        if placement == "repeat" or not anchors:
            start = draw(st.integers(0, 100_000))
            step = draw(st.integers(1, 1_000))
            hits = range(start, start + step * draw(
                st.integers(1, MAX_CHAINS + 10)), step)
        else:
            r0, f0, l0 = draw(st.sampled_from(anchors[-4:]))
            if placement == "same_ref":
                ref_start = f0
            else:
                drift = draw(st.sampled_from(EDGE_DRIFTS)
                             | st.integers(-30, 30))
                gap = draw(st.sampled_from(EDGE_GAPS)
                           | st.integers(-l0, MAX_GAP + 2))
                # The gap is either the read's or the reference's.
                if draw(st.booleans()):
                    gap -= drift
                read_start = max(0, r0 + l0 + gap)
                ref_start = max(0, f0 + read_start - r0 + drift)
            hits = [ref_start, ref_start + 1][:draw(st.integers(1, 2))]
        seeds.append(Seed(read_start, length, tuple(hits), len(hits)))
        anchors.extend((read_start, hit, length) for hit in hits)
    return seeds


def _fields(chains):
    return [([(a.read_start, a.ref_start, a.length) for a in c.anchors],
             c.score, c.ref_start, c.read_start, c.diagonal)
            for c in chains]


@settings(max_examples=300, deadline=None)
@given(seed_sets())
@example([])
@example([Seed(0, 10, (), 600)])
def test_chain_seeds_equals_the_oracle(seeds):
    assert _fields(chain_seeds(seeds)) == _fields(
        chaining_oracle.chain_seeds(seeds))

