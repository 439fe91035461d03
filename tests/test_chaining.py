"""Tests for colinear seed chaining."""

from repro.extend import chain_seeds
from repro.extend.chaining import MAX_CHAINS, MAX_DIAG_DRIFT, Anchor, Chain
from repro.seeding import Seed


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
