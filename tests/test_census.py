"""Tests for index census utilities (Fig 8, §III-A3, §III-E claims)."""

import numpy as np
import pytest

from repro.core import (
    ErtConfig,
    build_ert,
    depth_census,
    hit_distribution,
    index_census,
)
from repro.sequence import GenomeSimulator, Reference
from tests.nodes import LeafNode, UniformNode, forest


def test_index_census_partitions_entries(ert_index):
    census = index_census(ert_index)
    assert census.n_entries == 4 ** ert_index.config.k
    assert (census.empty + census.leaf + census.tree + census.table
            == census.n_entries)
    assert 0.0 <= census.empty_fraction < 1.0
    # Every window of the double-strand text is an occurrence.
    expected = ert_index.text.size - ert_index.config.k + 1
    assert census.total_occurrences == expected


def test_hit_distribution_monotone(ert_index):
    dist = hit_distribution(ert_index)
    counts = [n for _, n in dist]
    assert counts == sorted(counts, reverse=True)
    assert dist[0][1] > 0


def test_hit_distribution_is_skewed(ert_index):
    """Fig 8: few k-mers carry many hits."""
    dist = dict(hit_distribution(ert_index, (1, 20)))
    assert dist[20] < dist[1] / 4


def test_depth_census_counts_leaves(ert_index):
    census = depth_census(ert_index)
    assert census.total_leaves > 0
    assert all(d >= 0 for d in census.leaf_depths)
    assert census.fraction_at_most(ert_index.config.max_ext) == 1.0
    assert census.fraction_at_most(-1) == 0.0


def test_depth_census_mostly_shallow(ert_index):
    """§III-E: trees are shallow (83 % of leaves at depth <= 8 at human
    scale; our synthetic genomes behave the same way)."""
    census = depth_census(ert_index)
    assert census.fraction_at_most(8) > 0.5


def test_empty_fraction_grows_with_k():
    ref = GenomeSimulator(seed=61).generate(1000)
    small = index_census(build_ert(ref, ErtConfig(k=4, max_seed_len=40)))
    large = index_census(build_ert(ref, ErtConfig(k=7, max_seed_len=40)))
    assert large.empty_fraction > small.empty_fraction


def _oracle_leaf_depths(index):
    """The census over the decoded node objects: a DFS that counts each
    leaf, and each DIVERGE node some occurrences end at, at its depth."""
    depths = {}
    for root in forest(index).values():
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            if isinstance(node, LeafNode):
                depths[depth] = depths.get(depth, 0) + 1
            elif isinstance(node, UniformNode):
                stack.append((node.child, depth + int(node.chars.size)))
            else:
                if node.ended:
                    depths[depth] = depths.get(depth, 0) + 1
                stack.extend((child, depth + 1)
                             for child in node.children_nodes())
    return depths


@pytest.mark.parametrize("fixture", ["ert_index", "ert_pm_index"])
def test_depth_census_equals_the_decoded_forest_dfs(request, fixture):
    index = request.getfixturevalue(fixture)
    assert depth_census(index).leaf_depths == _oracle_leaf_depths(index)
