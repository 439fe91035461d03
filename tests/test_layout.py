"""Tests for node sizes and the tiled layout (§III-D)."""

import numpy as np
import pytest

from repro.core import ErtConfig, LayoutPolicy, build_ert
from repro.core.arena import KIND_DIVERGE, KIND_LEAF, KIND_UNIFORM
from repro.core.layout import forest_layout, node_size
from repro.core.nodes import DivergeNode, LeafNode, UniformNode
from repro.sequence import GenomeSimulator
from tests.serialize import size_of


def make_leaf(n=1, prefix_merging=False):
    return LeafNode(tuple(range(n)), tuple([-1] * n))


def test_node_sizes():
    """Per node, and as one expression over columns of nodes."""
    leaf = make_leaf(1)
    assert node_size(KIND_LEAF, 1, 0, 0, 0, prefix_merging=False) == 3 + 4
    assert node_size(KIND_LEAF, 1, 0, 0, 0,
                     prefix_merging=True) == 3 + 4 + 1 + 1
    assert node_size(KIND_LEAF, 3, 0, 0, 0, prefix_merging=False) == 3 + 12
    assert node_size(KIND_UNIFORM, 1, 1, 0, 5,
                     prefix_merging=False) == 9 + 2
    assert node_size(KIND_DIVERGE, 3, 2, 1, 0,
                     prefix_merging=False) == 5 + 8 + 4
    sizes = node_size(np.array([KIND_LEAF, KIND_UNIFORM, KIND_DIVERGE]),
                      np.array([3, 1, 3]), np.array([0, 1, 2]),
                      np.array([0, 0, 1]), np.array([0, 5, 0]),
                      prefix_merging=True)
    assert sizes.tolist() == [3 + 12 + 1 + 1, 9 + 2, 5 + 8 + 4]
    # The objects' sizes (the wire-format encoder's reference) agree.
    uniform = UniformNode(np.array([0, 1, 2, 3, 0], dtype=np.uint8),
                          leaf, 1)
    diverge = DivergeNode({0: make_leaf(), 2: make_leaf()}, (5,), 3)
    assert [size_of(node, False) for node in (make_leaf(3), uniform,
                                               diverge)] == [15, 11, 17]


def _forest(reference, policy):
    config = ErtConfig(k=5, max_seed_len=60, layout=policy)
    return build_ert(reference, config)


@pytest.fixture(scope="module")
def reference():
    return GenomeSimulator(seed=51).generate(2500)


@pytest.mark.parametrize("policy", list(LayoutPolicy))
def test_offsets_are_disjoint(reference, policy):
    """No two nodes of a tree may overlap in the serialized blob."""
    index = _forest(reference, policy)
    for root in list(index.roots.values())[:150]:
        spans = []
        stack = [root]
        while stack:
            node = stack.pop()
            assert node.offset >= 0
            spans.append((node.offset, node.offset + node.nbytes))
            stack.extend(node.children_nodes())
        spans.sort()
        for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start


@pytest.mark.parametrize("policy", list(LayoutPolicy))
def test_blob_contains_all_nodes(reference, policy):
    index = _forest(reference, policy)
    for code, root in list(index.roots.items())[:150]:
        stack = [root]
        while stack:
            node = stack.pop()
            assert node.offset + node.nbytes <= index.trees_region.size
            stack.extend(node.children_nodes())


@pytest.mark.parametrize("policy", list(LayoutPolicy))
def test_a_run_of_trees_lays_out_as_in_the_forest(reference, policy):
    """A scalar decode lays out only a block of consecutive trees; every
    node gets the offset and size the whole-forest layout gives it."""
    index = _forest(reference, policy)
    whole = index.layout
    bounds = np.append(whole.tree_roots, index.flat.kind.size)
    for lo, hi in ((0, 1), (3, 40), (bounds.size - 6, bounds.size - 1)):
        part = forest_layout(index.flat, index.config, bounds[lo:hi + 1])
        nodes = slice(int(bounds[lo]), int(bounds[hi]))
        assert part.first == bounds[lo]
        assert part.offset.tolist() == whole.offset[nodes].tolist()
        assert part.nbytes.tolist() == whole.nbytes[nodes].tolist()


def test_tiled_beats_bfs_on_walk_locality(reference, read_codes=None):
    """A root-to-leaf walk under the tiled layout must touch no more
    distinct lines than under BFS, and strictly fewer in aggregate."""
    tiled = _forest(reference, LayoutPolicy.TILED)
    bfs = _forest(reference, LayoutPolicy.BFS)

    def walk_lines(index):
        total = 0
        for code, root in index.roots.items():
            lines = set()
            node = root
            # Follow an arbitrary deep path.
            while True:
                base = index.tree_base[code] + node.offset
                lines.update(range(base // 64,
                                   (base + max(node.nbytes, 1) - 1) // 64 + 1))
                kids = node.children_nodes()
                if not kids:
                    break
                node = kids[0]
            total += len(lines)
        return total

    assert walk_lines(tiled) <= walk_lines(bfs)


def test_layout_stats(reference):
    index = _forest(reference, LayoutPolicy.TILED)
    stats = index.layout_stats
    assert stats.n_nodes > 0
    assert stats.n_tiles > 0
    assert stats.total_bytes == index.trees_region.size
    assert stats.mean_nodes_per_tile >= 1.0


def test_prefix_merging_increases_leaf_bytes(reference):
    plain = build_ert(reference, ErtConfig(k=5, max_seed_len=60))
    merged = build_ert(reference, ErtConfig(k=5, max_seed_len=60,
                                            prefix_merging=True))
    assert merged.index_bytes()["trees"] > plain.index_bytes()["trees"]


def test_unknown_node_type_rejected():
    with pytest.raises(ValueError):
        node_size(3, 1, 0, 0, 0, prefix_merging=False)
    with pytest.raises(TypeError):
        size_of(object(), prefix_merging=False)
