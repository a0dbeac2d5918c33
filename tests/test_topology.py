import pytest

from surgedec.topology import build_topology, max_tree_hops, route, tree_path
from surgedec.wire import OP_RESULT, Message, boundary_header


def test_single_leaf_still_has_a_root():
    top = build_topology(1, 25, (1, 1))
    assert top.height == 1
    assert top.leaves == (1,)
    assert top.parent == {1: 0}
    assert top.children == {0: (1,), 1: ()}
    assert top.grid_links == frozenset()


def test_two_level_tree_of_four():
    top = build_topology(4, 25, (2, 2))
    assert top.height == 1
    assert top.root == 0
    assert top.leaves == (1, 2, 3, 4)
    assert all(top.parent[leaf] == 0 for leaf in top.leaves)
    # grid links: row pairs and column pairs of the 2x2 arrangement
    assert frozenset({1, 2}) in top.grid_links
    assert frozenset({1, 3}) in top.grid_links
    assert frozenset({1, 4}) not in top.grid_links
    assert len(top.grid_links) == 4


def test_three_level_tree_ids_are_contiguous():
    top = build_topology(30, 5, (5, 6))
    # levels: 30 leaves, 6 mid nodes, 2 upper, 1 root
    assert top.height == 3
    assert top.leaves == tuple(range(9, 39))
    assert top.children[0] == (1, 2)
    assert top.parent[3] == 1
    assert top.parent[9] == 3
    assert top.n_nodes == 39


@pytest.mark.parametrize(
    "n_leaves,dims,want",
    [(4, (2, 2), 2), (25, (5, 5), 2), (625, (25, 25), 4)],
)
def test_worst_case_tree_hops_at_fanout_25(n_leaves, dims, want):
    top = build_topology(n_leaves, 25, dims)
    assert max_tree_hops(top) == want


def test_boundary_info_between_neighbours_takes_grid_link():
    top = build_topology(4, 25, (2, 2))
    msg = Message(dest=2, header=boundary_header(1), payload=0)
    assert route(top, msg, 1) == [2]


def test_boundary_info_between_far_leaves_uses_tree():
    top = build_topology(4, 25, (2, 2))
    msg = Message(dest=4, header=boundary_header(0), payload=0)
    assert route(top, msg, 1) == [0, 4]


def test_results_climb_the_tree_even_between_neighbours():
    top = build_topology(4, 25, (2, 2))
    up = Message(dest=0, header=OP_RESULT << 4, payload=0)
    assert route(top, up, 3) == [0]
    sideways = Message(dest=2, header=OP_RESULT << 4, payload=0)
    assert route(top, sideways, 1) == [0, 2]


def test_tree_path_through_lca_in_deep_tree():
    top = build_topology(625, 25, (25, 25))
    a, b = top.leaves[0], top.leaves[1]
    assert top.parent[a] == top.parent[b]
    assert tree_path(top, a, b) == [top.parent[a], b]
    far = top.leaves[600]
    assert len(tree_path(top, a, far)) == 4
    assert tree_path(top, a, a) == []


def test_bad_builds_are_rejected():
    with pytest.raises(ValueError):
        build_topology(4, 25, (2, 3))
    with pytest.raises(ValueError):
        build_topology(4, 1, (2, 2))
    with pytest.raises(ValueError):
        build_topology(1, 25, (-1, -1))


def test_route_rejects_unknown_nodes():
    top = build_topology(4, 25, (2, 2))
    msg = Message(dest=99, header=0, payload=0)
    with pytest.raises(ValueError):
        route(top, msg, 1)
