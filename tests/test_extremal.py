import math

import pytest

from psombor.extremal import (
    FREE_TREE_COUNTS,
    enumerate_trees,
    prufer_tree_keys,
    random_tree,
    rank_trees,
    shift_experiment,
    tree_canonical_key,
    verify_tree_extremes,
)
from psombor.graphs import Graph, GraphError, path_graph, star_graph, structure_stats
from psombor.spectral import sombor_decomposition


@pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6),
                                     (7, 11), (8, 23), (9, 47), (10, 106)])
def test_catalog_counts(n, count):
    catalog = enumerate_trees(n)
    assert len(catalog.trees) == count
    assert FREE_TREE_COUNTS[n - 1] == count
    assert len(set(catalog.canonical_keys)) == count


def test_catalog_entries_are_trees():
    for tree in enumerate_trees(8).trees:
        st = structure_stats(tree)
        assert st.is_connected and tree.m == tree.n - 1


def test_prufer_oracle_agrees():
    # independent enumeration route: exhaustive Pruefer sequences
    for n in range(3, 8):
        assert prufer_tree_keys(n) == set(enumerate_trees(n).canonical_keys)


def test_octane_skeleton_filter():
    catalog = enumerate_trees(8, max_degree=4)
    assert len(catalog.trees) == 18
    assert all(max(t.degrees) <= 4 for t in catalog.trees)


def test_max_degree_filter_small():
    assert len(enumerate_trees(5, max_degree=2).trees) == 1  # only the path


def test_enumeration_range_check():
    with pytest.raises(GraphError):
        enumerate_trees(1)
    with pytest.raises(GraphError):
        enumerate_trees(13)


def test_canonical_key_isomorphism_invariant():
    # the same tree under a relabeling keeps its key
    t1 = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    t2 = Graph(5, [(4, 3), (3, 0), (0, 1), (0, 2)])
    assert tree_canonical_key(t1) == tree_canonical_key(t2)
    t3 = path_graph(5)
    assert tree_canonical_key(t1) != tree_canonical_key(t3)


@pytest.mark.parametrize("n", range(4, 8))
@pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
def test_tree_extremes(n, p):
    report = verify_tree_extremes(n, p)
    assert report.ok
    assert report.min_is_path and report.max_is_star
    assert report.min_unique and report.max_unique


def test_tree_extremes_values_n4():
    report = verify_tree_extremes(4, 2.0)
    assert report.min_radius == pytest.approx(math.sqrt(9 + math.sqrt(56)), rel=1e-10)
    assert report.max_radius == pytest.approx(math.sqrt(30), rel=1e-10)


def test_rank_trees_sorted():
    ranked = rank_trees(8, 2.0, count=3)
    radii = [r for _, r in ranked]
    assert radii == sorted(radii)
    assert len(ranked) == 6


def test_shift_p4_matches_star():
    report = shift_experiment(path_graph(4), 2.0)
    assert report.applicable and len(report.outcomes) == 1
    out = report.outcomes[0]
    assert out.radius_before == pytest.approx(math.sqrt(9 + math.sqrt(56)), rel=1e-10)
    assert out.radius_after == pytest.approx(math.sqrt(30), rel=1e-10)
    assert out.increased and report.all_increased


def test_shift_two_triangles_increases():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    for p in (1.0, 2.0, 3.0):
        report = shift_experiment(g, p)
        assert report.applicable and report.all_increased


def test_shift_star_not_applicable():
    report = shift_experiment(star_graph(5), 2.0)
    assert not report.applicable and "cut edge" in report.reason


def test_shift_disconnected_not_applicable():
    report = shift_experiment(Graph(4, [(0, 1), (2, 3)]), 2.0)
    assert not report.applicable


def test_shift_random_trees():
    for seed in range(15):
        t = random_tree(9, seed)
        for p in (1.0, 2.0):
            report = shift_experiment(t, p)
            if report.applicable:
                assert report.all_increased


def test_random_tree_is_tree_and_deterministic():
    for seed in range(20):
        t = random_tree(9, seed)
        assert t.n == 9 and t.m == 8 and structure_stats(t).is_connected
        assert random_tree(9, seed) == t


def test_perron_vector_positive_on_connected():
    for seed in range(10):
        t = random_tree(8, seed)
        dec = sombor_decomposition(t, 2.0, want_vectors=True)
        vec = dec.eigenvectors[:, 0]
        if vec.sum() < 0:
            vec = -vec
        assert (vec > 0).all()


def test_repeated_shifts_reach_star():
    # monotone radius increase terminates at the star
    g = path_graph(6)
    for _ in range(10):
        report = shift_experiment(g, 2.0)
        if not report.applicable:
            break
        from psombor.graphs import shift_transform
        u, v = report.outcomes[0].edge
        g = shift_transform(g, u, v)
    assert sorted(g.degrees) == [1] * 5 + [5]


def test_tree_extremes_reuses_a_given_catalog():
    catalog = enumerate_trees(8)
    for p in (1.0, 2.0):
        given = verify_tree_extremes(8, p, catalog)
        assert given == verify_tree_extremes(8, p)
    with pytest.raises(ValueError):
        verify_tree_extremes(9, 2.0, catalog)
    with pytest.raises(ValueError):
        verify_tree_extremes(8, 2.0, enumerate_trees(8, max_degree=3))
