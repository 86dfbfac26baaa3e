import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from prufer import prufer_tree_keys, random_tree

from psombor import extremal
from psombor.extremal import (
    FREE_TREE_COUNTS,
    bipartite_radii,
    enumerate_trees,
    rank_trees,
    shift_experiment,
    tree_canonical_key,
    verify_tree_extremes,
)
from psombor.graphs import (Graph, GraphError, _splitmix64, cycle_graph, path_graph, star_graph,
                            structure_stats)
from psombor.spectral import sombor_decomposition


@pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6),
                                     (7, 11), (8, 23), (9, 47), (10, 106),
                                     (11, 235), (12, 551)])
def test_catalog_counts(n, count):
    catalog = enumerate_trees(n)
    assert len(catalog.trees) == count
    assert FREE_TREE_COUNTS[n - 1] == count
    assert len(set(catalog.canonical_keys)) == count


# sha256 of json.dumps([canonical_keys, [list(t.edges()) for t in trees]]),
# recorded from the earlier rooted-walk-and-dedup enumeration: the catalog's
# keys, order and vertex labels reach the CLI output, so they must not move.
CATALOG_DIGESTS = {
    (2, None): "6c504bb975260ae8886e03e85b782851e1b5f0ad2a9b407fb922c28a4c10f253",
    (3, None): "fb5834a1a5accac4f66b4c90b3a3d48764f811dbd6a38f8ccb5a246bd5a75788",
    (4, None): "302f898c3679f37756eb083315ae801d63f426a9f1c39a6340ec4166660bedc4",
    (5, None): "419392accc377a17bbf5714e516c8ff730331e3b2b055255dce4b45e3c9a9753",
    (6, None): "72ee7aac7efa1c2d676d99d8ed6a07af033bdce9dcee39b133afd605a9c2852a",
    (7, None): "92dd281e658b8d032e47707410d742d078d6121c255adfc3f5a4f52f4e09af8b",
    (8, None): "709cf8e4dff8f2764728f64f920cddfea1fbcdba63c900b11f64a7aee82d93a3",
    (9, None): "036f5782c9113b03475ad33e2ccf7fcb46e648ddfd6dfcdde0c35864161af23e",
    (10, None): "8c9a2865a6be0555dafbca4907a95127aa1b5ed20a1948b7f4be4d8f2bff5e48",
    (11, None): "f61e38a81e46e43429ec6156ce288a258fc41157381be9b3a31c39912fc7a4e7",
    (12, None): "2733b2731ebb8e1a03a4aa6932a0d46f80cb8fd5fd10d62fcc99ef8b32c7d2ae",
    (8, 4): "e251dbd21271dc6615d8b5a7b4e2b67a58df4e606e5ef93fe35bc04c8a5bbfb8",
}


@pytest.mark.parametrize("n,max_degree", sorted(CATALOG_DIGESTS, key=str))
def test_catalog_digest_is_pinned(n, max_degree):
    catalog = enumerate_trees(n, max_degree)
    text = json.dumps([catalog.canonical_keys,
                       [list(t.edges()) for t in catalog.trees]])
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGESTS[n, max_degree]


def _count_catalog_calls(monkeypatch) -> tuple[list, list]:
    # (entries, keys): the arguments of each _catalog_entry and each
    # tree_canonical_key call from here on
    entries, keys = [], []
    entry, key = extremal._catalog_entry, extremal.tree_canonical_key

    def counting_entry(levels, max_degree=None):
        entries.append(levels)
        return entry(levels, max_degree)

    def counting_key(g):
        keys.append(g)
        return key(g)

    monkeypatch.setattr(extremal, "_catalog_entry", counting_entry)
    monkeypatch.setattr(extremal, "tree_canonical_key", counting_key)
    return entries, keys


@pytest.mark.parametrize("n", range(2, 13))
def test_each_tree_is_keyed_once(n, monkeypatch):
    # one key per catalog tree: the generator yields no duplicate to drop,
    # and the key comes from the parse that gives the label, not from
    # tree_canonical_key on a built Graph
    entries, keys = _count_catalog_calls(monkeypatch)
    enumerate_trees(n)
    assert len(entries) == FREE_TREE_COUNTS[n - 1]
    assert keys == []


def test_extremes_key_each_tree_once_over_several_p(monkeypatch, capsys):
    # one pass at three p keys and labels only the two trees the bounds keep,
    # the path and the star, once each; they are told by degree, not by
    # keying fresh copies
    from psombor.cli import run

    entries, keys = _count_catalog_calls(monkeypatch)
    assert run(["trees", "--n", "12", "--verify-extremes", "--p", "1,2,3"]) == 0
    # the star (depth 1) and the path rooted at a centre (depth 6)
    assert sorted(max(levels) for levels in entries) == [2, 7]
    assert keys == []
    assert capsys.readouterr().out.count("path=True") == 3


def _level_sequence_tree(levels) -> Graph:
    # the tree of a level sequence through the validating constructor: each
    # vertex's parent is the last earlier vertex one level up
    edges = []
    for v in range(1, len(levels)):
        u = v - 1
        while levels[u] != levels[v] - 1:
            u -= 1
        edges.append((u, v))
    return Graph(len(levels), edges)


def _rooted_levels(g: Graph, v: int, parent: int = -1, level: int = 1) -> list[int]:
    # canonical level sequence of g rooted at v: subtrees in descending order
    subs = sorted((_rooted_levels(g, c, v, level + 1) for c in g.adj[v] if c != parent),
                  reverse=True)
    return [level] + [x for sub in subs for x in sub]


@pytest.mark.parametrize("n,max_degree", [(n, None) for n in range(2, 13)] + [(8, 4)])
def test_catalog_entries_match_the_oracles(n, max_degree):
    # each key is tree_canonical_key's (leaf stripping, recursive AHU) and
    # each label the largest canonical level sequence over all n rootings;
    # the catalog is the labelled trees in key order
    entries = []
    for levels in extremal._free_tree_level_sequences(n):
        tree = _level_sequence_tree(levels)
        entry = extremal._catalog_entry(levels, max_degree)
        if max_degree is not None and max(tree.degrees) > max_degree:
            assert entry is None
            continue
        key, label = entry
        assert key == tree_canonical_key(tree)
        assert label == max(_rooted_levels(tree, v) for v in range(n))
        entries.append((key, _level_sequence_tree(label)))
    catalog = enumerate_trees(n, max_degree)
    assert sorted(entries, key=lambda kv: kv[0]) == list(zip(catalog.canonical_keys,
                                                             catalog.trees))


@pytest.mark.parametrize("n,max_degree", [(n, None) for n in range(2, 13)] + [(8, 4)])
def test_catalog_graphs_match_the_validating_constructor(n, max_degree):
    # Graph._from_level_sequence skips __init__'s checks and sorts; each
    # catalog tree must still be the Graph that __init__ builds from its edges
    for tree in enumerate_trees(n, max_degree).trees:
        built = Graph(n, list(tree.edges()))
        assert (tree.n, tree.adj, tree.degrees, tree.m) == (
            built.n, built.adj, built.degrees, built.m)
        assert hash(tree) == hash(built) and tree == built
        assert structure_stats(tree) == structure_stats(built)


def test_extremes_pass_builds_no_graph_through_init(monkeypatch):
    # the catalog builds each tree from its label's preorder; the validating
    # constructor runs 551 times per pass when it builds them from edges
    from psombor.cli import run

    calls = []
    init = Graph.__init__

    def counting_init(self, n, edges=()):
        calls.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    assert run(["trees", "--n", "12", "--verify-extremes", "--p", "1,2,3"]) == 0
    assert calls == []


def test_extremes_pass_solves_only_gram_stacks(monkeypatch, capsys):
    # n = 12 at three p: every Gram matrix has at most 6 rows and no full
    # 12 x 12 S_p is decomposed. The Gram stacks reach the kernel through
    # spectral, the one module that drives it. A work count, not a result:
    # the Perron bounds rule out all trees but the path (6 rows) and the
    # star (1 row), so one stack per row count holds those two at every p.
    from psombor import spectral
    from psombor.cli import run

    assert not hasattr(extremal, "jacobi_sweeps_batch")
    shapes = []
    kernel = spectral.jacobi_sweeps_batch

    def recording(stack, thresholds, max_sweeps, vectors=None):
        shapes.append(stack.shape)
        return kernel(stack, thresholds, max_sweeps, vectors)

    def forbidden(*args, **kwargs):
        raise AssertionError("full S_p solve in a tree extremes pass")

    monkeypatch.setattr(spectral, "jacobi_sweeps_batch", recording)
    monkeypatch.setattr(spectral, "decompose_stack", forbidden)
    monkeypatch.setattr(spectral, "eigen_decompose_many", forbidden)
    assert run(["trees", "--n", "12", "--verify-extremes", "--p", "1,2,3"]) == 0
    assert len(shapes) == 2
    assert all(rows == cols <= 6 for rows, cols, _ in shapes)
    assert sum(count for _, _, count in shapes) == 3 * 2
    assert capsys.readouterr().out.count("path=True") == 3


# The standard p plus the tiny and huge |p| where the Gram route's scaling
# matters.
RADII_P = (-1.0, 0.5, 1.0, 2.0, 3.0, 0.0015, -0.002, 1000.0, -1000.0)


def _random_bipartite(seed: int) -> Graph:
    # A random subgraph of K_{a,b} with at least a + b edges (so it has a
    # cycle), 0-2 isolated vertices and shuffled labels, from SplitMix64.
    state = seed

    def draw(k):
        nonlocal state
        state, z = _splitmix64(state)
        return z % k

    a, b, isolated = 2 + draw(4), 2 + draw(4), draw(3)
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    m = a + b + draw(a * b - a - b + 1)
    for i in range(m):
        k = i + draw(len(pairs) - i)
        pairs[i], pairs[k] = pairs[k], pairs[i]
    n = a + b + isolated
    label = list(range(n))
    for i in range(n - 1, 0, -1):
        k = draw(i + 1)
        label[i], label[k] = label[k], label[i]
    return Graph(n, [(label[u], label[v]) for u, v in pairs[:m]])


def test_bipartite_radii_bytes_are_pinned():
    # sha256 of the packed float64 radii, recorded when each p was solved on
    # its own from Gram matrices summed star by star: every tree on 2..12
    # vertices and 200 bipartite graphs with cycles, at each p of RADII_P.
    trees = hashlib.sha256()
    for n in range(2, 13):
        for radii in bipartite_radii(enumerate_trees(n).trees, RADII_P):
            trees.update(np.array(radii).tobytes())
    assert trees.hexdigest() == \
        "b70575c51015c8498f212d835db811c4eec54a96bbff54e3b8d1cbb58e4a686c"
    graphs = [_random_bipartite(seed) for seed in range(200)]
    assert all(g.m >= g.n - g.degrees.count(0) for g in graphs)
    assert sum(g.degrees.count(0) > 0 for g in graphs) == 134
    others = hashlib.sha256()
    for radii in bipartite_radii(graphs, RADII_P):
        others.update(np.array(radii).tobytes())
    assert others.hexdigest() == \
        "b263020f48b6a4111d7327da814d9dd8f1d8048e5a065808d046f973476fe943"


@pytest.mark.parametrize("p, code, digest", [
    ("1,2,3", 0, "19a204707cfb4c6bd526b2062fa9fe459aceedae2b622c392bc699f08d9b8bb5"),
    ("-1,0.5", 2, "8c1e2254b7c797703a8be10e2adf2dd0c4cee9879ffede8fb992af0eb523a0dd"),
])
def test_extremes_json_is_pinned(p, code, digest, capsys):
    from psombor.cli import run

    assert run(["trees", "--n", "12", "--verify-extremes", f"--p={p}", "--format", "json"]) \
        == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tree_extremes_at_tiny_abs_p():
    # ||S_p||_F overflows at p = 0.0015 and S_p is ~1e-150 at p = -0.002;
    # the Gram radii stay finite and the path and the star stay extreme
    for p in (0.0015, -0.002):
        report = verify_tree_extremes(8, p)
        assert report.ok
        assert 0.0 < report.min_radius < report.max_radius < math.inf


# Both signs of p, tiny and huge |p|, and either side of the n = 4 crossing
# near -0.76663 where the path and the star swap extremes.
EXTREMES_P = (-1000.0, -5.0, -2.0, -1.0, -0.7667, -0.7666, -0.5, -0.002, 0.0015,
              0.5, 1.0, 2.0, 3.0, 1000.0)


def _plain_extremes(catalog, p, radii) -> extremal.TreeExtremesReport:
    # argmin and argmax over every tree's radius (a stable sort: the first
    # minimum and the last maximum), unique when the runner-up is more than
    # 1e-9 times the maximum away
    n = catalog.n
    order = sorted(range(len(radii)), key=radii.__getitem__)
    lo, hi = order[0], order[-1]
    gap = 1e-9 * radii[hi]
    return extremal.TreeExtremesReport(
        n=n, p=p, min_radius=radii[lo], max_radius=radii[hi],
        min_key=catalog.canonical_keys[lo], max_key=catalog.canonical_keys[hi],
        min_is_path=max(catalog.trees[lo].degrees) <= 2,
        max_is_star=max(catalog.trees[hi].degrees) == n - 1,
        min_unique=len(order) < 2 or radii[order[1]] - radii[lo] > gap,
        max_unique=len(order) < 2 or radii[hi] - radii[order[-2]] > gap)


@pytest.mark.parametrize("power_steps", [extremal._POWER_STEPS, 0])
def test_tree_extremes_match_the_extremes_of_every_radius(power_steps, monkeypatch):
    # the trees the bounds rule out change no field: with no power step the
    # bounds are row sums and hundreds of trees per p stay candidates
    monkeypatch.setattr(extremal, "_POWER_STEPS", power_steps)
    for n in range(2, 13):
        catalog = enumerate_trees(n)
        reports = extremal._tree_extremes(n, EXTREMES_P)
        every = bipartite_radii(catalog.trees, EXTREMES_P)
        for p, report, radii in zip(EXTREMES_P, reports, every):
            expected = _plain_extremes(catalog, p, radii)
            assert report == expected, (n, p)
            assert (report.min_radius.hex(), report.max_radius.hex()) == (
                expected.min_radius.hex(), expected.max_radius.hex()), (n, p)


def test_radius_bounds_hold_on_every_tree():
    # lo <= radius <= hi within the slack, for the radii bipartite_radii
    # solves; the bound step warns of nothing, also where ||S_p||_F leaves
    # the float range (p = 0.0015, -0.002)
    slack = extremal._BOUND_SLACK
    for n in range(2, 13):
        sequences = list(extremal._free_tree_level_sequences(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = extremal._tree_radius_bounds(np.array(sequences), EXTREMES_P)
        trees = [Graph._from_level_sequence(levels) for levels in sequences]
        radii = np.array(bipartite_radii(trees, EXTREMES_P)).T
        assert lo.shape == hi.shape == radii.shape == (FREE_TREE_COUNTS[n - 1], len(EXTREMES_P))
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        assert (lo * (1 - slack) <= radii).all() and (radii <= hi * (1 + slack)).all(), n


def test_trees_whose_bounds_are_not_finite_stay_candidates():
    # one p, four trees: 0 is the minimum and 3 the maximum, 1 and 2 lie
    # between them far from both
    lo = np.array([[1.0], [5.0], [6.0], [9.0]])
    hi = lo + 0.1
    assert extremal._extreme_candidates(lo, hi)[:, 0].tolist() == [True, False, False, True]
    # a NaN bound leaves the extremes unknown, and an upper bound beyond the
    # float range makes the gap inf: either way every tree stays
    nan_low, nan_high, inf_high = lo.copy(), hi.copy(), hi.copy()
    nan_low[2], nan_high[2], inf_high[3] = math.nan, math.nan, math.inf
    for bounds in ((nan_low, hi), (lo, nan_high), (lo, inf_high)):
        assert extremal._extreme_candidates(*bounds).all()


def test_tree_radii_at_no_p_are_empty():
    # no p gives Gram stacks without members, not a weight table of the
    # wrong shape; the layouts are still built, so a graph that is not
    # bipartite still raises
    assert bipartite_radii([path_graph(3), star_graph(4), Graph(2)], []) == []
    assert extremal._tree_extremes(5, []) == []
    with pytest.raises(ValueError, match="not bipartite"):
        bipartite_radii([cycle_graph(3)], [])


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
    for max_degree in (0, -3):
        with pytest.raises(GraphError, match="max degree must be at least 1"):
            enumerate_trees(6, max_degree=max_degree)


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


@pytest.mark.parametrize("n", range(2, 10))
def test_path_and_star_flags_match_their_keys(n):
    # the degree test agrees with keying fresh copies of the path and the
    # star, also at the negative p where the star is not the maximum
    path_key = tree_canonical_key(path_graph(n))
    star_key = tree_canonical_key(star_graph(n))
    catalog = enumerate_trees(n)
    for p in (-1000.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 1000.0):
        report = verify_tree_extremes(n, p, catalog)
        assert report.min_is_path == (report.min_key == path_key)
        assert report.max_is_star == (report.max_key == star_key)


def test_tree_extremes_values_n4():
    report = verify_tree_extremes(4, 2.0)
    assert report.min_radius == pytest.approx(math.sqrt(9 + math.sqrt(56)), rel=1e-10)
    assert report.max_radius == pytest.approx(math.sqrt(30), rel=1e-10)


def test_tree_extremes_n4_threshold_matches_the_closed_form():
    # The two trees on 4 vertices: rho(K1,3) = sqrt(3) (3^p + 1)^(1/p) and
    # rho(P4) = (b + sqrt(4 a^2 + b^2)) / 2, a = (1 + 2^p)^(1/p), b = 2^(1 + 1/p).
    # Below the p where they cross, the path is the maximum and the star the
    # minimum.
    def star_minus_path(p):
        a, b = (1 + 2 ** p) ** (1 / p), 2 ** (1 + 1 / p)
        return math.sqrt(3) * (3 ** p + 1) ** (1 / p) - (b + math.sqrt(4 * a * a + b * b)) / 2

    lo, hi = -1.0, -0.5
    assert star_minus_path(lo) < 0 < star_minus_path(hi)
    for _ in range(100):
        mid = (lo + hi) / 2
        if star_minus_path(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(-0.76663417869659, abs=1e-13)
    assert verify_tree_extremes(4, -0.7666).ok
    below = verify_tree_extremes(4, -0.7667)
    assert not below.max_is_star and not below.min_is_path


def test_rank_trees_sorted():
    ranked = rank_trees(8, 2.0, count=3)
    radii = [r for _, r in ranked]
    assert radii == sorted(radii)
    assert len(ranked) == 6
    assert len(rank_trees(6, 2.0, count=3)) == 6  # all six trees, none twice
    for count in (0, -1):
        with pytest.raises(ValueError, match="rank count must be at least 1"):
            rank_trees(6, 2.0, count=count)


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
