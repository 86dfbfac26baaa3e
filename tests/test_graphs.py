import json
import math

import pytest
from hypothesis import given, settings
from strategies import graphs

from psombor import config
from psombor.graphs import (
    Graph,
    GraphError,
    GraphTooLargeError,
    bipartite_component_count,
    complement,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    induced_subgraph,
    is_c4_free,
    is_complete,
    is_complete_bipartite,
    is_complete_multipartite,
    parse_edge_list,
    path_graph,
    random_connected_gnm,
    random_gnm,
    read_graph_text,
    shift_transform,
    star_graph,
    structure_stats,
    subdivision,
)


def test_parse_simple_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.degrees == (1, 2, 1)


def test_parse_header_and_comments():
    g = parse_edge_list("# empty graph on 4 vertices\nn=4\n")
    assert g.n == 4 and g.m == 0


def test_parse_deduplicates():
    g = parse_edge_list("0 1\n0 1")
    assert g.n == 2 and g.m == 1


def test_parse_rejects_self_loop():
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("0 1\n2 2")


def test_parse_rejects_bad_token():
    with pytest.raises(GraphError, match="non-integer"):
        parse_edge_list("0 x")


def test_parse_rejects_negative_id():
    with pytest.raises(GraphError, match="negative"):
        parse_edge_list("-1 2")


def test_json_round_trip():
    g = cycle_graph(5)
    assert Graph.from_dict(g.to_dict()) == g


def test_graphs_above_the_file_limit_round_trip_in_code():
    # The vertex cap applies to graph files only (read_graph_text).
    g = path_graph(config.MAX_INPUT_VERTICES + 1)
    assert Graph.from_dict(g.to_dict()) == g
    header = f"n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert parse_edge_list(header) == g
    for text, json_form in ((header, False), (json.dumps(g.to_dict()), True)):
        with pytest.raises(GraphTooLargeError, match="more than the input limit"):
            read_graph_text(text, json_form)


def test_generate_complete():
    g = complete_graph(3)
    assert g.degrees == (2, 2, 2)


def test_generate_k22_is_four_cycle():
    g = complete_bipartite_graph(2, 2)
    assert g.n == 4 and g.m == 4 and set(g.degrees) == {2}
    assert structure_stats(g).diameter == 2


def test_random_gnm_deterministic():
    g1 = random_gnm(8, 10, seed=42)
    g2 = random_gnm(8, 10, seed=42)
    assert g1.m == 10 and g1.adj == g2.adj
    assert random_gnm(8, 10, seed=43).adj != g1.adj


def test_random_gnm_rejects_bad_m():
    with pytest.raises(GraphError):
        random_gnm(4, 7, seed=1)


def test_random_gnm_uniform_edge_coverage():
    # every possible edge should appear across many seeds
    seen = set()
    for seed in range(200):
        seen.update(random_gnm(5, 4, seed).edges())
    assert len(seen) == 10


def test_random_connected():
    for seed in range(30):
        g = random_connected_gnm(8, 8, seed)
        assert structure_stats(g).is_connected


@pytest.mark.parametrize("n", range(1, 9))
def test_handshake(n):
    for seed in range(5):
        m = (n * (n - 1) // 2) * (seed + 1) // 6
        g = random_gnm(n, m, seed)
        assert sum(g.degrees) == 2 * g.m


def test_complement_complete_is_empty():
    g = complement(complete_graph(4))
    assert g.m == 0 and g.n == 4


def test_complement_involution():
    for seed in range(10):
        g = random_gnm(7, 9, seed)
        assert complement(complement(g)) == g


def test_self_complementary_families():
    c5 = cycle_graph(5)
    assert sorted(complement(c5).degrees) == sorted(c5.degrees)
    assert structure_stats(complement(c5)).diameter == 2
    p4 = path_graph(4)
    comp = complement(p4)
    assert sorted(comp.degrees) == [1, 1, 2, 2]
    assert structure_stats(comp).is_connected


def test_subdivision_counts():
    g = subdivision(complete_graph(4))
    assert g.n == 10 and g.m == 12
    new_vertex_degrees = g.degrees[4:]
    assert set(new_vertex_degrees) == {2}
    assert g.degrees[:4] == (3, 3, 3, 3)


def test_subdivision_of_triangle_is_c6():
    g = subdivision(cycle_graph(3))
    assert g.n == 6 and g.m == 6 and set(g.degrees) == {2}
    assert structure_stats(g).diameter == 3


def test_subdivision_of_edge_is_path():
    g = subdivision(Graph(2, [(0, 1)]))
    assert sorted(g.degrees) == [1, 1, 2]


def test_structure_stats_k4():
    st = structure_stats(complete_graph(4))
    assert st.max_degree == st.min_degree == 3
    assert st.t_max == st.t_min == 2
    assert st.diameter == 1 and st.is_regular


def test_structure_stats_p4():
    st = structure_stats(path_graph(4))
    assert (st.max_degree, st.min_degree) == (2, 1)
    assert st.t_max == st.t_min == 0
    assert st.diameter == 3
    assert len(st.cut_edges) == 3
    middle = [(u, v, pend) for u, v, pend in st.cut_edges if (u, v) == (1, 2)]
    assert middle == [(1, 2, False)]


def test_structure_stats_star():
    st = structure_stats(star_graph(4))
    assert st.is_bipartite and st.bipartition_sizes in ((1, 3), (3, 1))
    assert st.diameter == 2


def test_structure_stats_disconnected():
    g = Graph(4, [(0, 1)])
    st = structure_stats(g)
    assert not st.is_connected and st.diameter == math.inf


def test_degree_bounds_invariant():
    for seed in range(10):
        g = random_gnm(9, 12, seed)
        st = structure_stats(g)
        assert st.min_degree <= st.average_degree <= st.max_degree


def test_path_diameters():
    for n in range(2, 9):
        assert structure_stats(path_graph(n)).diameter == n - 1
        assert structure_stats(complete_graph(n)).diameter == 1


def test_shift_middle_of_p4_gives_star():
    g = shift_transform(path_graph(4), 1, 2)
    assert sorted(g.degrees) == [1, 1, 1, 3]


def test_shift_two_triangles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    shifted = shift_transform(g, 2, 3)
    assert shifted.n == 6 and shifted.m == 7
    assert shifted.degrees[2] == 5 and shifted.degrees[3] == 1


def test_shift_preserves_counts_on_p5():
    g = path_graph(5)
    shifted = shift_transform(g, 2, 1)
    assert shifted.n == g.n and shifted.m == g.m
    assert shifted.degrees[1] == 1


def test_shift_rejects_non_bridge():
    with pytest.raises(GraphError, match="cut edge"):
        shift_transform(cycle_graph(4), 0, 1)


def test_shift_rejects_pendant():
    with pytest.raises(GraphError, match="pendant"):
        shift_transform(path_graph(3), 0, 1)


def test_components_and_induced():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    comps = connected_components(g)
    assert comps == [[0, 1, 2], [3, 4]]
    sub = induced_subgraph(g, comps[0])
    assert sub.n == 3 and sub.m == 2


def test_structural_predicates():
    assert is_complete(complete_graph(5))
    assert not is_complete(cycle_graph(5))
    assert is_complete_bipartite(complete_bipartite_graph(2, 3))
    assert not is_complete_bipartite(path_graph(4))
    assert is_complete_multipartite(complete_bipartite_graph(2, 2))
    assert is_complete_multipartite(complete_graph(4))
    assert not is_complete_multipartite(cycle_graph(5))
    assert is_c4_free(cycle_graph(5)) and not is_c4_free(complete_bipartite_graph(2, 2))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs())
def test_edge_list_and_json_round_trips_preserve_the_graph(g):
    text = f"n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert read_graph_text(text, json_form=False) == g
    assert read_graph_text(json.dumps(g.to_dict()), json_form=True) == g


def _floyd_warshall(g):
    n = g.n
    dist = [[0 if u == v else 1 if g.has_edge(u, v) else math.inf
             for v in range(n)] for u in range(n)]
    for k in range(n):
        for u in range(n):
            for v in range(n):
                dist[u][v] = min(dist[u][v], dist[u][k] + dist[k][v])
    return dist


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs())
def test_traversal_results_match_a_distance_matrix_oracle(g):
    n = g.n
    dist = _floyd_warshall(g)
    comps = []
    for s in range(n):
        if not any(s in c for c in comps):
            comps.append([v for v in range(n) if dist[s][v] < math.inf])
    stats = structure_stats(g)
    assert connected_components(g) == comps
    assert stats.is_connected == (len(comps) == 1)
    expected_diameter = max(map(max, dist)) if len(comps) == 1 else math.inf
    assert stats.diameter == expected_diameter
    assert isinstance(stats.diameter, float)

    # Parity of the distance to the component's smallest vertex 2-colours
    # a component exactly when no edge joins two vertices of equal parity.
    parity = [0] * n
    for c in comps:
        for v in c:
            parity[v] = dist[c[0]][v] % 2
    bipartite = [all(parity[u] != parity[v] for u, v in g.edges() if u in c)
                 for c in comps]
    assert bipartite_component_count(g) == sum(bipartite)
    assert stats.is_bipartite == all(bipartite)
    odd = sum(parity)
    assert stats.bipartition_sizes == ((n - odd, odd) if all(bipartite) else None)

    # Complete multipartite: connected, and non-adjacency is transitive.
    non_adjacent_transitive = all(
        g.has_edge(u, v) or g.has_edge(v, w) or not g.has_edge(u, w)
        for u in range(n) for v in range(n) for w in range(n)
        if len({u, v, w}) == 3)
    assert is_complete_multipartite(g) == (
        n >= 2 and len(comps) == 1 and non_adjacent_transitive)
