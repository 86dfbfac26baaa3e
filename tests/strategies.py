"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from psombor.graphs import Graph


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    """Any simple graph on 1..max_n vertices, isolated vertices included."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


# Finite nonzero p from both sides of 0.
nonzero_p = st.builds(lambda a, sign: sign * a, st.floats(0.1, 10.0),
                      st.sampled_from([1.0, -1.0]))


@st.composite
def circulants(draw, max_n: int = 12) -> Graph:
    """A circulant C_n(S): i ~ i +- s (mod n) for each jump s in a nonempty
    S within 1..n/2; regular of degree 2|S|, or one less when n/2 is in S."""
    n = draw(st.integers(2, max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in jumps])


@st.composite
def bipartite_graphs(draw, max_parts: int = 4) -> Graph:
    """A disjoint union of 1..max_parts bipartite components, vertices
    shuffled: random trees, even cycles, complete bipartite graphs K_{a,b},
    isolated vertices and random subgraphs of K_{a,b}."""
    from prufer import random_tree
    from psombor.graphs import complete_bipartite_graph, cycle_graph

    parts = []
    for _ in range(draw(st.integers(1, max_parts))):
        kind = draw(st.sampled_from(["tree", "even_cycle", "complete", "isolated",
                                     "sparse"]))
        if kind == "tree":
            parts.append(random_tree(draw(st.integers(2, 9)), draw(st.integers(0, 2**32))))
        elif kind == "even_cycle":
            parts.append(cycle_graph(2 * draw(st.integers(2, 5))))
        elif kind == "complete":
            parts.append(complete_bipartite_graph(draw(st.integers(1, 4)),
                                                  draw(st.integers(1, 4))))
        elif kind == "isolated":
            parts.append(Graph(1))
        else:
            a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
            pairs = [(i, a + j) for i in range(a) for j in range(b)]
            keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            parts.append(Graph(a + b, [e for e, k in zip(pairs, keep) if k]))
    return _shuffled_union(draw, parts)


@st.composite
def unions(draw, max_parts: int = 3) -> Graph:
    """A disjoint union of 1..max_parts parts, vertices shuffled: edgeless
    graphs (isolated vertices), paths, cycles, complete graphs, complete
    multipartite graphs K_{s,...,s} and any graph on at most 5 vertices. One
    part of one or two vertices gives n = 1 and 2."""
    from psombor.graphs import complement, complete_graph, cycle_graph, path_graph

    parts = []
    for _ in range(draw(st.integers(1, max_parts))):
        kind = draw(st.sampled_from(["edgeless", "path", "cycle", "complete", "multipartite",
                                     "any"]))
        if kind == "edgeless":
            parts.append(Graph(draw(st.integers(1, 3))))
        elif kind == "path":
            parts.append(path_graph(draw(st.integers(2, 6))))
        elif kind == "cycle":
            parts.append(cycle_graph(draw(st.integers(3, 6))))
        elif kind == "complete":
            parts.append(complete_graph(draw(st.integers(1, 5))))
        elif kind == "multipartite":
            s, t = draw(st.integers(1, 3)), draw(st.integers(2, 3))
            parts.append(complement(Graph(s * t, [(i * s + u, i * s + v) for i in range(t)
                                                  for u in range(s) for v in range(u + 1, s)])))
        else:
            parts.append(draw(graphs(5)))
    return _shuffled_union(draw, parts)


@st.composite
def k1_joins(draw, max_parts: int = 4) -> Graph:
    """K1 joined to a graph whose complement is K1 and 2..max_parts graphs
    on at most 5 vertices, vertices shuffled: the complement of their union."""
    from psombor.graphs import complement

    parts = [Graph(1)] + [draw(graphs(5)) for _ in range(draw(st.integers(2, max_parts)))]
    return complement(_shuffled_union(draw, parts))


def _shuffled_union(draw, parts) -> Graph:
    """The disjoint union of parts, its vertices relabelled by a drawn
    permutation."""
    n = sum(part.n for part in parts)
    label = draw(st.permutations(range(n)))
    edges, offset = [], 0
    for part in parts:
        edges += [(label[offset + u], label[offset + v]) for u, v in part.edges()]
        offset += part.n
    return Graph(n, edges)
