"""Trees from Pruefer sequences: an enumeration oracle independent of
psombor.extremal, and seeded uniform random labeled trees."""

import heapq
from itertools import product

from psombor.extremal import tree_canonical_key
from psombor.graphs import Graph, _splitmix64


def prufer_tree_keys(n: int) -> set[str]:
    """Canonical keys of all trees on n vertices via exhaustive Pruefer
    sequences; practical for n <= 8."""
    return {tree_canonical_key(Graph(n, prufer_edges(n, seq)))
            for seq in product(range(n), repeat=n - 2)}


def prufer_edges(n: int, seq) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n >= 2 vertices with Pruefer sequence seq."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(tuple(sorted(leaves)))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree from a SplitMix64-driven Pruefer sequence."""
    if n < 2:
        return Graph(max(n, 0))
    state = seed & ((1 << 64) - 1)
    seq = []
    for _ in range(n - 2):
        state, z = _splitmix64(state)
        seq.append(z % n)
    return Graph(n, prufer_edges(n, seq))
