"""Simple undirected graphs: construction, generators, transforms, statistics.

Vertices are the contiguous ids 0..n-1. Graphs are immutable after
construction and safe to share; every structural quantity used elsewhere
(degrees, bridges, diameter, bipartition, common-neighbour counts) is
computed here. Components, distances and 2-colourings all come from one
breadth-first search, _bfs; bridges from a depth-first low-link search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

from . import config


class GraphError(ValueError):
    """Raised for invalid graph input (self-loops, bad tokens, bad params)."""


class GraphTooLargeError(GraphError):
    """Raised when a graph file has more vertices than its reader allows."""


def _check_vertex_count(n: int, max_vertices: int | None) -> None:
    # Runs before Graph(n), which allocates n adjacency sets.
    if max_vertices is not None and n > max_vertices:
        raise GraphTooLargeError(f"graph has {n} vertices, more than the input "
                                 f"limit of {max_vertices}")


class Graph:
    """Immutable simple graph with sorted adjacency lists and cached degrees."""

    __slots__ = ("n", "adj", "degrees", "m", "_stats")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        sets = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in sets)
        self.degrees = tuple(len(a) for a in self.adj)
        self.m = sum(self.degrees) // 2
        self._stats = None

    def edges(self):
        """Yield each edge once as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        return cls(int(data["n"]), [tuple(e) for e in data.get("edges", [])])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class StructureStats:
    """Degree extremes, common-neighbour extremes, metric and structural flags."""

    max_degree: int
    min_degree: int
    average_degree: float
    t_max: int | None          # max |N(u) ∩ N(v)| over edges; None when m == 0
    t_min: int | None
    diameter: float            # math.inf when disconnected
    is_connected: bool
    is_bipartite: bool
    bipartition_sizes: tuple[int, int] | None
    is_regular: bool
    cut_edges: tuple[tuple[int, int, bool], ...]  # (u, v, is_pendant)


def parse_edge_list(text: str, max_vertices: int | None = None) -> Graph:
    """Parse the edge-list text format: optional 'n=<int>' header, '#' comments,
    one 'u v' pair per line (0-based ids). With max_vertices, a larger vertex
    count raises GraphTooLargeError before the graph is built."""
    n_declared = None
    edges = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            try:
                n_declared = int(line[2:].strip())
            except ValueError:
                raise GraphError(f"line {lineno}: bad vertex count {line!r}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer token in {line!r}")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop {u} {v}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {line!r}")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = n_declared if n_declared is not None else max_seen + 1
    _check_vertex_count(n, max_vertices)
    return Graph(max(n, 0), edges)


def read_graph_text(text: str, json_form: bool) -> Graph:
    """Graph from the text of a graph file: the JSON form of Graph.to_dict or
    the edge-list format. A file with more than config.MAX_INPUT_VERTICES
    vertices raises GraphTooLargeError before the graph is built."""
    limit = config.MAX_INPUT_VERTICES
    if json_form:
        data = json.loads(text)
        n = data.get("n") if isinstance(data, dict) else None
        if type(n) is not int:
            raise GraphError('a JSON graph must be an object with an integer "n"')
        edges = data.get("edges", [])
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
                for e in edges):
            raise GraphError('"edges" must be a list of [u, v] integer pairs')
        _check_vertex_count(n, limit)
        return Graph.from_dict(data)
    return parse_edge_list(text, max_vertices=limit)


# ---------------------------------------------------------------------------
# generators

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise GraphError("part sizes must be non-negative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    # SplitMix64: platform-independent 64-bit generator, one output per step.
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _pair_from_index(k: int, n: int) -> tuple[int, int]:
    # Unrank k into the (i, j), i < j pairs listed row by row.
    i = 0
    row = n - 1
    while k >= row:
        k -= row
        i += 1
        row -= 1
    return i, i + 1 + k


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly m edges, reproducible across platforms.

    Edges are m distinct pair indices drawn by a partial Fisher-Yates shuffle
    driven by SplitMix64 seeded with ``seed``.
    """
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise GraphError(f"m={m} out of range [0, {total}] for n={n}")
    state = seed & _MASK64
    replacement: dict[int, int] = {}
    chosen = []
    for i in range(m):
        state, z = _splitmix64(state)
        j = i + z % (total - i)
        pick = replacement.get(j, j)
        replacement[j] = replacement.get(i, i)
        chosen.append(pick)
    return Graph(n, [_pair_from_index(k, n) for k in chosen])


def random_connected_gnm(n: int, m: int, seed: int, max_tries: int = 1000) -> Graph:
    """First connected draw of G(n, m), advancing a sub-seed per attempt."""
    if m < n - 1:
        raise GraphError(f"m={m} cannot connect {n} vertices")
    for attempt in range(max_tries):
        g = random_gnm(n, m, seed * 0x100000001B3 + attempt)
        if structure_stats(g).is_connected:
            return g
    raise GraphError(f"no connected G({n},{m}) found in {max_tries} tries")


# ---------------------------------------------------------------------------
# transforms

def complement(g: Graph) -> Graph:
    edges = [(i, j) for i, j in combinations(range(g.n), 2) if not g.has_edge(i, j)]
    return Graph(g.n, edges)


def subdivision(g: Graph) -> Graph:
    """Replace every edge uv by a path u-w-v through a fresh vertex w."""
    edges = []
    w = g.n
    for u, v in g.edges():
        edges.append((u, w))
        edges.append((w, v))
        w += 1
    return Graph(g.n + g.m, edges)


def shift_transform(g: Graph, u: int, v: int) -> Graph:
    """Re-attach all neighbours of v except u onto u across the bridge uv.

    Requires uv to be a non-pendant cut edge; the result keeps n and m, and
    v becomes a pendant vertex on u.
    """
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    stats = structure_stats(g)
    if (min(u, v), max(u, v)) not in {(a, b) for a, b, _ in stats.cut_edges}:
        raise GraphError(f"({u},{v}) is not a cut edge")
    if g.degrees[u] < 2 or g.degrees[v] < 2:
        raise GraphError(f"({u},{v}) is a pendant edge")
    edges = []
    for a, b in g.edges():
        if v in (a, b) and (a, b) != (min(u, v), max(u, v)):
            z = a if b == v else b
            edges.append((u, z))
        else:
            edges.append((a, b))
    return Graph(g.n, edges)


# ---------------------------------------------------------------------------
# traversal and statistics

def _bfs(g: Graph, start: int, depth: list[int]) -> list[int]:
    """Breadth-first search from start through the vertices whose depth is
    still -1. Sets depth[v] to v's distance from start for each vertex reached
    and returns them in visiting order, so the last is one of the farthest."""
    depth[start] = 0
    order = [start]
    for x in order:
        d = depth[x] + 1
        for y in g.adj[x]:
            if depth[y] < 0:
                depth[y] = d
                order.append(y)
    return order


def _component_depths(g: Graph) -> tuple[list[list[int]], list[int]]:
    """Each component's BFS visiting order from its smallest vertex, and each
    vertex's depth in it. An edge joining equal depths closes an odd cycle; a
    component without one is 2-coloured by depth parity."""
    depth = [-1] * g.n
    return [_bfs(g, s, depth) for s in range(g.n) if depth[s] < 0], depth


def connected_components(g: Graph) -> list[list[int]]:
    """Each component's sorted vertices, in order of smallest vertex."""
    return [sorted(comp) for comp in _component_depths(g)[0]]


def induced_subgraph(g: Graph, vertices) -> Graph:
    verts = sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[a], index[b]) for a, b in g.edges() if a in index and b in index]
    return Graph(len(verts), edges)


def _bridges(g: Graph) -> list[tuple[int, int]]:
    # Iterative DFS low-link.
    disc = [-1] * g.n
    low = [0] * g.n
    out = []
    timer = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        stack = [(root, -1, iter(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            x, parent, it = stack[-1]
            advanced = False
            for y in it:
                if disc[y] < 0:
                    disc[y] = low[y] = timer
                    timer += 1
                    stack.append((y, x, iter(g.adj[y])))
                    advanced = True
                    break
                if y != parent:
                    low[x] = min(low[x], disc[y])
            if not advanced:
                stack.pop()
                if stack:
                    px = stack[-1][0]
                    low[px] = min(low[px], low[x])
                    if low[x] > disc[px]:
                        out.append((min(px, x), max(px, x)))
    return sorted(out)


def bipartite_component_count(g: Graph) -> int:
    """Number of connected components (isolated vertices included) that are
    bipartite."""
    comps, depth = _component_depths(g)
    return sum(all(depth[x] != depth[y] for x in comp for y in g.adj[x])
               for comp in comps)


def common_neighbor_count(g: Graph, u: int, v: int) -> int:
    return len(set(g.adj[u]) & set(g.adj[v]))


def structure_stats(g: Graph) -> StructureStats:
    """Compute (and cache on the graph) all structural statistics."""
    if g._stats is not None:
        return g._stats
    n = g.n
    if n == 0:
        stats = StructureStats(0, 0, 0.0, None, None, 0.0, True, True, (0, 0),
                               True, ())
        g._stats = stats
        return stats
    degs = g.degrees
    max_d, min_d = max(degs), min(degs)
    avg_d = 2.0 * g.m / n
    t_max = t_min = None
    if g.m >= 1:
        counts = [common_neighbor_count(g, u, v) for u, v in g.edges()]
        t_max, t_min = max(counts), min(counts)
    comps, depth = _component_depths(g)
    connected = len(comps) == 1

    def eccentricity(s):
        dist = [-1] * n
        return dist[_bfs(g, s, dist)[-1]]
    diameter = float(max(map(eccentricity, range(n)))) if connected else math.inf
    bip = all(depth[x] != depth[y] for x in range(n) for y in g.adj[x])
    odd = sum(d & 1 for d in depth)
    bridges = _bridges(g)
    cut_edges = tuple((u, v, min(degs[u], degs[v]) == 1) for u, v in bridges)
    stats = StructureStats(
        max_degree=max_d,
        min_degree=min_d,
        average_degree=avg_d,
        t_max=t_max,
        t_min=t_min,
        diameter=diameter,
        is_connected=connected,
        is_bipartite=bip,
        bipartition_sizes=(n - odd, odd) if bip else None,
        is_regular=(max_d == min_d),
        cut_edges=cut_edges,
    )
    g._stats = stats
    return stats


# ---------------------------------------------------------------------------
# structural predicates used by equality expectations

def is_complete(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n * (g.n - 1) // 2


def is_complete_bipartite(g: Graph) -> bool:
    """Connected bipartite graph containing every cross edge."""
    stats = structure_stats(g)
    if not (stats.is_connected and stats.is_bipartite and g.n >= 2):
        return False
    n1, n2 = stats.bipartition_sizes
    return g.m == n1 * n2


def is_balanced_complete_bipartite(g: Graph) -> bool:
    if not is_complete_bipartite(g):
        return False
    n1, n2 = structure_stats(g).bipartition_sizes
    return n1 == n2


def is_complete_multipartite(g: Graph) -> bool:
    """Complement is a disjoint union of cliques (and g is connected)."""
    if g.n < 2 or not structure_stats(g).is_connected:
        return False
    # A complement component C is a clique iff its degrees are all |C| - 1.
    cg = complement(g)
    return all(cg.degrees[v] == len(comp) - 1
               for comp in connected_components(cg) for v in comp)


def is_c4_free(g: Graph) -> bool:
    """No four-cycle: every vertex pair has at most one common neighbour."""
    for u, v in combinations(range(g.n), 2):
        if common_neighbor_count(g, u, v) >= 2:
            return False
    return True
