"""Tree enumeration and the spectral-radius extremality experiments.

Unlabeled trees come from the free-tree generator of Wright, Richmond,
Odlyzko & McKay (SIAM J. Comput. 15(2), 1986), which yields one centre-rooted
canonical level sequence per tree, so no tree is built twice. One parse of
that sequence gives the catalog tree's key, the centre-rooted AHU string of
tree_canonical_key, and its label, the lexicographically largest canonical
level sequence over all its rootings: no leaf stripping and no Graph walk.
The catalog Graph is read from the label's preorder in one more pass
(Graph._from_level_sequence), without Graph()'s checks and sorts.

Tree radii come from Gram matrices: a tree is bipartite, so xi_1 is the
square root of the largest eigenvalue of a Gram matrix of at most n/2 rows.
Each graph's Gram layout (colour classes and degree-pair ids) is built once;
each p only gathers its weights, and the Gram matrices of one size at every
p form one stack (_gram_stacks). Power-of-two scaling keeps the radii finite
and relatively accurate where the full S_p would overflow its norm or sink
below the solver's absolute threshold (tiny |p|). bipartite_radii, and so
the ranking, solves every member; the extremality check bounds every radius
from the level sequences, by Collatz-Wielandt ratios of S_p^2, and keys and
solves only the trees the bounds cannot rule out. The path and the star are
recognised by their maximum degree, 2 and n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, _component_depths, structure_stats
from .spectral import _solve, _squares, edge_weight, sombor_decomposition

MAX_TREE_N = 12

# Unlabeled tree counts for n = 1..12 (reference sequence for sanity checks).
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


@dataclass
class TreeCatalog:
    n: int
    max_degree: int | None
    trees: list[Graph]
    canonical_keys: list[str]


def _first_subtree_end(levels) -> int:
    # Index just past the root's first principal subtree, levels[1:end].
    end = 2
    while end < len(levels) and levels[end] != 2:
        end += 1
    return end


def _refill(levels, p: int) -> list[int]:
    # Beyer-Hedetniemi successor taken at index p: from p on, repeat the
    # block that starts at p's parent.
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = levels[:p]
    for i in range(p, len(levels)):
        out.append(out[i - (p - q)])
    return out


def _free_tree_level_sequences(n: int):
    """One centre-rooted canonical level sequence per unlabeled tree on n >= 2
    vertices (Wright, Richmond, Odlyzko & McKay).

    Canonical sequences are visited in the decreasing lexicographic order of
    the Beyer-Hedetniemi walk over rooted trees, but a sequence is yielded
    only when its root is a centre. With T1 the root's first (deepest)
    subtree and R the rest of the tree, that is depth(T1) <= depth(R) + 1; in
    the bicentral case (equality) the rooting with (|T1|, T1) <= (|R|, R) is
    the one kept. Every sequence sharing a rejected one's T1 is rejected too,
    so the walk jumps past them all at once.
    """
    # The path, rooted at a centre.
    levels = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while True:
        end = _first_subtree_end(levels)
        t1 = [x - 1 for x in levels[1:end]]
        rest = [1] + levels[end:]
        excess = max(t1) - max(rest)
        if excess < 0 or (excess == 0 and (len(t1), t1) <= (len(rest), rest)):
            yield levels
            p = n - 1
            while levels[p] == 2:
                p -= 1
            if p == 0:
                return
            levels = _refill(levels, p)
        else:
            p = end - 1
            deep = levels[p] > 3
            levels = _refill(levels, p)
            if deep:
                # T1 took in every later vertex; the next centre-rooted
                # sequence ends in a second chain as deep as T1.
                depth = max(levels[:_first_subtree_end(levels)]) - 1
                levels[n - depth:] = range(2, depth + 2)


def tree_centers(g: Graph) -> list[int]:
    """Centre vertex (or two) found by repeated leaf stripping."""
    n = g.n
    if n <= 2:
        return list(range(n))
    deg = list(g.degrees)
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for u in layer:
            for v in g.adj[u]:
                deg[v] -= 1
                if deg[v] == 1:
                    nxt.append(v)
        layer = nxt
    return sorted(layer)


def _ahu(g: Graph, root: int, parent: int) -> str:
    subs = sorted(_ahu(g, c, root) for c in g.adj[root] if c != parent)
    return "(" + "".join(subs) + ")"


def tree_canonical_key(g: Graph) -> str:
    """Isomorphism-invariant string: AHU encoding rooted at the centre(s)."""
    cs = tree_centers(g)
    if len(cs) == 1:
        return _ahu(g, cs[0], -1)
    a, b = cs
    return "|".join(sorted([_ahu(g, a, b), _ahu(g, b, a)]))


# A level sequence held as bytes: _SHALLOWER[k] subtracts k from each level,
# _DEEPER adds 1.
_SHALLOWER = [bytes.maketrans(bytes(range(k, 256)), bytes(range(256 - k)))
              for k in range(MAX_TREE_N + 1)]
_DEEPER = bytes.maketrans(bytes(range(255)), bytes(range(1, 256)))


def _catalog_entry(levels, max_degree: int | None = None) -> tuple[str, list[int]] | None:
    """(key, label) of a tree from one parse of its centre-rooted level
    sequence, or None when a vertex has more than max_degree neighbours.

    The key is tree_canonical_key's: AHU codes built bottom-up, rooted at
    vertex 0, or at both ends of the edge 0-1 when the first subtree T1 is
    one level deeper than the rest (bicentral). The label is the largest
    canonical level sequence over all rootings. A rooting starts 1, 2, ...,
    ecc(v) + 1, so only the deepest vertices of T1 and of the rest, all
    leaves, can attain it, and a leaf's rooting is the tree hanging from its
    parent away from it: the same tree for every such leaf of one parent,
    so it is walked once per parent. As bytes with that parent at level 0,
    that is the parent's subtree slice without the leaf's; above vertex 0,
    the tree hanging from the grandparent (built once per vertex it is left
    through) goes before the first sibling slice it exceeds, as the slices
    are canonical and in descending order already.
    """
    n = len(levels)
    parent, children, stop = [-1] * n, [[] for _ in range(n)], [n] * n
    path = [0]  # root to the last vertex; levels[v:stop[v]] is v's subtree
    for v in range(1, n):
        while len(path) >= levels[v]:
            stop[path.pop()] = v
        parent[v] = path[-1]
        children[path[-1]].append(v)
        path.append(v)
    if max_degree is not None and max(
            len(c) + (v > 0) for v, c in enumerate(children)) > max_degree:
        return None
    codes = [""] * n
    for v in range(n - 1, 0, -1):
        kids = children[v]
        codes[v] = "(" + "".join(sorted([codes[c] for c in kids])) + ")" if kids else "()"
    end = stop[1]
    t1_depth, rest_depth = max(levels[1:end]), max(levels[end:], default=1)
    bicentral = t1_depth > rest_depth  # then vertex 1 is the other centre
    root = "(" + "".join(sorted([codes[c] for c in children[0][bicentral:]])) + ")"
    key = "|".join(sorted([codes[1], root])) if bicentral else root
    packed = bytes(levels)
    hanging: dict[int, bytes] = {}

    def away(v):
        # the tree hanging from parent[v] away from v, that parent at level 0
        seq = hanging.get(v)
        if seq is None:
            u = parent[v]
            run = packed[u:stop[u]].translate(_SHALLOWER[levels[u]])
            subs = [run[c - u:stop[c] - u] for c in children[u] if c != v]
            if u:
                up = away(u).translate(_DEEPER)
                i = 0
                while i < len(subs) and subs[i] >= up:
                    i += 1
                subs.insert(i, up)
            seq = hanging[v] = b"\0" + b"".join(subs)
        return seq

    deepest = {parent[v]: v for v in range(1, n)
               if levels[v] == (t1_depth if v < end else rest_depth)}
    best = max(map(away, deepest.values()))
    return key, [1, *(x + 2 for x in best)]


def _check_tree_n(n: int) -> None:
    if not 2 <= n <= MAX_TREE_N:
        raise GraphError(f"tree enumeration supports 2 <= n <= {MAX_TREE_N}, got {n}")


def enumerate_trees(n: int, max_degree: int | None = None) -> TreeCatalog:
    """All unlabeled trees on n vertices, optionally filtered by max degree."""
    _check_tree_n(n)
    if max_degree is not None and max_degree < 1:
        raise GraphError(f"max degree must be at least 1, got {max_degree}")
    items = [(entry[0], Graph._from_level_sequence(entry[1]))
             for levels in _free_tree_level_sequences(n)
             if (entry := _catalog_entry(levels, max_degree))]
    items.sort(key=lambda kv: kv[0])
    return TreeCatalog(n=n, max_degree=max_degree,
                       trees=[t for _, t in items],
                       canonical_keys=[k for k, _ in items])


# ---------------------------------------------------------------------------
# spectral radii of bipartite graphs

def _gram_layouts(graphs) -> tuple[dict[int, tuple[list[int], np.ndarray]], dict]:
    """(layouts, pairs): per row count r, the graphs with edges that have r
    rows and their (r, c, B) stack of degree-pair ids, c the most columns
    among them; and the degree pairs, id by id in order of first use.

    Entry (i, k, b) is the id of the degree pair of the edge between row i
    and column k of graph b, or -1 where there is none. The colour classes are the depth parities of g's
    BFS; the smaller class (isolated vertices left out) gives the rows and
    the other the columns, each in vertex order. ValueError when a graph is
    not bipartite.
    """
    # per row count: the graphs, (row, column, graph, pair id) of each edge
    # flat, and the column counts
    groups: dict[int, tuple[list[int], list[int], list[int]]] = {}
    pairs: dict[tuple[int, int], int] = {}
    for b, g in enumerate(graphs):
        if not g.m:
            continue
        depth = _component_depths(g)[1]
        d = g.degrees
        classes: tuple[list[int], list[int]] = ([], [])
        for v in range(g.n):
            if d[v]:
                classes[depth[v] & 1].append(v)
        rows, cols = sorted(classes, key=len)
        row_index = {u: i for i, u in enumerate(rows)}
        owners, entries, widths = groups.setdefault(len(rows), ([], [], []))
        member, found = len(owners), len(entries)
        for k, v in enumerate(cols):
            for u in g.adj[v]:
                i = row_index.get(u)
                if i is None:
                    raise ValueError("graph is not bipartite")
                key = (d[u], d[v]) if d[u] <= d[v] else (d[v], d[u])
                entries += i, k, member, pairs.setdefault(key, len(pairs))
        if len(entries) - found != 4 * g.m:
            # an edge inside the row class closes an odd cycle
            raise ValueError("graph is not bipartite")
        owners.append(b)
        widths.append(len(cols))
    layouts = {}
    for r, (owners, entries, widths) in groups.items():
        ids = np.full((r, max(widths), len(owners)), -1, dtype=np.intp)
        i, k, member, pair = np.array(entries, dtype=np.intp).reshape(-1, 4).T
        ids[i, k, member] = pair
        layouts[r] = owners, ids
    return layouts, pairs


def _scaled_grams(weights: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, e): the member-last (r, r, B P) stack of Gram matrices B B^T of
    every graph of an id stack (r, c, B) at every p (member b P + k is graph
    b at the k-th p), with B the biadjacency block of S_p scaled by 2^-e.

    weights is (D + 1, P): row d holds edge_weight of degree pair id d at
    each p, and the last row the 0.0 that id -1 reads. e puts each member's
    largest entry in [1/2, 1), so G can neither overflow nor lose its largest
    entries to underflow. G is summed as b_k b_k^T over the columns k in
    order, so each entry adds the same products in the same order as a loop
    over the column vertices' stars would, and equals its transpose bit for
    bit.
    """
    r, c, b = ids.shape
    scaled = weights[ids].reshape(r, c, b * weights.shape[1])
    e = np.frexp(scaled.max(axis=(0, 1)))[1]
    np.ldexp(scaled, -e, out=scaled)
    gram = np.zeros((r, r, scaled.shape[2]))
    for k in range(c):
        col = scaled[:, k]
        gram += col[:, None] * col
    return gram, e


def _gram_stacks(graphs, p_values):
    """(owners, G, e) of each row count, in turn: the graphs of that row
    count (_gram_layouts) and their _scaled_grams at every p. Each graph's
    layout is built once and edge_weight is called once per degree pair and
    p, every p before the first stack. ValueError at p = 0 and for a graph
    that is not bipartite."""
    p_values = list(p_values)
    if any(p == 0 for p in p_values):
        raise ValueError("p must be nonzero")
    layouts, pairs = _gram_layouts(graphs)
    weights = np.array([[edge_weight(a, b, p) for a, b in pairs] + [0.0] for p in p_values])
    weights = weights.reshape(len(p_values), len(pairs) + 1).T  # (D + 1, 0) at no p
    for owners, ids in layouts.values():
        yield (owners, *_scaled_grams(weights, ids))


def _solved_radii(gram, e) -> np.ndarray:
    """Jacobi-solve a scaled Gram stack in place (as eigen_decompose solves
    a matrix: B scaled by 2^-e, so G by 2^-2e) and return each member's
    radius, the root of its largest diagonal entry scaled back."""
    _solve(gram, _squares(gram), 2 * e)
    return np.ldexp(np.sqrt(np.diagonal(gram).max(axis=1)), e)


def bipartite_radii(graphs, p_values) -> list[list[float]]:
    """Spectral radius of S_p for each bipartite graph at each p: one list
    per p, in input order.

    With the vertices ordered by colour class, S_p = [[0, B], [B^T, 0]], so
    xi_1 = sqrt(lambda_max(B B^T)) and the Jacobi solve runs on a Gram
    matrix of at most n/2 rows. The Gram matrices of each row count at every
    p are built as one stack (_gram_stacks) and solved by spectral._solve.
    A radius depends on no other graph or p of the call.
    Radii only: the square root of a Gram eigenvalue that rounds near 0 is
    no accurate |xi_i|, so energies and spectra stay on the full matrices. A
    graph without edges has radius 0; ValueError for a graph that is not
    bipartite, EigenConvergenceError (G's residual) as eigen_decompose.
    """
    p_values = list(p_values)
    radii = np.zeros((len(graphs), len(p_values)))
    for owners, gram, e in _gram_stacks(graphs, p_values):
        radii[owners] = _solved_radii(gram, e).reshape(len(owners), -1)
    return radii.T.tolist()


# ---------------------------------------------------------------------------
# extremality of the spectral radius over trees

# Power steps x <- S(S x) / max, from x = 1, before the Collatz-Wielandt
# ratios of S_p^2 are read. They change how many trees are keyed and solved,
# never a result. Trees kept per p by trees --n 12 --verify-extremes --p 1,2,3:
# 472-532 with 0 steps (the bounds are row sums of S_p^2), 113 with 1, 33-34
# with 2, 10 with 3, 4-5 with 4, 2-3 with 5, and from 6 on the path and the
# star alone: 6 members in 2 kernel calls (6 rows and 1).
_POWER_STEPS = 6
# An extreme radius is unique when every other is more than this times the
# maximum radius away (the radii are accurate relative to their size).
# _extreme_candidates keeps every tree within the same gap of an extreme.
_UNIQUE_GAP = 1e-9
# Relative slack on each bound before it rules a tree out. It covers the
# Jacobi stop, OFF_DIAG_FACTOR * ||G||_F, a relative radius error of about
# 1e-12 sqrt(r) for r <= 6 rows, and the rounding of the bounds themselves.
_BOUND_SLACK = 1e-9


def _tree_radius_bounds(levels: np.ndarray, p_values) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (T, P): lo <= radius <= hi for each tree of a (T, n)
    stack of level sequences at each p, before any solve. Each (tree, p) is
    scaled by 2^-e as in _scaled_grams. S_p^2 is nonnegative with Perron root
    xi_1^2, so for any positive x, min_i (S^2 x)_i / x_i <= xi_1^2 <= max_i
    (S^2 x)_i / x_i (Collatz, Math. Z. 48, 1942; Wielandt, Math. Z. 52, 1950).
    x comes from _POWER_STEPS steps x <- S(S x) / max; every tree vertex has
    a neighbour, so x stays positive. A bound beyond the float range is inf.
    """
    k, (t, n) = len(p_values), levels.shape
    trees = np.arange(t)
    last = np.zeros((t, n + 1), dtype=np.intp)  # the last vertex seen at each level
    parent = np.zeros((t, n), dtype=np.intp)
    for v in range(1, n):
        parent[:, v] = last[trees, levels[:, v] - 1]
        last[trees, levels[:, v]] = v
    up = trees[:, None] * n + parent[:, 1:]  # the parent of each v > 0, a flat index
    degree = np.bincount(up.ravel(), minlength=t * n).reshape(t, n)
    degree[:, 1:] += 1
    a, b = degree[:, 1:], degree.ravel()[up]
    pairs, pair = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    table = np.array([[edge_weight(*divmod(d, n), p) for d in pairs.tolist()] for p in p_values])
    weights = table.reshape(k, len(pairs))[:, pair.reshape(t, n - 1)]  # (P, T, n - 1)
    e = np.frexp(weights.max(axis=2))[1]
    weights = np.ldexp(weights, -e[:, :, None]).reshape(k * t, n - 1)
    up = (np.arange(k)[:, None, None] * (t * n) + up).reshape(k * t, n - 1)

    def s_times(x):
        # (S x)_v: w_v x_parent(v) over v's edge up, plus w_c x_c over each child c
        y = np.bincount(up.ravel(), (weights * x[:, 1:]).ravel(), x.size).reshape(x.shape)
        y[:, 1:] += weights * x.ravel()[up]
        return y

    x = np.ones((k * t, n))
    for _ in range(_POWER_STEPS):
        x = s_times(s_times(x))
        x /= x.max(axis=1, keepdims=True)
    ratios = (s_times(s_times(x)) / x).reshape(k, t, n)
    with np.errstate(over="ignore"):
        return (np.ldexp(np.sqrt(ratios.min(axis=2)), e).T,
                np.ldexp(np.sqrt(ratios.max(axis=2)), e).T)


def _extreme_candidates(lo, hi) -> np.ndarray:
    """Which trees (rows) at each p (columns) could still be the minimum or
    the maximum, or stand within the uniqueness gap of one, given the bounds
    lo <= radius <= hi.

    A tree is ruled out when its lowest possible radius exceeds the highest
    possible minimum by more than the largest possible gap (_UNIQUE_GAP times
    the highest possible maximum), and its highest possible radius falls short
    of the lowest possible maximum by more than that gap, each bound widened
    by _BOUND_SLACK. It then is neither extreme nor within the gap of one, so
    leaving it out moves neither key, the tie order nor a *_unique flag. A
    NaN bound, or an upper bound of inf, rules out no tree at its p.
    """
    low, high = lo * (1 - _BOUND_SLACK), hi * (1 + _BOUND_SLACK)
    gap = _UNIQUE_GAP * high.max(axis=0)
    above_min = low > high.min(axis=0) + gap
    below_max = high < low.max(axis=0) - gap
    return ~(above_min & below_max)


@dataclass
class TreeExtremesReport:
    n: int
    p: float
    min_radius: float
    max_radius: float
    min_key: str
    max_key: str
    min_is_path: bool
    max_is_star: bool
    min_unique: bool
    max_unique: bool

    @property
    def ok(self) -> bool:
        return (self.min_is_path and self.max_is_star
                and self.min_unique and self.max_unique)


def verify_tree_extremes(n: int, p: float,
                         catalog: TreeCatalog | None = None) -> TreeExtremesReport:
    """The trees on n vertices with the least and the greatest spectral
    radius; the path should attain the unique minimum and the star the
    unique maximum (established for p >= 1). A radius is unique when every
    other tree's is more than _UNIQUE_GAP (1e-9) times the maximum radius
    away.

    Every tree is bounded from its level sequence and only the trees that
    the bounds cannot rule out are keyed and solved (_tree_extremes); a tree
    ruled out is never solved, so it cannot raise EigenConvergenceError.
    catalog, when given, must be enumerate_trees(n) (no degree filter); it is
    checked and not read, since the pass builds no catalog.
    """
    if catalog is not None and (catalog.n != n or catalog.max_degree is not None):
        raise ValueError(f"catalog must hold every tree on {n} vertices")
    return _tree_extremes(n, [p])[0]


def _tree_extremes(n: int, p_values) -> list[TreeExtremesReport]:
    """verify_tree_extremes at each p. Every tree is bounded from its level
    sequence (_tree_radius_bounds); only the trees that could be an extreme or
    within the gap of one at some p (_extreme_candidates) are keyed
    (_catalog_entry), built and stacked (_gram_stacks), and at each p only its
    candidates are solved. Sorted by key they keep catalog order, and a radius
    does not depend on its stack, so the reports are those over every tree."""
    _check_tree_n(n)
    p_values = list(p_values)
    if not p_values:
        return []
    sequences = list(_free_tree_level_sequences(n))
    kept = _extreme_candidates(*_tree_radius_bounds(np.array(sequences), p_values))
    found = sorted(((*_catalog_entry(sequences[t]), t) for t in np.flatnonzero(kept.any(axis=1))),
                   key=lambda entry: entry[0])
    trees = [Graph._from_level_sequence(label) for _, label, _ in found]
    kept = kept[[t for _, _, t in found]]
    k = len(p_values)
    radii = np.zeros(kept.shape)
    for owners, gram, e in _gram_stacks(trees, p_values):
        members = np.flatnonzero(kept[owners])  # b k + j: tree owners[b] at p_values[j]
        if members.size:
            tree, j = np.array(owners)[members // k], members % k
            radii[tree, j] = _solved_radii(gram[:, :, members], e[members])
    radii = radii.tolist()
    return [_extremes_report(n, p, [(radii[i][j], found[i][0], trees[i])
                                    for i in np.flatnonzero(kept[:, j])])
            for j, p in enumerate(p_values)]


def _extremes_report(n: int, p: float, candidates: list[tuple[float, str, Graph]]
                     ) -> TreeExtremesReport:
    # (radius, key, tree) of each candidate tree at p, in catalog order; the
    # trees left out are no extreme and not within the gap of one
    order = sorted(candidates, key=lambda c: c[0])
    (min_val, min_key, lo), (max_val, max_key, hi) = order[0], order[-1]
    gap = _UNIQUE_GAP * max_val
    min_unique = len(order) < 2 or order[1][0] - min_val > gap
    max_unique = len(order) < 2 or max_val - order[-2][0] > gap
    # Among trees on n vertices the path alone has max degree <= 2 and the
    # star alone has max degree n - 1.
    return TreeExtremesReport(
        n=n, p=p, min_radius=min_val, max_radius=max_val, min_key=min_key, max_key=max_key,
        min_is_path=max(lo.degrees) <= 2, max_is_star=max(hi.degrees) == n - 1,
        min_unique=min_unique, max_unique=max_unique)


def rank_trees(n: int, p: float, count: int = 3) -> list[tuple[str, float]]:
    """Exploratory ranking: (canonical key, radius) sorted by radius, the
    count smallest and the count largest (every tree when they overlap).
    Every tree on n vertices is solved (bipartite_radii), no bound rules one
    out."""
    if count < 1:
        raise ValueError(f"rank count must be at least 1, got {count}")
    catalog = enumerate_trees(n)
    (radii,) = bipartite_radii(catalog.trees, [p])
    ordered = sorted(zip(catalog.canonical_keys, radii), key=lambda kv: kv[1])
    if count * 2 >= len(ordered):
        return ordered
    return ordered[:count] + ordered[-count:]


# ---------------------------------------------------------------------------
# bridge shift experiment

@dataclass
class ShiftOutcome:
    edge: tuple[int, int]       # oriented (u, v): neighbours of v moved to u
    radius_before: float
    radius_after: float
    increased: bool


@dataclass
class ShiftReport:
    p: float
    outcomes: list[ShiftOutcome]
    applicable: bool
    reason: str | None

    @property
    def all_increased(self) -> bool:
        return all(o.increased for o in self.outcomes)


def shift_experiment(g: Graph, p: float) -> ShiftReport:
    """Move all far-side neighbours across each non-pendant bridge and check
    the spectral radius strictly increases.

    The bridge is oriented by the dominant eigenvector so the kept endpoint u
    has the not-smaller component; a positivity sanity gate rejects graphs
    where the computed vector is not strictly one-signed (cannot happen for
    connected inputs).
    """
    from .graphs import shift_transform

    stats = structure_stats(g)
    if not stats.is_connected:
        return ShiftReport(p, [], False, "disconnected")
    eligible = [(u, v) for u, v, pendant in stats.cut_edges if not pendant]
    if not eligible:
        return ShiftReport(p, [], False, "no non-pendant cut edge")
    dec = sombor_decomposition(g, p, want_vectors=True)
    vec = dec.eigenvectors[:, 0]
    if vec.sum() < 0:
        vec = -vec
    if not (vec > 0).all():
        return ShiftReport(p, [], False, "dominant eigenvector not strictly positive")
    xi1 = dec.radius
    margin = 1e-10 * max(1.0, xi1)
    outcomes = []
    for u, v in eligible:
        if vec[u] < vec[v]:
            u, v = v, u
        shifted = shift_transform(g, u, v)
        xi1_after = sombor_decomposition(shifted, p).radius
        outcomes.append(ShiftOutcome((u, v), xi1, xi1_after,
                                     xi1_after - xi1 > margin))
    return ShiftReport(p, outcomes, True, None)
