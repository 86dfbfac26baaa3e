"""Frames: the columns that the check table of psombor.bounds reads.

A Frame has the (graph, p) rows of a run of graphs, as bounds.contexts
builds it, and gives one 1-D array per quantity: n, m, p, SO_p, the moments
N2-N4, degrees, radii, energies, inertias, structural predicates and so on.
Every column comes from one of three places: the values contexts sets
(SO_p, the variance, N2-N4, the subdivision energy), the arrays of the
stacks the rows were solved in (_SPECTRAL), or the one boolean adjacency
block per stack that contexts keeps (_STRUCTURE: the p-independent
structure of each graph and of its complement, in NumPy, with no per-graph
traversal and no complement Graph). The last two are computed for every
row on first read. A check evaluates once per frame.

The helpers below reproduce Python's scalar arithmetic bit for bit. + - * /
and sqrt are correctly rounded in NumPy too, but on SIMD paths np.power and
np.exp need not match libm's pow and exp (over 200,000 random arguments on
an AVX-512 x86-64 machine, np.power(x, y) differed from x ** y in 10,765
cases and np.exp from math.exp in 9,309). So powers with a float base or a
non-integer exponent and exp() run per row in Python (each, power, exp), or
once per distinct p (Frame.pow2). Float sums add left to right from 0, as
invariants._left_sum does (upper_sums), never by np.sum's pairwise rule.
Where Python raises and NumPy would return inf or NaN (a zero divisor, a
negative sqrt, an overflowing power or exp), the helpers raise the same
exception.
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .invariants import _abs_product, _left_sum
from .spectral import cluster_starts

EXP_LIMIT = config.ESTRADA_EXP_LIMIT


def _det_root(values: list, norm: float, scale: float) -> float:
    """|det|^(2/n) of a spectrum; when the plain product overflows, from the
    product of |xi_i| / scale (each at most 1), times scale^2."""
    det = _abs_product(values, norm)
    if det < math.inf:
        return det ** (2.0 / len(values))
    return math.prod(abs(x) / scale for x in values) ** (2.0 / len(values)) * scale ** 2


# Columns read from the Spectra x of a stack, whose members s, lap, comp and
# adj are the rows' S_p, L_p, complement S_p and adjacency matrix. Sums along
# C-contiguous rows give each row's 1-D sum; exp (estrada_index without its
# warning, which bounds emits for the rows read) and the determinant run per
# row in Python.
_SPECTRAL = {
    "xi1": lambda x, s, **_: x.eigenvalues[s, 0],
    "xin": lambda x, s, **_: x.eigenvalues[s, -1],
    "n_pos": lambda x, s, **_: x.inertia[s, 0],
    "n_zero": lambda x, s, **_: x.inertia[s, 1],
    "n_neg": lambda x, s, **_: x.inertia[s, 2],
    "abs_max": lambda x, s, **_: maximum(abs(x.eigenvalues[s, 0]), abs(x.eigenvalues[s, -1])),
    "abs_min": lambda x, s, **_: abs(x.eigenvalues[s]).min(axis=1),
    "distinct": lambda x, s, **_: cluster_starts(x.eigenvalues[s],
                                                 np.minimum(1.0, x.norm[s])).sum(axis=1),
    "energy": lambda x, s, **_: abs(x.eigenvalues[s]).sum(axis=1),
    "_estrada": lambda x, s, **_: each(lambda e: math.inf if e[0] > EXP_LIMIT
                                       else _left_sum(map(math.exp, e)),
                                       x.eigenvalues[s].tolist()),
    "det_root": lambda x, s, **_: each(_det_root, x.eigenvalues[s].tolist(), x.norm[s],
                                       x.scale[s]),
    "eta_max": lambda x, lap, **_: x.eigenvalues[lap, 0],
    "eta_2": lambda x, lap, **_: (x.eigenvalues[lap, -2] if x.eigenvalues.shape[1] >= 2
                                  else np.full(len(lap), math.nan)),
    "eta_n": lambda x, lap, **_: x.eigenvalues[lap, -1],
    "eta_sum": lambda x, lap, **_: x.eigenvalues[lap].sum(axis=1),
    "lap_zeros": lambda x, lap, **_: x.inertia[lap, 1],
    "lap_scale": lambda x, lap, **_: x.scale[lap],
    "xi1_sum": lambda x, s, comp, **_: x.eigenvalues[s, 0] + x.eigenvalues[comp, 0],
    "energy_c": lambda x, comp, **_: abs(x.eigenvalues[comp]).sum(axis=1),
    "mu1": lambda x, adj, **_: x.eigenvalues[adj, 0],
}
# Columns read per graph from the adjacency blocks of the stacks (_structure).
_STRUCTURE = frozenset((
    "n", "m", "has_edge", "edgeless", "m1", "isi", "randic", "dmin", "dmax",
    "min_degree_positive", "t_min", "t_max", "avg_degree", "diameter", "connected",
    "connected2", "regular", "bipartite", "part1", "part2", "components", "complete",
    "complete_bipartite", "balanced_complete_bipartite", "regular_complete_multipartite",
    "regular_c4_free", "complement_term"))


def upper_sums(x: np.ndarray) -> np.ndarray:
    """The sum of the row-major upper triangle of each (n, n) matrix of x, the
    edges() order where x holds per-edge terms: added left to right from 0
    as _left_sum adds (np.cumsum adds in order, np.sum pairwise)."""
    n = x.shape[-1]
    terms = np.triu(x, 1).reshape(*x.shape[:-2], n * n)
    return np.cumsum(terms, axis=-1, out=terms)[..., -1]


def _distances(a: np.ndarray) -> np.ndarray:
    """All-pairs distances in each graph of a (count, n, n) boolean adjacency
    block, inf between components: n steps of Floyd's min-plus recurrence
    over the whole block (Floyd, "Algorithm 97: Shortest path", CACM 5(6),
    1962), O(n^3) per graph whatever the diameter."""
    n = a.shape[1]
    d = np.where(a, 1.0, math.inf)
    d[:, np.arange(n), np.arange(n)] = 0.0
    for k in range(n):
        np.minimum(d, d[:, :, k, None] + d[:, None, k, :], out=d)
    return d


def _structure(a: np.ndarray) -> dict:
    """The _STRUCTURE columns of the graphs of a (count, n, n) boolean
    adjacency block (n >= 1), one value per graph, equal in value and dtype
    to what Graph, structure_stats, the graphs predicates and the invariants
    give (ISI, Randic and the complement term as floats even without edges):
    from the degrees, A A (common neighbours; small integers, so exact in
    any summation order) and the distances of each graph and of its
    complement. Depths from each component's smallest vertex 2-colour it as
    _component_depths does. complement_term adds a term per component of
    the complement, in order of smallest vertex."""
    count, n, _ = a.shape
    vertices = np.arange(n)
    deg = a.sum(axis=2)
    m = deg.sum(axis=1) // 2
    dmin, dmax = deg.min(axis=1), deg.max(axis=1)
    product = deg[:, :, None] * deg[:, None, :]   # d_u d_v, read only at the edges
    with np.errstate(divide="ignore", invalid="ignore"):
        isi = np.where(a, product / (deg[:, :, None] + deg[:, None, :]), 0.0)
        randic = np.where(a, 1.0 / np.sqrt(product), 0.0)
    x = a.astype(float)
    common = x @ x
    t_min = np.where(m > 0, np.where(a, common, math.inf).min(axis=(1, 2)), 0)
    t_max = np.where(a, common, 0.0).max(axis=(1, 2))
    common[:, vertices, vertices] = 0.0
    c4_free = common.max(axis=(1, 2)) <= 1.0
    dist = _distances(a)
    reach = np.isfinite(dist)
    root = reach.argmax(axis=2)   # each vertex's component, by its smallest vertex
    connected = (root == 0).all(axis=1)
    depth = dist[np.arange(count)[:, None], root, vertices]
    bipartite = ~(a & (depth[:, :, None] == depth[:, None, :])).any(axis=(1, 2))
    odd = (depth.astype(np.int64) & 1).sum(axis=1)
    part1, part2 = np.where(bipartite, n - odd, 0), np.where(bipartite, odd, 0)
    complete_bipartite = connected & bipartite & (n >= 2) & (m == part1 * part2)
    # The complement's components: size, edges and largest degree at each
    # vertex's component, counted at its smallest vertex (a component
    # without edges adds 0.0, which leaves any sum as it is).
    ca = ~a
    ca[:, vertices, vertices] = False
    creach = np.isfinite(_distances(ca))
    cdeg = (n - 1 - deg)[:, None, :]
    size = creach.sum(axis=2)
    first = creach.argmax(axis=2) == vertices
    edges = (creach * cdeg).sum(axis=2) // 2
    top = np.where(creach, cdeg, 0).max(axis=2)
    terms = np.where(first, edges * (size - 1 - top) / size, 0.0)
    regular = dmin == dmax
    return {
        "n": np.full(count, n),
        "m": m,
        "has_edge": m >= 1,
        "edgeless": m == 0,
        "m1": (deg * deg).sum(axis=1).astype(float),
        "isi": upper_sums(isi),
        "randic": upper_sums(randic),
        "dmin": dmin,
        "dmax": dmax,
        "min_degree_positive": dmin >= 1,
        "t_min": t_min.astype(np.int64),
        "t_max": t_max.astype(np.int64),
        "avg_degree": 2.0 * m / n,
        "diameter": dist.max(axis=(1, 2)),
        "connected": connected,
        "connected2": connected & (n >= 2),
        "regular": regular,
        "bipartite": bipartite,
        "part1": part1,
        "part2": part2,
        "components": (root == vertices).sum(axis=1),
        "complete": m == n * (n - 1) // 2,
        "complete_bipartite": complete_bipartite,
        "balanced_complete_bipartite": complete_bipartite & (part1 == part2),
        # complete multipartite: connected, and the complement's components
        # are cliques; thm5.6 and thm2.5.up read these of regular graphs only
        "regular_complete_multipartite": (regular & connected & (n >= 2)
                                          & (cdeg[:, 0] == size - 1).all(axis=1)),
        "regular_c4_free": regular & c4_free,
        "complement_term": _left_sum(terms.T),
    }


class Frame:
    """The (graph, p) rows of graphs with vertices, graph by graph and p by p
    within each: one 1-D array per quantity (_SPECTRAL, _STRUCTURE and the
    columns given), computed for every row on first read. graphs and
    graph_ids hold each Graph and its id, and graph_index and p_index give
    each row's graph and its p in p_values. stacks holds (Spectra, rows, s,
    lap, comp, adj) per solved stack: the rows it holds and their S_p, L_p,
    complement S_p and adjacency members. blocks holds (members, adjacency)
    per stack: the indices in graphs of its graphs and their (count, n, n)
    boolean adjacency matrices. take(mask) gives a frame of the rows in
    mask, whose columns index this one's. Reading a moment not given raises
    OverflowError: some row's moments left the float range. Reads of the
    Estrada index are marked in the root frame's read, for its overflow
    warning."""

    def __init__(self, graphs, graph_ids, p_values, holds_tol, stacks=(), blocks=(),
                 root=None, rows=None, **columns):
        # A root frame keeps no reference to itself, so that refcounting
        # frees it as soon as its rows are judged.
        self.graphs, self.graph_ids, self.p_values = graphs, graph_ids, p_values
        self.holds_tol, self._parent, self._rows = holds_tol, root, rows
        if root is None:
            k = len(p_values)
            self.graph_index = np.repeat(np.arange(len(graphs)), k)
            self.p_index = np.tile(np.arange(k), len(graphs))
            self.size, self.stacks, self.blocks = len(self.p_index), stacks, blocks
            self.p = np.array(p_values)[self.p_index]
            self.p_at_least_1 = self.p >= 1
            self.read = np.zeros(self.size, dtype=bool)   # rows whose Estrada index was read
            self._powers: dict = {}
            vars(self).update(columns)
        else:
            self.size = len(rows)

    _root = property(lambda self: self._parent or self)

    def __getattr__(self, name):
        if self._parent is not None:
            column = getattr(self._parent, name)[self._rows]
        elif name in _STRUCTURE:
            # Every _STRUCTURE column at once: they share each block's distances.
            per_graph = {}
            for members, block in self.blocks:
                for key, values in _structure(block).items():
                    per_graph.setdefault(key, np.empty(len(self.graphs), values.dtype))
                    per_graph[key][members] = values
            for key, values in per_graph.items():
                setattr(self, key, values[self.graph_index])
            return vars(self)[name]
        elif name in _SPECTRAL:
            parts = [(rows, _SPECTRAL[name](x, s=s, lap=lap, comp=comp, adj=adj))
                     for x, rows, s, lap, comp, adj in self.stacks]
            column = np.empty(self.size, dtype=parts[0][1].dtype)
            for rows, values in parts:
                column[rows] = values
        elif name in ("n2", "n3", "n4"):
            raise OverflowError("spectral moments of S_p exceed the float range")
        else:
            raise AttributeError(name)
        setattr(self, name, column)
        return column

    def take(self, mask) -> Frame:
        rows = np.flatnonzero(mask)
        return Frame(self.graphs, self.graph_ids, self.p_values, self.holds_tol,
                     root=self._root, rows=rows if self._rows is None else self._rows[rows])

    def where(self, mask, evaluate):
        """evaluate(the frame of the rows in mask) as (values, mask): a bound
        that the other rows do not have."""
        values = np.full(self.size, math.nan)
        if mask.any():
            values[mask] = evaluate(self.take(mask))
        return values, mask

    def pow2(self, a: int, b: float) -> np.ndarray:
        """2.0 ** (a + b / p) per row: one Python power per distinct p."""
        powers = self._root._powers
        values = powers.get((a, b))
        if values is None:
            values = powers[a, b] = np.array([2.0 ** (a + b / p) for p in self.p_values])
        return values[self.p_index]

    root = property(lambda self: self.pow2(0, 1.0))   # 2^(1/p)

    @property
    def estrada(self) -> np.ndarray:
        self._root.read[slice(None) if self._rows is None else self._rows] = True
        return self._estrada


def each(fn, *columns) -> np.ndarray:
    """fn over the rows as Python scalars (lists pass as they are): Python's
    float power and math.exp, which NumPy's need not match bit for bit, and
    Python's exceptions."""
    rows = zip(*(c if isinstance(c, list) else c.tolist() for c in columns))
    return np.array([fn(*row) for row in rows], dtype=float)


def power(x, y) -> np.ndarray:
    """x ** y per row, as Python's float power."""
    return each(lambda a: a ** y, x)


def exp(x) -> np.ndarray:
    """math.exp per row."""
    return each(math.exp, x)


def sqrt(x) -> np.ndarray:
    """math.sqrt per row: ValueError on a negative entry."""
    x = np.asarray(x, dtype=float)
    negative = x < 0
    if negative.any():
        math.sqrt(x[negative][0])
    return np.sqrt(x)


def divide(a, b) -> np.ndarray:
    """a / b per row: ZeroDivisionError on a zero divisor, as in Python."""
    zero = np.asarray(b) == 0
    if zero.any():
        i = int(zero.argmax())
        return float(np.broadcast_to(a, zero.shape)[i]) / 0.0
    return a / b


def maximum(a, b):
    """Python's max(a, b) per row: b only where b > a."""
    return np.where(b > a, b, a)


def minimum(a, b):
    """Python's min(a, b) per row: b only where b < a."""
    return np.where(b < a, b, a)
