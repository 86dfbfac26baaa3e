"""Frames: the columns that the check table of psombor.bounds reads.

A Frame has the (graph, p) rows of a run of graphs, as bounds.contexts
builds it, and gives one 1-D array per quantity: n, m, p, SO_p, the moments
N2-N4, degrees, radii, energies, inertias, structural predicates and so on.
contexts sets the values it computes itself (SO_p, the variance, N2-N4);
the others are computed for every row on first read, spectral ones from the
arrays of the stacks the rows were solved in. A check evaluates once per
frame.

The helpers below reproduce Python's scalar arithmetic bit for bit. + - * /
and sqrt are correctly rounded in NumPy too, but on SIMD paths np.power and
np.exp need not match libm's pow and exp (over 200,000 random arguments on
an AVX-512 x86-64 machine, np.power(x, y) differed from x ** y in 10,765
cases and np.exp from math.exp in 9,309). So powers with a float base or a
non-integer exponent and exp() run per row in Python (each, power, exp), or
once per distinct p (Frame.pow2). Where Python raises and NumPy would
return inf or NaN (a zero divisor, a negative sqrt, an overflowing power or
exp), the helpers raise the same exception.
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .graphs import (
    connected_components,
    is_balanced_complete_bipartite,
    is_c4_free,
    is_complete,
    is_complete_bipartite,
    is_complete_multipartite,
)
from .invariants import _abs_product, first_zagreb, isi_index, randic_index
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
                                       else sum(map(math.exp, e)), x.eigenvalues[s].tolist()),
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
# Columns read per graph from its GraphContext.
_GRAPH = {
    "n": lambda gc: gc.g.n,
    "m": lambda gc: gc.g.m,
    "has_edge": lambda gc: gc.g.m >= 1,
    "edgeless": lambda gc: gc.g.m == 0,
    "dmin": lambda gc: gc.stats.min_degree,
    "dmax": lambda gc: gc.stats.max_degree,
    "min_degree_positive": lambda gc: gc.stats.min_degree >= 1,
    "t_min": lambda gc: gc.stats.t_min or 0,
    "t_max": lambda gc: gc.stats.t_max or 0,
    "avg_degree": lambda gc: gc.stats.average_degree,
    "diameter": lambda gc: gc.stats.diameter,
    "connected": lambda gc: gc.stats.is_connected,
    "connected2": lambda gc: gc.stats.is_connected and gc.g.n >= 2,
    "regular": lambda gc: gc.stats.is_regular,
    "bipartite": lambda gc: gc.stats.is_bipartite,
    "part1": lambda gc: (gc.stats.bipartition_sizes or (0, 0))[0],
    "part2": lambda gc: (gc.stats.bipartition_sizes or (0, 0))[1],
    "components": lambda gc: len(connected_components(gc.g)),
    "complete": lambda gc: is_complete(gc.g),
    "complete_bipartite": lambda gc: is_complete_bipartite(gc.g),
    "balanced_complete_bipartite": lambda gc: is_balanced_complete_bipartite(gc.g),
    # thm5.6 and thm2.5.up read these of regular graphs only
    "regular_complete_multipartite": lambda gc: (gc.stats.is_regular
                                                 and is_complete_multipartite(gc.g)),
    "regular_c4_free": lambda gc: gc.stats.is_regular and is_c4_free(gc.g),
    "m1": lambda gc: first_zagreb(gc.g),
    "randic": lambda gc: randic_index(gc.g),
    "isi": lambda gc: isi_index(gc.g),
    "complement_term": lambda gc: sum(h.m * (h.n - 1 - max(h.degrees)) / h.n
                                      for h in gc.complement_parts),
}


class Frame:
    """The (graph, p) rows of graphs with vertices, graph by graph and p by p
    within each: one 1-D array per quantity (_SPECTRAL, _GRAPH and the
    columns given), computed for every row on first read. graphs and
    graph_ids hold each graph's GraphContext and id, and graph_index and
    p_index give each row's graph and its p in p_values. stacks holds
    (Spectra, rows, s, lap, comp, adj) per solved stack: the rows it holds
    and their S_p, L_p, complement S_p and adjacency members. take(mask)
    gives a frame of the rows in mask, whose columns index this one's.
    Reading a moment not given raises OverflowError: some row's moments left
    the float range. Reads of the Estrada index are marked in the root
    frame's read, for its overflow warning."""

    def __init__(self, graphs, graph_ids, p_values, holds_tol, stacks=(), root=None,
                 rows=None, **columns):
        # A root frame keeps no reference to itself, so that refcounting
        # frees it as soon as its rows are judged.
        self.graphs, self.graph_ids, self.p_values = graphs, graph_ids, p_values
        self.holds_tol, self._parent, self._rows = holds_tol, root, rows
        if root is None:
            k = len(p_values)
            self.graph_index = np.repeat(np.arange(len(graphs)), k)
            self.p_index = np.tile(np.arange(k), len(graphs))
            self.size, self.stacks = len(self.p_index), stacks
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
        elif name in _GRAPH:
            column = np.array([_GRAPH[name](gc) for gc in self.graphs])[self.graph_index]
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

    @property
    def graph(self) -> list:
        """The GraphContext of each row."""
        return [self.graphs[i] for i in self.graph_index.tolist()]

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
