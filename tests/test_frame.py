"""The frame's helpers give what Python's scalar arithmetic gives, row by row:
the same values (NaN, signed zeros and infinities included) and the same
exceptions. Its spectral columns give what each row's own decompositions
gave, and its structure columns what Graph, structure_stats, the graphs
predicates and the invariants give for each graph (thm5.9.1's C1 columns:
what solving each complement component on its own gives, at each p)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import unions

from psombor import config
from psombor.bounds import build_corpus, contexts
from psombor.frame import _STRUCTURE, divide, exp, maximum, minimum, power, sqrt
from psombor.graphs import (
    Graph,
    complement,
    connected_components,
    induced_subgraph,
    is_balanced_complete_bipartite,
    is_c4_free,
    is_complete,
    is_complete_bipartite,
    is_complete_multipartite,
    path_graph,
    random_gnm,
    structure_stats,
)
from psombor.invariants import _left_sum, first_zagreb, isi_index, randic_index
from psombor.spectral import sombor_decomposition

NAN, INF = math.nan, math.inf
P_GRID = (-1.0, 0.5, 1.0, 2.0, 3.0)
VALUES = [0.0, -0.0, 1.0, -2.5, 3e-320, 1e300, INF, -INF, NAN]


def _same(got, expected):
    """Equal lists of floats by repr, so that nan, -0.0 and inf count."""
    return [repr(float(x)) for x in got] == [repr(float(x)) for x in expected]


def _pairs():
    a = np.array([x for x in VALUES for _ in VALUES])
    b = np.array([y for _ in VALUES for y in VALUES])
    return a, b


def test_maximum_and_minimum_pick_as_python():
    a, b = _pairs()
    with np.errstate(all="ignore"):
        assert _same(maximum(a, b), [max(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert _same(minimum(a, b), [min(x, y) for x, y in zip(a.tolist(), b.tolist())])
        # a scalar floor, as the table writes max(0.0, x)
        assert _same(maximum(0.0, b), [max(0.0, y) for y in b.tolist()])


def test_power_and_exp_match_python_and_raise_as_it_does():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 50.0, 2000)
    assert _same(power(x, 0.25), [v ** 0.25 for v in x.tolist()])
    assert _same(power(x, 3), [v ** 3 for v in x.tolist()])
    assert _same(exp(x), [math.exp(v) for v in x.tolist()])
    with pytest.raises(OverflowError):
        power(np.array([1.0, 1e200]), 2)
    with pytest.raises(OverflowError):
        exp(np.array([1.0, 710.0]))


def test_sqrt_and_divide_raise_where_python_does():
    x = np.array(VALUES[:4] + [INF, NAN])
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            sqrt(x)
        ok = x[x >= 0]
        assert _same(sqrt(ok), [math.sqrt(v) for v in ok.tolist()])
        with pytest.raises(ZeroDivisionError):
            divide(np.array([1.0, 2.0]), np.array([4.0, -0.0]))
        assert _same(divide(np.array([1.0, -INF]), np.array([3.0, 2.0])), [1.0 / 3.0, -INF])


def test_pow2_raises_only_for_a_p_of_its_rows():
    # K1 has no edge, so its contexts exist at any p; 2^(1 + 3/p) overflows
    # at p = 0.002 and is 2^2.5 at p = 2.
    frame = contexts([("K1", Graph(1))], (0.002, 2.0))
    with pytest.raises(OverflowError):
        frame.pow2(1, 3.0)
    at_two = contexts([("K1", Graph(1))], (2.0,))
    assert at_two.pow2(1, 3.0).tolist() == [2.0 ** (1 + 3.0 / 2.0)]
    assert at_two.root.tolist() == [2.0 ** (1.0 / 2.0)]


def _old_columns(s, lap, comp, adj):
    """Each spectral column of one row by the per-member formula it had, from
    the scalar decompositions of its S_p, L_p, complement S_p and adjacency
    matrix."""
    from psombor.config import ZERO_TOL_FACTOR
    from psombor.frame import EXP_LIMIT
    from psombor.invariants import estrada_index, graph_energy
    from test_spectral import _cluster_distinct

    det = 1.0
    for x in s.eigenvalues:
        det *= abs(float(x))
    if det < (ZERO_TOL_FACTOR * s.norm) ** s.n:
        det = 0.0
    if det < INF:
        det_root = det ** (2.0 / s.n)
    else:
        scaled = 1.0
        for x in s.eigenvalues:
            scaled *= abs(float(x)) / s.scale
        det_root = scaled ** (2.0 / s.n) * s.scale ** 2
    return {
        "xi1": s.radius,
        "xin": s.smallest,
        "n_pos": s.inertia[0],
        "n_zero": s.inertia[1],
        "n_neg": s.inertia[2],
        "abs_max": max(abs(s.radius), abs(s.smallest)),
        "abs_min": float(abs(s.eigenvalues).min()),
        "distinct": len(_cluster_distinct(s.eigenvalues, min(1.0, s.norm))),
        "energy": graph_energy(s),
        "_estrada": INF if s.radius > EXP_LIMIT else estrada_index(s),
        "det_root": det_root,
        "eta_max": float(lap.eigenvalues[0]),
        "eta_2": float(lap.eigenvalues[-2]) if lap.n >= 2 else NAN,
        "eta_n": float(lap.eigenvalues[-1]),
        "eta_sum": float(lap.eigenvalues.sum()),
        "lap_zeros": lap.inertia[1],
        "lap_scale": lap.scale,
        "xi1_sum": s.radius + comp.radius,
        "energy_c": graph_energy(comp),
        "mu1": adj.radius,
    }


def test_spectral_columns_equal_the_per_member_formulas():
    # Gathers and row sums over the solved stacks give, bit for bit and in
    # the same dtype, what each row's own decomposition gave; the sums along
    # (B, n) rows are those of the 1-D spectra.
    from psombor.bounds import corpus_families, corpus_special, corpus_trees
    from psombor.graphs import complement
    from psombor.spectral import (adjacency_decomposition, laplacian_decomposition,
                                  sombor_decomposition)

    graphs = corpus_families(6) + corpus_special() + corpus_trees(5, 6)
    frame = contexts(graphs, P_GRID)
    rows = []
    for _, g in graphs:
        adj = adjacency_decomposition(g)
        for p in P_GRID:
            rows.append(_old_columns(sombor_decomposition(g, p), laplacian_decomposition(g, p),
                                     sombor_decomposition(complement(g), p), adj))
    assert len({len(row) for row in rows}) == 1 and frame.size == len(rows)
    for name in rows[0]:
        expected = np.array([row[name] for row in rows])
        column = getattr(frame, name)
        assert column.dtype == expected.dtype, name
        assert column.tobytes() == expected.tobytes(), name


def _c1(parts, p):
    """thm5.9.1's deg_max and 2 m - deg_min (n - 1 - deg_max) - deg_max of
    C1, the first complement part with edges of the largest radius at p (0
    and 0 without parts)."""
    if not parts:
        return 0, 0
    radii = [sombor_decomposition(x, p).radius for x in parts]
    x = parts[radii.index(max(radii))]
    dmin, dmax = min(x.degrees), max(x.degrees)
    return dmax, 2 * x.m - dmin * (x.n - 1 - dmax) - dmax


def _old_structure(g):
    """Each structure column of one graph by the per-graph formula it had,
    from Graph, structure_stats, the graphs predicates and the invariants;
    the C1 columns, one value per p of P_GRID, by solving each complement
    part on its own. ISI, Randic and complement_term are floats even where
    the graph or its complement has no edges (the empty sum is the int 0):
    those columns are float64 in every frame."""
    stats = structure_stats(g)
    h = complement(g)
    parts = [induced_subgraph(h, comp) for comp in connected_components(h) if len(comp) > 1]
    part1, part2 = stats.bipartition_sizes or (0, 0)
    c1 = [_c1(parts, p) for p in P_GRID]
    return {
        "n": g.n,
        "m": g.m,
        "has_edge": g.m >= 1,
        "edgeless": g.m == 0,
        "m1": first_zagreb(g),
        "isi": float(isi_index(g)),
        "randic": float(randic_index(g)),
        "dmin": stats.min_degree,
        "dmax": stats.max_degree,
        "min_degree_positive": stats.min_degree >= 1,
        "t_min": stats.t_min or 0,
        "t_max": stats.t_max or 0,
        "avg_degree": stats.average_degree,
        "diameter": stats.diameter,
        "connected": stats.is_connected,
        "connected2": stats.is_connected and g.n >= 2,
        "regular": stats.is_regular,
        "bipartite": stats.is_bipartite,
        "part1": part1,
        "part2": part2,
        "components": len(connected_components(g)),
        "complete": is_complete(g),
        "complete_bipartite": is_complete_bipartite(g),
        "balanced_complete_bipartite": is_balanced_complete_bipartite(g),
        "regular_complete_multipartite": stats.is_regular and is_complete_multipartite(g),
        "regular_c4_free": stats.is_regular and is_c4_free(g),
        "complement_term": float(_left_sum(x.m * (x.n - 1 - max(x.degrees)) / x.n
                                           for x in parts)),
        "c1_dmax": [dmax for dmax, _ in c1],
        "c1_inner": [inner for _, inner in c1],
    }


def _assert_structure_columns_are_the_oracle(graphs):
    frame = contexts(graphs, P_GRID)
    rows = [_old_structure(g) for _, g in graphs]
    assert set(rows[0]) == _STRUCTURE
    for name in sorted(_STRUCTURE):
        expected = np.array([row[name] for row in rows])
        # a C1 column has a value per row, graph by graph and p by p
        expected = expected.ravel() if expected.ndim == 2 else expected[frame.graph_index]
        column = getattr(frame, name)
        assert column.dtype == expected.dtype, name
        assert column.tobytes() == expected.tobytes(), name


def test_structure_columns_equal_the_per_graph_stats_on_all():
    _assert_structure_columns_are_the_oracle(build_corpus("all"))


# P40 next to a disconnected G(40, 30): 80 vertices, (3k + 1) 80^2 entries at
# the five p, over the stack budget, so its block is a stack of its own.
PATH_AND_SPARSE = Graph(80, [*path_graph(40).edges(),
                             *((u + 40, v + 40) for u, v in random_gnm(40, 30, 3).edges())])


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.lists(unions(), min_size=1, max_size=6))
@example([PATH_AND_SPARSE, Graph(1), Graph(2), Graph(2, [(0, 1)]), Graph(4)])
def test_structure_columns_equal_the_per_graph_stats(graphs):
    if PATH_AND_SPARSE in graphs:
        assert (3 * len(P_GRID) + 1) * 80 ** 2 > config.SUITE_CHUNK_ENTRIES
        assert not structure_stats(PATH_AND_SPARSE).is_connected
    _assert_structure_columns_are_the_oracle([(f"g{i}", g) for i, g in enumerate(graphs)])
