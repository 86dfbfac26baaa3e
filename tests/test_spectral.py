import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import bipartite_graphs, graphs, nonzero_p

from psombor.extremal import bipartite_radii
from psombor.graphs import (
    Graph,
    _component_depths,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnm,
    star_graph,
    structure_stats,
)
from psombor.invariants import sombor_index
from psombor.spectral import (
    EigenConvergenceError,
    adjacency_decomposition,
    build_p_laplacian,
    build_sombor_matrix,
    edge_weight,
    eigen_decompose,
    eigen_decompose_many,
    laplacian_decomposition,
    moments_closed_form,
    moments_from_spectrum,
    sombor_decomposition,
)

P_GRID = (-1.0, 0.5, 1.0, 2.0, 3.0)


def test_matrix_k2():
    m = build_sombor_matrix(Graph(2, [(0, 1)]), 2.0)
    assert m[0, 1] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert m[0, 0] == 0.0


def test_matrix_k3():
    m = build_sombor_matrix(complete_graph(3), 2.0)
    off = [m[i, j] for i in range(3) for j in range(3) if i != j]
    assert all(x == pytest.approx(2 * math.sqrt(2), abs=1e-15) for x in off)


def test_matrix_p3_isi_weights():
    # p = -1 entries are d_i d_j / (d_i + d_j)
    m = build_sombor_matrix(path_graph(3), -1.0)
    assert m[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m[1, 2] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_matrix_rejects_p_zero():
    with pytest.raises(ValueError):
        build_sombor_matrix(path_graph(3), 0.0)
    with pytest.raises(ValueError):
        edge_weight(2, 3, 0.0)


def test_half_sum_equals_index():
    from psombor.invariants import sombor_index
    for seed in range(5):
        g = random_gnm(7, 10, seed)
        for p in P_GRID:
            m = build_sombor_matrix(g, p)
            assert m.sum() / 2.0 == pytest.approx(sombor_index(g, p), rel=1e-12)


def test_laplacian_k2():
    lap = build_p_laplacian(Graph(2, [(0, 1)]), 2.0)
    r2 = math.sqrt(2)
    assert np.allclose(lap, [[r2, -r2], [-r2, r2]], atol=1e-15)


def test_laplacian_star_diagonal():
    lap = build_p_laplacian(star_graph(4), 2.0)
    r10 = math.sqrt(10)
    assert np.allclose(np.diag(lap), [3 * r10, r10, r10, r10], atol=1e-12)


def test_laplacian_rows_sum_to_zero():
    for seed in range(5):
        g = random_gnm(8, 11, seed)
        for p in P_GRID:
            lap = build_p_laplacian(g, p)
            assert np.abs(lap.sum(axis=1)).max() < 1e-10


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs(), nonzero_p)
def test_laplacian_rows_sum_to_zero_on_random_graphs(g, p):
    lap = build_p_laplacian(g, p)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * (1.0 + np.abs(lap).max())


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs(), nonzero_p)
def test_trace_identity_on_random_graphs(g, p):
    # SO_p = (1/2) sum of the p-Laplacian eigenvalues (its trace is 2 SO_p).
    so = sombor_index(g, p)
    half_trace = 0.5 * float(laplacian_decomposition(g, p).eigenvalues.sum())
    assert abs(so - half_trace) <= 1e-12 * max(1.0, so)


# --- eigensolver ---

def test_eigen_k3():
    dec = sombor_decomposition(complete_graph(3), 2.0)
    expected = [4 * math.sqrt(2), -2 * math.sqrt(2), -2 * math.sqrt(2)]
    assert np.abs(dec.eigenvalues - expected).max() < 1e-12


def test_eigen_star():
    dec = sombor_decomposition(star_graph(4), 2.0)
    r30 = math.sqrt(30)
    assert np.abs(dec.eigenvalues - [r30, 0.0, 0.0, -r30]).max() < 1e-12
    assert dec.inertia == (1, 2, 1)


def test_eigen_p4_quartic_roots():
    dec = sombor_decomposition(path_graph(4), 2.0)
    hi = math.sqrt(9 + math.sqrt(56))
    lo = math.sqrt(9 - math.sqrt(56))
    assert np.abs(dec.eigenvalues - [hi, lo, -lo, -hi]).max() < 1e-12


def test_eigen_trace_identity():
    for seed in range(10):
        g = random_gnm(8, 12, seed)
        for p in (1.0, 2.0):
            m = build_sombor_matrix(g, p)
            dec = eigen_decompose(m, kind="p_sombor", p=p)
            assert dec.eigenvalues.sum() == pytest.approx(np.trace(m), abs=1e-9 * dec.scale)


def test_eigen_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        a = rng.standard_normal((n, n))
        a = a + a.T
        dec = eigen_decompose(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.abs(dec.eigenvalues - ref).max() < 1e-10 * dec.scale


def test_eigenvector_residuals():
    for seed in range(5):
        g = random_gnm(9, 14, seed)
        for p in P_GRID:
            m = build_sombor_matrix(g, p)
            dec = eigen_decompose(m, want_vectors=True, kind="p_sombor", p=p)
            fro = np.linalg.norm(m)
            for i in range(g.n):
                v = dec.eigenvectors[:, i]
                assert np.linalg.norm(m @ v - dec.eigenvalues[i] * v) <= 1e-10 * max(1.0, fro)
            # orthonormality
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.abs(gram - np.eye(g.n)).max() < 1e-12


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigen_decompose(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_eigen_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        eigen_decompose(np.array([[0.0, math.inf], [math.inf, 0.0]]))


def test_eigen_norm_overflow_is_an_overflow_error():
    # ||M||_F = 2e200 * sqrt(2) leaves the float range although every entry
    # is finite; the solver must not run against an infinite threshold
    with pytest.raises(OverflowError, match="Frobenius norm"):
        eigen_decompose(np.array([[0.0, 1e200], [1e200, 0.0]]))
    with pytest.raises(OverflowError, match="Frobenius norm"):
        sombor_decomposition(path_graph(4), 0.0015)


def test_convergence_error_carries_residual():
    err = EigenConvergenceError(1e-3, 100)
    assert err.residual == 1e-3 and "100 sweeps" in str(err)


def test_distinct_clustering():
    dec = sombor_decomposition(star_graph(4), 2.0)
    values = [v for v, _ in dec.distinct]
    mults = [m for _, m in dec.distinct]
    assert len(values) == 3 and mults == [1, 2, 1]


def _cluster_distinct(values, floor):
    """The scalar clustering loop, the oracle of the column-wise rule: a value
    joins the last cluster within CLUSTER_GAP_FACTOR * max(floor, |cluster
    value|) of it."""
    from psombor import config

    out = []
    for x in values:
        x = float(x)
        if out and (abs(out[-1][0] - x)
                    <= config.CLUSTER_GAP_FACTOR * max(floor, abs(out[-1][0]))):
            val, mult = out[-1]
            out[-1] = (val, mult + 1)
        else:
            out.append((x, 1))
    return tuple(out)


# Steps down from one value to the next, in units of CLUSTER_GAP_FACTOR *
# max(floor, |value|): 0 is an exact tie, below 1 a neighbour within the gap
# (two 0.6 steps drift 1.2 gaps from the cluster's first value), above 1 a
# new cluster.
_STEPS = st.sampled_from([0.0, 0.0, 0.3, 0.6, 0.6, 0.999, 1.0, 1.001, 2.0, 1e3, 1e9])
_FLOORS = st.sampled_from([0.0, 1e-300, 1e-9, 0.5, 1.0, 2.0, 1e6])


@st.composite
def _descending_rows(draw):
    """(B, n) descending rows and a floor per row, n from 0: chains, ties,
    all-zero rows and floors below and above 1."""
    from psombor import config

    n, b = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    rows, floors = [], []
    for _ in range(b):
        floor = draw(_FLOORS)
        x = draw(st.sampled_from([0.0, 0.0, 1e-200, -3e-9, 1.0, -1.0, 7.5, -1e4])
                 | st.floats(-1e3, 1e3))
        row = []
        for _ in range(n):
            row.append(x)
            x -= draw(_STEPS) * config.CLUSTER_GAP_FACTOR * max(floor, abs(x))
        rows.append(row)
        floors.append(floor)
    return np.array(rows, dtype=float).reshape(b, n), np.array(floors)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_descending_rows())
def test_column_clusters_match_the_scalar_loop(rows):
    from psombor.spectral import SpectralDecomposition, cluster_starts

    values, floors = rows
    starts = cluster_starts(values, floors)
    for row, floor, start in zip(values, floors.tolist(), starts):
        expected = _cluster_distinct(row, floor)
        first = np.flatnonzero(start)
        got = tuple(zip(row[first].tolist(), np.diff(first, append=len(row)).tolist()))
        assert got == expected and start.sum() == len(expected)
        # A decomposition's clusters, whose floor is min(1, norm).
        if floor <= 1.0:
            dec = SpectralDecomposition("p_sombor", 1.0, row, None, (0, 0, 0), 0.0, 0, 1.0,
                                        floor)
            assert dec.distinct == expected


def test_regular_scaling_law():
    # for k-regular graphs the weighted matrix is 2^(1/p) k times adjacency
    for g, k in ((cycle_graph(6), 2), (complete_graph(5), 4)):
        adec = adjacency_decomposition(g)
        for p in P_GRID:
            sdec = sombor_decomposition(g, p)
            scale = 2.0 ** (1.0 / p) * k
            assert np.abs(sdec.eigenvalues - scale * adec.eigenvalues).max() < 1e-9 * scale


# --- Laplacian spectrum properties ---

def test_laplacian_psd_and_zero():
    for seed in range(8):
        g = random_gnm(8, 10, seed)
        for p in P_GRID:
            dec = laplacian_decomposition(g, p)
            assert dec.eigenvalues[-1] >= -1e-8 * dec.scale
            assert abs(dec.eigenvalues[-1]) <= 1e-8 * dec.scale


def test_laplacian_zero_multiplicity_equals_components():
    from psombor.graphs import connected_components
    for seed in range(8):
        g = random_gnm(8, 9, seed)
        for p in (1.0, 2.0):
            dec = laplacian_decomposition(g, p)
            assert dec.inertia[1] == len(connected_components(g))


def test_laplacian_connected_simple_zero():
    g = cycle_graph(7)
    for p in P_GRID:
        dec = laplacian_decomposition(g, p)
        assert dec.inertia[1] == 1
        assert dec.distinct[-1][1] == 1


def _rayleigh_quotient(g, p, omega):
    from psombor.spectral import build_sombor_matrix
    m = build_sombor_matrix(g, p)
    num = sum(m[i, j] * (omega[i] - omega[j]) ** 2 for i, j in g.edges())
    den = sum((omega[i] - omega[j]) ** 2 for i in range(g.n) for j in range(g.n))
    return 2 * g.n * num / den


def test_rayleigh_sandwich():
    # quotient of any non-constant vector sits between the second-smallest
    # and largest Laplacian eigenvalues for connected graphs
    rng = np.random.default_rng(11)
    for seed in range(6):
        g = random_gnm(7, 12, seed * 7 + 1)
        if not structure_stats(g).is_connected:
            continue
        for p in (1.0, 2.0, -1.0):
            dec = laplacian_decomposition(g, p)
            eta_max = dec.eigenvalues[0]
            eta_second = dec.eigenvalues[-2]
            for _ in range(4):
                omega = rng.standard_normal(g.n)
                q = _rayleigh_quotient(g, p, omega)
                assert eta_second - 1e-8 * dec.scale <= q <= eta_max + 1e-8 * dec.scale


# --- moments ---

def test_moments_k3():
    mom = moments_closed_form(complete_graph(3), 2.0)
    assert mom.n0 == 3 and mom.n1 == 0
    assert mom.n2 == pytest.approx(48.0, rel=1e-12)
    assert mom.n3 == pytest.approx(6 * (2 * math.sqrt(2)) ** 3, rel=1e-12)
    assert mom.n4 == pytest.approx(1152.0, rel=1e-12)


def test_moments_p3():
    mom = moments_closed_form(path_graph(3), 2.0)
    assert mom.n2 == pytest.approx(20.0, rel=1e-12)
    assert mom.n3 == 0.0
    assert mom.n4 == pytest.approx(200.0, rel=1e-12)


def test_forest_has_zero_n3():
    # every triangle-free graph of the trees and families corpora, not only
    # forests: thm4.3 and cmp4.2-4.3 apply only when N3 > 0, so a
    # rounding-positive N3 there would change the verify counts
    from psombor.bounds import check_energy_estrada_bounds, corpus_families, corpus_trees
    graphs = [g for _, g in corpus_trees() + corpus_families()
              if not structure_stats(g).t_max]
    assert any(g.n >= 4 and g.m == g.n for g in graphs)  # the cycles C4..C10
    for g in graphs:
        for p in P_GRID:
            assert moments_closed_form(g, p).n3 == 0.0
            for rep in check_energy_estrada_bounds(g, p):
                if rep.check_id in ("thm4.3", "cmp4.2-4.3"):
                    assert not rep.applicable, (rep.check_id, g, p)


def test_moment_routes_agree():
    for seed in range(30):
        g = random_gnm(8, 12, seed)
        for p in P_GRID:
            mom = moments_closed_form(g, p)
            dec = sombor_decomposition(g, p)
            for k in range(5):
                spectral = moments_from_spectrum(dec, k)
                assert abs(spectral - mom[k]) <= 1e-8 * max(1.0, abs(mom[k]))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs(), nonzero_p)
def test_moment_routes_agree_on_random_graphs(g, p):
    mom = moments_closed_form(g, p)
    dec = sombor_decomposition(g, p)
    for k in range(5):
        scale = max(1.0, float((np.abs(dec.eigenvalues) ** k).sum()))
        assert abs(moments_from_spectrum(dec, k) - mom[k]) <= 1e-9 * scale


def test_moment_k0_is_n():
    dec = sombor_decomposition(random_gnm(6, 7, 3), 2.0)
    assert moments_from_spectrum(dec, 0) == 6.0


def test_decomposition_serializes():
    dec = sombor_decomposition(path_graph(4), 2.0)
    d = dec.to_dict()
    assert d["kind"] == "p_sombor" and len(d["eigenvalues"]) == 4
    assert sum(m for _, m in d["distinct"]) == 4


def test_decompose_many_equals_one_at_a_time():
    from psombor.spectral import adjacency_matrix, eigen_decompose_many

    specs = []
    for g in (path_graph(5), cycle_graph(5), star_graph(7), complete_graph(4),
              random_gnm(7, 10, 3), Graph(0), Graph(1)):
        specs.append((adjacency_matrix(g), "adjacency", None))
        for p in (-1.0, 2.0):
            specs.append((build_sombor_matrix(g, p), "p_sombor", p))
            specs.append((build_p_laplacian(g, p), "p_laplacian", p))
    many = eigen_decompose_many(specs)
    assert len(many) == len(specs)
    for (matrix, kind, p), dec in zip(specs, many):
        one = eigen_decompose(matrix, False, kind, p)
        assert dec.to_dict() == one.to_dict()
        assert np.array_equal(dec.eigenvalues, one.eigenvalues)
        assert (dec.scale, dec.eigenvectors) == (one.scale, None)


def test_decompose_many_validates_like_eigen_decompose():
    from psombor.spectral import eigen_decompose_many

    good = (build_sombor_matrix(path_graph(3), 2.0), "p_sombor", 2.0)
    with pytest.raises(ValueError, match="symmetric"):
        eigen_decompose_many([good, (np.array([[0.0, 1.0], [2.0, 0.0]]), "p_sombor", 2.0)])
    with pytest.raises(ValueError, match="finite"):
        eigen_decompose_many([(np.array([[0.0, math.nan], [math.nan, 0.0]]), "p_sombor", 2.0)])


@pytest.mark.parametrize("n", range(4))
def test_an_empty_stack_decomposes_to_nothing(n):
    from psombor.spectral import decompose_stack

    for want_vectors in (False, True):
        spectra = decompose_stack(np.zeros((0, n, n)), want_vectors)
        assert spectra.eigenvalues.shape == (0, n) and len(spectra.inertia) == 0
    assert eigen_decompose_many([]) == []


def test_decompose_many_raises_the_scalar_convergence_error(monkeypatch):
    from psombor import config
    from psombor.spectral import eigen_decompose_many

    monkeypatch.setattr(config, "MAX_SWEEPS", 1)
    mats = [build_sombor_matrix(g, 2.0) for g in (complete_graph(3), random_gnm(8, 14, 5))]
    eigen_decompose(mats[0])           # converges within the one sweep
    with pytest.raises(EigenConvergenceError) as scalar:
        eigen_decompose(mats[1])
    with pytest.raises(EigenConvergenceError) as batched:
        eigen_decompose_many([(m, "p_sombor", 2.0) for m in mats])
    assert (batched.value.residual, batched.value.sweeps) == (scalar.value.residual, 1)
    assert str(batched.value) == str(scalar.value)


def test_edge_weight_direct_form_bits_for_ordinary_p():
    for p in (-3.0, -1.0, 0.5, 1.0, 2.0, 3.0):
        for di in range(1, 12):
            for dj in range(1, 12):
                assert edge_weight(di, dj, p) == (di ** p + dj ** p) ** (1.0 / p)


@pytest.mark.parametrize("p", (1000.0, -1000.0, 1e5, -1e5, 800.0))
def test_edge_weight_large_abs_p_stays_finite_and_in_range(p):
    for di, dj in ((4, 4), (2, 3), (1, 9), (9, 9), (600, 700)):
        w = edge_weight(di, dj, p)
        hi, lo = max(di, dj), min(di, dj)
        if p > 0:
            assert hi <= w <= 2.0 ** (1.0 / p) * hi
        else:
            assert 2.0 ** (1.0 / p) * lo <= w <= lo
    assert edge_weight(4, 4, p) == pytest.approx(4.0 * 2.0 ** (1.0 / p), rel=1e-15)


_DEGREES = st.integers(1, 50)
# |p| from 1e-3, where 2^(1/p) * 50 is still a finite float, to 1e4, where
# d^p overflows and the scaled form takes over.
_ABS_P = st.floats(1e-3, 1e4)


def _rounding_slack(p):
    # Equal degrees attain the bounds exactly, so only rounding separates
    # the two sides: a few ulps in the inner sum, raised to the power 1/p.
    return 4.0 * sys.float_info.epsilon * (1.0 + 1.0 / abs(p))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_DEGREES, _DEGREES, _ABS_P, _ABS_P, st.sampled_from([1.0, -1.0]))
def test_edge_weight_is_monotone_and_bracketed_in_p(di, dj, a, b, sign):
    p1, p2 = sorted((sign * a, sign * b))
    w1, w2 = edge_weight(di, dj, p1), edge_weight(di, dj, p2)
    assert w1 >= w2 * (1.0 - _rounding_slack(min(a, b)))
    hi, lo = max(di, dj), min(di, dj)
    for p, w in ((p1, w1), (p2, w2)):
        slack = 1.0 + _rounding_slack(p)
        if p > 0:
            assert hi / slack <= w <= 2.0 ** (1.0 / p) * hi * slack
        else:
            assert 2.0 ** (1.0 / p) * lo / slack <= w <= lo * slack


def test_edge_weight_overflows_only_when_the_weight_does():
    with pytest.raises(OverflowError):
        edge_weight(1, 1, 1e-4)        # 2^10000
    # at subnormal p, 1/p itself is inf and 2.0 ** inf raises nothing
    for p in (1e-320, 5e-324):
        for di, dj in ((1, 1), (3, 7)):
            with pytest.raises(OverflowError, match="overflows"):
                edge_weight(di, dj, p)

def test_edge_weight_below_the_normal_range_is_an_error():
    # 2^-1000 is a normal float; 2^-2000 would read as 0.0
    assert edge_weight(1, 1, -1e-3) == 2.0 ** -1000
    for di, dj in ((1, 1), (3, 7)):
        with pytest.raises(OverflowError, match="underflows"):
            edge_weight(di, dj, -0.0005)


# --- spectral radii of bipartite graphs from the Gram matrix ---

def _full_radius(g, p):
    return eigen_decompose_many([(build_sombor_matrix(g, p), "p_sombor", p)])[0].radius


def _scaled_oracle_radius(g, p):
    # eigvalsh of S_p scaled by the power of two that brings its largest entry
    # into [1/2, 1), scaled back
    mat = build_sombor_matrix(g, p)
    e = math.frexp(float(np.abs(mat).max()))[1]
    return math.ldexp(float(np.linalg.eigvalsh(np.ldexp(mat, -e))[-1]), e)


def test_bipartite_radii_match_the_full_solve_on_every_tree():
    from psombor.extremal import enumerate_trees

    for n in range(2, 13):
        trees = enumerate_trees(n).trees
        for p, gram in zip(P_GRID, bipartite_radii(trees, P_GRID)):
            full = [dec.radius for dec in eigen_decompose_many(
                [(build_sombor_matrix(t, p), "p_sombor", p) for t in trees])]
            assert len(gram) == len(trees)
            for a, b in zip(gram, full):
                assert abs(a - b) <= 1e-13 * b, (n, p, a, b)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(bipartite_graphs(), nonzero_p)
def test_bipartite_radii_match_the_full_solve_on_bipartite_graphs(g, p):
    [[radius]] = bipartite_radii([g], [p])
    if g.m == 0:
        assert radius == 0.0
    else:
        full = _full_radius(g, p)
        assert abs(radius - full) <= 1e-13 * full



def test_a_bipartite_radius_does_not_depend_on_the_rest_of_its_call():
    # each member stops at its own norm, summed left to right: a radius
    # solved alone equals the same radius in a stack of every graph and p
    from psombor.extremal import enumerate_trees

    graphs = enumerate_trees(9).trees + [cycle_graph(8), Graph(5), Graph(4, [(0, 3)])]
    p_values = [-1.0, 0.5, 3.0, 0.0015]
    together = bipartite_radii(graphs, p_values)
    for k, p in enumerate(p_values):
        for i, g in enumerate(graphs):
            assert bipartite_radii([g], [p]) == [[together[k][i]]], (k, i)

def test_bipartite_radii_reject_odd_cycles():
    # triangle 0-1-2 with leaves 3, 4 on 1 and 5, 6 on 2: the odd edge (1, 2)
    # lies in the smaller colour class, the row class of the Gram matrix
    in_rows = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    for g in (cycle_graph(5), complete_graph(3), in_rows,
              Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])):
        with pytest.raises(ValueError, match="not bipartite"):
            bipartite_radii([path_graph(4), g], [2.0])


def _gram_members(graphs, p_values):
    # (graph index, p, G, e) for every Gram matrix bipartite_radii solves,
    # G scaled by 2^-e: the Gram matrix at true scale is ldexp(G, e)
    from psombor.extremal import _gram_layouts, _scaled_grams

    layouts, pairs = _gram_layouts(graphs)
    weights = np.array([[edge_weight(a, b, p) for a, b in pairs] + [0.0]
                        for p in p_values]).T
    for owners, ids in layouts.values():
        gram, e = _scaled_grams(weights, ids)
        for member in range(gram.shape[2]):
            b, k = divmod(member, len(p_values))
            yield owners[b], p_values[k], gram[:, :, member], 2 * int(e[member])


def test_bipartite_radii_raise_when_a_gram_solve_does_not_converge(monkeypatch):
    from psombor import config

    monkeypatch.setattr(config, "MAX_SWEEPS", 0)
    # a star's Gram matrix is 1 x 1 and needs no sweep; P8's is 4 x 4
    closed = math.sqrt(5) * edge_weight(5, 1, 2.0)
    assert bipartite_radii([star_graph(6)], [2.0]) == [[pytest.approx(closed, rel=1e-15)]]
    with pytest.raises(EigenConvergenceError, match="after 0 sweeps") as tree:
        bipartite_radii([star_graph(6), path_graph(8)], [2.0])
    # the residual is that of the Gram matrix at true scale, not of the
    # power-of-two-scaled one the kernel ran on
    [(_, _, gram, e)] = _gram_members([path_graph(8)], [2.0])
    with pytest.raises(EigenConvergenceError) as full:
        eigen_decompose(np.ldexp(gram, e))
    assert tree.value.residual == full.value.residual == 18.330302779823363
    # at p = 0.0015 the radii are ~5e201 and the Gram matrix at true scale
    # ~1e403: its residual is inf, without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenConvergenceError) as huge:
            bipartite_radii([path_graph(8)], [0.0015])
    assert huge.value.residual == math.inf


def test_bipartite_radii_solve_a_gram_matrix_as_eigen_decompose_does():
    # one stop rule and one norm formula: each tree radius is the square
    # root of eigen_decompose's largest eigenvalue of its Gram matrix at true
    # scale, bit for bit
    from psombor.extremal import enumerate_trees

    trees = [t for n in range(3, 11) for t in enumerate_trees(n).trees]
    radii = dict(zip(P_GRID, bipartite_radii(trees, P_GRID)))
    members = list(_gram_members(trees, P_GRID))
    assert len(members) == 995
    for b, p, gram, e in members:
        largest = eigen_decompose(np.ldexp(gram, e)).eigenvalues[0]
        assert radii[p][b] == math.sqrt(largest), (b, p)


def test_bipartite_radii_of_graphs_without_edges_are_zero():
    assert bipartite_radii([Graph(0), Graph(1), Graph(5), path_graph(2), Graph(3)], [2.0]) \
        == [[0.0, 0.0, 0.0, math.sqrt(2.0), 0.0]]
    assert bipartite_radii([], [2.0, 3.0]) == [[], []]
    for p_values in ([0.0], [2.0, 0.0]):
        with pytest.raises(ValueError, match="nonzero"):
            bipartite_radii([path_graph(3)], p_values)


@pytest.mark.parametrize("p", (0.0015, -0.002, 1000.0, -1000.0))
def test_bipartite_radii_stay_relatively_accurate_at_extreme_p(p):
    # At p = 0.0015 ||S_p||_F overflows, and at p = -0.002 every entry is
    # ~1e-150; the power-of-two-scaled Gram matrix keeps every radius finite
    # and accurate.
    from psombor.extremal import enumerate_trees

    n = 8
    catalog = enumerate_trees(n)
    (radii,) = bipartite_radii(catalog.trees, [p])
    for tree, radius in zip(catalog.trees, radii):
        oracle = _scaled_oracle_radius(tree, p)
        assert math.isfinite(radius) and radius > 0.0
        assert abs(radius - oracle) <= 1e-13 * oracle
    (star,) = [r for t, r in zip(catalog.trees, radii) if max(t.degrees) == n - 1]
    closed = math.sqrt(n - 1) * edge_weight(n - 1, 1, p)
    assert abs(star - closed) <= 1e-13 * closed


def test_bipartite_radii_reject_weights_that_underflow():
    # at p = -0.0005 every weight is ~2^-2000: 0.0 or subnormal, not a radius
    with pytest.raises(OverflowError, match="underflows"):
        bipartite_radii([path_graph(4)], [-0.0005])
    assert bipartite_radii([Graph(3)], [-0.0005]) == [[0.0]]


def _star_loop_gram(g, p):
    # (G, e) summed one column vertex's star at a time in scalar Python, the
    # rows the smaller colour class: the reference for the stacked builder
    depth = _component_depths(g)[1]
    classes = ([], [])
    for v in range(g.n):
        if g.degrees[v]:
            classes[depth[v] & 1].append(v)
    rows, cols = sorted(classes, key=len)
    stars = [[(rows.index(u), edge_weight(g.degrees[u], g.degrees[v], p)) for u in g.adj[v]]
             for v in cols]
    e = math.frexp(max(w for star in stars for _, w in star))[1]
    gram = [[0.0] * len(rows) for _ in rows]
    for star in stars:
        scaled = [(i, math.ldexp(w, -e)) for i, w in star]
        for k, (i, wi) in enumerate(scaled):
            gram[i][i] += wi * wi
            for j, wj in scaled[k + 1:]:
                gram[i][j] = gram[j][i] = gram[i][j] + wi * wj
    return np.array(gram), e


def test_gram_members_equal_their_transpose_bit_for_bit():
    from prufer import random_tree

    from psombor.extremal import _gram_layouts, _scaled_grams, enumerate_trees
    from psombor.graphs import complete_bipartite_graph

    graphs = enumerate_trees(10).trees + [random_tree(12, s) for s in range(20)]
    graphs += [complete_bipartite_graph(3, 5), cycle_graph(8),
               Graph(6, [(0, 3), (1, 3), (2, 4), (1, 5)])]
    p_values = (-1000.0, -1.0, 0.5, 3.0, 0.0015)
    layouts, pairs = _gram_layouts(graphs)
    weights = np.array([[edge_weight(a, b, p) for a, b in pairs] + [0.0] for p in p_values]).T
    seen = 0
    for owners, ids in layouts.values():
        stack, exps = _scaled_grams(weights, ids)
        # graph owners[b] at p_values[k] is member b P + k
        for member in range(stack.shape[2]):
            g, p = graphs[owners[member // len(p_values)]], p_values[member % len(p_values)]
            gram = stack[:, :, member]
            assert gram.tobytes() == np.ascontiguousarray(gram.T).tobytes()
            # the smaller colour class is the row class, isolated vertices left out
            assert 2 * gram.shape[0] <= g.n - g.degrees.count(0)
            # B's largest entry in [1/2, 1): the diagonal sums its squared rows
            assert 0.25 <= gram.diagonal().max() < max(g.degrees)
            # the same bytes and exponent as the star-by-star loop
            reference, e = _star_loop_gram(g, p)
            assert (gram.tobytes(), exps[member]) == (reference.tobytes(), e)
            seen += 1
    assert seen == len(p_values) * len(graphs)
    # K_{1,3} plus three isolated vertices: the Gram matrix is 1 x 1, as the
    # isolated vertices join neither colour class
    layouts, _ = _gram_layouts([Graph(7, [(0, 1), (0, 2), (0, 3)])])
    stack, _ = _scaled_grams(np.array([[1.0], [0.0]]), layouts[1][1])
    assert list(layouts) == [1] and stack.shape == (1, 1, 1)
