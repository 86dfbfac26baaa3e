import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import graphs, nonzero_p

from psombor.graphs import (
    Graph,
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


def test_convergence_error_carries_residual():
    err = EigenConvergenceError(1e-3, 100)
    assert err.residual == 1e-3 and "100 sweeps" in str(err)


def test_distinct_clustering():
    dec = sombor_decomposition(star_graph(4), 2.0)
    values = [v for v, _ in dec.distinct]
    mults = [m for _, m in dec.distinct]
    assert len(values) == 3 and mults == [1, 2, 1]


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
