import concurrent.futures
import dataclasses
import functools
import hashlib
import importlib
import json
import math
import operator
import pkgutil
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import circulants, nonzero_p

import psombor
from psombor import bounds, config
from psombor.bounds import (
    CHECKS,
    OUTCOMES,
    BoundReport,
    Check,
    _chunks,
    _complement_parts,
    _evaluate,
    _violation_payload,
    all_checks,
    build_corpus,
    check_energy_estrada_bounds,
    check_laplacian_bounds,
    check_moment_index_bounds,
    check_nordhaus_gaddum,
    check_radius_bounds,
    contexts,
    corpus_families,
    corpus_random_connected,
    corpus_special,
    corpus_trees,
    run_suite,
)
from psombor.graphs import (
    Graph,
    bipartite_component_count,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_gnm,
    star_graph,
    structure_stats,
    subdivision,
)
from psombor.invariants import graph_energy
from psombor.spectral import (
    adjacency_decomposition,
    edge_weight,
    laplacian_decomposition,
    sombor_decomposition,
)

P_GRID = (-1.0, 0.5, 1.0, 2.0, 3.0)


def by_id(reports, check_id):
    found = [r for r in reports if r.check_id == check_id]
    assert found, f"missing report {check_id}"
    assert len(found) == 1
    return found[0]


def test_thm2_3_equality_on_k4():
    rep = by_id(check_moment_index_bounds(complete_graph(4), 2.0), "thm2.3")
    assert rep.holds and rep.equality_expected and rep.equality_observed
    assert rep.value == pytest.approx(18 * math.sqrt(2), rel=1e-12)
    assert rep.lower == pytest.approx(rep.value, rel=1e-12)
    assert rep.upper == pytest.approx(rep.value, rel=1e-12)


def test_thm2_2_regular_equality():
    for g in (cycle_graph(5), complete_graph(4)):
        rep = by_id(check_moment_index_bounds(g, 2.0), "thm2.2")
        assert rep.holds and rep.equality_observed


def test_thm2_4_sandwich_on_k4():
    rep = by_id(check_moment_index_bounds(complete_graph(4), 2.0), "thm2.4")
    assert rep.applicable and rep.holds
    assert rep.equality_expected and rep.equality_observed


def test_thm2_4_not_applicable_without_common_neighbors():
    rep = by_id(check_moment_index_bounds(path_graph(4), 2.0), "thm2.4")
    assert not rep.applicable and "t_min" in rep.reason


def test_thm2_5_equalities():
    lo = by_id(check_moment_index_bounds(complete_bipartite_graph(2, 2), 2.0), "thm2.5.lo")
    assert lo.equality_expected and lo.equality_observed
    up = by_id(check_moment_index_bounds(complete_graph(3), 2.0), "thm2.5.up")
    assert up.equality_expected and up.equality_observed  # K3 is regular and C4-free


def test_lem2_6_complete_equality():
    rep = by_id(check_moment_index_bounds(complete_graph(5), 2.0), "lem2.6")
    assert rep.equality_expected and rep.equality_observed
    rep = by_id(check_moment_index_bounds(path_graph(5), 2.0), "lem2.6")
    assert rep.holds and not rep.equality_expected


def test_thm2_7_bounds():
    reports = check_moment_index_bounds(complete_graph(3), 2.0)
    lo = by_id(reports, "thm2.7.lo")
    up = by_id(reports, "thm2.7.up")
    assert lo.equality_expected and lo.equality_observed
    assert up.equality_expected and up.equality_observed


def test_thm2_8_identity_p4():
    rep = by_id(check_moment_index_bounds(path_graph(4), 2.0), "thm2.8")
    assert rep.holds and abs(rep.slack) <= 1e-10 * max(1.0, rep.value)


def test_isi_observe_only_below_one():
    rep = by_id(check_moment_index_bounds(path_graph(4), 0.5), "thm-isi")
    assert not rep.hard
    rep = by_id(check_moment_index_bounds(path_graph(4), 2.0), "thm-isi")
    assert rep.hard and rep.holds


def test_laplacian_star_tight_upper():
    rep = by_id(check_laplacian_bounds(star_graph(4), 2.0), "thm3.10.2")
    assert rep.value == pytest.approx(3 * math.sqrt(10), rel=1e-12)
    assert rep.upper == pytest.approx(rep.value, rel=1e-12)
    assert rep.equality_expected and rep.equality_observed


def test_laplacian_trace_identity():
    rep = by_id(check_laplacian_bounds(cycle_graph(6), 2.0), "lap-trace")
    assert rep.holds and rep.equality_observed


def test_lem3_11_equality_on_k4():
    reports = check_laplacian_bounds(complete_graph(4), 2.0)
    rep = by_id(reports, "lem3.11.1")
    assert rep.upper == pytest.approx(math.sqrt(2) * 3 * 6, rel=1e-12)
    assert rep.equality_expected and rep.equality_observed
    rep2 = by_id(reports, "lem3.11.2")
    assert rep2.equality_observed


def test_lem3_11_observe_only_for_small_p():
    rep = by_id(check_laplacian_bounds(complete_graph(4), 0.5), "lem3.11.1")
    assert not rep.hard


def test_laplacian_checks_na_on_disconnected():
    g = Graph(4, [(0, 1)])
    reports = check_laplacian_bounds(g, 2.0)
    for cid in ("thm3.10.1", "thm3.10.2", "cor3.13.1", "cor3.13.2"):
        assert not by_id(reports, cid).applicable


def test_radius_sandwich_regular_equality():
    rep = by_id(check_radius_bounds(cycle_graph(5), 2.0), "thm-rad.mu")
    assert rep.value == pytest.approx(4 * math.sqrt(2), rel=1e-10)
    assert rep.equality_expected and rep.equality_observed


def test_radius_n2_equality_on_k4():
    rep = by_id(check_radius_bounds(complete_graph(4), 2.0), "thm-rad.n2")
    assert rep.value == pytest.approx(9 * math.sqrt(2), rel=1e-10)
    assert rep.equality_expected and rep.equality_observed


def test_distinct_eigenvalues_vs_diameter_p4():
    rep = by_id(check_radius_bounds(path_graph(4), 2.0), "lem-diam")
    assert rep.value == 4.0 and rep.lower == 4.0 and rep.holds


def test_randic_item_never_hard():
    for p in P_GRID:
        rep = by_id(check_radius_bounds(cycle_graph(5), p), "cor-rad.randic")
        assert not rep.hard


def test_spread_tight_on_complete_bipartite():
    rep = by_id(check_radius_bounds(complete_bipartite_graph(2, 3), 2.0), "thm-spread")
    assert rep.equality_expected and rep.equality_observed


def test_energy_bounds_k3():
    reports = check_energy_estrada_bounds(complete_graph(3), 2.0)
    rep = by_id(reports, "thm4.2")
    assert rep.value == pytest.approx(8 * math.sqrt(2), rel=1e-12)
    assert rep.lower == pytest.approx(4 * math.sqrt(6), rel=1e-10)
    assert rep.holds


def test_thm4_1_2_holds_when_the_determinant_overflows():
    # at p = 0.009, |det| of K10's S_p is 9 w^10 ~ 1e310, past the float range
    graphs = [("K9", complete_graph(9)), ("K10", complete_graph(10)),
              ("C10", cycle_graph(10)), ("P10", path_graph(10))]
    with pytest.warns(UserWarning, match="too large for exp"):
        rep = run_suite(graphs, p_values=(0.009,), corpus_name="x")
        k10 = by_id(check_energy_estrada_bounds(complete_graph(10), 0.009), "thm4.1.2")
    assert rep.ok and rep.totals()["fail"] == 0
    w = edge_weight(9, 9, 0.009)
    assert k10.lower == pytest.approx(w * math.sqrt(90 * (9 ** 0.2 + 1)), rel=1e-12)


def test_thm4_3_violated_on_k3_but_observe_only():
    rep = by_id(check_energy_estrada_bounds(complete_graph(3), 2.0), "thm4.3")
    assert not rep.hard
    assert rep.lower == pytest.approx(12 * math.sqrt(2), rel=1e-10)
    assert rep.holds is False  # the printed bound exceeds the energy here


def test_comparison_rule_k3():
    rep = by_id(check_energy_estrada_bounds(complete_graph(3), 2.0), "cmp4.2-4.3")
    assert rep.holds
    assert rep.extra["better"] == "thm4.3"
    assert rep.extra["moment_ratio"] == pytest.approx(1 / math.sqrt(3), rel=1e-10)


def test_comparison_rule_trichotomy_random():
    from psombor.graphs import random_connected_gnm
    for seed in range(20):
        g = random_connected_gnm(7, 12, seed)
        rep = by_id(check_energy_estrada_bounds(g, 2.0), "cmp4.2-4.3")
        if rep.applicable:
            assert rep.holds


def test_thm4_10_1_equality_on_empty():
    reports = check_energy_estrada_bounds(Graph(5), 2.0)
    rep = by_id(reports, "thm4.10.1")
    assert rep.value == pytest.approx(5.0)
    assert rep.upper == pytest.approx(5.0)
    assert rep.equality_expected and rep.equality_observed


def test_thm4_10_3_observe_only_on_single_edge():
    rep = by_id(check_energy_estrada_bounds(Graph(2, [(0, 1)]), 2.0), "thm4.10.3")
    assert not rep.hard
    assert rep.holds is False  # 2 sqrt(2) > sqrt(5/3 * 4): fails as printed
    rep3 = by_id(check_energy_estrada_bounds(path_graph(3), 2.0), "thm4.10.3")
    assert rep3.hard and rep3.holds


def test_thm4_11_2_applicability():
    rep = by_id(check_energy_estrada_bounds(cycle_graph(4), 2.0), "thm4.11.2")
    assert not rep.applicable  # only one positive eigenvalue
    rep = by_id(check_energy_estrada_bounds(cycle_graph(5), 2.0), "thm4.11.2")
    assert rep.applicable and rep.holds


def test_thm4_12_subdivision_of_c3():
    rep = by_id(check_energy_estrada_bounds(cycle_graph(3), 2.0), "thm4.12")
    assert rep.value == pytest.approx(16 * math.sqrt(2), abs=1e-9)
    assert rep.upper == pytest.approx(24.0, abs=1e-9)
    assert rep.holds


THM4_12 = next(check for check in CHECKS if check.id == "thm4.12")
THM4_12_P = (-1000.0, -1.0, 0.05, 0.5, 2.0, 1000.0)


def _subdivision(g):
    """(the subdivision energy contexts() gives g, the adjacency spectrum it
    gives it from)."""
    f = contexts([("g", g)], (1.0,))
    x, *_, adj = f.stacks[0]
    return f.subdivision_energy[0], x.eigenvalues[adj[0]]


def _rows(f, check):
    """(graph id, graph, p, the BoundReport of check) per row of f."""
    report = _evaluate(check, f)[2]
    for r in range(f.size):
        i, b = f.graph_index[r], f.p_index[r]
        yield f.graph_ids[i], f.graphs[i], f.p_values[b], report(r)


@pytest.fixture(scope="module")
def regular_all():
    """The regular graphs with edges of the `all` corpus."""
    return [(gid, g) for gid, g in build_corpus("all")
            if g.m >= 1 and structure_stats(g).is_regular]


def test_thm4_12_scaled_adjacency_energy_matches_per_p_solve(regular_all):
    # +-1000 take edge_weight's overflow fallback; n + m <= 36 keeps the
    # reference solves of S_p(S(G)) small (up to the K8 subdivision).
    graphs = [(gid, g) for gid, g in regular_all if g.n + g.m <= 36]
    assert "K5" in {gid for gid, _ in graphs}
    for gid, g, p, rep in _rows(contexts(graphs, THM4_12_P), THM4_12):
        expected = graph_energy(sombor_decomposition(subdivision(g), p))
        assert rep.value == pytest.approx(expected, rel=1e-14, abs=0), (gid, p)


def test_subdivision_energy_matches_closed_form(regular_all):
    # The reported value is this closed form with the -k eigenvalues of the
    # bipartite components (exact zeros) dropped. Here they are kept, and the
    # sqrt of a rounded zero is ~1e-8 on a bipartite G.
    assert len(regular_all) == 23
    for gid, g in regular_all:
        energy, lams = _subdivision(g)
        k = structure_stats(g).max_degree
        closed = 2.0 * sum(math.sqrt(max(0.0, k + lam)) for lam in lams)
        assert energy == pytest.approx(closed, rel=1e-7), gid


def _union(*graphs):
    """Disjoint union, the vertices of each graph after those of the last."""
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return Graph(n, edges)


K2, C4, K3 = complete_graph(2), cycle_graph(4), complete_graph(3)
# Disconnected regular graphs, where the count of bipartite components matters.
REGULAR_UNIONS = [
    ("2K2", _union(K2, K2)), ("2C4", _union(C4, C4)), ("C4+K3", _union(C4, K3)),
    ("2K3", _union(K3, K3)),
    ("K3,3+K4", _union(complete_bipartite_graph(3, 3), complete_graph(4))),
    ("C6+C5+C4", _union(cycle_graph(6), cycle_graph(5), C4)),
]


@pytest.mark.parametrize("g, expected", [
    (_union(C4, C4), 2), (_union(C4, K3), 1), (_union(K3, K3), 0), (path_graph(3), 1),
], ids=["2C4", "C4+K3", "2K3", "P3"])
def test_bipartite_component_count(g, expected):
    assert bipartite_component_count(g) == expected


def test_subdivision_energy_matches_the_subdivision_solve(regular_all):
    # The oracle is the Jacobi solve of A(S(G)) itself, up to the K10
    # subdivision (n + m = 55).
    assert {"K9", "K10", "K5,5"} <= {gid for gid, _ in regular_all}
    for gid, g in regular_all + REGULAR_UNIONS:
        expected = graph_energy(adjacency_decomposition(subdivision(g)))
        assert _subdivision(g)[0] == pytest.approx(expected, rel=1e-14, abs=0), gid


@pytest.mark.parametrize("gid, g", REGULAR_UNIONS, ids=[gid for gid, _ in REGULAR_UNIONS])
def test_thm4_12_on_disconnected_regular_graphs_matches_per_p_solve(gid, g):
    for _, _, p, rep in _rows(contexts([(gid, g)], THM4_12_P), THM4_12):
        expected = graph_energy(sombor_decomposition(subdivision(g), p))
        assert rep.value == pytest.approx(expected, rel=1e-14, abs=0), p


def test_subdivision_energy_needs_a_regular_graph():
    # NaN where thm4.12 does not apply: a graph that is not regular or has no
    # edges.
    graphs = [("P3", path_graph(3)), ("5K1", Graph(5)), ("C4", cycle_graph(4))]
    energy = contexts(graphs, (1.0, 2.0)).subdivision_energy
    assert np.isnan(energy[:4]).all() and np.isfinite(energy[4:]).all()


def _stack_shapes(frames, k):
    """The member-last shape of each stack the kernel solves for frames at k
    p values: each frame's graphs of one vertex count, in order of first
    appearance, in runs of at most config.SUITE_CHUNK_ENTRIES entries."""
    shapes = []
    for frame in frames:
        for n, count in Counter(g.n for _, g in frame).items():
            per = max(1, config.SUITE_CHUNK_ENTRIES // ((3 * k + 1) * n * n))
            shapes += [(n, n, (3 * k + 1) * min(per, count - start))
                       for start in range(0, count, per)]
    return shapes


def test_suite_reads_every_spectrum_from_the_batch(monkeypatch, regular_all):
    import psombor.spectral as spectral
    from psombor.spectral import SpectralDecomposition

    batch, stacks = spectral.jacobi_sweeps_batch, []

    def counting_batch(stack, *args):
        stacks.append(stack.shape)
        return batch(stack, *args)

    built = Counter()

    def counting_init(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            # A Frame counts as built only at its root, not where take() cuts it.
            built[cls.__name__] += kwargs.get("root") is None
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    monkeypatch.setattr(spectral, "jacobi_sweeps_batch", counting_batch)
    for cls in (bounds.Frame, SpectralDecomposition):
        counting_init(cls)
    graphs, p_values = build_corpus("all"), (-1.0, 2.0)
    rep = run_suite(graphs, p_values=p_values, corpus_name="x")
    assert rep.counts["thm4.12"]["pass"] == len(regular_all) * len(p_values)
    assert sum(rep.counts["thm5.9.1"].values()) == len(graphs) * len(p_values)
    # One frame, and in it one kernel call per stack of each vertex count,
    # over S_p, L_p and the complement's S_p at every p and the adjacency
    # matrix of each graph.
    frames = _chunks(graphs, len(p_values), config.SUITE_FRAME_ENTRIES)
    assert len(frames) == 1
    assert stacks == _stack_shapes(frames, len(p_values))
    # One frame: no object per graph or per (graph, p), not even a view of
    # one of its spectra.
    assert built == {"Frame": len(frames)}
    # Calls without a frame build their own through the same batch, also
    # for thm5.9.1 with two complement parts to choose C1 from.
    assert len(_complement_parts(K1_JOIN_K23)) == 2
    for g in (K1_JOIN_K23, cycle_graph(5), Graph(1)):
        for run in (all_checks, check_moment_index_bounds, check_laplacian_bounds,
                    check_radius_bounds, check_energy_estrada_bounds, check_nordhaus_gaddum):
            assert run(g, 2.0)
    assert by_id(all_checks(K1_JOIN_K23, 2.0), "thm5.9.1").applicable


def _join_k1(g):
    """K1 joined to g: a new vertex 0 adjacent to every vertex of g."""
    return Graph(g.n + 1, [(0, v + 1) for v in range(g.n)]
                 + [(u + 1, v + 1) for u, v in g.edges()])


K1_JOIN_K23, WHEEL5 = _join_k1(complete_bipartite_graph(2, 3)), _join_k1(cycle_graph(4))


@pytest.mark.parametrize("g, p, upper", [
    # complement K1 u K2 u K3: C1 = K3 and the bound is 2^(1/p)(5 sqrt(17) + 4);
    # taking K2 would give 2^(1/p)(5 sqrt(17) + 1)
    (K1_JOIN_K23, 2.0, 34.811613723718885),
    (K1_JOIN_K23, -1.0, 12.307764064044152),
    # the wheel K1 + C4, complement K1 u 2K2: two tied candidates for C1
    (WHEEL5, 2.0, 21.010131504638522),
], ids=["K1+K2,3-p2", "K1+K2,3-p-1", "wheel-p2"])
def test_thm5_9_1_takes_c1_with_the_largest_radius(g, p, upper):
    assert len(_complement_parts(g)) == 2
    rep = by_id(check_nordhaus_gaddum(g, p), "thm5.9.1")
    assert rep.upper == upper and rep.holds


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(circulants(), nonzero_p)
def test_thm4_12_identity_on_regular_circulants(g, p):
    # energy(S_p(S(G))) = edge_weight(2, k, p) energy(A(S(G))) for k-regular G,
    # and energy(A(S(G))) = 2 sum sqrt(k + lambda_i) over the spectrum of A(G).
    stats = structure_stats(g)
    assert stats.is_regular and g.m >= 1
    k = stats.max_degree
    energy, lams = _subdivision(g)
    direct = graph_energy(sombor_decomposition(subdivision(g), p))
    assert direct == pytest.approx(edge_weight(2, k, p) * energy, rel=1e-12, abs=0)
    closed = 2.0 * sum(math.sqrt(max(0.0, k + lam)) for lam in lams)
    assert energy == pytest.approx(closed, rel=1e-7)


def test_lem5_4_equality_on_c4():
    rep = by_id(check_nordhaus_gaddum(cycle_graph(4), 2.0), "lem5.4")
    assert rep.value == pytest.approx(4 * math.sqrt(2), rel=1e-10)
    assert rep.equality_expected and rep.equality_observed


def test_thm5_8_equality_on_k4():
    rep = by_id(check_nordhaus_gaddum(complete_graph(4), 2.0), "thm5.8")
    assert rep.value == pytest.approx(9 * math.sqrt(2), rel=1e-10)
    assert rep.equality_expected and rep.equality_observed


def test_thm5_9_branches():
    reports = check_nordhaus_gaddum(star_graph(4), 2.0)
    assert by_id(reports, "thm5.9.1").applicable
    assert not by_id(reports, "thm5.9.2").applicable
    reports = check_nordhaus_gaddum(cycle_graph(5), 2.0)
    assert not by_id(reports, "thm5.9.1").applicable
    assert by_id(reports, "thm5.9.2").applicable and by_id(reports, "thm5.9.2").holds


def test_thm5_10_equality_only_for_complete():
    rep = by_id(check_nordhaus_gaddum(complete_graph(5), 2.0), "thm5.10")
    assert rep.equality_expected and rep.equality_observed
    rep = by_id(check_nordhaus_gaddum(complete_bipartite_graph(2, 2), 2.0), "thm5.10")
    assert rep.holds and not rep.equality_expected


def test_degenerate_graphs_not_vacuous():
    # the edgeless graph routes most checks to not-applicable
    reports = all_checks(Graph(1), 2.0)
    applicable = [r for r in reports if r.applicable]
    assert applicable  # radius/energy checks still make sense
    for rep in applicable:
        assert rep.holds is None or rep.holds


def test_report_serialization_round_trip():
    rep = by_id(all_checks(path_graph(4), 2.0), "thm2.3")
    d = rep.to_dict()
    assert d["check_id"] == "thm2.3" and d["graph"] == "g"
    assert d["holds"] is True


def test_context_reuses_decompositions():
    f = contexts([("C6", cycle_graph(6))], (2.0,))
    assert f.energy is f.energy
    reports = [_evaluate(check, f)[2](0) for check in CHECKS]
    assert all(r.graph_id == "C6" for r in reports)


# --- suite level ---

def test_suite_trees_small_grid():
    rep = run_suite(corpus_trees(4, 7), p_values=(1.0, 2.0, 3.0), corpus_name="trees")
    assert rep.ok
    assert rep.totals()["fail"] == 0
    assert rep.graphs_checked == 2 + 3 + 6 + 11


def test_suite_families_equality_soundness():
    rep = run_suite(corpus_families(8), p_values=P_GRID, corpus_name="families")
    assert rep.ok and not rep.equality_mismatches


def test_suite_special_degenerates():
    rep = run_suite(corpus_special(), p_values=P_GRID, corpus_name="special")
    assert rep.ok
    assert rep.totals()["na"] > 0
    # A graph without vertices, and any graph at no p, makes no rows: it is
    # only counted.
    for graphs, p_values in (([("K0", Graph(0))], P_GRID), (corpus_special(), ())):
        rep = run_suite(graphs, p_values)
        assert (rep.graphs_checked, rep.counts) == (len(graphs), {})


def test_contexts_at_no_p_is_a_frame_without_rows():
    # the complement K5 of 5K1 has edges, but no weight is fetched at no p:
    # the frame keeps its graphs and every check judges no row
    graphs = corpus_special()
    f = contexts(graphs, ())
    assert (f.size, f.graph_ids, f.p_values) == (0, [gid for gid, _ in graphs], ())
    assert f.xi1.shape == f.so.shape == (0,)
    with np.errstate(all="ignore"):
        assert all(len(_evaluate(check, f)[0]) == 0 for check in CHECKS)


def test_verdicts_match_a_lapack_oracle(monkeypatch):
    # Every spectrum of the suite from numpy.linalg.eigvalsh instead of the
    # Jacobi kernel: each stack keeps its validation, residual, sweeps, scale
    # and norm, and its inertia follows the same ZERO_TOL_FACTOR * norm rule.
    # No verdict may depend on whose rounding it sees. (At holds_tol = 0 the
    # two differ: 2,519 hard fails against 2,700.)
    graphs = build_corpus("all")
    jacobi = run_suite(graphs, P_GRID)
    decompose_stack = bounds.decompose_stack
    errors = []  # per member, relative to max(1, ||M||_F)

    def lapack(stack, want_vectors=False):
        spectra = decompose_stack(stack, want_vectors)
        eigenvalues = np.linalg.eigvalsh(stack)[:, ::-1]
        errors.append(np.abs(eigenvalues - spectra.eigenvalues).max(axis=1, initial=0.0)
                      / spectra.scale)
        zero_tol = config.ZERO_TOL_FACTOR * spectra.norm[:, None]
        n_pos = (eigenvalues > zero_tol).sum(axis=1)
        n_neg = (eigenvalues < -zero_tol).sum(axis=1)
        inertia = np.stack((n_pos, stack.shape[1] - n_pos - n_neg, n_neg), axis=1)
        return dataclasses.replace(spectra, eigenvalues=eigenvalues, inertia=inertia)

    monkeypatch.setattr(bounds, "decompose_stack", lapack)
    oracle = run_suite(graphs, P_GRID)
    assert 0.0 < np.concatenate(errors).max() < 1e-13  # LAPACK's spectra, not Jacobi's
    assert oracle.counts == jacobi.counts
    assert oracle.violations == jacobi.violations
    assert oracle.equality_mismatches == jacobi.equality_mismatches


def test_suite_random_connected_sample():
    graphs = corpus_random_connected(8, 20, 7, 20, seed=42)
    rep = run_suite(graphs, p_values=(2.0,), corpus_name="random")
    assert rep.ok


def _frames(graphs, k, jobs=1):
    """run_suite's frames of graphs at k p values with jobs workers."""
    return _chunks(graphs, k, config.SUITE_FRAME_ENTRIES, jobs)


def test_suite_parallel_matches_serial():
    graphs = corpus_trees(4, 9)
    # One frame serially, two with two workers: a run of one frame never
    # starts the worker pool.
    assert len(_frames(graphs, len(P_GRID))) == 1
    assert len(_frames(graphs, len(P_GRID), 2)) == 2
    serial = run_suite(graphs, p_values=P_GRID, corpus_name="x")
    parallel = run_suite(graphs, p_values=P_GRID, jobs=2, corpus_name="x")
    assert serial.to_dict() == parallel.to_dict()


def test_chunks_hold_at_most_the_entry_budget(monkeypatch):
    graphs = build_corpus("all")
    for k in (1, 2, 5):
        # The frames of run_suite and the stacks of contexts().
        for budget in (config.SUITE_FRAME_ENTRIES, config.SUITE_CHUNK_ENTRIES):
            chunks = _chunks(graphs, k, budget)
            assert [item for chunk in chunks for item in chunk] == graphs
            entries = [sum((3 * k + 1) * g.n ** 2 for _, g in chunk) for chunk in chunks]
            assert max(entries) <= budget
            # A chunk ends only where the next graph would not fit.
            assert all(used + (3 * k + 1) * after[0][1].n ** 2 > budget
                       for used, after in zip(entries, chunks[1:]))
        # With jobs workers, a frame also ends once it holds 1/jobs of the
        # entries, so there are jobs frames of about equal size.
        total = sum((3 * k + 1) * g.n ** 2 for _, g in graphs)
        for jobs in (2, 3):
            frames = _frames(graphs, k, jobs)
            assert [item for frame in frames for item in frame] == graphs
            entries = [sum((3 * k + 1) * g.n ** 2 for _, g in frame) for frame in frames]
            assert len(frames) == jobs
            assert all(used >= total / jobs for used in entries[:-1])
            assert all(used - (3 * k + 1) * frame[-1][1].n ** 2 < total / jobs
                       for used, frame in zip(entries, frames))
    # A graph over the budget gets a chunk of its own.
    graphs = [("P3", path_graph(3)), ("K6", complete_graph(6)), ("P2", path_graph(2)),
              ("P2'", path_graph(2)), ("K1", complete_graph(1)), ("P5", path_graph(5)),
              ("K1'", complete_graph(1))]
    # 4 n^2 entries each at k = 1: 36, 144, 16, 16, 4, 100 and 4.
    assert [[gid for gid, _ in chunk] for chunk in _chunks(graphs, 1, 100)] == [
        ["P3"], ["K6"], ["P2", "P2'", "K1"], ["P5"], ["K1'"]]
    # With 3 workers, there are 3 frames even where one graph holds most of
    # the entries, and 2 graphs make 2 frames.
    assert [[gid for gid, _ in frame] for frame in _frames(graphs[1:4], 1, 3)] == [
        ["K6"], ["P2"], ["P2'"]]
    assert [[gid for gid, _ in frame] for frame in _frames(graphs[:2], 1, 3)] == [
        ["P3"], ["K6"]]
    # The stacks of each vertex count in runs of at most the budget: each
    # P5 (100 entries) in one of its own, K6 (144) too, both P2 in one.
    monkeypatch.setattr(config, "SUITE_CHUNK_ENTRIES", 100)
    stacked = contexts(graphs + [("P5'", path_graph(5))], (2.0,)).stacks
    assert [x.eigenvalues.shape for x, *_ in stacked] == [
        (4, 3), (4, 6), (8, 2), (8, 1), (4, 5), (4, 5)]


def test_suite_does_not_depend_on_the_chunking(monkeypatch):
    # holds_tol = -1 turns most hard checks into violations: their payloads
    # keep corpus order, and the counts their sums, wherever the cuts fall.
    # Frame and stack budgets: a graph per frame, 16 frames, one frame with
    # a stack per vertex count, and one frame with a stack per graph.
    graphs = corpus_families() + corpus_special() + corpus_trees(4, 7)
    reports = []
    for frame, stack, count in ((1, 1, len(graphs)), (2 ** 12, 2 ** 12, 16),
                                (math.inf, math.inf, 1), (math.inf, 1, 1)):
        monkeypatch.setattr(config, "SUITE_FRAME_ENTRIES", frame)
        monkeypatch.setattr(config, "SUITE_CHUNK_ENTRIES", stack)
        assert len(_frames(graphs, len(P_GRID))) == count
        reports.append(run_suite(graphs, P_GRID, holds_tol=-1.0, corpus_name="x").to_dict())
    assert reports[0]["violations"]
    assert reports[0] == reports[1] == reports[2] == reports[3]


def test_suite_judged_row_by_row_gives_the_same_report(monkeypatch):
    # A frame that raises is judged again by halves, down to one (graph, p)
    # row. With every frame of more than one row raising, each row is judged
    # so, and the report is the one of the frame, payload order included.
    graphs = corpus_families() + corpus_special() + corpus_trees(4, 7)
    expected = run_suite(graphs, P_GRID, holds_tol=-1.0, corpus_name="x").to_dict()
    assert expected["violations"]
    tally_frame = bounds._tally_frame

    def rows_only(f, tally):
        if f.size > 1:
            raise OverflowError("a frame of more than one row")
        tally_frame(f, tally)

    monkeypatch.setattr(bounds, "_tally_frame", rows_only)
    assert run_suite(graphs, P_GRID, holds_tol=-1.0, corpus_name="x").to_dict() == expected


def test_suite_memory_is_bounded_by_the_entry_budget():
    # 16 graphs of 40 vertices at 5 p: 16 (3 * 5 + 1) 40^2 entries, 3.3 MB
    # in one stack; they make one frame, whose stacks hold two graphs each.
    graphs = [(f"g{seed}", random_connected_gnm(40, 120, seed)) for seed in range(16)]
    assert len(_frames(graphs, len(P_GRID))) == 1
    tracemalloc.start()
    try:
        run_suite(graphs, P_GRID, corpus_name="x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_suite_counts_cover_triples():
    graphs = corpus_families(5)
    p_values = (1.0, 2.0)
    rep = run_suite(graphs, p_values=p_values, corpus_name="x")
    per_graph_reports = len(all_checks(complete_graph(3), 2.0))
    expected = rep.graphs_checked * len(p_values) * per_graph_reports
    assert sum(sum(per.values()) for per in rep.counts.values()) == expected


def test_violation_payload_reproducible():
    # force a violation with an absurdly tight tolerance override
    graphs = [("K4", complete_graph(4))]
    rep = run_suite(graphs, p_values=(2.0,), holds_tol=-1.0, corpus_name="x")
    assert rep.violations
    payload = rep.violations[0]
    assert payload["graph"] == "K4" and payload["p"] == 2.0
    assert Graph(payload["n"], [tuple(e) for e in payload["edges"]]) == complete_graph(4)


def _outcome(rep: BoundReport) -> str:
    """The OUTCOMES entry a full report stands for; holds None passes."""
    if not rep.applicable:
        return "na"
    return OUTCOMES[(rep.holds is False) + (0 if rep.hard else 3)]


def _tally_from_reports(graphs, p_values, holds_tol=None):
    """run_suite's counts, violations and equality mismatches, rebuilt from
    the full report of every (check, graph, p)."""
    counts, violations, mismatches = {}, [], []
    for graph_id, g in graphs:
        for p in p_values:
            f = contexts([(graph_id, g)], (p,), holds_tol)
            with np.errstate(all="ignore"):
                reports = [_evaluate(check, f)[2](0) for check in bounds.CHECKS]
            for rep in reports:
                outcome = _outcome(rep)
                counts.setdefault(rep.check_id, dict.fromkeys(OUTCOMES, 0))[outcome] += 1
                if outcome == "fail":
                    violations.append(_violation_payload(rep, g))
                if rep.hard and rep.equality_expected and rep.equality_observed is False:
                    mismatches.append(_violation_payload(rep, g))
    return dict(sorted(counts.items())), violations, mismatches


def _suite_tally(graphs, p_values, holds_tol=None):
    rep = run_suite(graphs, p_values=p_values, holds_tol=holds_tol, corpus_name="x")
    return rep.counts, rep.violations, rep.equality_mismatches


@pytest.mark.parametrize("holds_tol", (None, -1.0))
def test_judgement_matches_the_full_report(holds_tol):
    # holds_tol = -1 turns most hard checks into violations. The chunk frame's
    # outcome and mismatch of each row equal those of a frame of that one
    # row, the report read from that frame's evaluation stands for the same
    # outcome, and it is the report read from the chunk frame's evaluation,
    # types and bits included.
    graphs = [item for item in corpus_families(6) + corpus_special() + corpus_trees(4, 7)
              if item[1].n]
    frame = contexts(graphs, P_GRID, holds_tol)
    rows = [((graph_id, p), contexts([(graph_id, g)], (p,), holds_tol))
            for graph_id, g in graphs for p in P_GRID]
    seen = Counter()
    with np.errstate(all="ignore"):
        for check in CHECKS:
            outcomes, mismatches, report = _evaluate(check, frame)
            for r, ((graph_id, p), one) in enumerate(rows):
                outcome, mismatch, one_report = _evaluate(check, one)
                outcome, mismatch, rep = outcome[0], mismatch[0], one_report(0)
                key = (check.id, graph_id, p)
                assert (outcomes[r], mismatches[r]) == (outcome, mismatch), key
                assert OUTCOMES[outcome] == _outcome(rep), key
                assert repr(report(r)) == repr(rep), key
                assert mismatch == (rep.hard and rep.equality_expected
                                    and rep.equality_observed is False), key
                seen[OUTCOMES[outcome], bool(mismatch)] += 1
    outcomes = {outcome for outcome, _ in seen}
    assert outcomes == set(OUTCOMES) - ({"fail"} if holds_tol is None else set())
    # Every expected equality shows here; SYNTHETIC below covers mismatches.
    assert not any(mismatch for _, mismatch in seen)


def test_forced_violations_match_the_report_tally():
    graphs = corpus_families(6) + corpus_special()
    tally = _suite_tally(graphs, P_GRID, holds_tol=-1.0)
    assert tally[1]
    assert tally == _tally_from_reports(graphs, P_GRID, holds_tol=-1.0)


NAN, INF = math.nan, math.inf
# Appended to the last family, so that all_checks runs them in table order.
_SYN = "nordhaus_gaddum"
SYNTHETIC = (
    Check("syn.nan", _SYN, "NaN value", lambda f: (NAN, 0.0, None), equality=True),
    Check("syn.nan.observe", _SYN, "NaN value, observe-only", lambda f: (NAN, 0.0, 1.0),
          hard=False, observe="observe-only: synthetic", equality=True),
    Check("syn.inf.over", _SYN, "+inf value over a finite cap", lambda f: (INF, None, 0.0),
          equality=True),
    Check("syn.-inf.under", _SYN, "-inf value under a finite floor",
          lambda f: (-INF, 0.0, None), equality=True),
    Check("syn.inf.cap", _SYN, "finite value under an infinite cap",
          lambda f: (1.0, None, INF), equality=True),
    Check("syn.inf.floor", _SYN, "finite value over an infinite floor",
          lambda f: (1.0, INF, None)),
    Check("syn.inf-inf", _SYN, "+inf value and floor", lambda f: (INF, INF, None)),
    Check("syn.fail", _SYN, "1 in [2, 3]", lambda f: (1.0, 2.0, 3.0),
          equality=lambda f: f.p > 0),
    Check("syn.unbounded", _SYN, "no bound at all", lambda f: (1.0, None, None),
          equality=True),
    Check("syn.na", _SYN, "NaN value, p > 0 only", lambda f: (NAN, 0.0, None),
          lambda f: f.p > 0, "needs p > 0"),
)
# Outcome counts on K3 and P3 at p = -1, 2. A NaN slack neither holds nor
# shows equality; an infinite value does not scale the tolerances, so +-inf
# past a finite bound fails and shows no equality.
SYNTHETIC_COUNTS = {
    "syn.nan": {"fail": 4}, "syn.nan.observe": {"observe_fail": 4},
    "syn.inf.over": {"fail": 4}, "syn.-inf.under": {"fail": 4},
    "syn.inf.cap": {"pass": 4}, "syn.inf.floor": {"fail": 4},
    "syn.inf-inf": {"fail": 4}, "syn.fail": {"fail": 4},
    "syn.unbounded": {"pass": 4}, "syn.na": {"fail": 2, "na": 2},
}
# sha256 of the suite's to_dict (JSON, sorted keys) with SYNTHETIC appended.
SYNTHETIC_DIGEST = "58a0233126f7df26b34e14509d67fad20aa20154ddd74bc843a80034b97f1f0b"


def test_non_finite_and_failing_checks_tally_as_their_reports(monkeypatch):
    monkeypatch.setattr(bounds, "CHECKS", CHECKS + SYNTHETIC)
    monkeypatch.setitem(bounds._BY_FAMILY, _SYN, bounds._BY_FAMILY[_SYN] + list(SYNTHETIC))
    graphs = [("K3", complete_graph(3)), ("P3", path_graph(3))]
    p_values = (-1.0, 2.0)
    rep = run_suite(graphs, p_values=p_values, corpus_name="synthetic")
    for check in SYNTHETIC:
        got = {key: cnt for key, cnt in rep.counts[check.id].items() if cnt}
        assert got == SYNTHETIC_COUNTS[check.id], check.id
    assert [(v["check_id"], v["graph"], v["p"]) for v in rep.equality_mismatches] == [
        (cid, gid, p) for gid in ("K3", "P3") for p in p_values
        for cid in ("syn.nan", "syn.inf.over", "syn.-inf.under", "syn.inf.cap")
        + (("syn.fail",) if p > 0 else ())]
    # json.dumps writes NaN as NaN, so equal text means equal payloads.
    assert (json.dumps(_suite_tally(graphs, p_values))
            == json.dumps(_tally_from_reports(graphs, p_values)))
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SYNTHETIC_DIGEST


def test_suite_builds_reports_only_for_violations_and_mismatches(monkeypatch):
    built = Counter()

    class CountingReport(BoundReport):
        def __init__(self, *args):
            super().__init__(*args)
            built[self.check_id] += 1

    monkeypatch.setattr(bounds, "BoundReport", CountingReport)
    rep = run_suite(build_corpus("families"), p_values=(2.0,), corpus_name="families")
    assert rep.ok and rep.totals()["pass"] > 0
    assert not built
    rep = run_suite([("K4", complete_graph(4))], p_values=(2.0,), holds_tol=-1.0,
                    corpus_name="x")
    assert sum(built.values()) == len(rep.violations) + len(rep.equality_mismatches) > 0


@pytest.mark.parametrize("corpus", ("special", "families"))
def test_suite_jobs_two_matches_serial_on_corpus(corpus):
    # After the random corpus, in the second of two frames: a run of one
    # frame never starts the worker pool.
    extra = build_corpus(corpus)
    graphs = build_corpus("random") + extra
    frames = _frames(graphs, 2, 2)
    assert len(frames) == 2 and frames[1][-len(extra):] == extra
    serial = run_suite(graphs, p_values=(-1.0, 2.0), corpus_name=corpus)
    parallel = run_suite(graphs, p_values=(-1.0, 2.0), jobs=2, corpus_name=corpus)
    assert serial.to_dict() == parallel.to_dict()


def test_suite_jobs_two_sends_violation_payloads_like_serial():
    # holds_tol = -1 flags rows in both frames, so payloads cross the pool.
    graphs = build_corpus("random")
    assert len(_frames(graphs, 2, 2)) == 2
    serial = run_suite(graphs, (-1.0, 2.0), holds_tol=-1.0).to_dict()
    assert serial["violations"]
    assert run_suite(graphs, (-1.0, 2.0), holds_tol=-1.0, jobs=2).to_dict() == serial


def _bits(dec):
    """Every field of a decomposition, floats by their bits."""
    return (dec.kind, dec.p, dec.eigenvalues.tobytes(), dec.sweeps, dec.residual.hex(),
            dec.inertia, dec.scale.hex())


def test_contexts_match_the_scalar_decompositions():
    # The scalar kernel is the reference for every spectrum of the batch.
    graphs = corpus_families(6) + corpus_special() + corpus_trees(5, 6)
    f = contexts(graphs, P_GRID)
    assert [(f.graph_ids[i], f.p_values[b]) for i, b in zip(f.graph_index, f.p_index)] == [
        (graph_id, p) for graph_id, _ in graphs for p in P_GRID]
    assert f.graphs == [g for _, g in graphs]
    seen = []
    for x, rows, *members in f.stacks:
        for r, (s, lap, comp, adj) in zip(rows.tolist(), zip(*(m.tolist() for m in members))):
            i = f.graph_index[r]
            graph_id, g, p = f.graph_ids[i], f.graphs[i], f.p_values[f.p_index[r]]
            assert (_bits(x.member(adj, "adjacency", None))
                    == _bits(adjacency_decomposition(g))), graph_id
            assert _bits(x.member(s, "p_sombor", p)) == _bits(sombor_decomposition(g, p)), (
                graph_id, p)
            assert (_bits(x.member(lap, "p_laplacian", p))
                    == _bits(laplacian_decomposition(g, p))), (graph_id, p)
            assert (_bits(x.member(comp, "p_sombor", p))
                    == _bits(sombor_decomposition(complement(g), p))), (graph_id, p)
            seen.append(r)
    assert sorted(seen) == list(range(f.size))


def _degree_pairs(g):
    return {(min(g.degrees[u], g.degrees[v]), max(g.degrees[u], g.degrees[v]))
            for u, v in g.edges()}


def test_suite_builds_no_matrix_and_one_weight_per_degree_pair(monkeypatch):
    import psombor
    import psombor.invariants as invariants
    import psombor.spectral as spectral

    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    # Every per-matrix builder and edge loop, under every name a module may
    # call it by; edge_weight as bounds calls it (contexts and thm4.12).
    for name in ("build_sombor_matrix", "build_p_laplacian", "adjacency_matrix",
                 "laplacian_of", "moments_closed_form", "sombor_index", "weight_variance"):
        fn = getattr(spectral, name, None) or getattr(invariants, name)
        for module in (psombor, spectral, invariants, bounds):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    weights = Counter()

    def counting_weight(di, dj, p):
        weights[p] += 1
        return edge_weight(di, dj, p)

    monkeypatch.setattr(bounds, "edge_weight", counting_weight)
    # Frames of at most 2^14 entries: the weights are per frame.
    monkeypatch.setattr(config, "SUITE_FRAME_ENTRIES", 2 ** 14)
    graphs = (corpus_families() + corpus_special() + corpus_trees(4, 7)
              + corpus_random_connected(count=30))
    rep = run_suite(graphs, p_values=P_GRID, corpus_name="x")
    assert rep.graphs_checked == len(graphs)
    assert calls == {}
    # One call per distinct degree pair of a frame's graphs and complements,
    # plus thm4.12's one on each regular graph with edges, at each p.
    frames = _frames(graphs, len(P_GRID))
    assert len(frames) > 1
    expected = sum(len(set().union(*(_degree_pairs(g) | _degree_pairs(complement(g))
                                     for _, g in frame))) for frame in frames)
    expected += sum(structure_stats(g).is_regular and g.m >= 1 for _, g in graphs)
    assert weights == dict.fromkeys(P_GRID, expected)


def _same(x, y):
    """Equal type and bits (repr round-trips every float, -0.0 and nan too)."""
    return type(x) is type(y) and repr(x) == repr(y)


@pytest.mark.parametrize("p", P_GRID + (-1000.0, 1000.0, 0.05))
def test_context_values_equal_the_library_functions(p):
    from psombor.invariants import sombor_index, weight_variance
    from psombor.spectral import moments_closed_form

    graphs = (corpus_families() + corpus_special() + corpus_trees(4, 7)
              + corpus_random_connected(count=40))
    f = contexts(graphs, (p,))
    assert f.p.tolist() == [p] * len(graphs)
    columns = zip(f.so.tolist(), f.variance.tolist(), f.n2.tolist(), f.n3.tolist(),
                  f.n4.tolist(), f.energy.tolist())
    for (graph_id, g), (so, variance, n2, n3, n4, energy) in zip(graphs, columns, strict=True):
        assert _same(so, sombor_index(g, p)), graph_id
        # The frame's column holds NaN where the variance is None (no edges).
        expected = weight_variance(g, p)
        assert _same(variance, math.nan if expected is None else expected), graph_id
        moments = moments_closed_form(g, p)
        assert _same((n2, n3, n4), (moments.n2, moments.n3, moments.n4)), graph_id
        assert _same(energy, graph_energy(sombor_decomposition(g, p))), graph_id


def test_overflowing_moments_raise_where_a_check_reads_them():
    # At p = 0.003 N4 of K4 (weights ~2^333) leaves the float range while
    # ||S_p||_F does not; the error comes from the first read, as it did when
    # the moments were computed on first use.
    from psombor.spectral import moments_closed_form

    f = contexts([("K4", complete_graph(4))], (0.003,))
    assert f.so.tolist()[0] > 0
    with pytest.raises(OverflowError, match="moments") as lazy:
        f.n2
    with pytest.raises(OverflowError) as direct:
        moments_closed_form(complete_graph(4), 0.003)
    assert str(lazy.value) == str(direct.value)
    with pytest.raises(OverflowError, match="moments"):
        run_suite([("K4", complete_graph(4))], p_values=(0.003,))


def test_build_corpus_rejects_a_directory(tmp_path):
    with pytest.raises(ValueError):
        build_corpus(str(tmp_path))


# sha256 of run_suite(...).to_dict() (JSON, sorted keys) at p = -1, 2: a change
# to any bound's bits, statement or verdict on these corpora changes it.
SUITE_DIGESTS = {
    "families": "a2cd56bfa80882dd14978c04b77029bb908e628667b597b4055791512dbf8287",
    "special": "d5354b73165c01c2e1d6a42f080cfbaf725ec35cd7ccd92ce004ef30abbee194",
    "trees": "a831e7a7dff2ee71af39f28186593ce4d3f9082b67a96bd8864a0a5a14ded38a",
    "random": "50b47968b813b56a9e54e2132cc35bbc3ad66fcba326a4978abf0c2dbac82676",
}


@pytest.mark.parametrize("corpus", sorted(SUITE_DIGESTS))
def test_suite_output_digest_is_pinned(corpus):
    rep = run_suite(build_corpus(corpus), p_values=(-1.0, 2.0), corpus_name=corpus)
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[corpus]


# The digests above have no violation and no equality mismatch. holds_tol = -1
# turns most hard checks into violations, so this one pins the payloads built
# from a flagged row, among them the int 0 of SO_p on an edgeless graph.
VIOLATIONS_DIGEST = "db667f855dc24b93b5c1aa1ef8b4e97cd34275ea259ddd6d1adc0797e7905f51"


def test_suite_violation_payloads_are_pinned():
    rep = run_suite(corpus_families() + corpus_special(), p_values=(-1.0, 2.0),
                    holds_tol=-1.0, corpus_name="families+special")
    assert len(rep.violations) == 3871 and not rep.equality_mismatches
    assert sum(v["value"] == 0 and type(v["value"]) is int for v in rep.violations) == 10
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VIOLATIONS_DIGEST


def test_suite_evaluates_each_check_once_per_chunk(monkeypatch):
    # The 3,871 violations above are read from their checks' evaluations of
    # the frame: no flagged row is evaluated again.
    graphs = corpus_families() + corpus_special()
    evaluate, calls = bounds._evaluate, []

    def counted(check, f):
        calls.append(check.id)
        return evaluate(check, f)

    monkeypatch.setattr(bounds, "_evaluate", counted)
    rep = run_suite(graphs, (-1.0, 2.0), holds_tol=-1.0)
    assert len(rep.violations) == 3871
    assert len(calls) == len(_frames(graphs, 2)) * len(CHECKS) == 54


def test_suite_work_on_all_at_five_p_is_pinned(monkeypatch):
    # verify --corpus all at 5 p: one frame, one evaluation per check, and
    # 14 kernel calls, one per stack of at most SUITE_CHUNK_ENTRIES entries.
    import psombor.spectral as spectral

    batch, stacks, evaluate, calls = spectral.jacobi_sweeps_batch, [], bounds._evaluate, []

    def counting_batch(stack, *args):
        stacks.append(stack.shape)
        return batch(stack, *args)

    def counted(check, f):
        calls.append(check.id)
        return evaluate(check, f)

    monkeypatch.setattr(spectral, "jacobi_sweeps_batch", counting_batch)
    monkeypatch.setattr(bounds, "_evaluate", counted)
    graphs = build_corpus("all")
    assert run_suite(graphs, P_GRID).ok
    assert len(_frames(graphs, len(P_GRID))) == 1
    assert len(calls) == len(CHECKS) == 54
    assert len(stacks) == 14
    assert max(math.prod(shape) for shape in stacks) <= config.SUITE_CHUNK_ENTRIES
    assert stacks == _stack_shapes([graphs], len(P_GRID))


def test_suite_walks_graphs_only_where_a_check_needs_them(monkeypatch):
    # The structure columns come from the stacks' adjacency blocks, so no
    # structure_stats runs, and only thm5.9.1's choice of C1 builds
    # complements, of the graphs with deg_max = n - 1: once per graph, under
    # either name.
    import psombor.graphs as graphs_module

    seen = {"structure_stats": [], "complement": []}
    for name, calls in seen.items():
        def counted(g, fn=getattr(graphs_module, name), calls=calls):
            calls.append(g)
            return fn(g)
        for module in (bounds, graphs_module):
            monkeypatch.setattr(module, name, counted)
    graphs = build_corpus("all")
    full = [g for _, g in graphs if max(g.degrees) == g.n - 1]
    assert run_suite(graphs, P_GRID).ok
    assert (len(seen["structure_stats"]), len(seen["complement"])) == (0, 45)
    assert sorted(map(id, seen["complement"])) == sorted(map(id, full))


def test_suite_judges_a_raising_frame_again_by_halves(monkeypatch):
    # At p = 0.008 every tree on 4 to 9 vertices is judged, and K10 raises.
    # The frame of 93 graphs raises and is judged again as two halves in
    # order: the first passes, the second raises and is halved in turn,
    # down to K10 alone, and at two p values down to K10 at 0.008.
    graphs = corpus_trees(4, 9) + [("K10", complete_graph(10))]
    assert len(_frames(graphs, 2)) == 1
    built, contexts_of = [], bounds.contexts

    def counted(graphs, p_values, holds_tol=None):
        built.append((len(graphs), graphs[-1][0], p_values))
        return contexts_of(graphs, p_values, holds_tol)

    monkeypatch.setattr(bounds, "contexts", counted)
    sizes = [93, 46, 47, 23, 24, 12, 12, 6, 6, 3, 3, 1, 2, 1, 1]
    for p_values, more in (((0.008,), []), ((2.0, 0.008), [(2.0,), (0.008,)])):
        built.clear()
        with pytest.warns(UserWarning, match="too large for exp"):
            with pytest.raises(OverflowError):
                run_suite(graphs, p_values)
        assert [size for size, _, _ in built] == sizes + [1] * len(more)
        assert [p for *_, p in built] == [p_values] * len(sizes) + more
        assert built[-1][1] == "K10"
    # At most 2 ceil(log2 G) + 2 ceil(log2 k) + 1 frames for G graphs at k p.
    graphs, p_values = build_corpus("all"), (-1.0, 0.5, 1.0, 2.0, 0.008)
    assert len(_frames(graphs, len(p_values))) == 1
    built.clear()
    with pytest.warns(UserWarning, match="too large for exp"):
        with pytest.raises(OverflowError):
            run_suite(graphs, p_values)
    g, k = (math.ceil(math.log2(len(x))) for x in (graphs, p_values))
    assert (len(built), 2 * g + 2 * k + 1) == (18, 25)


def test_suite_starts_at_most_one_worker_per_frame(monkeypatch):
    # An in-process pool that records its worker count and maps serially:
    # no process is started, however many jobs are asked for.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    graphs = corpus_special()
    report = run_suite(graphs, (2.0,), jobs=10 ** 20)
    assert started == [2]
    assert report.to_dict() == run_suite(graphs, (2.0,)).to_dict()


# The same digests over a wide p grid. At p = -1 and 2 few non-integer powers
# differ from 1, but here 2^(k/p), n^(1/p), N4^(1/4) and exp() all matter,
# and NumPy's vectorised pow and exp need not match Python's bit for bit.
WIDE_P = (-1000.0, -0.5, 0.05, 0.5, 3.0, 1000.0)
WIDE_P_DIGESTS = {
    "families": "5a35f0dad0d8ac3ec515faad2e99f31c95825b71e30efb0ebe408699a621cfba",
    "special": "0b7e7e753b786aacfeb56080efdb848834cfefa249fd65872bc3aa0a9b63dc9e",
    "trees": "f86189375584d867f25f51ceeb3606d91c345c79cc7b14322dfe25db7e47a224",
}


@pytest.mark.parametrize("corpus", sorted(WIDE_P_DIGESTS))
def test_suite_output_digest_is_pinned_over_wide_p(corpus):
    graphs = build_corpus(corpus)
    if corpus == "special":
        rep = run_suite(graphs, p_values=WIDE_P, corpus_name=corpus)
    else:
        # At p = 0.05 exp(xi1) overflows on the larger graphs.
        with pytest.warns(UserWarning, match="too large for exp"):
            rep = run_suite(graphs, p_values=WIDE_P, corpus_name=corpus)
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_P_DIGESTS[corpus]


def _compensated_sum(iterable, /, start=0):
    # builtin sum as CPython 3.12 adds: ints exactly while every item is an
    # int, then exact floats with Neumaier's compensation (an int among them
    # converted and added plainly), anything else by +
    items = iter(iterable)
    total = start
    for item in items:
        if type(total) is int and type(item) is int:
            total += item
            continue
        total = total + item
        break
    if type(total) is not float:
        return functools.reduce(operator.add, items, total)
    c = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        elif type(item) is int:
            total += float(item)
        else:
            total = total + c if c and math.isfinite(c) else total
            return functools.reduce(operator.add, items, total + item)
    return total + c if c and math.isfinite(c) else total


def test_pinned_digests_hold_under_a_compensated_sum(monkeypatch):
    # Python 3.12 made builtin sum of floats compensated; with that sum in
    # place of builtin sum in every psombor module, every digest pinned above
    # (the violation payloads carry SO_p and Estrada values) stays the same
    assert _compensated_sum([0.1] * 10) == 1.0
    assert functools.reduce(operator.add, [0.1] * 10, 0) != 1.0
    assert _compensated_sum([1, 2.5, 3]) == 6.5 and _compensated_sum([]) == 0
    for info in pkgutil.iter_modules(psombor.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"psombor.{info.name}")
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    monkeypatch.setattr(psombor, "sum", _compensated_sum, raising=False)
    for corpus in SUITE_DIGESTS:
        test_suite_output_digest_is_pinned(corpus)
    test_suite_violation_payloads_are_pinned()
    for corpus in WIDE_P_DIGESTS:
        test_suite_output_digest_is_pinned_over_wide_p(corpus)


def test_complement_term_holds_under_a_compensated_sum(monkeypatch):
    # thm5.10's term over a complement of three components with edges, whose
    # last bit a compensated sum changes: the frame adds left to right.
    g = complement(_union(Graph(5, [(0, 1), (0, 3), (1, 4), (2, 3), (2, 4)]),
                          Graph(5, [(0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
                          Graph(5, [(0, 2), (1, 4), (2, 3), (3, 4)])))
    monkeypatch.setattr("psombor.frame.sum", _compensated_sum, raising=False)
    term = contexts([("g", g)], (2.0,)).complement_term[0]
    assert float(term).hex() == "0x1.3333333333334p+2"


@pytest.mark.parametrize("name, g", [
    ("K1", complete_graph(1)), ("5K1", Graph(5)), ("P4", path_graph(4)),
    ("C5", cycle_graph(5)), ("K4", complete_graph(4)), ("K1,3", star_graph(4)),
    ("K2,2", complete_bipartite_graph(2, 2)),
])
def test_every_table_entry_reports_once(name, g):
    ids = [check.id for check in CHECKS]
    assert len(set(ids)) == len(ids)
    for p in (-1.0, 2.0):
        reports = all_checks(g, p)
        assert len(reports) == len(CHECKS)
        assert sorted(r.check_id for r in reports) == sorted(ids)
        assert all(r.statement for r in reports)
