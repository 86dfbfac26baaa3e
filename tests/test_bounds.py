import hashlib
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from strategies import circulants, nonzero_p

from psombor import bounds
from psombor.bounds import (
    CHECKS,
    OUTCOMES,
    BoundReport,
    Check,
    CheckContext,
    GraphContext,
    _judge,
    _outcome,
    _report,
    _violation_payload,
    all_checks,
    build_corpus,
    check_energy_estrada_bounds,
    check_laplacian_bounds,
    check_moment_index_bounds,
    check_nordhaus_gaddum,
    check_radius_bounds,
    corpus_families,
    corpus_random_connected,
    corpus_special,
    corpus_trees,
    run_suite,
)
from psombor.graphs import (
    Graph,
    bipartite_component_count,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    structure_stats,
    subdivision,
)
from psombor.invariants import graph_energy
from psombor.spectral import adjacency_decomposition, edge_weight, sombor_decomposition

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
    for gid, g in graphs:
        gc = GraphContext(g)
        for p in (-1000.0, -1.0, 0.05, 0.5, 2.0, 1000.0):
            rep = _report(THM4_12, CheckContext(g, p, gid, graph=gc))
            expected = graph_energy(sombor_decomposition(subdivision(g), p))
            assert rep.value == pytest.approx(expected, rel=1e-14, abs=0), (gid, p)


def test_subdivision_energy_matches_closed_form(regular_all):
    # The reported value is this closed form with the -k eigenvalues of the
    # bipartite components (exact zeros) dropped. Here they are kept, and the
    # sqrt of a rounded zero is ~1e-8 on a bipartite G.
    assert len(regular_all) == 23
    for gid, g in regular_all:
        gc = GraphContext(g)
        k = structure_stats(g).max_degree
        closed = 2.0 * sum(math.sqrt(max(0.0, k + lam)) for lam in gc.adec.eigenvalues)
        assert gc.subdivision_energy == pytest.approx(closed, rel=1e-7), gid


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
        assert GraphContext(g).subdivision_energy == pytest.approx(
            expected, rel=1e-14, abs=0), gid


@pytest.mark.parametrize("gid, g", REGULAR_UNIONS, ids=[gid for gid, _ in REGULAR_UNIONS])
def test_thm4_12_on_disconnected_regular_graphs_matches_per_p_solve(gid, g):
    gc = GraphContext(g)
    for p in (-1000.0, -1.0, 0.05, 0.5, 2.0, 1000.0):
        rep = _report(THM4_12, CheckContext(g, p, gid, graph=gc))
        expected = graph_energy(sombor_decomposition(subdivision(g), p))
        assert rep.value == pytest.approx(expected, rel=1e-14, abs=0), p


def test_subdivision_energy_needs_a_regular_graph():
    with pytest.raises(ValueError):
        GraphContext(path_graph(3)).subdivision_energy


def test_suite_reads_every_spectrum_from_the_batch(monkeypatch):
    import psombor.spectral as spectral

    scalar, scalar_sizes = spectral.jacobi_sweeps, []

    def counting_scalar(a, *args):
        scalar_sizes.append(a.shape[0])
        return scalar(a, *args)

    monkeypatch.setattr(spectral, "jacobi_sweeps", counting_scalar)
    graphs = [("C5", cycle_graph(5)), ("K4", complete_graph(4)),
              ("K3,3", complete_bipartite_graph(3, 3))]
    rep = run_suite(graphs, p_values=P_GRID, corpus_name="x")
    assert rep.counts["thm4.12"]["pass"] == len(graphs) * len(P_GRID)
    assert scalar_sizes == []


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(circulants(), nonzero_p)
def test_thm4_12_identity_on_regular_circulants(g, p):
    # energy(S_p(S(G))) = edge_weight(2, k, p) energy(A(S(G))) for k-regular G,
    # and energy(A(S(G))) = 2 sum sqrt(k + lambda_i) over the spectrum of A(G).
    stats = structure_stats(g)
    assert stats.is_regular and g.m >= 1
    k = stats.max_degree
    gc = GraphContext(g)
    direct = graph_energy(sombor_decomposition(subdivision(g), p))
    assert direct == pytest.approx(edge_weight(2, k, p) * gc.subdivision_energy,
                                   rel=1e-12, abs=0)
    closed = 2.0 * sum(math.sqrt(max(0.0, k + lam)) for lam in gc.adec.eigenvalues)
    assert gc.subdivision_energy == pytest.approx(closed, rel=1e-7)


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
    g = cycle_graph(6)
    ctx = CheckContext(g, 2.0, "C6")
    assert ctx.sdec is ctx.sdec
    reports = all_checks(g, 2.0, ctx)
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


def test_suite_random_connected_sample():
    graphs = corpus_random_connected(8, 20, 7, 20, seed=42)
    rep = run_suite(graphs, p_values=(2.0,), corpus_name="random")
    assert rep.ok


def test_suite_parallel_matches_serial():
    graphs = corpus_families(6)
    serial = run_suite(graphs, p_values=(2.0,), corpus_name="x")
    parallel = run_suite(graphs, p_values=(2.0,), jobs=2, corpus_name="x")
    assert serial.to_dict() == parallel.to_dict()


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


def _tally_from_reports(graphs, p_values, holds_tol=None):
    """run_suite's counts, violations and equality mismatches, rebuilt from
    the full report of every (check, graph, p)."""
    counts, violations, mismatches = {}, [], []
    for graph_id, g in graphs:
        for p in p_values:
            for rep in all_checks(g, p, CheckContext(g, p, graph_id, holds_tol)):
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
    # holds_tol = -1 turns most hard checks into violations.
    graphs = corpus_families(6) + corpus_special() + corpus_trees(4, 7)
    seen = Counter()
    for graph_id, g in graphs:
        gc = GraphContext(g)
        for p in P_GRID:
            ctx = CheckContext(g, p, graph_id, holds_tol, gc)
            for check in CHECKS:
                outcome, mismatch, _, _ = _judge(check, ctx)
                rep = _report(check, ctx)
                assert OUTCOMES[outcome] == _outcome(rep), (check.id, graph_id, p)
                assert bool(mismatch) == bool(rep.hard and rep.equality_expected
                                              and rep.equality_observed is False)
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
    Check("syn.nan", _SYN, "NaN value", lambda c: (NAN, 0.0, None), equality=True),
    Check("syn.nan.observe", _SYN, "NaN value, observe-only", lambda c: (NAN, 0.0, 1.0),
          hard=False, observe="observe-only: synthetic", equality=True),
    Check("syn.inf.over", _SYN, "+inf value over a finite cap", lambda c: (INF, None, 0.0),
          equality=True),
    Check("syn.-inf.under", _SYN, "-inf value under a finite floor",
          lambda c: (-INF, 0.0, None), equality=True),
    Check("syn.inf.cap", _SYN, "finite value under an infinite cap",
          lambda c: (1.0, None, INF), equality=True),
    Check("syn.inf.floor", _SYN, "finite value over an infinite floor",
          lambda c: (1.0, INF, None)),
    Check("syn.inf-inf", _SYN, "+inf value and floor", lambda c: (INF, INF, None)),
    Check("syn.fail", _SYN, "1 in [2, 3]", lambda c: (1.0, 2.0, 3.0),
          equality=lambda c: c.p > 0),
    Check("syn.unbounded", _SYN, "no bound at all", lambda c: (1.0, None, None),
          equality=True),
    Check("syn.na", _SYN, "NaN value, p > 0 only", lambda c: (NAN, 0.0, None),
          lambda c: c.p > 0, "needs p > 0"),
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
    graphs = build_corpus(corpus)
    serial = run_suite(graphs, p_values=(-1.0, 2.0), corpus_name=corpus)
    parallel = run_suite(graphs, p_values=(-1.0, 2.0), jobs=2, corpus_name=corpus)
    assert serial.to_dict() == parallel.to_dict()


def test_prefilled_contexts_give_the_reports_of_fresh_ones():
    from psombor.bounds import _prefilled_contexts

    graphs = corpus_families(6) + corpus_special() + corpus_trees(5, 6)
    contexts = _prefilled_contexts(graphs, P_GRID, None)
    for (graph_id, g), per_p in zip(graphs, contexts):
        assert [ctx.p for ctx in per_p] == list(P_GRID)
        assert len({id(ctx.adec) for ctx in per_p}) == 1
        for ctx in per_p:
            fresh = CheckContext(g, ctx.p, graph_id)
            assert ([r.to_dict() for r in all_checks(g, ctx.p, ctx)]
                    == [r.to_dict() for r in all_checks(g, ctx.p, fresh)])


def test_build_corpus_rejects_a_directory(tmp_path):
    with pytest.raises(ValueError):
        build_corpus(str(tmp_path))


def test_prefill_rejects_unknown_property():
    ctx = CheckContext(path_graph(3), 2.0)
    with pytest.raises(AttributeError):
        ctx.prefill(sdecc=None)
    with pytest.raises(AttributeError):
        ctx.prefill(g=None)


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
