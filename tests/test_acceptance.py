"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 is split in two: the catalog/anchor half, and the full 18-row
table multiset. Row 9 of the shipped octane table (2,5-dimethylhexane) prints
a (radius, energy) pair that belongs to no octane skeleton: a misprint in the
source table, kept in the CSV because the published fits were computed from
it. test_criterion1_table_multiset pins that misprint and checks that, with
the recomputed erratum pair in its place, all 18 rows match the 18 skeletons.
"""

import math
import time

import numpy as np
from prufer import random_tree

from psombor.bounds import build_corpus, run_suite
from psombor.chem import octane_crosscheck, reproduce_regressions
from psombor.extremal import enumerate_trees, shift_experiment, \
    tree_canonical_key, verify_tree_extremes
from psombor.graphs import Graph, complete_graph, cycle_graph, path_graph, \
    random_gnm, star_graph
from psombor.invariants import graph_energy
from psombor.spectral import moments_closed_form, moments_from_spectrum, \
    sombor_decomposition
from psombor.config import COEFF_REL_TOL, CORR_ABS_TOL, OCTANE_MATCH_ATOL


def _line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" - {detail}" if detail else ""))


def test_criterion1_octane_catalog_and_anchors():
    t0 = time.perf_counter()
    catalog = enumerate_trees(8, max_degree=4)
    report = octane_crosscheck(p=2.0)
    elapsed = time.perf_counter() - t0
    by_row = {m.row_id: m for m in report.matches}
    ok = (len(catalog.trees) == 18
          and by_row["1"].matched
          and by_row["1"].tree_key == tree_canonical_key(path_graph(8))
          and abs(by_row["1"].tree_radius - 5.2207) <= OCTANE_MATCH_ATOL
          and abs(by_row["1"].tree_energy - 24.9204) <= OCTANE_MATCH_ATOL
          and by_row["18"].matched
          and abs(by_row["18"].tree_radius - 10.5096) <= OCTANE_MATCH_ATOL
          and abs(by_row["18"].tree_energy - 30.7246) <= OCTANE_MATCH_ATOL
          and elapsed < 5.0)
    _line("criterion 1 (catalog, row-1/row-18 anchors, runtime)", ok,
          f"{len(catalog.trees)} trees in {elapsed:.2f}s")
    assert ok


# Row 9 of the octane table prints (radius, energy) = (6.4167, 25.9628) for
# 2,5-dimethylhexane (identified by its acentric factor and entropy). No tree
# on 8 vertices comes near that pair; the skeleton itself computes to this
# erratum pair.
ROW9_ERRATUM = (6.5486, 27.0101)
DIMETHYLHEXANE_25_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (4, 7)]


def _chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _eigvalsh_radius_energy(g, p):
    # S_p straight from the definition, solved by LAPACK as an oracle
    d = g.degrees
    mat = np.zeros((g.n, g.n))
    for i, j in g.edges():
        mat[i, j] = mat[j, i] = (d[i] ** p + d[j] ** p) ** (1.0 / p)
    eig = np.linalg.eigvalsh(mat)
    return float(np.max(np.abs(eig))), float(np.sum(np.abs(eig)))


def test_criterion1_table_multiset():
    report = octane_crosscheck(p=2.0)
    catalog = enumerate_trees(8, max_degree=4)
    computed = {}
    for key, tree in zip(catalog.canonical_keys, catalog.trees):
        dec = sombor_decomposition(tree, 2.0)
        computed[key] = (dec.radius, graph_energy(dec))
    assert len(computed) == 18

    # (a) row 9 is the only unmatched row; the other 17 rows match 17
    # distinct trees within OCTANE_MATCH_ATOL
    unmatched = [m.row_id for m in report.matches if not m.matched]
    assert unmatched == ["9"], unmatched
    matched = [m for m in report.matches if m.matched]
    assert len({m.tree_key for m in matched}) == 17
    for m in matched:
        dist = _chebyshev((m.table_radius, m.table_energy), computed[m.tree_key])
        assert dist <= OCTANE_MATCH_ATOL, (m.row_id, dist)

    # (b) the one tree left over is the 2,5-dimethylhexane skeleton
    leftover = set(computed) - {m.tree_key for m in matched}
    dmh = Graph(8, DIMETHYLHEXANE_25_EDGES)
    assert leftover == {tree_canonical_key(dmh)}, leftover

    # (c) its spectrum agrees with an independent solver and with the erratum
    (key,) = leftover
    oracle = _eigvalsh_radius_energy(dmh, 2.0)
    assert _chebyshev(computed[key], oracle) <= 1e-9, (computed[key], oracle)
    assert _chebyshev(computed[key], ROW9_ERRATUM) <= 1e-4, computed[key]

    # (d) the printed row-9 pair is far from every tree: a misprint, not a
    # tolerance edge
    row9 = next(m for m in report.matches if m.row_id == "9")
    printed = (row9.table_radius, row9.table_energy)
    nearest = min(_chebyshev(printed, c) for c in computed.values())
    assert nearest > 0.3, nearest

    # (e) with the erratum in place of row 9, rows and trees pair off
    # one-to-one: each row lies within OCTANE_MATCH_ATOL of exactly one tree
    rows = [(m.table_radius, m.table_energy) for m in report.matches if m.row_id != "9"]
    rows.append(ROW9_ERRATUM)
    partners = []
    for row in rows:
        near = [k for k, c in computed.items() if _chebyshev(row, c) <= OCTANE_MATCH_ATOL]
        assert len(near) == 1, (row, near)
        partners.append(near[0])
    assert sorted(partners) == sorted(computed)

    _line("criterion 1 (full 18-row table multiset within 1e-3, row-9 erratum)",
          True, f"17/18 printed rows matched; row 9 printed {printed} is "
          f"{nearest:.2f} from the nearest tree, erratum {ROW9_ERRATUM} "
          f"matches {key}")


def test_criterion2_regression_reproduction():
    t0 = time.perf_counter()
    comparisons = reproduce_regressions()
    elapsed = time.perf_counter() - t0
    misses = [c for c in comparisons if not c.within_tolerance]
    ok = len(comparisons) == 10 and not misses and elapsed < 1.0
    _line("criterion 2 (ten reference fits)", ok,
          f"slope/intercept tol {COEFF_REL_TOL}, R tol {CORR_ABS_TOL}, "
          f"{elapsed:.3f}s")
    assert ok, [c.to_dict() for c in misses]


def test_criterion3_moment_route_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        g = random_gnm(8, 10, seed)
        for p in (-1.0, 0.5, 1.0, 2.0, 3.0):
            mom = moments_closed_form(g, p)
            dec = sombor_decomposition(g, p)
            for k in range(5):
                diff = abs(moments_from_spectrum(dec, k) - mom[k])
                rel = diff / max(1.0, abs(mom[k]))
                worst = max(worst, rel)
                assert rel <= 1e-8, (seed, p, k)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _line("criterion 3 (moment routes, 200 graphs x 5 p)", ok,
          f"worst rel diff {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion4_bound_suite():
    t0 = time.perf_counter()
    graphs = build_corpus("all", seed=42)
    report = run_suite(graphs, p_values=(-1.0, 0.5, 1.0, 2.0, 3.0),
                       corpus_name="all")
    elapsed = time.perf_counter() - t0
    ok = (not report.violations and not report.equality_mismatches
          and elapsed < 120.0)
    totals = report.totals()
    _line("criterion 4 (bound suite over full corpus)", ok,
          f"{report.graphs_checked} graphs, {totals['pass']} hard passes, "
          f"{totals['fail']} fails, {len(report.equality_mismatches)} equality "
          f"mismatches, {elapsed:.1f}s")
    assert ok, (report.violations[:5], report.equality_mismatches[:5])


def test_criterion5_tree_extremes():
    t0 = time.perf_counter()
    for n in range(4, 10):
        for p in (1.0, 2.0, 3.0):
            rep = verify_tree_extremes(n, p)
            assert rep.ok, (n, p, rep)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _line("criterion 5 (path/star extremality, n=4..9, p=1,2,3)", ok,
          f"{elapsed:.1f}s")
    assert ok


def test_criterion6_shift_increases_radius():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    cases = [two_triangles] + [random_tree(9, seed) for seed in range(50)]
    checked = 0
    for g in cases:
        for p in (1.0, 2.0, 3.0):
            report = shift_experiment(g, p)
            if not report.applicable:
                continue
            assert report.all_increased, (g.to_dict(), p, report.outcomes)
            checked += len(report.outcomes)
    ok = checked > 0
    _line("criterion 6 (bridge shift strictly increases the radius)", ok,
          f"{checked} shifts checked")
    assert ok


def test_criterion7_subdivision_energy_bound():
    from psombor.graphs import subdivision
    dec = sombor_decomposition(subdivision(cycle_graph(3)), 2.0)
    energy = graph_energy(dec)
    ok = abs(energy - 16 * math.sqrt(2)) <= 1e-9 and energy <= 24.0
    for g in [cycle_graph(n) for n in range(3, 9)] + [complete_graph(4)]:
        k = g.degrees[0]
        sub_energy = graph_energy(sombor_decomposition(subdivision(g), 2.0))
        bound = 2 * math.sqrt(2) * math.sqrt(g.m * g.n) * (4 + k ** 2) ** 0.5
        ok = ok and sub_energy <= bound + 1e-9
    _line("criterion 7 (subdivision energy bound)", ok,
          f"energy(S(C3)) = {energy:.6f} = 16*sqrt(2), bound 24")
    assert ok


def test_criterion8_eigensolver_closed_forms():
    worst = 0.0

    def check(got, expected):
        nonlocal worst
        for a, b in zip(got, expected):
            worst = max(worst, abs(a - b))
            assert abs(a - b) <= 1e-9

    for p in (-1.0, 1.0, 2.0, 3.0):
        for n in (3, 5, 8):
            scale = 2.0 ** (1.0 / p) * (n - 1)
            expected = sorted([scale * (n - 1)] + [-scale] * (n - 1), reverse=True)
            check(sombor_decomposition(complete_graph(n), p).eigenvalues, expected)
        for n in (4, 7, 9):
            scale = 2.0 ** (1.0 / p) * 2
            expected = sorted((scale * 2 * math.cos(2 * math.pi * j / n)
                               for j in range(n)), reverse=True)
            check(sombor_decomposition(cycle_graph(n), p).eigenvalues, expected)
    r30 = math.sqrt(30)
    check(sombor_decomposition(star_graph(4), 2.0).eigenvalues, [r30, 0.0, 0.0, -r30])
    hi, lo = math.sqrt(9 + math.sqrt(56)), math.sqrt(9 - math.sqrt(56))
    check(sombor_decomposition(path_graph(4), 2.0).eigenvalues, [hi, lo, -lo, -hi])
    _line("criterion 8 (closed-form spectra to 1e-9)", True,
          f"worst abs error {worst:.2e}")
