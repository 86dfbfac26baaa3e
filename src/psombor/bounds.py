"""Machine-checkable inequality verification for graph spectra and indices.

Every theorem-shaped claim is one entry of CHECKS: its statement, when it
applies, how to evaluate its value and bound(s), where it is hard-asserted and
when equality is expected. Entries read a Frame (psombor.frame), whose columns
hold one value per (graph, p) row, and each is evaluated once per frame:
applies, hard and equality give masks, bounds runs on the applicable rows
only, and run_suite counts the outcomes of each frame of graphs with
np.bincount. A frame holds up to config.SUITE_FRAME_ENTRIES stacked
entries (all of verify --corpus all at 5 p), and its spectra are solved in
stacks of at most config.SUITE_CHUNK_ENTRIES. Only a violation or an
equality mismatch builds a BoundReport, read from the arrays of that
check's evaluation of the frame. Where a frame raises (a value out of the
float range at tiny |p|), it is judged again as two halves, a half that
raises by halves too, down to one (graph, p) row, and the first (graph, p,
check) that raises is reported, after the warnings of the rows judged
before it. Checks whose derivations only hold for p >= 1 are
hard-asserted on that domain and run observe-only elsewhere; two claims
that fail on small graphs as printed (check ids thm4.3 and cor-rad.randic)
are permanently observe-only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .frame import EXP_LIMIT, Frame
from .frame import divide as _div, each as _each, exp as _exp, maximum as _max
from .frame import minimum as _min, power as _pow, sqrt as _sqrt, upper_sums
from .graphs import (
    Graph,
    bipartite_component_count,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_gnm,
    structure_stats,  # not called here: perfbench's tracer patches bounds.structure_stats
)
from .invariants import _left_sum, _warn_exp_overflow
from .spectral import (
    _by_size,
    decompose_stack,
    edge_weight,
)

OUTCOMES = ("pass", "fail", "na", "observe_pass", "observe_fail")
_NA = OUTCOMES.index("na")
_FAIL = OUTCOMES.index("fail")


@dataclass
class BoundReport:
    """Outcome of one inequality check on one graph at one p."""

    check_id: str
    statement: str
    graph_id: str
    p: float
    value: float
    lower: float | None
    upper: float | None
    slack: float | None
    holds: bool | None        # None when not applicable
    applicable: bool
    reason: str | None        # inapplicability cause or observe-only note
    hard: bool                # asserted (within its p-domain) vs observe-only
    equality_expected: bool
    equality_observed: bool | None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"graph" if key == "graph_id" else key: x for key, x in vars(self).items()}
        if not self.extra:
            del out["extra"]
        return out


# ---------------------------------------------------------------------------
# the check table

@dataclass(frozen=True)
class Check:
    """One inequality on the rows of a Frame f: bounds(f) gives (value,
    lower, upper) as columns or scalars, lower or upper None where the check
    has none, or (values, mask) from f.where for a bound only some rows have.
    bounds runs on the rows where applies(f) holds (the others are not
    applicable, with reason na). hard and equality are bools or masks of f;
    where hard is false the report is observe-only, with reason observe.
    note(f) may annotate a hard report (e.g. a radicand clamped at 0), and
    extra(f) gives columns reported alongside."""

    id: str
    family: str
    statement: str
    bounds: Callable
    applies: Callable | None = None
    na: str | None = None
    hard: bool | Callable = True
    observe: str | None = None
    equality: bool | Callable = False
    tol: float | None = None
    scale: Callable | None = None
    extra: Callable | None = None
    note: Callable | None = None


def _rows_where(flag, f: Frame) -> np.ndarray:
    """A Check field that is a bool, a column name or a mask of f, as a mask."""
    if callable(flag):
        return np.asarray(flag(f), dtype=bool)
    return getattr(f, flag) if isinstance(flag, str) else np.full(f.size, flag)


def _bound(x, size: int):
    """A bound, or a value, as float (values, present) columns; np.full keeps
    the sign of a scalar 0."""
    if x is None:
        return np.full(size, math.nan), np.zeros(size, dtype=bool)
    values, present = x if isinstance(x, tuple) else (x, np.ones(size, dtype=bool))
    values = np.asarray(values, dtype=float)
    return (np.full(size, values) if values.ndim == 0 else values), present


def _evaluate(check: Check, f: Frame):
    """check on every row of f: (outcome, mismatch, report).

    outcome indexes OUTCOMES; mismatch is true for a hard row whose expected
    equality is not observed. report(r) is the BoundReport of row r, read
    from the arrays of this evaluation; note and extra run on that row
    alone. A NaN slack neither holds nor shows equality, and the tolerances
    scale with |value| only where it is finite. Values keep their Python
    types: SO_p is the number contexts() summed, the int 0 on an edgeless
    graph.
    """
    hard = _rows_where(check.hard, f)
    applies = _rows_where(True if check.applies is None else check.applies, f)
    outcome, mismatch = np.full(f.size, _NA), np.zeros(f.size, dtype=bool)

    def report(r: int) -> BoundReport:
        graph_id, p = f.graph_ids[f.graph_index[r]], f.p_values[f.p_index[r]]
        if not applies[r]:
            return BoundReport(check.id, check.statement, graph_id, p, 0.0, None, None,
                               None, None, False, check.na, bool(hard[r]), False, None)
        i = int(np.count_nonzero(applies[:r]))   # row r's row of sub
        at = lambda x: x[i:i + 1].tolist()[0]
        row = sub.take(np.arange(sub.size) == i)
        reason = (check.note(row)[0] if check.note else None) if hard[r] else check.observe
        extra = {key: x.tolist()[0] for key, x in check.extra(row).items()} if check.extra else {}
        shown = has_slack[i]
        return BoundReport(check.id, check.statement, graph_id, p,
                           at(given) if isinstance(given, np.ndarray) else given,
                           at(lower) if has_lower[i] else None, at(upper) if has_upper[i] else None,
                           at(slack) if shown else None, at(holds) if shown else None, True,
                           reason, bool(hard[r]), at(eq_expected),
                           at(eq_observed) if shown else None, extra)

    if not applies.any():
        return outcome, mismatch, report
    sub = f if applies.all() else f.take(applies)
    given, lower, upper = check.bounds(sub)
    value = _bound(given, sub.size)[0]
    lower, has_lower = _bound(lower, sub.size)
    upper, has_upper = _bound(upper, sub.size)
    below, above = value - lower, upper - value
    slack = np.where(has_lower & has_upper, _min(below, above),
                     np.where(has_lower, below, above))
    has_slack = has_lower | has_upper
    tol = f.holds_tol if check.tol is None else check.tol
    if check.scale is not None:
        scale = check.scale(sub)
    else:
        # An infinite value must not scale its own tolerance to inf.
        scale = np.where(np.isfinite(value) & (np.abs(value) > 1.0), np.abs(value), 1.0)
    holds = ~has_slack | (slack >= -tol * scale)
    eq_observed = has_slack & (np.abs(slack) <= config.EQUALITY_REL_TOL * scale)
    eq_expected = _rows_where(check.equality, sub)
    sub_hard = hard[applies]
    outcome[applies] = ~holds + 3 * ~sub_hard
    mismatch[applies] = has_slack & ~eq_observed & sub_hard & eq_expected
    return outcome, mismatch, report


def _warn_estrada(f: Frame) -> None:
    """estrada_index's overflow warning, if a row of f whose Estrada index
    was read has exp(xi1) overflow."""
    if (f.read & (f.xi1 > EXP_LIMIT)).any():
        _warn_exp_overflow()


def _clamp_note(inner):
    return lambda f: np.where(inner(f) < 0, "inner radicand clamped at 0", None)


def _thm2_2(f, d):
    return _sqrt(_max(0.0, 0.5 * f.n2 + f.pow2(0, 2.0) * d ** 2 * f.m * (f.m - 1)))


def _thm2_5(f, d, d_power):
    # (N4 - 2^(4/p) d^d_power (M1 - 2m)) / (2^(1+3/p) d^4)
    return _div(f.n4 - f.pow2(0, 4.0) * d ** d_power * (f.m1 - 2 * f.m),
                f.pow2(1, 3.0) * d ** 4)


def _thm2_8(f):
    ident = _sqrt(_max(0.0, 0.5 * f.m * f.n2 - f.m * f.m * f.variance))
    return f.so, ident, ident


def _thm3_10_2(f):
    coeff = f.part1 * f.part2 / f.n
    return f.so, coeff * f.eta_2, coeff * f.eta_max


def _lem3_11_2(f):
    return _each(lambda n, d, m, p: n ** (1.0 / p) * d ** (1 + 1.0 / p) * m ** (1 - 1.0 / p),
                 f.n, f.dmax, f.m, f.p)


def _cor3_12_cap(f):
    return _min(f.pow2(1, 1.0) * f.dmax * f.m, 2.0 * _lem3_11_2(f))


def _energy_lower(bound):
    """Energy lower bound from N2, n and the largest and smallest |eigenvalue|."""
    return lambda f: (f.energy, bound(f.n, f.n2, f.abs_max, f.abs_min), None)


def _cmp4_2_4_3(f):
    ratio = _div(f.n3, _sqrt(f.n2 * f.n4))
    better = np.where(ratio > 1, "thm4.2", np.where(ratio < 1, "thm4.3", "tie"))
    return {"moment_ratio": ratio, "bound_thm4.2": _sqrt(_div(_pow(f.n2, 3), f.n4)),
            "bound_thm4.3": _div(_pow(f.n2, 2), f.n3), "better": better}


def _cmp4_2_4_3_value(f):
    x = _cmp4_2_4_3(f)
    return (x["bound_thm4.3"] - x["bound_thm4.2"]) * (1.0 - x["moment_ratio"]), 0.0, None


def _thm4_10_4(f):
    n, q = f.n, _pow(f.n4, 0.25)
    return (f.estrada, None,
            n - 1 + 0.5 * f.n2 + f.n3 / 6.0 - q - 0.5 * q * q - _pow(q, 3) / 6.0 + _exp(q))


def _thm4_11_2(f):
    n_pos, n_neg, xi1, energy = f.n_pos, f.n_neg, f.xi1, f.energy
    lower = (_exp(xi1) + f.n_zero
             + (n_pos - 1) * _exp((energy - 2 * xi1) / (2.0 * (n_pos - 1)))
             + n_neg * _exp(-energy / (2.0 * n_neg)))
    return f.estrada, lower, None


def _thm4_12(f):
    # Every subdivision edge joins degrees 2 and k: S_p(S(G)) = weight A(S(G)).
    weight =_each(lambda d, p: edge_weight(2, d, p), f.dmax, f.p)
    return (weight * f.subdivision_energy, None,
            2.0 * math.sqrt(2.0) * _sqrt(f.m * f.n) * weight)


def _thm5_5_inner(f):
    return 2 * f.m - f.dmin * (f.n - 1) + (f.dmin - 1) * f.dmax


def _thm5_7_parts(f):
    n, m, dd = f.n, f.m, f.dmax
    cap = f.pow2(1, 2.0) * m * dd ** 2
    a = _max(f.pow2(1, 1.0) * f.dmin * m / n, dd * _sqrt(f.pow2(1, 2.0) * m / n))
    return a, (n - 1) * (cap - a * a)


def _thm5_7(f):
    a, inner = _thm5_7_parts(f)
    return f.energy, None, a + _sqrt(_max(0.0, inner))


def _thm5_9_1(f):
    n, root = f.n, f.root
    first = root * (n - 1) * _sqrt(_max(0.0, 2 * f.m - n + 1))
    return f.xi1_sum, None, first + root * f.c1_dmax * _sqrt(_max(0.0, f.c1_inner))


def _thm5_9_2(f):
    n, m, dd, dmin = f.n, f.m, f.dmax, f.dmin
    inner2 = n * (n - 1) - 2 * m - (dmin + 1) * (n - 1) + dmin * (dd + 1)
    return (f.xi1_sum, None, f.root * dd * _sqrt(_max(0.0, _thm5_5_inner(f)))
            + f.root * (n - 1 - dmin) * _sqrt(_max(0.0, inner2)))


def _thm5_10(f):
    return (f.energy + f.energy_c,
            f.pow2(2, 1.0) * (f.m * f.dmin / f.n + f.complement_term), None)


CHECKS = (
    # -- the index against spectral moments and other indices -------------
    Check("thm2.2", "moment",
          "sqrt(N2/2 + 2^(2/p) deg_min^2 m(m-1)) <= SO_p <= sqrt(N2/2 + 2^(2/p) deg_max^2 m(m-1))",
          lambda f: (f.so, _thm2_2(f, f.dmin), _thm2_2(f, f.dmax)),
          "has_edge", "no edges", equality="regular"),
    Check("thm2.3", "moment", "N2 / (2^(1+1/p) deg_max) <= SO_p <= N2 / (2^(1+1/p) deg_min)",
          lambda f: (f.so, _div(f.n2, f.pow2(1, 1.0) * f.dmax),
                     f.where(f.dmin >= 1, lambda g: _div(g.n2, g.pow2(1, 1.0) * g.dmin))),
          "has_edge", "no edges", equality="regular"),
    Check("thm2.4", "moment",
          "N3 / (2^(1+2/p) deg_max^2 t_max) <= SO_p <= N3 / (2^(1+2/p) deg_min^2 t_min)",
          lambda f: (f.so, _div(f.n3, f.pow2(1, 2.0) * f.dmax ** 2 * f.t_max),
                     f.where(f.dmin >= 1, lambda g: _div(
                         g.n3, g.pow2(1, 2.0) * g.dmin ** 2 * g.t_min))),
          lambda f: (f.m >= 1) & (f.t_min >= 1), "needs t_min >= 1",
          equality=lambda f: f.regular & (f.t_max == f.t_min)),
    Check("thm2.5.lo", "moment",
          "(N4 - 2^(4/p) deg_max^5 (M1-2m)) / (2^(1+3/p) deg_max^4) <= SO_p",
          lambda f: (f.so, _thm2_5(f, f.dmax, 5), None),
          "has_edge", "no edges", equality=lambda f: f.balanced_complete_bipartite),
    Check("thm2.5.up", "moment",
          "SO_p <= (N4 - 2^(4/p) deg_min^4 (M1-2m)) / (2^(1+3/p) deg_min^4)",
          lambda f: (f.so, None, _thm2_5(f, f.dmin, 4)), "min_degree_positive",
          "isolated vertex", equality="regular_c4_free"),
    Check("lem2.6", "moment", "SO_p <= 2^(1/p - 1) n (n-1)^2  [connected]",
          lambda f: (f.so, None, f.pow2(-1, 1.0) * f.n * (f.n - 1) ** 2),
          "connected", "disconnected", equality="complete"),
    Check("thm2.7.lo", "moment", "n xi1^2 / (2^(1+1/p) deg_max (n-1)) <= SO_p",
          lambda f: (f.so, _div(f.n * _pow(f.xi1, 2), f.pow2(1, 1.0) * f.dmax * (f.n - 1)),
                     None),
          lambda f: (f.m >= 1) & (f.n >= 2), "needs m >= 1 and n >= 2", equality="complete"),
    Check("thm2.7.up", "moment", "SO_p <= n xi1 / 2",
          lambda f: (f.so, None, f.n * f.xi1 / 2.0), equality="regular"),
    Check("thm2.8", "moment", "SO_p == sqrt(m N2 / 2 - m^2 sigma^2)",
          _thm2_8, "has_edge", "no edges", tol=1e-10, equality=True),
    Check("thm-isi", "moment", "SO_p >= 2^(1/p + 1) ISI  [proved for p >= 1]",
          lambda f: (f.so, f.pow2(1, 1.0) * f.isi, None),
          "has_edge", "no edges", hard="p_at_least_1", equality="regular"),

    # -- the p-Laplacian spectrum ----------------------------------------
    Check("lap-trace", "laplacian", "SO_p == (1/2) sum of Laplacian eigenvalues",
          lambda f: (f.so, 0.5 * f.eta_sum, 0.5 * f.eta_sum), tol=1e-10, equality=True),
    Check("lem3.8.psd", "laplacian", "smallest Laplacian eigenvalue is 0 (and none negative)",
          lambda f: (f.eta_n, 0.0, 0.0), scale=lambda f: f.lap_scale),
    Check("lem3.8.mult", "laplacian",
          "zero Laplacian eigenvalue multiplicity == component count",
          lambda f: (f.lap_zeros.astype(float), f.components, f.components)),
    Check("thm3.10.1", "laplacian",
          "(n-1)/2 eta_second_smallest <= SO_p <= (n-1)/2 eta_max  [connected]",
          lambda f: (f.so, (f.n - 1) / 2.0 * f.eta_2, (f.n - 1) / 2.0 * f.eta_max),
          "connected2", "needs connected, n >= 2", equality="complete"),
    Check("thm3.10.2", "laplacian",
          "n1 n2 / n * eta_second_smallest <= SO_p <= n1 n2 / n * eta_max  [connected bipartite]",
          _thm3_10_2, lambda f: f.connected2 & f.bipartite,
          "needs connected bipartite", equality=lambda f: f.complete_bipartite),
    Check("lem3.11.1", "laplacian", "SO_p <= 2^(1/p) deg_max m  [proved for p >= 1]",
          lambda f: (f.so, None, f.root * f.dmax * f.m),
          "has_edge", "no edges", hard="p_at_least_1", equality="regular"),
    Check("lem3.11.2", "laplacian",
          "SO_p <= n^(1/p) deg_max^(1+1/p) m^(1-1/p)  [proved for p >= 1]",
          lambda f: (f.so, None, _lem3_11_2(f)),
          "has_edge", "no edges", hard="p_at_least_1", equality="regular"),
    Check("cor3.12.1", "laplacian",
          "sum of Laplacian eigenvalues <= min(2^(1+1/p) deg_max m, 2 n^(1/p) deg_max^(1+1/p) m^(1-1/p))",
          lambda f: (f.eta_sum, None, _cor3_12_cap(f)),
          "has_edge", "no edges", hard="p_at_least_1", equality="regular"),
    Check("cor3.12.2", "laplacian", "eta_second_smallest <= the same cap / (n-1)  [connected]",
          lambda f: (f.eta_2, None, _cor3_12_cap(f) / (f.n - 1)),
          "connected2", "needs connected, n >= 2", hard="p_at_least_1", equality="complete"),
    Check("cor3.13.1", "laplacian", "eta_max >= N2 / (2^(1/p) deg_max (n-1))  [connected]",
          lambda f: (f.eta_max, _div(f.n2, f.root * f.dmax * (f.n - 1)), None),
          "connected2", "needs connected, m >= 1", equality="complete"),
    Check("cor3.13.2", "laplacian",
          "eta_second_smallest <= N2 / (2^(1/p) deg_min (n-1))  [connected]",
          lambda f: (f.eta_2, None, _div(f.n2, f.root * f.dmin * (f.n - 1))),
          "connected2", "needs connected, m >= 1", equality="complete"),

    # -- spectral radius and spread ----------------------------------------
    Check("thm-rad.mu", "radius", "2^(1/p) deg_min mu1 <= xi1 <= 2^(1/p) deg_max mu1",
          lambda f: (f.xi1, f.root * f.dmin * f.mu1, f.root * f.dmax * f.mu1),
          equality="regular"),
    Check("cor-rad1.lo", "radius", "xi1 >= 2^(1+1/p) m deg_min / n",
          lambda f: (f.xi1, f.pow2(1, 1.0) * f.m * f.dmin / f.n, None),
          equality="regular"),
    Check("cor-rad1.up", "radius", "xi1 <= 2^(1/p) deg_max sqrt(2m - n + 1)  [connected]",
          lambda f: (f.xi1, None, f.root * f.dmax * _sqrt(_max(0.0, 2 * f.m - f.n + 1))),
          "connected", "disconnected", equality="complete"),
    Check("cor-rad2", "radius", "2^(1/p) deg_min sqrt(M1/n) <= xi1 <= 2^(1/p) deg_max^2",
          lambda f: (f.xi1, f.root * f.dmin * _sqrt(f.m1 / f.n), f.root * f.dmax ** 2),
          equality="regular"),
    Check("cor-rad3", "radius", "xi1 >= 2^(1/p) deg_min (2m/n)",
          lambda f: (f.xi1, f.root * f.dmin * f.avg_degree, None),
          equality="regular"),
    Check("cor-rad.randic", "radius", "xi1 >= 2^(1/p) (deg_min / m) R  [observe-only]",
          lambda f: (f.xi1, f.root * (f.dmin / f.m) * f.randic, None),
          "has_edge", "no edges", hard=False, observe="observe-only: cited source ambiguous"),
    Check("thm-rad.n2", "radius", "xi1 <= sqrt((n-1) N2 / n)",
          lambda f: (f.xi1, None, _sqrt((f.n - 1) * f.n2 / f.n)),
          equality=lambda f: f.edgeless | f.complete),
    Check("lem-diam", "radius", "distinct eigenvalue count >= diameter + 1  [connected]",
          lambda f: (f.distinct.astype(float), f.diameter + 1.0, None),
          "connected", "disconnected"),
    Check("thm-spread", "radius", "xi1 - xi_n <= sqrt(2 N2)  [stated for connected]",
          lambda f: (f.xi1 - f.xin, None, _sqrt(2.0 * f.n2)),
          hard="connected", observe="observe-only: disconnected",
          equality=lambda f: f.edgeless | f.complete_bipartite),

    # -- energy and the Estrada index --------------------------------------
    Check("thm4.1.1", "energy", "sqrt(2 N2) <= energy <= sqrt(n N2)",
          lambda f: (f.energy, _sqrt(2.0 * f.n2), _sqrt(f.n * f.n2))),
    Check("thm4.1.2", "energy", "energy >= sqrt(n(n-1) |det|^(2/n) + N2)",
          lambda f: (f.energy, _sqrt(f.n * (f.n - 1) * f.det_root + f.n2), None)),
    Check("thm4.1.3", "energy", "energy >= (N2 + n max|xi| min|xi|) / (max|xi| + min|xi|)",
          _energy_lower(lambda n, n2, big, small: _div(n2 + n * big * small, big + small)),
          "has_edge", "no edges"),
    Check("thm4.1.4", "energy", "energy >= sqrt(4 n N2 - n^2 (max|xi| - min|xi|)^2) / 2",
          _energy_lower(lambda n, n2, big, small:
                        0.5 * _sqrt(_max(0.0, 4 * n * n2 - n * n * _pow(big - small, 2)))),
          "has_edge", "no edges"),
    Check("thm4.1.5", "energy",
          "energy >= sqrt(n N2 - n floor(n/2)(1 - floor(n/2)/n)(max|xi| - min|xi|)^2)",
          _energy_lower(lambda n, n2, big, small: _sqrt(_max(
              0.0, n * n2 - n * (n // 2) * (1 - (n // 2) / n) * _pow(big - small, 2)))),
          "has_edge", "no edges"),
    Check("thm4.2", "energy", "energy >= sqrt(N2^3 / N4)",
          lambda f: (f.energy, _sqrt(_div(_pow(f.n2, 3), f.n4)), None), "has_edge", "no edges"),
    Check("thm4.3", "energy", "energy >= N2^2 / N3  [observe-only]",
          lambda f: (f.energy, _div(_pow(f.n2, 2), f.n3), None),
          lambda f: f.n3 > 0, "needs N3 > 0", hard=False,
          observe="observe-only: can exceed the energy (needs sum |xi|^3, not N3)"),
    Check("cmp4.2-4.3", "energy", "larger lower bound matches the sign of N3/sqrt(N2 N4) - 1",
          _cmp4_2_4_3_value, lambda f: (f.n3 > 0) & (f.m >= 1), "needs N3 > 0",
          extra=_cmp4_2_4_3),
    Check("thm4.10.1", "energy",
          "estrada - energy <= n - 1 + e^sqrt(N2) - sqrt(N2) - sqrt(2 N2)",
          lambda f: (f.estrada - f.energy, None, f.n - 1 + _exp(_sqrt(f.n2))
                     - _sqrt(f.n2) - _sqrt(2 * f.n2)),
          lambda f: _sqrt(f.n2) < EXP_LIMIT, "exp overflow guard", equality="edgeless"),
    Check("thm4.10.2", "energy", "estrada + energy <= n - 1 + e^energy",
          lambda f: (f.estrada + f.energy, None, f.n - 1 + _exp(f.energy)),
          lambda f: f.energy < EXP_LIMIT, "exp overflow guard", equality="edgeless"),
    Check("thm4.10.3", "energy", "energy <= sqrt((3n-1)/3 N2)  [asserted for connected, n >= 3]",
          lambda f: (f.energy, None, _sqrt((3 * f.n - 1) / 3.0 * f.n2)),
          hard=lambda f: f.connected & (f.n >= 3),
          observe="observe-only: fails on a single weighted edge as printed",
          equality="edgeless"),
    Check("thm4.10.4", "energy",
          "estrada <= n - 1 + N2/2 + N3/6 - q - q^2/2 - q^3/6 + e^q, q = N4^(1/4)",
          _thm4_10_4, lambda f: _pow(f.n4, 0.25) < EXP_LIMIT, "exp overflow guard"),
    Check("thm4.10.5", "energy", "estrada >= sqrt(n^2 + (N2/2)^2 + n N2 + n N3/3 + n N4/12)",
          lambda f: (f.estrada, _sqrt(f.n * f.n + _pow(0.5 * f.n2, 2) + f.n * f.n2
                                      + f.n * f.n3 / 3.0 + f.n * f.n4 / 12.0), None)),
    Check("thm4.11.1", "energy", "(e-1)/2 energy + n - n_pos <= estrada <= n - 1 + e^(energy/2)",
          lambda f: (f.estrada, 0.5 * (math.e - 1) * f.energy + f.n - f.n_pos,
                     f.n - 1 + _exp(f.energy / 2.0)),
          lambda f: f.energy / 2.0 < EXP_LIMIT, "exp overflow guard", equality="edgeless"),
    Check("thm4.11.2", "energy",
          "estrada >= e^xi1 + n_zero + (n_pos-1) e^((energy-2 xi1)/(2(n_pos-1))) + n_neg e^(-energy/(2 n_neg))",
          _thm4_11_2,
          lambda f: (f.n_pos >= 2) & (f.n_neg >= 1) & (f.xi1 < EXP_LIMIT),
          "needs n_pos >= 2 and n_neg >= 1"),
    Check("thm4.12", "energy",
          "energy(subdivision) <= 2 sqrt(2) sqrt(m n) (2^p + k^p)^(1/p)  [k-regular]",
          _thm4_12, lambda f: f.regular & (f.m >= 1), "needs a regular graph with edges"),

    # -- Nordhaus-Gaddum ---------------------------------------------------
    Check("lem5.4", "nordhaus_gaddum", "xi1 >= 2^(1+1/p) deg_min m / n",
          lambda f: (f.xi1, f.pow2(1, 1.0) * f.dmin * f.m / f.n, None),
          equality="regular"),
    Check("thm5.5", "nordhaus_gaddum",
          "xi1 <= 2^(1/p) deg_max sqrt(2m - deg_min(n-1) + (deg_min-1) deg_max)",
          lambda f: (f.xi1, None, f.root * f.dmax * _sqrt(_max(0.0, _thm5_5_inner(f)))),
          "min_degree_positive", "needs deg_min >= 1", equality="regular",
          note=_clamp_note(_thm5_5_inner)),
    Check("thm5.6", "nordhaus_gaddum", "energy >= 2^(2+1/p) deg_min m / n",
          lambda f: (f.energy, f.pow2(2, 1.0) * f.dmin * f.m / f.n, None),
          equality=lambda f: f.edgeless | f.regular_complete_multipartite),
    Check("thm5.7", "nordhaus_gaddum", "energy <= a + sqrt((n-1)(2^(1+2/p) m deg_max^2 - a^2))",
          _thm5_7, "min_degree_positive", "needs deg_min >= 1",
          note=_clamp_note(lambda f: _thm5_7_parts(f)[1])),
    Check("thm5.8", "nordhaus_gaddum",
          "xi1 + xi1(complement) >= 2^(1+1/p)/n (m deg_min + (n-1-deg_max)(C(n,2) - m))",
          lambda f: (f.xi1_sum, f.pow2(1, 1.0) / f.n
                     * (f.m * f.dmin + (f.n - 1 - f.dmax) * (f.n * (f.n - 1) / 2.0 - f.m)),
                     None),
          equality="regular"),
    Check("thm5.9.1", "nordhaus_gaddum",
          "xi1 + xi1(complement) <= 2^(1/p)(n-1) sqrt(2m-n+1) + component term  [deg_max = n-1]",
          _thm5_9_1, lambda f: f.connected & (f.dmax == f.n - 1),
          "needs connected, deg_max = n-1"),
    Check("thm5.9.2", "nordhaus_gaddum",
          "xi1 + xi1(complement) <= 2^(1/p) deg_max sqrt(...) + 2^(1/p)(n-1-deg_min) sqrt(...)  [deg_max, deg_min <= n-2]",
          _thm5_9_2, lambda f: f.connected & (f.dmax != f.n - 1),
          "needs connected, deg_max <= n-2"),
    Check("thm5.10", "nordhaus_gaddum",
          "energy + energy(complement) >= 2^(2+1/p) (m deg_min / n + sum over complement components)",
          _thm5_10, "connected", "disconnected", equality="complete"),
)

_BY_FAMILY: dict[str, list[Check]] = {}
for _check in CHECKS:
    _BY_FAMILY.setdefault(_check.family, []).append(_check)


def _slices(graphs, k: int):
    """(n, members) of each stack that contexts() solves, in order: the
    indices of the graphs of each vertex count n, cut by _chunks into runs
    whose stacks hold at most config.SUITE_CHUNK_ENTRIES entries at k p
    values, or one graph over that budget."""
    for n, same_size in _by_size(g.n for g in graphs).items():
        for run in _chunks([(i, graphs[i]) for i in same_size], k, config.SUITE_CHUNK_ENTRIES):
            yield n, [i for i, _ in run]


def contexts(graphs, p_values, holds_tol: float | None = None) -> Frame:
    """The Frame of (graph_id, graph) pairs: a row per graph and p, graph by
    graph, each in p_values order.

    Each stack (_slices: graphs of one vertex count, at most
    config.SUITE_CHUNK_ENTRIES entries) is built from one boolean adjacency
    block A, which the frame keeps: the row-major upper-triangle nonzeros of
    A and of 1 - A - I are each graph's and its complement's edges in
    edges() order, with degrees d and n - 1 - d. Their weights take one
    edge_weight call per distinct degree pair of the frame at each p, and
    one decompose_stack solves S_p of every graph and of its complement and
    L_p at every p, and A. contexts sets SO_p and the variance (upper_sums
    of each S_p, as sombor_index and weight_variance add), N2-N4 (traces of
    powers of the stacked S_p) and thm4.12's subdivision energy (from the
    adjacency spectrum of each regular graph with edges; NaN elsewhere).
    """
    graphs, p_values = list(graphs), tuple(p_values)
    ids, graphs = [graph_id for graph_id, _ in graphs], [g for _, g in graphs]
    k = len(p_values)
    base = max((g.n for g in graphs), default=0) + 1
    known = {}   # the weights at each p of each degree-pair key met so far
    moments, stacks, blocks = np.zeros((3, len(graphs) * k)), [], []
    so, squares = np.zeros((2, len(graphs), k))
    subdivision = np.full(len(graphs), math.nan)
    for n, members in _slices(graphs, k):
        count, index = len(members), np.array(members)
        degrees = np.array([graphs[i].degrees for i in members], dtype=np.intp)
        ends = [v for i in members for adj in graphs[i].adj for v in adj]
        a = np.zeros((count * n, n), dtype=bool)
        a[np.repeat(np.arange(count * n), degrees.ravel()), ends] = True
        a = a.reshape(count, n, n)
        blocks.append((index, a))
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        graph_edges, complement_edges = np.nonzero(a & upper), np.nonzero(~a & upper)
        which = np.repeat([0, 1], [len(graph_edges[0]), len(complement_edges[0])])
        member, u, v = (np.concatenate(x) for x in zip(graph_edges, complement_edges))
        both = np.stack((degrees, n - 1 - degrees))
        du, dv = both[which, member, u], both[which, member, v]
        keys, inverse = np.unique(np.minimum(du, dv) * base + np.maximum(du, dv),
                                  return_inverse=True)
        new = [key for key in keys.tolist() if key not in known]
        fresh = [[edge_weight(*divmod(key, base), p) for key in new] for p in p_values]
        known.update((key, [row[i] for row in fresh]) for i, key in enumerate(new))
        w = np.array([known[key] for key in keys.tolist()], dtype=float)
        w = w.reshape(len(keys), k)[inverse]
        stack = np.zeros((count * (3 * k + 1), n, n))
        sombor = stack[:2 * count * k].reshape(count, k, 2, n, n)  # graph, then complement
        laplacian = stack[2 * count * k:3 * count * k].reshape(count, k, n, n)
        stack[3 * count * k:] = a
        sombor[member, :, which, u, v] = sombor[member, :, which, v, u] = w
        s = sombor[:, :, 0]
        diagonal = np.arange(n)
        laplacian[:, :, diagonal, diagonal] = s.sum(axis=-1)
        laplacian -= s
        rows = (index[:, None] * k + np.arange(k)).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            so[index] = upper_sums(s)
            squares[index] = upper_sums(s * s)
            s2 = s @ s
            moments[:, rows] = [(x * y).reshape(count * k, n * n).sum(axis=1)
                                for x, y in ((s, s), (s2, s), (s2, s2))]
        del s2, w  # not held while the stack is solved
        spectra = decompose_stack(stack)
        # energy(A(S(G))) = 2 sum sqrt(k + lambda_i) for a k-regular G, by
        # P_S(G)(x) = x^(m-n) P_G(x^2 - k) (Cvetkovic, Doob & Sachs, Spectra
        # of Graphs). Each bipartite component gives one lambda_i = -k
        # exactly, the smallest: those b values add exact zeros and are left
        # out, as the sqrt of their rounded value would be ~1e-8.
        for j in np.flatnonzero((degrees.min(axis=1) == degrees.max(axis=1))
                                & (degrees[:, 0] > 0)).tolist():
            g, d = graphs[members[j]], int(degrees[j, 0])
            lams = spectra.eigenvalues[3 * count * k + j, :n - bipartite_component_count(g)]
            subdivision[members[j]] = 2.0 * _left_sum(math.sqrt(d + x) for x in lams.tolist())
        local = np.arange(count * k)
        stacks.append((spectra, rows, 2 * local, 2 * count * k + local, 2 * local + 1,
                       np.repeat(3 * count * k + np.arange(count), k)))
    m = np.array([g.m for g in graphs], dtype=np.intp)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        variance = np.where(m > 0, squares / m - (so / m) * (so / m), math.nan)
    # SO_p as Python numbers: the empty sum of an edgeless graph is the int 0.
    so = so.astype(object)
    so[m[:, 0] == 0] = 0
    columns = {"so": so.reshape(-1), "variance": variance.reshape(-1),
               "subdivision_energy": np.repeat(subdivision, k)}
    if np.isfinite(moments).all():
        columns.update(n2=moments[0], n3=moments[1], n4=moments[2])
    return Frame(graphs, ids, p_values,
                 config.HOLDS_REL_TOL if holds_tol is None else holds_tol, stacks, blocks,
                 **columns)


def _reports(checks, g: Graph, p: float) -> list[BoundReport]:
    """The BoundReport of each check on g at p, from one frame of one row."""
    if g.n == 0:
        return []
    f = contexts([("g", g)], (p,))
    try:
        with np.errstate(all="ignore"):
            return [_evaluate(check, f)[2](0) for check in checks]
    finally:
        _warn_estrada(f)


def check_moment_index_bounds(g: Graph, p: float) -> list[BoundReport]:
    return _reports(_BY_FAMILY["moment"], g, p)


def check_laplacian_bounds(g: Graph, p: float) -> list[BoundReport]:
    return _reports(_BY_FAMILY["laplacian"], g, p)


def check_radius_bounds(g: Graph, p: float) -> list[BoundReport]:
    return _reports(_BY_FAMILY["radius"], g, p)


def check_energy_estrada_bounds(g: Graph, p: float) -> list[BoundReport]:
    return _reports(_BY_FAMILY["energy"], g, p)


def check_nordhaus_gaddum(g: Graph, p: float) -> list[BoundReport]:
    return _reports(_BY_FAMILY["nordhaus_gaddum"], g, p)


def all_checks(g: Graph, p: float) -> list[BoundReport]:
    return _reports(CHECKS, g, p)


# ---------------------------------------------------------------------------
# corpora

def corpus_trees(n_lo: int = 4, n_hi: int = 9):
    """All unlabeled trees for each n in [n_lo, n_hi]."""
    from .extremal import enumerate_trees
    out = []
    for n in range(n_lo, n_hi + 1):
        catalog = enumerate_trees(n)
        for idx, t in enumerate(catalog.trees):
            out.append((f"tree_n{n}_{idx}", t))
    return out


def corpus_families(n_max: int = 10):
    """Complete graphs, cycles, paths and complete bipartite graphs."""
    out = []
    for n in range(1, n_max + 1):
        out.append((f"K{n}", complete_graph(n)))
    for n in range(3, n_max + 1):
        out.append((f"C{n}", cycle_graph(n)))
    for n in range(2, n_max + 1):
        out.append((f"P{n}", path_graph(n)))
    for a in range(1, n_max):
        for b in range(a, n_max - a + 1):
            out.append((f"K{a},{b}", complete_bipartite_graph(a, b)))
    return out


def corpus_random_connected(n: int = 8, count: int = 200, m_lo: int = 7,
                            m_hi: int = 20, seed: int = 42):
    """Seeded connected G(n, m) draws with m cycling over [m_lo, m_hi]."""
    out = []
    span = m_hi - m_lo + 1
    for i in range(count):
        m = m_lo + i % span
        g = random_connected_gnm(n, m, seed + i)
        out.append((f"gnm_n{n}_m{m}_s{seed + i}", g))
    return out


def corpus_special():
    """Degenerate and equality-relevant extras."""
    return [("5K1", Graph(5)), ("1K1", Graph(1))]


def corpus_from_directory(path):
    """Graphs from every .edges/.json/.txt file in a directory, read by
    read_graph_text; unreadable entries are recorded and skipped so the suite
    still runs. A graph above the input size limit raises GraphTooLargeError
    for the whole corpus."""
    import os

    from .graphs import GraphTooLargeError, read_graph_text

    graphs = []
    errors = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full) or not name.endswith((".edges", ".json", ".txt")):
            continue
        try:
            with open(full, encoding="utf-8") as fh:
                graphs.append((name, read_graph_text(fh.read())))
        except GraphTooLargeError as exc:
            raise GraphTooLargeError(f"{name}: {exc}") from exc
        except Exception as exc:
            errors.append({"file": name, "error": str(exc)})
    return graphs, errors


def build_corpus(name: str, seed: int = 42):
    """Named corpus; graph directories go through corpus_from_directory,
    which also returns the entries it could not read."""
    key = name.lower()
    if key == "trees":
        return corpus_trees()
    if key == "families":
        return corpus_families()
    if key == "random":
        return corpus_random_connected(seed=seed)
    if key == "special":
        return corpus_special()
    if key == "all":
        return (corpus_trees() + corpus_families()
                + corpus_random_connected(seed=seed) + corpus_special())
    raise ValueError(f"unknown corpus {name!r} "
                     "(trees|families|random|special|all)")


# ---------------------------------------------------------------------------
# suite runner

@dataclass
class SuiteReport:
    corpus: str
    p_values: tuple[float, ...]
    graphs_checked: int
    counts: dict                 # check_id -> outcome -> count
    violations: list[dict]
    equality_mismatches: list[dict]
    corpus_errors: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.equality_mismatches

    def totals(self) -> dict:
        agg = dict.fromkeys(OUTCOMES, 0)
        for per in self.counts.values():
            for key, cnt in per.items():
                agg[key] += cnt
        return agg

    def to_dict(self) -> dict:
        return {
            "corpus": self.corpus,
            "p_values": list(self.p_values),
            "graphs_checked": self.graphs_checked,
            "totals": self.totals(),
            "counts": self.counts,
            "violations": self.violations,
            "equality_mismatches": self.equality_mismatches,
            "corpus_errors": self.corpus_errors,
        }


def _violation_payload(report: BoundReport, g: Graph) -> dict:
    return {
        "check_id": report.check_id,
        "statement": report.statement,
        "graph": report.graph_id,
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "p": report.p,
        "value": report.value,
        "lower": report.lower,
        "upper": report.upper,
        "slack": report.slack,
    }


def _new_tally():
    """Outcome counts per check (rows in CHECKS order, columns indexed like
    OUTCOMES), violations and equality mismatches."""
    return np.zeros((len(CHECKS), len(OUTCOMES)), dtype=np.int64), [], []


def _tally_frame(f: Frame, tally) -> None:
    """Add every check on every row of f to tally, one evaluation per check.

    Only a violation or an equality mismatch builds a BoundReport, read from
    its check's evaluation of f, in (row, check) order. A check that raises
    propagates; the caller warns for the rows whose Estrada index was read
    (_warn_estrada).
    """
    counts, violations, eq_mismatches = tally
    flagged = []
    with np.errstate(all="ignore"):
        for k, check in enumerate(CHECKS):
            outcome, mismatch, report = _evaluate(check, f)
            counts[k] += np.bincount(outcome, minlength=len(OUTCOMES))
            for out, rows in ((violations, outcome == _FAIL), (eq_mismatches, mismatch)):
                flagged += [(r, k, report, out) for r in np.flatnonzero(rows).tolist()]
        for r, _, report, out in sorted(flagged, key=lambda x: x[:2]):
            out.append(_violation_payload(report(r), f.graphs[f.graph_index[r]]))


def _merge(tallies):
    """One tally of the tallies, in order."""
    counts, violations, eq_mismatches = _new_tally()
    for more_counts, more_violations, more_mismatches in tallies:
        counts += more_counts
        violations += more_violations
        eq_mismatches += more_mismatches
    return counts, violations, eq_mismatches


def _judge(graphs, p_values, holds_tol):
    """The tally of graphs at p_values, judged on one Frame of their (graph,
    p) rows.

    If anything raises, in contexts() or in a check, the frame is judged
    again as two halves in corpus order, each by this same rule: its graphs
    cut in two at len // 2, or for one graph its p values. The second half
    is judged only once the first passes, and where both pass their tally
    stands. A frame of one row warns for itself (_warn_estrada) and
    re-raises. So the first (graph, p, check) that raises is re-raised after
    the warnings of the rows before it, wherever the frames are cut.
    """
    tally, f = _new_tally(), None
    try:
        f = contexts(graphs, p_values, holds_tol)
        _tally_frame(f, tally)
    except Exception:
        if len(graphs) == len(p_values) == 1:
            if f is not None:
                _warn_estrada(f)
            raise
    else:
        _warn_estrada(f)
        return tally
    del f   # not held while the halves are judged
    g, k = len(graphs) // 2, len(p_values) // 2
    halves = (((graphs[:g], p_values), (graphs[g:], p_values)) if g else
              ((graphs, p_values[:k]), (graphs, p_values[k:])))
    return _merge(_judge(*half, holds_tol) for half in halves)


def _tally_in_worker(task):
    """_judge in a worker process, or None if it warns or raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _judge(*task)
        except Exception:
            return None


def _chunks(graphs, k: int, budget: float, parts: int = 1) -> list[list]:
    """The graphs in order, cut into runs whose stacks in contexts() hold at
    most budget entries at k p values, (3k + 1) n^2 per graph of n vertices
    (S_p of the graph and of its complement and L_p at each p, and the
    adjacency matrix); a graph over the budget makes a run of its own. With
    parts > 1 a run also ends once it holds 1/parts of the entries of all
    the graphs, and there are at least parts runs where there are that many
    graphs."""
    sizes = [(3 * k + 1) * g.n ** 2 for _, g in graphs]
    share = sum(sizes) / parts if parts > 1 else math.inf
    chunks, used = [], 0
    for left, item, entries in zip(range(len(graphs), 0, -1), graphs, sizes):
        if (not chunks or used + entries > budget or used >= share
                or left <= parts - len(chunks)):
            chunks.append([])
            used = 0
        chunks[-1].append(item)
        used += entries
    return chunks


def run_suite(graphs, p_values=(1.0, 2.0, 3.0), holds_tol: float | None = None,
              jobs: int = 1, corpus_name: str = "custom",
              corpus_errors: list | None = None) -> SuiteReport:
    """Run every check for each (graph, p); deterministic merge order.

    Graphs go in corpus order in frames whose matrix stacks hold at most
    config.SUITE_FRAME_ENTRIES entries, and with jobs > 1 in at least jobs
    frames where there are that many graphs (_chunks). Graphs without
    vertices make no rows: they are only counted. Each frame has its checks
    judged over one Frame, one evaluation per check, and its spectra solved
    in one batched call per stack of at most config.SUITE_CHUNK_ENTRIES
    entries of one vertex count (contexts), which bounds the memory held at
    once by the solves at any graph size; a frame's own state (edges,
    weights, complements, spectra and columns) grows with its entries. With
    jobs > 1, worker processes, at most one per frame, take whole frames,
    and a frame that warns or raises there is judged again in this process.
    A frame that raises is judged again by halves (_judge), so that the
    report, or the error raised and the warnings before it, depends neither
    on where the frames are cut nor on jobs.
    """
    if holds_tol is not None and not math.isfinite(holds_tol):
        raise ValueError(f"tolerance must be finite, got {holds_tol}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    graphs, p_values = list(graphs), tuple(p_values)
    rowed = [item for item in graphs if item[1].n] if p_values else []
    frames = _chunks(rowed, len(p_values), config.SUITE_FRAME_ENTRIES, jobs)
    tasks = [(frame, p_values, holds_tol) for frame in frames]
    if jobs > 1 and len(tasks) > 1:
        # Imported here: the process-pool machinery costs ~20 ms of import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            tallies = list(pool.map(_tally_in_worker, tasks))
        # A frame that warned or raised in a worker is judged again here, in
        # corpus order: the warnings and the error are those of a serial run.
        tallies = [tally or _judge(*task) for task, tally in zip(tasks, tallies)]
    else:
        tallies = (_judge(*task) for task in tasks)
    counts, violations, eq_mismatches = _merge(tallies)
    # A check appears once it was run on some graph: every run adds one count.
    by_id = {check.id: dict(zip(OUTCOMES, per))
             for check, per in zip(CHECKS, counts.tolist()) if any(per)}
    return SuiteReport(corpus_name, p_values, len(graphs),
                       dict(sorted(by_id.items())), violations, eq_mismatches,
                       corpus_errors or [])
