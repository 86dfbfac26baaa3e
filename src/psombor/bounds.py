"""Machine-checkable inequality verification for graph spectra and indices.

Every theorem-shaped claim is one entry of CHECKS: its statement, when it
applies, how to evaluate its value and bound(s), where it is hard-asserted and
when equality is expected. One judging step applies an entry to a
CheckContext and gives its outcome; _report builds a full BoundReport from
it, and run_suite counts the outcomes over a corpus and a grid of p values,
building a report only for a violation or an equality mismatch. Checks whose
derivations only hold for p >= 1 are hard-asserted on that domain and run
observe-only elsewhere; two claims that fail on small graphs as printed
(check ids thm4.3 and cor-rad.randic) are permanently observe-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import config
from .graphs import (
    Graph,
    bipartite_component_count,
    complement,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    induced_subgraph,
    is_balanced_complete_bipartite,
    is_complete,
    is_complete_bipartite,
    is_complete_multipartite,
    is_c4_free,
    path_graph,
    random_connected_gnm,
    structure_stats,
)
from .invariants import (
    abs_determinant,
    estrada_index,
    first_zagreb,
    graph_energy,
    isi_index,
    randic_index,
)
from .spectral import (
    MomentSet,
    SpectralDecomposition,
    _by_size,
    build_sombor_matrix,
    decompose_stack,
    edge_weight,
    eigen_decompose_many,
)

EXP_LIMIT = config.ESTRADA_EXP_LIMIT
OUTCOMES = ("pass", "fail", "na", "observe_pass", "observe_fail")


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
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "graph": self.graph_id,
            "p": self.p,
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "slack": self.slack,
            "holds": self.holds,
            "applicable": self.applicable,
            "reason": self.reason,
            "hard": self.hard,
            "equality_expected": self.equality_expected,
            "equality_observed": self.equality_observed,
            **({"extra": self.extra} if self.extra else {}),
        }


class GraphContext:
    """The p-independent quantities of one graph, shared by the CheckContext
    of every p. contexts() solves adec, the adjacency spectrum, with the
    rest of its stack and reads the complement; the others are computed
    once on first use."""

    def __init__(self, g: Graph):
        self.g = g
        self.adec: SpectralDecomposition | None = None

    stats = cached_property(lambda self: structure_stats(self.g))
    complement = cached_property(lambda self: complement(self.g))
    # the components of the complement that have edges, by smallest vertex
    complement_parts = cached_property(lambda self: [
        induced_subgraph(self.complement, comp)
        for comp in connected_components(self.complement) if len(comp) > 1])
    n_components = cached_property(lambda self: len(connected_components(self.g)))
    m1 = cached_property(lambda self: first_zagreb(self.g))
    randic = cached_property(lambda self: randic_index(self.g))
    isi = cached_property(lambda self: isi_index(self.g))
    is_complete = cached_property(lambda self: is_complete(self.g))
    is_complete_bipartite = cached_property(lambda self: is_complete_bipartite(self.g))
    is_balanced_complete_bipartite = cached_property(
        lambda self: is_balanced_complete_bipartite(self.g))
    is_complete_multipartite = cached_property(lambda self: is_complete_multipartite(self.g))
    is_c4_free = cached_property(lambda self: is_c4_free(self.g))

    @cached_property
    def subdivision_energy(self) -> float:
        """Energy of A(S(G)) for a k-regular G, from the spectrum of A(G).

        Every subdivision edge joins degrees 2 and k, so S_p(S(G)) =
        edge_weight(2, k, p) A(S(G)) and this one value serves every p. By
        P_S(G)(x) = x^(m-n) P_G(x^2 - k) (Cvetkovic, Doob & Sachs, Spectra of
        Graphs) the energy is 2 sum sqrt(k + lambda_i). Each bipartite
        component gives one lambda_i = -k exactly, the smallest: those last b
        values add exact zeros and are left out, as the sqrt of their rounded
        value would be ~1e-8.
        """
        if not self.stats.is_regular:
            raise ValueError("subdivision_energy needs a regular graph")
        k = self.stats.max_degree
        lams = self.adec.eigenvalues[:self.g.n - bipartite_component_count(self.g)]
        return 2.0 * sum(math.sqrt(k + lam) for lam in lams)


class CheckContext:
    """The per-(graph, p) view the checks read, over the GraphContext that
    holds the p-independent values. contexts() sets the spectra, SO_p, the
    moments N0-N4 (moments; n2, n3, n4) and the edge-weight variance (None
    without edges); the energy, the Estrada index and 2^(1/p) are computed
    on first use. Where the moments leave the float range they are
    left unset, and reading them raises moments_closed_form's OverflowError,
    so a run fails at the first check that needs them."""

    def __init__(self, graph: GraphContext, p: float, graph_id: str,
                 holds_tol: float | None, sdec: SpectralDecomposition,
                 ldec: SpectralDecomposition, complement_sdec: SpectralDecomposition,
                 so: float, moments: MomentSet | None, variance: float | None):
        self.graph = graph
        self.g = graph.g
        self.n, self.m = self.g.n, self.g.m
        self.p = p
        self.graph_id = graph_id
        self.holds_tol = config.HOLDS_REL_TOL if holds_tol is None else holds_tol
        self.sdec, self.ldec, self.complement_sdec = sdec, ldec, complement_sdec
        self.so, self.variance = so, variance
        if moments is not None:
            self.moments = moments
            self.n2, self.n3, self.n4 = moments.n2, moments.n3, moments.n4

    def __getattr__(self, name):
        # Reached only for attributes not set, the moments among them.
        if name in ("moments", "n2", "n3", "n4"):
            raise OverflowError("spectral moments of S_p exceed the float range")
        raise AttributeError(name)

    root = cached_property(lambda self: 2.0 ** (1.0 / self.p))
    energy = cached_property(lambda self: graph_energy(self.sdec))
    estrada = cached_property(lambda self: estrada_index(self.sdec))

    # shorthands for the check table
    stats = property(lambda self: self.graph.stats)
    adec = property(lambda self: self.graph.adec)
    dmax = property(lambda self: self.graph.stats.max_degree)
    dmin = property(lambda self: self.graph.stats.min_degree)
    xi1 = property(lambda self: self.sdec.radius)
    etas = property(lambda self: self.ldec.eigenvalues)


# ---------------------------------------------------------------------------
# the check table

@dataclass(frozen=True)
class Check:
    """One inequality: bounds(c) gives (value, lower, upper) on the
    CheckContext c, and runs only where applies(c) holds (the report is
    otherwise not applicable, with reason na). hard is a bool or a predicate
    of c; where it is false the report is observe-only, with reason observe.
    note(c) may annotate a hard report (e.g. a radicand clamped at 0)."""

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


_NA = OUTCOMES.index("na")
_FAIL = OUTCOMES.index("fail")


def _flag(field, c):
    """A Check field that is a bool or a predicate of c, at c."""
    return field(c) if callable(field) else field


def _verdict(hard, holds) -> int:
    """Index into OUTCOMES of an applicable report; holds None passes."""
    return (0 if holds is None or holds else 1) + (0 if hard else 3)


def _judge(check: Check, c: CheckContext):
    """Apply check to c: (outcome, mismatch, hard, evaluation).

    outcome indexes OUTCOMES; mismatch is true for a hard report whose
    expected equality is not observed. evaluation is None where the check
    does not apply, else (value, lower, upper, slack, holds,
    equality_observed). A NaN slack neither holds nor shows equality, and
    the tolerances scale with |value| only where it is finite.
    """
    hard = _flag(check.hard, c)
    if check.applies is not None and not check.applies(c):
        return _NA, False, hard, None
    value, lower, upper = check.bounds(c)
    if lower is None:
        slack = None if upper is None else upper - value
    elif upper is None:
        slack = value - lower
    else:
        slack = min(value - lower, upper - value)
    if slack is None:
        holds = eq_observed = None
    else:
        tol = c.holds_tol if check.tol is None else check.tol
        if check.scale is not None:
            scale = check.scale(c)
        else:
            # An infinite value must not scale its own tolerance to inf.
            scale = max(1.0, abs(value)) if math.isfinite(value) else 1.0
        holds = slack >= -tol * scale
        eq_observed = abs(slack) <= config.EQUALITY_REL_TOL * scale
    mismatch = eq_observed is False and hard and _flag(check.equality, c)
    return (_verdict(hard, holds), mismatch, hard,
            (value, lower, upper, slack, holds, eq_observed))


def _report(check: Check, c: CheckContext) -> BoundReport:
    _, _, hard, evaluation = _judge(check, c)
    if evaluation is None:
        return BoundReport(check.id, check.statement, c.graph_id, c.p, 0.0, None, None,
                           None, None, False, check.na, hard, False, None)
    value, lower, upper, slack, holds, eq_observed = evaluation
    reason = (check.note(c) if check.note else None) if hard else check.observe
    return BoundReport(check.id, check.statement, c.graph_id, c.p, value, lower, upper,
                       slack, holds, True, reason, hard, _flag(check.equality, c),
                       eq_observed, check.extra(c) if check.extra else {})


def _has_edge(c):
    return c.m >= 1


def _connected(c):
    return c.stats.is_connected


def _connected2(c):
    return c.stats.is_connected and c.n >= 2


def _regular(c):
    return c.stats.is_regular


def _complete(c):
    return c.graph.is_complete


def _p_at_least_1(c):
    return c.p >= 1


def _min_degree_positive(c):
    return c.dmin >= 1


def _clamp_note(inner):
    return lambda c: "inner radicand clamped at 0" if inner(c) < 0 else None


def _thm2_2(c, d):
    return math.sqrt(max(0.0, 0.5 * c.n2 + 2.0 ** (2.0 / c.p) * d ** 2 * c.m * (c.m - 1)))


def _thm2_5(c, d, d_power):
    # (N4 - 2^(4/p) d^d_power (M1 - 2m)) / (2^(1+3/p) d^4)
    return ((c.n4 - 2.0 ** (4.0 / c.p) * d ** d_power * (c.graph.m1 - 2 * c.m))
            / (2.0 ** (1 + 3.0 / c.p) * d ** 4))


def _thm2_8(c):
    ident = math.sqrt(max(0.0, 0.5 * c.m * c.n2 - c.m * c.m * c.variance))
    return c.so, ident, ident


def _thm3_10_2(c):
    n1, n2 = c.stats.bipartition_sizes
    coeff = n1 * n2 / c.n
    return c.so, coeff * float(c.etas[-2]), coeff * float(c.etas[0])


def _lem3_11_2(c):
    return c.n ** (1.0 / c.p) * c.dmax ** (1 + 1.0 / c.p) * c.m ** (1 - 1.0 / c.p)


def _cor3_12_cap(c):
    return min(2.0 ** (1 + 1.0 / c.p) * c.dmax * c.m, 2.0 * _lem3_11_2(c))


def _energy_lower(bound):
    """Energy lower bound from N2, n and the largest and smallest |eigenvalue|."""
    def evaluate(c):
        abs_eigs = abs(c.sdec.eigenvalues)
        return c.energy, bound(c.n, c.n2, float(abs_eigs.max()), float(abs_eigs.min())), None
    return evaluate


def _thm4_1_2(c):
    # |det|^(2/n); when the plain product overflows, from the product of
    # |xi_i| / scale (each at most 1), times scale^2
    dec = c.sdec
    det = abs_determinant(dec)
    if det < math.inf:
        det_root = det ** (2.0 / c.n)
    else:
        scaled = 1.0
        for x in dec.eigenvalues:
            scaled *= abs(float(x)) / dec.scale
        det_root = scaled ** (2.0 / c.n) * dec.scale ** 2
    return c.energy, math.sqrt(c.n * (c.n - 1) * det_root + c.n2), None


def _cmp4_2_4_3(c):
    ratio = c.n3 / math.sqrt(c.n2 * c.n4)
    better = "thm4.2" if ratio > 1 else ("thm4.3" if ratio < 1 else "tie")
    return {"moment_ratio": ratio, "bound_thm4.2": math.sqrt(c.n2 ** 3 / c.n4),
            "bound_thm4.3": c.n2 ** 2 / c.n3, "better": better}


def _cmp4_2_4_3_value(c):
    x = _cmp4_2_4_3(c)
    return (x["bound_thm4.3"] - x["bound_thm4.2"]) * (1.0 - x["moment_ratio"]), 0.0, None


def _thm4_10_4(c):
    n, q = c.n, c.n4 ** 0.25
    return (c.estrada, None,
            n - 1 + 0.5 * c.n2 + c.n3 / 6.0 - q - 0.5 * q * q - q ** 3 / 6.0 + math.exp(q))


def _thm4_11_2(c):
    n_pos, n_zero, n_neg = c.sdec.inertia
    xi1, energy = c.xi1, c.energy
    lower = (math.exp(xi1) + n_zero
             + (n_pos - 1) * math.exp((energy - 2 * xi1) / (2.0 * (n_pos - 1)))
             + n_neg * math.exp(-energy / (2.0 * n_neg)))
    return c.estrada, lower, None


def _thm5_5_inner(c):
    return 2 * c.m - c.dmin * (c.n - 1) + (c.dmin - 1) * c.dmax


def _thm5_7_parts(c):
    n, m, p, dd = c.n, c.m, c.p, c.dmax
    cap = 2.0 ** (1 + 2.0 / p) * m * dd ** 2
    a = max(2.0 ** (1 + 1.0 / p) * c.dmin * m / n, dd * math.sqrt(2.0 ** (1 + 2.0 / p) * m / n))
    return a, (n - 1) * (cap - a * a)


def _thm5_7(c):
    a, inner = _thm5_7_parts(c)
    return c.energy, None, a + math.sqrt(max(0.0, inner))


def _ng_radius_sum(c):
    return c.xi1 + c.complement_sdec.radius


def _thm5_9_1(c):
    n, root = c.n, c.root
    first = root * (n - 1) * math.sqrt(max(0.0, 2 * c.m - n + 1))
    second = 0.0
    parts = c.graph.complement_parts
    if parts:
        # C1, the component with the largest radius, is a choice only among
        # two or more; index keeps the first of a tie.
        c1 = parts[0]
        if len(parts) > 1:
            radii = [dec.radius for dec in eigen_decompose_many(
                [(build_sombor_matrix(h, c.p), "p_sombor", c.p) for h in parts])]
            c1 = parts[radii.index(max(radii))]
        dmin, dmax = min(c1.degrees), max(c1.degrees)
        inner = 2 * c1.m - dmin * (c1.n - 1 - dmax) - dmax
        second = root * dmax * math.sqrt(max(0.0, inner))
    return _ng_radius_sum(c), None, first + second


def _thm5_9_2(c):
    n, m, dd, dmin = c.n, c.m, c.dmax, c.dmin
    inner2 = n * (n - 1) - 2 * m - (dmin + 1) * (n - 1) + dmin * (dd + 1)
    return (_ng_radius_sum(c), None, c.root * dd * math.sqrt(max(0.0, _thm5_5_inner(c)))
            + c.root * (n - 1 - dmin) * math.sqrt(max(0.0, inner2)))


def _thm5_10(c):
    comp_term = sum(h.m * (h.n - 1 - max(h.degrees)) / h.n for h in c.graph.complement_parts)
    return (c.energy + graph_energy(c.complement_sdec),
            2.0 ** (2 + 1.0 / c.p) * (c.m * c.dmin / c.n + comp_term), None)


CHECKS = (
    # -- the index against spectral moments and other indices -------------
    Check("thm2.2", "moment",
          "sqrt(N2/2 + 2^(2/p) deg_min^2 m(m-1)) <= SO_p <= sqrt(N2/2 + 2^(2/p) deg_max^2 m(m-1))",
          lambda c: (c.so, _thm2_2(c, c.dmin), _thm2_2(c, c.dmax)),
          _has_edge, "no edges", equality=_regular),
    Check("thm2.3", "moment", "N2 / (2^(1+1/p) deg_max) <= SO_p <= N2 / (2^(1+1/p) deg_min)",
          lambda c: (c.so, c.n2 / (2.0 ** (1 + 1.0 / c.p) * c.dmax),
                     c.n2 / (2.0 ** (1 + 1.0 / c.p) * c.dmin) if c.dmin >= 1 else None),
          _has_edge, "no edges", equality=_regular),
    Check("thm2.4", "moment",
          "N3 / (2^(1+2/p) deg_max^2 t_max) <= SO_p <= N3 / (2^(1+2/p) deg_min^2 t_min)",
          lambda c: (c.so, c.n3 / (2.0 ** (1 + 2.0 / c.p) * c.dmax ** 2 * c.stats.t_max),
                     c.n3 / (2.0 ** (1 + 2.0 / c.p) * c.dmin ** 2 * c.stats.t_min)
                     if c.dmin >= 1 else None),
          lambda c: c.m >= 1 and c.stats.t_min is not None and c.stats.t_min >= 1,
          "needs t_min >= 1",
          equality=lambda c: c.stats.is_regular and c.stats.t_max == c.stats.t_min),
    Check("thm2.5.lo", "moment",
          "(N4 - 2^(4/p) deg_max^5 (M1-2m)) / (2^(1+3/p) deg_max^4) <= SO_p",
          lambda c: (c.so, _thm2_5(c, c.dmax, 5), None),
          _has_edge, "no edges", equality=lambda c: c.graph.is_balanced_complete_bipartite),
    Check("thm2.5.up", "moment",
          "SO_p <= (N4 - 2^(4/p) deg_min^4 (M1-2m)) / (2^(1+3/p) deg_min^4)",
          lambda c: (c.so, None, _thm2_5(c, c.dmin, 4)), _min_degree_positive,
          "isolated vertex", equality=lambda c: c.stats.is_regular and c.graph.is_c4_free),
    Check("lem2.6", "moment", "SO_p <= 2^(1/p - 1) n (n-1)^2  [connected]",
          lambda c: (c.so, None, 2.0 ** (1.0 / c.p - 1) * c.n * (c.n - 1) ** 2),
          _connected, "disconnected", equality=_complete),
    Check("thm2.7.lo", "moment", "n xi1^2 / (2^(1+1/p) deg_max (n-1)) <= SO_p",
          lambda c: (c.so, c.n * c.xi1 ** 2 / (2.0 ** (1 + 1.0 / c.p) * c.dmax * (c.n - 1)),
                     None),
          lambda c: c.m >= 1 and c.n >= 2, "needs m >= 1 and n >= 2", equality=_complete),
    Check("thm2.7.up", "moment", "SO_p <= n xi1 / 2",
          lambda c: (c.so, None, c.n * c.xi1 / 2.0), equality=_regular),
    Check("thm2.8", "moment", "SO_p == sqrt(m N2 / 2 - m^2 sigma^2)",
          _thm2_8, _has_edge, "no edges", tol=1e-10, equality=True),
    Check("thm-isi", "moment", "SO_p >= 2^(1/p + 1) ISI  [proved for p >= 1]",
          lambda c: (c.so, 2.0 ** (1.0 / c.p + 1) * c.graph.isi, None),
          _has_edge, "no edges", hard=_p_at_least_1, equality=_regular),

    # -- the p-Laplacian spectrum ----------------------------------------
    Check("lap-trace", "laplacian", "SO_p == (1/2) sum of Laplacian eigenvalues",
          lambda c: (c.so, 0.5 * float(c.etas.sum()), 0.5 * float(c.etas.sum())),
          tol=1e-10, equality=True),
    Check("lem3.8.psd", "laplacian", "smallest Laplacian eigenvalue is 0 (and none negative)",
          lambda c: (float(c.etas[-1]), 0.0, 0.0), scale=lambda c: c.ldec.scale),
    Check("lem3.8.mult", "laplacian",
          "zero Laplacian eigenvalue multiplicity == component count",
          lambda c: (float(c.ldec.inertia[1]), float(c.graph.n_components),
                     float(c.graph.n_components))),
    Check("thm3.10.1", "laplacian",
          "(n-1)/2 eta_second_smallest <= SO_p <= (n-1)/2 eta_max  [connected]",
          lambda c: (c.so, (c.n - 1) / 2.0 * float(c.etas[-2]),
                     (c.n - 1) / 2.0 * float(c.etas[0])),
          _connected2, "needs connected, n >= 2", equality=_complete),
    Check("thm3.10.2", "laplacian",
          "n1 n2 / n * eta_second_smallest <= SO_p <= n1 n2 / n * eta_max  [connected bipartite]",
          _thm3_10_2, lambda c: _connected2(c) and c.stats.is_bipartite,
          "needs connected bipartite", equality=lambda c: c.graph.is_complete_bipartite),
    Check("lem3.11.1", "laplacian", "SO_p <= 2^(1/p) deg_max m  [proved for p >= 1]",
          lambda c: (c.so, None, c.root * c.dmax * c.m),
          _has_edge, "no edges", hard=_p_at_least_1, equality=_regular),
    Check("lem3.11.2", "laplacian",
          "SO_p <= n^(1/p) deg_max^(1+1/p) m^(1-1/p)  [proved for p >= 1]",
          lambda c: (c.so, None, _lem3_11_2(c)),
          _has_edge, "no edges", hard=_p_at_least_1, equality=_regular),
    Check("cor3.12.1", "laplacian",
          "sum of Laplacian eigenvalues <= min(2^(1+1/p) deg_max m, 2 n^(1/p) deg_max^(1+1/p) m^(1-1/p))",
          lambda c: (float(c.etas.sum()), None, _cor3_12_cap(c)),
          _has_edge, "no edges", hard=_p_at_least_1, equality=_regular),
    Check("cor3.12.2", "laplacian", "eta_second_smallest <= the same cap / (n-1)  [connected]",
          lambda c: (float(c.etas[-2]), None, _cor3_12_cap(c) / (c.n - 1)),
          _connected2, "needs connected, n >= 2", hard=_p_at_least_1, equality=_complete),
    Check("cor3.13.1", "laplacian", "eta_max >= N2 / (2^(1/p) deg_max (n-1))  [connected]",
          lambda c: (float(c.etas[0]), c.n2 / (c.root * c.dmax * (c.n - 1)), None),
          _connected2, "needs connected, m >= 1", equality=_complete),
    Check("cor3.13.2", "laplacian",
          "eta_second_smallest <= N2 / (2^(1/p) deg_min (n-1))  [connected]",
          lambda c: (float(c.etas[-2]), None, c.n2 / (c.root * c.dmin * (c.n - 1))),
          _connected2, "needs connected, m >= 1", equality=_complete),

    # -- spectral radius and spread ----------------------------------------
    Check("thm-rad.mu", "radius", "2^(1/p) deg_min mu1 <= xi1 <= 2^(1/p) deg_max mu1",
          lambda c: (c.xi1, c.root * c.dmin * c.adec.radius, c.root * c.dmax * c.adec.radius),
          equality=_regular),
    Check("cor-rad1.lo", "radius", "xi1 >= 2^(1+1/p) m deg_min / n",
          lambda c: (c.xi1, 2.0 ** (1 + 1.0 / c.p) * c.m * c.dmin / c.n, None),
          equality=_regular),
    Check("cor-rad1.up", "radius", "xi1 <= 2^(1/p) deg_max sqrt(2m - n + 1)  [connected]",
          lambda c: (c.xi1, None, c.root * c.dmax * math.sqrt(max(0.0, 2 * c.m - c.n + 1))),
          _connected, "disconnected", equality=_complete),
    Check("cor-rad2", "radius", "2^(1/p) deg_min sqrt(M1/n) <= xi1 <= 2^(1/p) deg_max^2",
          lambda c: (c.xi1, c.root * c.dmin * math.sqrt(c.graph.m1 / c.n),
                     c.root * c.dmax ** 2),
          equality=_regular),
    Check("cor-rad3", "radius", "xi1 >= 2^(1/p) deg_min (2m/n)",
          lambda c: (c.xi1, c.root * c.dmin * c.stats.average_degree, None),
          equality=_regular),
    Check("cor-rad.randic", "radius", "xi1 >= 2^(1/p) (deg_min / m) R  [observe-only]",
          lambda c: (c.xi1, c.root * (c.dmin / c.m) * c.graph.randic, None),
          _has_edge, "no edges", hard=False, observe="observe-only: cited source ambiguous"),
    Check("thm-rad.n2", "radius", "xi1 <= sqrt((n-1) N2 / n)",
          lambda c: (c.xi1, None, math.sqrt((c.n - 1) * c.n2 / c.n)),
          equality=lambda c: c.m == 0 or c.graph.is_complete),
    Check("lem-diam", "radius", "distinct eigenvalue count >= diameter + 1  [connected]",
          lambda c: (float(len(c.sdec.distinct)), c.stats.diameter + 1.0, None),
          _connected, "disconnected"),
    Check("thm-spread", "radius", "xi1 - xi_n <= sqrt(2 N2)  [stated for connected]",
          lambda c: (c.xi1 - c.sdec.smallest, None, math.sqrt(2.0 * c.n2)),
          hard=_connected, observe="observe-only: disconnected",
          equality=lambda c: c.m == 0 or c.graph.is_complete_bipartite),

    # -- energy and the Estrada index --------------------------------------
    Check("thm4.1.1", "energy", "sqrt(2 N2) <= energy <= sqrt(n N2)",
          lambda c: (c.energy, math.sqrt(2.0 * c.n2), math.sqrt(c.n * c.n2))),
    Check("thm4.1.2", "energy", "energy >= sqrt(n(n-1) |det|^(2/n) + N2)", _thm4_1_2),
    Check("thm4.1.3", "energy", "energy >= (N2 + n max|xi| min|xi|) / (max|xi| + min|xi|)",
          _energy_lower(lambda n, n2, big, small: (n2 + n * big * small) / (big + small)),
          _has_edge, "no edges"),
    Check("thm4.1.4", "energy", "energy >= sqrt(4 n N2 - n^2 (max|xi| - min|xi|)^2) / 2",
          _energy_lower(lambda n, n2, big, small:
                        0.5 * math.sqrt(max(0.0, 4 * n * n2 - n * n * (big - small) ** 2))),
          _has_edge, "no edges"),
    Check("thm4.1.5", "energy",
          "energy >= sqrt(n N2 - n floor(n/2)(1 - floor(n/2)/n)(max|xi| - min|xi|)^2)",
          _energy_lower(lambda n, n2, big, small: math.sqrt(max(
              0.0, n * n2 - n * math.floor(n / 2) * (1 - math.floor(n / 2) / n)
              * (big - small) ** 2))),
          _has_edge, "no edges"),
    Check("thm4.2", "energy", "energy >= sqrt(N2^3 / N4)",
          lambda c: (c.energy, math.sqrt(c.n2 ** 3 / c.n4), None), _has_edge, "no edges"),
    Check("thm4.3", "energy", "energy >= N2^2 / N3  [observe-only]",
          lambda c: (c.energy, c.n2 ** 2 / c.n3, None),
          lambda c: c.n3 > 0, "needs N3 > 0", hard=False,
          observe="observe-only: can exceed the energy (needs sum |xi|^3, not N3)"),
    Check("cmp4.2-4.3", "energy", "larger lower bound matches the sign of N3/sqrt(N2 N4) - 1",
          _cmp4_2_4_3_value, lambda c: c.n3 > 0 and c.m >= 1, "needs N3 > 0",
          extra=_cmp4_2_4_3),
    Check("thm4.10.1", "energy",
          "estrada - energy <= n - 1 + e^sqrt(N2) - sqrt(N2) - sqrt(2 N2)",
          lambda c: (c.estrada - c.energy, None, c.n - 1 + math.exp(math.sqrt(c.n2))
                     - math.sqrt(c.n2) - math.sqrt(2 * c.n2)),
          lambda c: math.sqrt(c.n2) < EXP_LIMIT, "exp overflow guard",
          equality=lambda c: c.m == 0),
    Check("thm4.10.2", "energy", "estrada + energy <= n - 1 + e^energy",
          lambda c: (c.estrada + c.energy, None, c.n - 1 + math.exp(c.energy)),
          lambda c: c.energy < EXP_LIMIT, "exp overflow guard", equality=lambda c: c.m == 0),
    Check("thm4.10.3", "energy", "energy <= sqrt((3n-1)/3 N2)  [asserted for connected, n >= 3]",
          lambda c: (c.energy, None, math.sqrt((3 * c.n - 1) / 3.0 * c.n2)),
          hard=lambda c: c.stats.is_connected and c.n >= 3,
          observe="observe-only: fails on a single weighted edge as printed",
          equality=lambda c: c.m == 0),
    Check("thm4.10.4", "energy",
          "estrada <= n - 1 + N2/2 + N3/6 - q - q^2/2 - q^3/6 + e^q, q = N4^(1/4)",
          _thm4_10_4, lambda c: c.n4 ** 0.25 < EXP_LIMIT, "exp overflow guard"),
    Check("thm4.10.5", "energy", "estrada >= sqrt(n^2 + (N2/2)^2 + n N2 + n N3/3 + n N4/12)",
          lambda c: (c.estrada, math.sqrt(c.n * c.n + (0.5 * c.n2) ** 2 + c.n * c.n2
                                          + c.n * c.n3 / 3.0 + c.n * c.n4 / 12.0), None)),
    Check("thm4.11.1", "energy", "(e-1)/2 energy + n - n_pos <= estrada <= n - 1 + e^(energy/2)",
          lambda c: (c.estrada, 0.5 * (math.e - 1) * c.energy + c.n - c.sdec.inertia[0],
                     c.n - 1 + math.exp(c.energy / 2.0)),
          lambda c: c.energy / 2.0 < EXP_LIMIT, "exp overflow guard",
          equality=lambda c: c.m == 0),
    Check("thm4.11.2", "energy",
          "estrada >= e^xi1 + n_zero + (n_pos-1) e^((energy-2 xi1)/(2(n_pos-1))) + n_neg e^(-energy/(2 n_neg))",
          _thm4_11_2,
          lambda c: (c.sdec.inertia[0] >= 2 and c.sdec.inertia[2] >= 1
                     and c.xi1 < EXP_LIMIT),
          "needs n_pos >= 2 and n_neg >= 1"),
    Check("thm4.12", "energy",
          "energy(subdivision) <= 2 sqrt(2) sqrt(m n) (2^p + k^p)^(1/p)  [k-regular]",
          lambda c: (edge_weight(2, c.dmax, c.p) * c.graph.subdivision_energy, None,
                     2.0 * math.sqrt(2.0) * math.sqrt(c.m * c.n) * edge_weight(2, c.dmax, c.p)),
          lambda c: c.stats.is_regular and c.m >= 1, "needs a regular graph with edges"),

    # -- Nordhaus-Gaddum ---------------------------------------------------
    Check("lem5.4", "nordhaus_gaddum", "xi1 >= 2^(1+1/p) deg_min m / n",
          lambda c: (c.xi1, 2.0 ** (1 + 1.0 / c.p) * c.dmin * c.m / c.n, None),
          equality=_regular),
    Check("thm5.5", "nordhaus_gaddum",
          "xi1 <= 2^(1/p) deg_max sqrt(2m - deg_min(n-1) + (deg_min-1) deg_max)",
          lambda c: (c.xi1, None, c.root * c.dmax * math.sqrt(max(0.0, _thm5_5_inner(c)))),
          _min_degree_positive, "needs deg_min >= 1", equality=_regular,
          note=_clamp_note(_thm5_5_inner)),
    Check("thm5.6", "nordhaus_gaddum", "energy >= 2^(2+1/p) deg_min m / n",
          lambda c: (c.energy, 2.0 ** (2 + 1.0 / c.p) * c.dmin * c.m / c.n, None),
          equality=lambda c: c.m == 0 or (c.stats.is_regular
                                          and c.graph.is_complete_multipartite)),
    Check("thm5.7", "nordhaus_gaddum", "energy <= a + sqrt((n-1)(2^(1+2/p) m deg_max^2 - a^2))",
          _thm5_7, _min_degree_positive, "needs deg_min >= 1",
          note=_clamp_note(lambda c: _thm5_7_parts(c)[1])),
    Check("thm5.8", "nordhaus_gaddum",
          "xi1 + xi1(complement) >= 2^(1+1/p)/n (m deg_min + (n-1-deg_max)(C(n,2) - m))",
          lambda c: (_ng_radius_sum(c), 2.0 ** (1 + 1.0 / c.p) / c.n
                     * (c.m * c.dmin + (c.n - 1 - c.dmax) * (c.n * (c.n - 1) / 2.0 - c.m)),
                     None),
          equality=_regular),
    Check("thm5.9.1", "nordhaus_gaddum",
          "xi1 + xi1(complement) <= 2^(1/p)(n-1) sqrt(2m-n+1) + component term  [deg_max = n-1]",
          _thm5_9_1, lambda c: c.stats.is_connected and c.dmax == c.n - 1,
          "needs connected, deg_max = n-1"),
    Check("thm5.9.2", "nordhaus_gaddum",
          "xi1 + xi1(complement) <= 2^(1/p) deg_max sqrt(...) + 2^(1/p)(n-1-deg_min) sqrt(...)  [deg_max, deg_min <= n-2]",
          _thm5_9_2, lambda c: c.stats.is_connected and c.dmax != c.n - 1,
          "needs connected, deg_max <= n-2"),
    Check("thm5.10", "nordhaus_gaddum",
          "energy + energy(complement) >= 2^(2+1/p) (m deg_min / n + sum over complement components)",
          _thm5_10, _connected, "disconnected", equality=_complete),
)

_BY_FAMILY: dict[str, list[Check]] = {}
for _check in CHECKS:
    _BY_FAMILY.setdefault(_check.family, []).append(_check)


def contexts(graphs, p_values, holds_tol: float | None = None) -> list[list[CheckContext]]:
    """The CheckContexts of (graph_id, graph) pairs, a list per graph in
    p_values order.

    Each graph's edges, then its complement's, become index arrays once, and
    their weights at each p take one edge_weight call per distinct degree
    pair. For each vertex count the weights are scattered into one
    member-first stack: S_p of every graph and of its complement at every p,
    L_p = diag(row sums) - S_p from the same S_p, and the adjacency
    matrices, all solved by one decompose_stack. N2-N4 are traces of powers
    of the stacked S_p (no eigensolver involved), SO_p and the variance are
    sums of each graph's weights in edges() order, as sombor_index and
    weight_variance take them.
    """
    graphs, p_values = list(graphs), tuple(p_values)
    k = len(p_values)
    gcs = [GraphContext(g) for _, g in graphs]
    edges, weights = [], []
    for gc in gcs:
        g, h = gc.g, gc.complement
        ij = np.array([*g.edges(), *h.edges()], dtype=np.intp).reshape(-1, 2)
        d = np.concatenate((np.array(g.degrees, dtype=np.intp)[ij[:g.m]],
                            np.array(h.degrees, dtype=np.intp)[ij[g.m:]]))
        keys, inverse = np.unique(d.min(axis=1) * (g.n + 1) + d.max(axis=1),
                                  return_inverse=True)
        pairs = list(zip(*divmod(keys, g.n + 1)))
        w = np.array([[edge_weight(int(a), int(b), p) for a, b in pairs] for p in p_values],
                     dtype=float).reshape(k, len(pairs))
        edges.append(ij)
        weights.append(w[:, inverse])
    out: list = [None] * len(graphs)
    for n, members in _by_size(g.n for _, g in graphs).items():
        count = len(members)
        stack = np.zeros((count * (3 * k + 1), n, n))
        sombor = stack[:2 * count * k].reshape(count, k, 2, n, n)  # graph, then complement
        laplacian = stack[2 * count * k:3 * count * k].reshape(count, k, n, n)
        adjacency = stack[3 * count * k:]
        for a, i in enumerate(members):
            ij, m = edges[i], gcs[i].g.m
            which = (np.arange(len(ij)) >= m).astype(np.intp)
            u, v = ij[:, 0], ij[:, 1]
            sombor[a][:, which, u, v] = sombor[a][:, which, v, u] = weights[i]
            adjacency[a, u[:m], v[:m]] = adjacency[a, v[:m], u[:m]] = 1.0
        s = sombor[:, :, 0]
        diagonal = np.arange(n)
        laplacian[:, :, diagonal, diagonal] = s.sum(axis=-1)
        laplacian -= s
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = s @ s
            moments = [(x * y).reshape(count * k, n * n).sum(axis=1).tolist()
                       for x, y in ((s, s), (s2, s), (s2, s2))]
        tags = ([("p_sombor", p) for _ in members for p in p_values for _ in (0, 1)]
                + [("p_laplacian", p) for _ in members for p in p_values]
                + [("adjacency", None)] * count)
        decs = decompose_stack(stack, tags)
        for a, i in enumerate(members):
            gc, graph_id, m = gcs[i], graphs[i][0], gcs[i].g.m
            gc.adec = decs[3 * count * k + a]
            ctxs = []
            wg = weights[i][:, :m]
            for b, (p, row, squares) in enumerate(zip(p_values, wg.tolist(),
                                                      (wg * wg).tolist())):
                r = a * k + b
                n2, n3, n4 = (moment[r] for moment in moments)
                finite = math.isfinite(n2) and math.isfinite(n3) and math.isfinite(n4)
                so = sum(row)
                variance = sum(squares) / m - (so / m) * (so / m) if m else None
                ctxs.append(CheckContext(
                    gc, p, graph_id, holds_tol, decs[2 * r], decs[2 * count * k + r],
                    decs[2 * r + 1], so,
                    MomentSet(p, float(n), 0.0, n2, n3, n4) if finite else None,
                    variance))
            out[i] = ctxs
    return out


def _run_family(family: str, g: Graph, p: float, ctx: CheckContext | None) -> list[BoundReport]:
    ctx = ctx or contexts([("g", g)], (p,))[0][0]
    if g.n == 0:
        return []
    return [_report(check, ctx) for check in _BY_FAMILY[family]]


def check_moment_index_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    return _run_family("moment", g, p, ctx)


def check_laplacian_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    return _run_family("laplacian", g, p, ctx)


def check_radius_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    return _run_family("radius", g, p, ctx)


def check_energy_estrada_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    return _run_family("energy", g, p, ctx)


def check_nordhaus_gaddum(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    return _run_family("nordhaus_gaddum", g, p, ctx)


def all_checks(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    ctx = ctx or contexts([("g", g)], (p,))[0][0]
    return (check_moment_index_bounds(g, p, ctx) + check_laplacian_bounds(g, p, ctx)
            + check_radius_bounds(g, p, ctx) + check_energy_estrada_bounds(g, p, ctx)
            + check_nordhaus_gaddum(g, p, ctx))


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
    """Outcome counts per check (in CHECKS order, indexed like OUTCOMES),
    violations and equality mismatches."""
    return [[0] * len(OUTCOMES) for _ in CHECKS], [], []


def _tally_graph(g: Graph, ctxs: list[CheckContext], tally) -> None:
    """Add every check on g at each context's p to tally; only a violation
    or an equality mismatch builds a BoundReport, for its payload."""
    if g.n == 0:
        return
    counts, violations, eq_mismatches = tally
    for ctx in ctxs:
        # CHECKS lists the families in all_checks order.
        for check, per in zip(CHECKS, counts):
            outcome, mismatch, _, _ = _judge(check, ctx)
            per[outcome] += 1
            if outcome == _FAIL:
                violations.append(_violation_payload(_report(check, ctx), g))
            if mismatch:
                eq_mismatches.append(_violation_payload(_report(check, ctx), g))


def _tally_chunk(args):
    graphs, p_values, holds_tol = args
    tally = _new_tally()
    for (_, g), ctxs in zip(graphs, contexts(graphs, p_values, holds_tol)):
        _tally_graph(g, ctxs, tally)
    return tally


def run_suite(graphs, p_values=(1.0, 2.0, 3.0), holds_tol: float | None = None,
              jobs: int = 1, corpus_name: str = "custom",
              corpus_errors: list | None = None) -> SuiteReport:
    """Run every check for each (graph, p); deterministic merge order.

    Graphs go in chunks of config.SUITE_CHUNK_GRAPHS, each with its spectra
    solved in one batched call; with jobs > 1, worker processes take whole
    chunks.
    """
    if holds_tol is not None and not math.isfinite(holds_tol):
        raise ValueError(f"tolerance must be finite, got {holds_tol}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    graphs = list(graphs)
    size = config.SUITE_CHUNK_GRAPHS
    tasks = [(graphs[i:i + size], tuple(p_values), holds_tol)
             for i in range(0, len(graphs), size)]
    if jobs > 1 and len(tasks) > 1:
        # Imported here: the process-pool machinery costs ~20 ms of import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_tally_chunk, tasks))
    else:
        chunks = [_tally_chunk(t) for t in tasks]

    counts, violations, eq_mismatches = _new_tally()
    for chunk_counts, vio, eqm in chunks:
        for per, add in zip(counts, chunk_counts):
            for k, val in enumerate(add):
                per[k] += val
        violations.extend(vio)
        eq_mismatches.extend(eqm)
    # A check appears once it was run on some graph: every run adds one count.
    by_id = {check.id: dict(zip(OUTCOMES, per))
             for check, per in zip(CHECKS, counts) if any(per)}
    return SuiteReport(corpus_name, tuple(p_values), len(graphs),
                       dict(sorted(by_id.items())), violations, eq_mismatches,
                       corpus_errors or [])
