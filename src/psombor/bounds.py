"""Machine-checkable inequality verification for graph spectra and indices.

Every theorem-shaped claim becomes a check producing a BoundReport; run_suite
executes all checks over a corpus and a grid of p values. Checks whose
derivations only hold for p >= 1 are hard-asserted on that domain and run
observe-only elsewhere; two claims that fail on small graphs as printed
(check ids thm4.3 and cor-rad.randic) are permanently observe-only.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

from . import config
from .graphs import (
    Graph,
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
    subdivision,
)
from .invariants import (
    abs_determinant,
    estrada_index,
    first_zagreb,
    graph_energy,
    isi_index,
    randic_index,
    sombor_index,
    weight_variance,
)
from .spectral import (
    adjacency_decomposition,
    adjacency_matrix,
    build_p_laplacian,
    build_sombor_matrix,
    edge_weight,
    eigen_decompose_many,
    laplacian_decomposition,
    moments_closed_form,
    sombor_decomposition,
)

EXP_LIMIT = config.ESTRADA_EXP_LIMIT


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


class CheckContext:
    """Caches the per-(graph, p) quantities shared by the checks."""

    def __init__(self, g: Graph, p: float, graph_id: str = "g",
                 holds_tol: float | None = None):
        if p == 0:
            raise ValueError("p must be nonzero")
        self.g = g
        self.p = p
        self.graph_id = graph_id
        self.holds_tol = config.default_holds_tol() if holds_tol is None else holds_tol

    def prefill(self, **values) -> "CheckContext":
        """Fill cached properties (sdec, complement_ctx, ...) with values
        computed elsewhere, e.g. by one batched eigensolve for many graphs."""
        for name in values:
            if not isinstance(getattr(type(self), name, None), cached_property):
                raise AttributeError(f"{name!r} is not a cached CheckContext property")
        self.__dict__.update(values)
        return self

    @cached_property
    def stats(self):
        return structure_stats(self.g)

    @cached_property
    def so(self) -> float:
        return sombor_index(self.g, self.p)

    @cached_property
    def moments(self):
        return moments_closed_form(self.g, self.p)

    @cached_property
    def sdec(self):
        return sombor_decomposition(self.g, self.p)

    @cached_property
    def adec(self):
        return adjacency_decomposition(self.g)

    @cached_property
    def ldec(self):
        return laplacian_decomposition(self.g, self.p)

    @cached_property
    def energy(self) -> float:
        return graph_energy(self.sdec)

    @cached_property
    def estrada(self) -> float:
        return estrada_index(self.sdec)

    @cached_property
    def complement_ctx(self) -> "CheckContext":
        return CheckContext(complement(self.g), self.p,
                            self.graph_id + "~", self.holds_tol)

    @cached_property
    def complement_component_ctxs(self) -> list["CheckContext"]:
        cg = self.complement_ctx.g
        out = []
        for idx, comp in enumerate(connected_components(cg)):
            out.append(CheckContext(induced_subgraph(cg, comp), self.p,
                                    f"{self.graph_id}~c{idx}", self.holds_tol))
        return out


def _make_report(ctx: CheckContext, check_id: str, statement: str,
                 value: float, lower: float | None = None,
                 upper: float | None = None, *, applicable: bool = True,
                 reason: str | None = None, hard: bool = True,
                 eq_expected: bool = False, tol: float | None = None,
                 scale: float | None = None, extra: dict | None = None) -> BoundReport:
    if not applicable:
        return BoundReport(check_id, statement, ctx.graph_id, ctx.p,
                           value, None, None, None, None, False, reason,
                           hard, False, None, extra or {})
    tol = ctx.holds_tol if tol is None else tol
    scale = max(1.0, abs(value)) if scale is None else scale
    slacks = []
    if lower is not None:
        slacks.append(value - lower)
    if upper is not None:
        slacks.append(upper - value)
    slack = min(slacks) if slacks else None
    holds = None if slack is None else slack >= -tol * scale
    eq_observed = None if slack is None else abs(slack) <= config.EQUALITY_REL_TOL * scale
    return BoundReport(check_id, statement, ctx.graph_id, ctx.p, value,
                       lower, upper, slack, holds, True, reason, hard,
                       eq_expected, eq_observed, extra or {})


# ---------------------------------------------------------------------------
# moment / index checks

def check_moment_index_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    ctx = ctx or CheckContext(g, p)
    st = ctx.stats
    n, m = g.n, g.m
    dd, dmin = st.max_degree, st.min_degree
    reports = []
    if n == 0:
        return reports
    mom = ctx.moments
    so = ctx.so
    has_edge = m >= 1

    lo = math.sqrt(max(0.0, 0.5 * mom.n2 + 2.0 ** (2.0 / p) * dmin ** 2 * m * (m - 1)))
    up = math.sqrt(max(0.0, 0.5 * mom.n2 + 2.0 ** (2.0 / p) * dd ** 2 * m * (m - 1)))
    reports.append(_make_report(
        ctx, "thm2.2",
        "sqrt(N2/2 + 2^(2/p) deg_min^2 m(m-1)) <= SO_p <= sqrt(N2/2 + 2^(2/p) deg_max^2 m(m-1))",
        so, lo if has_edge else None, up if has_edge else None,
        applicable=has_edge, reason=None if has_edge else "no edges",
        eq_expected=st.is_regular and has_edge))

    reports.append(_make_report(
        ctx, "thm2.3",
        "N2 / (2^(1+1/p) deg_max) <= SO_p <= N2 / (2^(1+1/p) deg_min)",
        so,
        mom.n2 / (2.0 ** (1 + 1.0 / p) * dd) if has_edge else None,
        mom.n2 / (2.0 ** (1 + 1.0 / p) * dmin) if has_edge and dmin >= 1 else None,
        applicable=has_edge, reason=None if has_edge else "no edges",
        eq_expected=st.is_regular and has_edge))

    t_ok = has_edge and st.t_min is not None and st.t_min >= 1
    reports.append(_make_report(
        ctx, "thm2.4",
        "N3 / (2^(1+2/p) deg_max^2 t_max) <= SO_p <= N3 / (2^(1+2/p) deg_min^2 t_min)",
        so,
        mom.n3 / (2.0 ** (1 + 2.0 / p) * dd ** 2 * st.t_max) if t_ok else None,
        mom.n3 / (2.0 ** (1 + 2.0 / p) * dmin ** 2 * st.t_min) if t_ok and dmin >= 1 else None,
        applicable=t_ok, reason=None if t_ok else "needs t_min >= 1",
        eq_expected=t_ok and st.is_regular and st.t_max == st.t_min))

    if has_edge:
        m1 = first_zagreb(g)
        paths2 = m1 - 2 * m
        lo25 = (mom.n4 - 2.0 ** (4.0 / p) * dd ** 5 * paths2) / (2.0 ** (1 + 3.0 / p) * dd ** 4)
        reports.append(_make_report(
            ctx, "thm2.5.lo",
            "(N4 - 2^(4/p) deg_max^5 (M1-2m)) / (2^(1+3/p) deg_max^4) <= SO_p",
            so, lo25, None, eq_expected=is_balanced_complete_bipartite(g)))
        up_ok = dmin >= 1
        up25 = ((mom.n4 - 2.0 ** (4.0 / p) * dmin ** 4 * paths2)
                / (2.0 ** (1 + 3.0 / p) * dmin ** 4)) if up_ok else None
        reports.append(_make_report(
            ctx, "thm2.5.up",
            "SO_p <= (N4 - 2^(4/p) deg_min^4 (M1-2m)) / (2^(1+3/p) deg_min^4)",
            so, None, up25, applicable=up_ok,
            reason=None if up_ok else "isolated vertex",
            eq_expected=st.is_regular and is_c4_free(g)))
    else:
        reports.append(_make_report(ctx, "thm2.5.lo", "", so, applicable=False, reason="no edges"))
        reports.append(_make_report(ctx, "thm2.5.up", "", so, applicable=False, reason="no edges"))

    reports.append(_make_report(
        ctx, "lem2.6", "SO_p <= 2^(1/p - 1) n (n-1)^2  [connected]",
        so, None, 2.0 ** (1.0 / p - 1) * n * (n - 1) ** 2,
        applicable=st.is_connected,
        reason=None if st.is_connected else "disconnected",
        eq_expected=is_complete(g) and st.is_connected))

    xi1 = ctx.sdec.radius
    lo_ok = has_edge and n >= 2
    reports.append(_make_report(
        ctx, "thm2.7.lo", "n xi1^2 / (2^(1+1/p) deg_max (n-1)) <= SO_p",
        so, n * xi1 ** 2 / (2.0 ** (1 + 1.0 / p) * dd * (n - 1)) if lo_ok else None,
        None, applicable=lo_ok, reason=None if lo_ok else "needs m >= 1 and n >= 2",
        eq_expected=is_complete(g) and lo_ok))
    reports.append(_make_report(
        ctx, "thm2.7.up", "SO_p <= n xi1 / 2",
        so, None, n * xi1 / 2.0, eq_expected=st.is_regular))

    if has_edge:
        sigma_sq = weight_variance(g, p)
        ident = math.sqrt(max(0.0, 0.5 * m * mom.n2 - m * m * sigma_sq))
        reports.append(_make_report(
            ctx, "thm2.8", "SO_p == sqrt(m N2 / 2 - m^2 sigma^2)",
            so, ident, ident, tol=1e-10, eq_expected=True))
    else:
        reports.append(_make_report(ctx, "thm2.8", "", so, applicable=False, reason="no edges"))

    reports.append(_make_report(
        ctx, "thm-isi", "SO_p >= 2^(1/p + 1) ISI  [proved for p >= 1]",
        so, 2.0 ** (1.0 / p + 1) * isi_index(g) if has_edge else None, None,
        applicable=has_edge, reason=None if has_edge else "no edges",
        hard=p >= 1, eq_expected=st.is_regular and has_edge))
    return reports


# ---------------------------------------------------------------------------
# Laplacian checks

def check_laplacian_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    ctx = ctx or CheckContext(g, p)
    st = ctx.stats
    n, m = g.n, g.m
    dd, dmin = st.max_degree, st.min_degree
    reports = []
    if n == 0:
        return reports
    ldec = ctx.ldec
    etas = ldec.eigenvalues
    so = ctx.so
    half_trace = 0.5 * float(etas.sum())
    reports.append(_make_report(
        ctx, "lap-trace", "SO_p == (1/2) sum of Laplacian eigenvalues",
        so, half_trace, half_trace, tol=1e-10, eq_expected=True))

    reports.append(_make_report(
        ctx, "lem3.8.psd", "smallest Laplacian eigenvalue is 0 (and none negative)",
        float(etas[-1]), 0.0, 0.0, scale=ldec.scale))
    n_components = len(connected_components(g))
    reports.append(_make_report(
        ctx, "lem3.8.mult", "zero Laplacian eigenvalue multiplicity == component count",
        float(ldec.inertia[1]), float(n_components), float(n_components)))

    conn2 = st.is_connected and n >= 2
    eta1 = float(etas[0])
    eta_second_smallest = float(etas[-2]) if n >= 2 else 0.0
    if conn2:
        reports.append(_make_report(
            ctx, "thm3.10.1",
            "(n-1)/2 eta_second_smallest <= SO_p <= (n-1)/2 eta_max  [connected]",
            so, (n - 1) / 2.0 * eta_second_smallest, (n - 1) / 2.0 * eta1,
            eq_expected=is_complete(g)))
    else:
        reports.append(_make_report(ctx, "thm3.10.1", "", so, applicable=False,
                                     reason="needs connected, n >= 2"))

    if conn2 and st.is_bipartite:
        n1, n2_ = st.bipartition_sizes
        coeff = n1 * n2_ / n
        reports.append(_make_report(
            ctx, "thm3.10.2",
            "n1 n2 / n * eta_second_smallest <= SO_p <= n1 n2 / n * eta_max  [connected bipartite]",
            so, coeff * eta_second_smallest, coeff * eta1,
            eq_expected=is_complete_bipartite(g)))
    else:
        reports.append(_make_report(ctx, "thm3.10.2", "", so, applicable=False,
                                     reason="needs connected bipartite"))

    has_edge = m >= 1
    hard_holder = p >= 1
    reports.append(_make_report(
        ctx, "lem3.11.1", "SO_p <= 2^(1/p) deg_max m  [proved for p >= 1]",
        so, None, 2.0 ** (1.0 / p) * dd * m if has_edge else None,
        applicable=has_edge, reason=None if has_edge else "no edges",
        hard=hard_holder, eq_expected=st.is_regular and has_edge))
    bound_b = (n ** (1.0 / p) * dd ** (1 + 1.0 / p) * m ** (1 - 1.0 / p)) if has_edge else None
    reports.append(_make_report(
        ctx, "lem3.11.2", "SO_p <= n^(1/p) deg_max^(1+1/p) m^(1-1/p)  [proved for p >= 1]",
        so, None, bound_b, applicable=has_edge,
        reason=None if has_edge else "no edges",
        hard=hard_holder, eq_expected=st.is_regular and has_edge))

    if has_edge:
        cap = min(2.0 ** (1 + 1.0 / p) * dd * m, 2.0 * bound_b)
        reports.append(_make_report(
            ctx, "cor3.12.1",
            "sum of Laplacian eigenvalues <= min(2^(1+1/p) deg_max m, 2 n^(1/p) deg_max^(1+1/p) m^(1-1/p))",
            float(etas.sum()), None, cap, hard=hard_holder,
            eq_expected=st.is_regular))
        if conn2:
            reports.append(_make_report(
                ctx, "cor3.12.2",
                "eta_second_smallest <= the same cap / (n-1)  [connected]",
                eta_second_smallest, None, cap / (n - 1), hard=hard_holder,
                eq_expected=is_complete(g)))
        else:
            reports.append(_make_report(ctx, "cor3.12.2", "", 0.0, applicable=False,
                                         reason="needs connected, n >= 2"))
    else:
        reports.append(_make_report(ctx, "cor3.12.1", "", 0.0, applicable=False, reason="no edges"))
        reports.append(_make_report(ctx, "cor3.12.2", "", 0.0, applicable=False, reason="no edges"))

    n2m = ctx.moments.n2
    ok13 = conn2 and has_edge
    reports.append(_make_report(
        ctx, "cor3.13.1", "eta_max >= N2 / (2^(1/p) deg_max (n-1))  [connected]",
        eta1, n2m / (2.0 ** (1.0 / p) * dd * (n - 1)) if ok13 else None, None,
        applicable=ok13, reason=None if ok13 else "needs connected, m >= 1",
        eq_expected=is_complete(g) and ok13))
    reports.append(_make_report(
        ctx, "cor3.13.2", "eta_second_smallest <= N2 / (2^(1/p) deg_min (n-1))  [connected]",
        eta_second_smallest,
        None, n2m / (2.0 ** (1.0 / p) * dmin * (n - 1)) if ok13 else None,
        applicable=ok13, reason=None if ok13 else "needs connected, m >= 1",
        eq_expected=is_complete(g) and ok13))
    return reports


# ---------------------------------------------------------------------------
# spectral radius / spread checks

def check_radius_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    ctx = ctx or CheckContext(g, p)
    st = ctx.stats
    n, m = g.n, g.m
    dd, dmin = st.max_degree, st.min_degree
    reports = []
    if n == 0:
        return reports
    xi1 = ctx.sdec.radius
    mu1 = ctx.adec.radius
    root = 2.0 ** (1.0 / p)

    reports.append(_make_report(
        ctx, "thm-rad.mu",
        "2^(1/p) deg_min mu1 <= xi1 <= 2^(1/p) deg_max mu1",
        xi1, root * dmin * mu1, root * dd * mu1, eq_expected=st.is_regular))

    reports.append(_make_report(
        ctx, "cor-rad1.lo", "xi1 >= 2^(1+1/p) m deg_min / n",
        xi1, 2.0 ** (1 + 1.0 / p) * m * dmin / n, None,
        eq_expected=st.is_regular))
    reports.append(_make_report(
        ctx, "cor-rad1.up", "xi1 <= 2^(1/p) deg_max sqrt(2m - n + 1)  [connected]",
        xi1, None,
        root * dd * math.sqrt(max(0.0, 2 * m - n + 1)) if st.is_connected else None,
        applicable=st.is_connected,
        reason=None if st.is_connected else "disconnected",
        eq_expected=is_complete(g) and st.is_connected))

    m1 = first_zagreb(g)
    reports.append(_make_report(
        ctx, "cor-rad2", "2^(1/p) deg_min sqrt(M1/n) <= xi1 <= 2^(1/p) deg_max^2",
        xi1, root * dmin * math.sqrt(m1 / n), root * dd ** 2,
        eq_expected=st.is_regular))

    reports.append(_make_report(
        ctx, "cor-rad3", "xi1 >= 2^(1/p) deg_min (2m/n)",
        xi1, root * dmin * st.average_degree, None,
        eq_expected=st.is_regular))

    has_edge = m >= 1
    reports.append(_make_report(
        ctx, "cor-rad.randic", "xi1 >= 2^(1/p) (deg_min / m) R  [observe-only]",
        xi1, root * (dmin / m) * randic_index(g) if has_edge else None, None,
        applicable=has_edge, reason="observe-only: cited source ambiguous",
        hard=False))

    reports.append(_make_report(
        ctx, "thm-rad.n2", "xi1 <= sqrt((n-1) N2 / n)",
        xi1, None, math.sqrt((n - 1) * ctx.moments.n2 / n),
        eq_expected=(m == 0 or is_complete(g))))

    if st.is_connected:
        k_distinct = len(ctx.sdec.distinct)
        reports.append(_make_report(
            ctx, "lem-diam", "distinct eigenvalue count >= diameter + 1  [connected]",
            float(k_distinct), st.diameter + 1.0, None))
    else:
        reports.append(_make_report(ctx, "lem-diam", "", 0.0, applicable=False,
                                     reason="disconnected"))

    spread = ctx.sdec.radius - ctx.sdec.smallest
    reports.append(_make_report(
        ctx, "thm-spread", "xi1 - xi_n <= sqrt(2 N2)  [stated for connected]",
        spread, None, math.sqrt(2.0 * ctx.moments.n2),
        hard=st.is_connected,
        reason=None if st.is_connected else "observe-only: disconnected",
        eq_expected=(m == 0 or is_complete_bipartite(g))))
    return reports


# ---------------------------------------------------------------------------
# energy / Estrada checks

def check_energy_estrada_bounds(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    ctx = ctx or CheckContext(g, p)
    st = ctx.stats
    n, m = g.n, g.m
    reports = []
    if n == 0:
        return reports
    dec = ctx.sdec
    mom = ctx.moments
    energy = ctx.energy
    n2, n3, n4 = mom.n2, mom.n3, mom.n4
    has_edge = m >= 1
    abs_eigs = abs(dec.eigenvalues)
    big = float(abs_eigs.max()) if n else 0.0   # largest |eigenvalue|
    small = float(abs_eigs.min()) if n else 0.0  # smallest |eigenvalue|

    reports.append(_make_report(
        ctx, "thm4.1.1", "sqrt(2 N2) <= energy <= sqrt(n N2)",
        energy, math.sqrt(2.0 * n2), math.sqrt(n * n2)))

    det = abs_determinant(dec)
    reports.append(_make_report(
        ctx, "thm4.1.2", "energy >= sqrt(n(n-1) |det|^(2/n) + N2)",
        energy, math.sqrt(n * (n - 1) * det ** (2.0 / n) + n2), None))

    reports.append(_make_report(
        ctx, "thm4.1.3",
        "energy >= (N2 + n max|xi| min|xi|) / (max|xi| + min|xi|)",
        energy, (n2 + n * big * small) / (big + small) if has_edge else None, None,
        applicable=has_edge, reason=None if has_edge else "no edges"))

    reports.append(_make_report(
        ctx, "thm4.1.4",
        "energy >= sqrt(4 n N2 - n^2 (max|xi| - min|xi|)^2) / 2",
        energy,
        0.5 * math.sqrt(max(0.0, 4 * n * n2 - n * n * (big - small) ** 2)) if has_edge else None,
        None, applicable=has_edge, reason=None if has_edge else "no edges"))

    half = math.floor(n / 2)
    reports.append(_make_report(
        ctx, "thm4.1.5",
        "energy >= sqrt(n N2 - n floor(n/2)(1 - floor(n/2)/n)(max|xi| - min|xi|)^2)",
        energy,
        math.sqrt(max(0.0, n * n2 - n * half * (1 - half / n) * (big - small) ** 2)) if has_edge else None,
        None, applicable=has_edge, reason=None if has_edge else "no edges"))

    reports.append(_make_report(
        ctx, "thm4.2", "energy >= sqrt(N2^3 / N4)",
        energy, math.sqrt(n2 ** 3 / n4) if has_edge else None, None,
        applicable=has_edge, reason=None if has_edge else "no edges"))

    triangles = n3 > 0
    bound43 = n2 ** 2 / n3 if triangles else None
    reports.append(_make_report(
        ctx, "thm4.3", "energy >= N2^2 / N3  [observe-only]",
        energy, bound43, None, applicable=triangles,
        reason="observe-only: can exceed the energy (needs sum |xi|^3, not N3)"
        if triangles else "needs N3 > 0",
        hard=False))

    if triangles and has_edge:
        bound42 = math.sqrt(n2 ** 3 / n4)
        ratio = n3 / math.sqrt(n2 * n4)
        product = (bound43 - bound42) * (1.0 - ratio)
        better = "thm4.2" if ratio > 1 else ("thm4.3" if ratio < 1 else "tie")
        reports.append(_make_report(
            ctx, "cmp4.2-4.3",
            "larger lower bound matches the sign of N3/sqrt(N2 N4) - 1",
            product, 0.0, None,
            extra={"moment_ratio": ratio, "bound_thm4.2": bound42,
                   "bound_thm4.3": bound43, "better": better}))
    else:
        reports.append(_make_report(ctx, "cmp4.2-4.3", "", 0.0, applicable=False,
                                     reason="needs N3 > 0"))

    estrada = ctx.estrada
    sqrt_n2 = math.sqrt(n2)
    if sqrt_n2 < EXP_LIMIT:
        reports.append(_make_report(
            ctx, "thm4.10.1",
            "estrada - energy <= n - 1 + e^sqrt(N2) - sqrt(N2) - sqrt(2 N2)",
            estrada - energy, None,
            n - 1 + math.exp(sqrt_n2) - sqrt_n2 - math.sqrt(2 * n2),
            eq_expected=(m == 0)))
    else:
        reports.append(_make_report(ctx, "thm4.10.1", "", 0.0, applicable=False,
                                     reason="exp overflow guard"))
    if energy < EXP_LIMIT:
        reports.append(_make_report(
            ctx, "thm4.10.2", "estrada + energy <= n - 1 + e^energy",
            estrada + energy, None, n - 1 + math.exp(energy),
            eq_expected=(m == 0)))
    else:
        reports.append(_make_report(ctx, "thm4.10.2", "", 0.0, applicable=False,
                                     reason="exp overflow guard"))

    hard_4103 = st.is_connected and n >= 3
    reports.append(_make_report(
        ctx, "thm4.10.3", "energy <= sqrt((3n-1)/3 N2)  [asserted for connected, n >= 3]",
        energy, None, math.sqrt((3 * n - 1) / 3.0 * n2),
        hard=hard_4103,
        reason=None if hard_4103 else
        "observe-only: fails on a single weighted edge as printed",
        eq_expected=(m == 0)))

    q = n4 ** 0.25
    if q < EXP_LIMIT:
        reports.append(_make_report(
            ctx, "thm4.10.4",
            "estrada <= n - 1 + N2/2 + N3/6 - q - q^2/2 - q^3/6 + e^q, q = N4^(1/4)",
            estrada, None,
            n - 1 + 0.5 * n2 + n3 / 6.0 - q - 0.5 * q * q - q ** 3 / 6.0 + math.exp(q)))
    else:
        reports.append(_make_report(ctx, "thm4.10.4", "", 0.0, applicable=False,
                                     reason="exp overflow guard"))

    reports.append(_make_report(
        ctx, "thm4.10.5",
        "estrada >= sqrt(n^2 + (N2/2)^2 + n N2 + n N3/3 + n N4/12)",
        estrada,
        math.sqrt(n * n + (0.5 * n2) ** 2 + n * n2 + n * n3 / 3.0 + n * n4 / 12.0),
        None))

    n_pos, n_zero, n_neg = dec.inertia
    if energy / 2.0 < EXP_LIMIT:
        reports.append(_make_report(
            ctx, "thm4.11.1",
            "(e-1)/2 energy + n - n_pos <= estrada <= n - 1 + e^(energy/2)",
            estrada, 0.5 * (math.e - 1) * energy + n - n_pos,
            n - 1 + math.exp(energy / 2.0),
            eq_expected=(m == 0)))
    else:
        reports.append(_make_report(ctx, "thm4.11.1", "", 0.0, applicable=False,
                                     reason="exp overflow guard"))

    if n_pos >= 2 and n_neg >= 1 and dec.radius < EXP_LIMIT:
        xi1 = dec.radius
        lower = (math.exp(xi1) + n_zero
                 + (n_pos - 1) * math.exp((energy - 2 * xi1) / (2.0 * (n_pos - 1)))
                 + n_neg * math.exp(-energy / (2.0 * n_neg)))
        reports.append(_make_report(
            ctx, "thm4.11.2",
            "estrada >= e^xi1 + n_zero + (n_pos-1) e^((energy-2 xi1)/(2(n_pos-1))) + n_neg e^(-energy/(2 n_neg))",
            estrada, lower, None))
    else:
        reports.append(_make_report(ctx, "thm4.11.2", "", 0.0, applicable=False,
                                     reason="needs n_pos >= 2 and n_neg >= 1"))

    if st.is_regular and has_edge:
        k = st.max_degree
        sub = subdivision(g)
        sub_energy = graph_energy(sombor_decomposition(sub, p))
        reports.append(_make_report(
            ctx, "thm4.12",
            "energy(subdivision) <= 2 sqrt(2) sqrt(m n) (2^p + k^p)^(1/p)  [k-regular]",
            sub_energy, None,
            2.0 * math.sqrt(2.0) * math.sqrt(m * n) * edge_weight(2, k, p)))
    else:
        reports.append(_make_report(ctx, "thm4.12", "", 0.0, applicable=False,
                                     reason="needs a regular graph with edges"))
    return reports


# ---------------------------------------------------------------------------
# Nordhaus-Gaddum checks

def check_nordhaus_gaddum(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    ctx = ctx or CheckContext(g, p)
    st = ctx.stats
    n, m = g.n, g.m
    dd, dmin = st.max_degree, st.min_degree
    reports = []
    if n == 0:
        return reports
    xi1 = ctx.sdec.radius
    root = 2.0 ** (1.0 / p)

    reports.append(_make_report(
        ctx, "lem5.4", "xi1 >= 2^(1+1/p) deg_min m / n",
        xi1, 2.0 ** (1 + 1.0 / p) * dmin * m / n, None,
        eq_expected=st.is_regular))

    if dmin >= 1:
        inner = 2 * m - dmin * (n - 1) + (dmin - 1) * dd
        reports.append(_make_report(
            ctx, "thm5.5", "xi1 <= 2^(1/p) deg_max sqrt(2m - deg_min(n-1) + (deg_min-1) deg_max)",
            xi1, None, root * dd * math.sqrt(max(0.0, inner)),
            eq_expected=st.is_regular,
            reason="inner radicand clamped at 0" if inner < 0 else None))
    else:
        reports.append(_make_report(ctx, "thm5.5", "", xi1, applicable=False,
                                     reason="needs deg_min >= 1"))

    energy = ctx.energy
    reports.append(_make_report(
        ctx, "thm5.6", "energy >= 2^(2+1/p) deg_min m / n",
        energy, 2.0 ** (2 + 1.0 / p) * dmin * m / n, None,
        eq_expected=(m == 0 or (st.is_regular and is_complete_multipartite(g)))))

    if dmin >= 1:
        cap = 2.0 ** (1 + 2.0 / p) * m * dd ** 2
        a = max(2.0 ** (1 + 1.0 / p) * dmin * m / n,
                dd * math.sqrt(2.0 ** (1 + 2.0 / p) * m / n))
        inner = (n - 1) * (cap - a * a)
        reports.append(_make_report(
            ctx, "thm5.7", "energy <= a + sqrt((n-1)(2^(1+2/p) m deg_max^2 - a^2))",
            energy, None, a + math.sqrt(max(0.0, inner)),
            reason="inner radicand clamped at 0" if inner < 0 else None))
    else:
        reports.append(_make_report(ctx, "thm5.7", "", energy, applicable=False,
                                     reason="needs deg_min >= 1"))

    cctx = ctx.complement_ctx
    xi1_bar = cctx.sdec.radius
    reports.append(_make_report(
        ctx, "thm5.8",
        "xi1 + xi1(complement) >= 2^(1+1/p)/n (m deg_min + (n-1-deg_max)(C(n,2) - m))",
        xi1 + xi1_bar,
        2.0 ** (1 + 1.0 / p) / n * (m * dmin + (n - 1 - dd) * (n * (n - 1) / 2.0 - m)),
        None, eq_expected=st.is_regular))

    if st.is_connected:
        comp_ctxs = ctx.complement_component_ctxs
        if dd == n - 1:
            first = root * (n - 1) * math.sqrt(max(0.0, 2 * m - n + 1))
            second = 0.0
            edged = [c for c in comp_ctxs if c.g.m >= 1]
            if edged:
                c1 = max(edged, key=lambda c: c.sdec.radius)
                cst = c1.stats
                cn, cm = c1.g.n, c1.g.m
                inner = 2 * cm - cst.min_degree * (cn - 1 - cst.max_degree) - cst.max_degree
                second = root * cst.max_degree * math.sqrt(max(0.0, inner))
            reports.append(_make_report(
                ctx, "thm5.9.1",
                "xi1 + xi1(complement) <= 2^(1/p)(n-1) sqrt(2m-n+1) + component term  [deg_max = n-1]",
                xi1 + xi1_bar, None, first + second))
            reports.append(_make_report(ctx, "thm5.9.2", "", 0.0, applicable=False,
                                         reason="deg_max = n-1 branch applies"))
        else:
            inner1 = 2 * m - dmin * (n - 1) + (dmin - 1) * dd
            inner2 = n * (n - 1) - 2 * m - (dmin + 1) * (n - 1) + dmin * (dd + 1)
            up = (root * dd * math.sqrt(max(0.0, inner1))
                  + root * (n - 1 - dmin) * math.sqrt(max(0.0, inner2)))
            reports.append(_make_report(
                ctx, "thm5.9.2",
                "xi1 + xi1(complement) <= 2^(1/p) deg_max sqrt(...) + 2^(1/p)(n-1-deg_min) sqrt(...)  [deg_max, deg_min <= n-2]",
                xi1 + xi1_bar, None, up))
            reports.append(_make_report(ctx, "thm5.9.1", "", 0.0, applicable=False,
                                         reason="deg_max <= n-2 branch applies"))

        comp_term = 0.0
        for c in comp_ctxs:
            cn, cm = c.g.n, c.g.m
            if cm == 0:
                continue
            comp_term += cm * (cn - 1 - c.stats.max_degree) / cn
        energy_bar = cctx.energy
        reports.append(_make_report(
            ctx, "thm5.10",
            "energy + energy(complement) >= 2^(2+1/p) (m deg_min / n + sum over complement components)",
            energy + energy_bar,
            2.0 ** (2 + 1.0 / p) * (m * dmin / n + comp_term), None,
            eq_expected=is_complete(g)))
    else:
        for cid in ("thm5.9.1", "thm5.9.2", "thm5.10"):
            reports.append(_make_report(ctx, cid, "", 0.0, applicable=False,
                                         reason="disconnected"))
    return reports


def all_checks(g: Graph, p: float, ctx: CheckContext | None = None) -> list[BoundReport]:
    ctx = ctx or CheckContext(g, p)
    reports = []
    reports += check_moment_index_bounds(g, p, ctx)
    reports += check_laplacian_bounds(g, p, ctx)
    reports += check_radius_bounds(g, p, ctx)
    reports += check_energy_estrada_bounds(g, p, ctx)
    reports += check_nordhaus_gaddum(g, p, ctx)
    return reports


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
    """Graphs from every .edges/.json file in a directory; unreadable entries
    are recorded and skipped so the suite still runs."""
    import json
    import os

    from .graphs import parse_edge_list

    graphs = []
    errors = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full) or not name.endswith((".edges", ".json", ".txt")):
            continue
        try:
            with open(full, encoding="utf-8") as fh:
                text = fh.read()
            if name.endswith(".json"):
                g = Graph.from_dict(json.loads(text))
            else:
                g = parse_edge_list(text)
            graphs.append((name, g))
        except Exception as exc:
            errors.append({"file": name, "error": str(exc)})
    return graphs, errors


def build_corpus(name: str, seed: int = 42):
    """Named corpus, or every graph file from a directory path."""
    import os

    if os.path.isdir(name):
        graphs, _ = corpus_from_directory(name)
        return graphs
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
                     "(trees|families|random|special|all, or a directory)")


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
        agg = {"pass": 0, "fail": 0, "na": 0, "observe_pass": 0, "observe_fail": 0}
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


def _prefilled_contexts(graphs, p_values, holds_tol) -> list[list[CheckContext]]:
    """One CheckContext per (graph, p), with the spectra the checks always
    need solved in one batched call: S_p and L_p at each p, the adjacency
    spectrum once per graph and S_p of the complement, built once per graph."""
    out = []
    pending = []   # (contexts to seed, property name, (matrix, kind, p))
    for graph_id, g in graphs:
        cg = complement(g)
        ctxs = []
        for p in p_values:
            cctx = CheckContext(cg, p, graph_id + "~", holds_tol)
            ctx = CheckContext(g, p, graph_id, holds_tol).prefill(complement_ctx=cctx)
            ctxs.append(ctx)
            pending += [([ctx], "sdec", (build_sombor_matrix(g, p), "p_sombor", p)),
                        ([ctx], "ldec", (build_p_laplacian(g, p), "p_laplacian", p)),
                        ([cctx], "sdec", (build_sombor_matrix(cg, p), "p_sombor", p))]
        pending.append((ctxs, "adec", (adjacency_matrix(g), "adjacency", None)))
        out.append(ctxs)
    decs = eigen_decompose_many([spec for _, _, spec in pending])
    for (targets, name, _), dec in zip(pending, decs):
        for ctx in targets:
            ctx.prefill(**{name: dec})
    return out


def _tally_graph(g: Graph, contexts: list[CheckContext]):
    counts: dict = {}
    violations = []
    eq_mismatches = []
    for ctx in contexts:
        for rep in all_checks(g, ctx.p, ctx):
            per = counts.setdefault(rep.check_id, {"pass": 0, "fail": 0, "na": 0,
                                                   "observe_pass": 0, "observe_fail": 0})
            if not rep.applicable:
                per["na"] += 1
                continue
            if rep.hard:
                if rep.holds is None or rep.holds:
                    per["pass"] += 1
                else:
                    per["fail"] += 1
                    violations.append(_violation_payload(rep, g))
            else:
                if rep.holds is None or rep.holds:
                    per["observe_pass"] += 1
                else:
                    per["observe_fail"] += 1
            if rep.hard and rep.equality_expected and rep.equality_observed is False:
                eq_mismatches.append(_violation_payload(rep, g))
    return counts, violations, eq_mismatches


def _tally_chunk(args):
    entries, p_values, holds_tol = args
    graphs = [(graph_id, Graph(n, [tuple(e) for e in edges]))
              for graph_id, n, edges in entries]
    contexts = _prefilled_contexts(graphs, p_values, holds_tol)
    return [_tally_graph(g, ctxs) for (_, g), ctxs in zip(graphs, contexts)]


def run_suite(graphs, p_values=(1.0, 2.0, 3.0), holds_tol: float | None = None,
              jobs: int = 1, corpus_name: str = "custom",
              corpus_errors: list | None = None) -> SuiteReport:
    """Run every check for each (graph, p); deterministic merge order.

    Graphs go in chunks of config.SUITE_CHUNK_GRAPHS, each with its spectra
    solved in one batched call; with jobs > 1, worker processes take whole
    chunks.
    """
    entries = [(gid, g.n, [list(e) for e in g.edges()]) for gid, g in graphs]
    size = config.SUITE_CHUNK_GRAPHS
    tasks = [(entries[i:i + size], tuple(p_values), holds_tol)
             for i in range(0, len(entries), size)]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_tally_chunk, tasks))
    else:
        chunks = [_tally_chunk(t) for t in tasks]
    results = [per_graph for chunk in chunks for per_graph in chunk]

    counts: dict = {}
    violations: list[dict] = []
    eq_mismatches: list[dict] = []
    for cnt, vio, eqm in results:
        for cid, per in cnt.items():
            agg = counts.setdefault(cid, {"pass": 0, "fail": 0, "na": 0,
                                          "observe_pass": 0, "observe_fail": 0})
            for key, val in per.items():
                agg[key] += val
        violations.extend(vio)
        eq_mismatches.extend(eqm)
    return SuiteReport(corpus_name, tuple(p_values), len(entries),
                       dict(sorted(counts.items())), violations, eq_mismatches,
                       corpus_errors or [])
