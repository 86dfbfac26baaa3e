"""Dense symmetric matrices attached to a graph and their spectra.

The eigensolver is a self-contained cyclic Jacobi iteration (psombor.backend)
with a fixed sweep order, so results are reproducible bit for bit across runs
and platforms. Spectral moments N_0..N_4 are available through two independent
routes: power sums of the computed eigenvalues, and the closed-form
edge/common-neighbour sums, which cross-validate each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .backend import jacobi_sweeps, jacobi_sweeps_batch
from .graphs import Graph


class EigenConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the target off-diagonal norm."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(f"no convergence after {sweeps} sweeps "
                         f"(off-diagonal norm {residual:.3e})")
        self.residual = residual
        self.sweeps = sweeps


def edge_weight(di: int, dj: int, p: float) -> float:
    """Matrix entry ((d_i)^p + (d_j)^p)^(1/p) for an edge between degrees
    d_i and d_j; p must be nonzero.

    The direct form is used whenever its inner sum is a finite normal float.
    When it overflows, underflows or divides by zero (large |p|), the scaled
    form M (1 + (m/M)^p)^(1/p) is used instead, with M the larger degree for
    p > 0 and the smaller for p < 0. OverflowError remains only when the
    weight itself exceeds the float range (tiny positive p).
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    try:
        inner = di ** p + dj ** p
        if sys.float_info.min <= inner < math.inf:
            return inner ** (1.0 / p)
    except (OverflowError, ZeroDivisionError):
        pass
    big, small = (max(di, dj), min(di, dj)) if p > 0 else (min(di, dj), max(di, dj))
    return big * (1.0 + (small / big) ** p) ** (1.0 / p)


def build_sombor_matrix(g: Graph, p: float) -> np.ndarray:
    """Weighted adjacency matrix with edge_weight entries, zero elsewhere."""
    if p == 0:
        raise ValueError("p must be nonzero")
    d = g.degrees
    mat = np.zeros((g.n, g.n))
    for i, j in g.edges():
        wij = edge_weight(d[i], d[j], p)
        mat[i, j] = wij
        mat[j, i] = wij
    return mat


def build_p_laplacian(g: Graph, p: float) -> np.ndarray:
    """Diagonal row-sum matrix minus the weighted adjacency; rows sum to 0."""
    s = build_sombor_matrix(g, p)
    return np.diag(s.sum(axis=1)) - s


def adjacency_matrix(g: Graph) -> np.ndarray:
    mat = np.zeros((g.n, g.n))
    for i, j in g.edges():
        mat[i, j] = 1.0
        mat[j, i] = 1.0
    return mat


@dataclass
class SpectralDecomposition:
    """Sorted spectrum of a tagged symmetric matrix.

    kind is one of "adjacency", "p_sombor", "p_laplacian"; eigenvalues are
    descending; eigenvector columns (when requested) match that order.
    """

    kind: str
    p: float | None
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    inertia: tuple[int, int, int]         # (positive, zero, negative) counts
    residual: float
    sweeps: int
    scale: float                          # max(1, Frobenius norm of the input)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def radius(self) -> float:
        return float(self.eigenvalues[0]) if self.n else 0.0

    @property
    def smallest(self) -> float:
        return float(self.eigenvalues[-1]) if self.n else 0.0

    @cached_property
    def distinct(self) -> tuple[tuple[float, int], ...]:
        """(value, multiplicity) clusters, descending; computed on first read."""
        return _cluster_distinct(self.eigenvalues)

    def moment(self, k: int) -> float:
        return moments_from_spectrum(self, k)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "inertia": list(self.inertia),
            "distinct": [[float(v), m] for v, m in self.distinct],
            "residual": self.residual,
            "sweeps": self.sweeps,
        }


def _cluster_distinct(values: np.ndarray) -> tuple[tuple[float, int], ...]:
    out: list[tuple[float, int]] = []
    for x in values:
        x = float(x)
        if out and abs(out[-1][0] - x) <= config.CLUSTER_GAP_FACTOR * max(1.0, abs(out[-1][0])):
            val, mult = out[-1]
            out[-1] = (val, mult + 1)
        else:
            out.append((x, 1))
    return tuple(out)


def _prepare(matrix) -> tuple[np.ndarray, float, float]:
    """A symmetric matrix as a validated float array (not copied when it
    already is one), its scale max(1, ||M||_F) and the Jacobi stopping
    threshold."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    scale = max(1.0, float(np.linalg.norm(a)))
    return a, scale, config.OFF_DIAG_FACTOR * scale


def _finish(a: np.ndarray, vectors: np.ndarray | None, sweeps: int, off: float,
            threshold: float, scale: float, kind: str,
            p: float | None) -> SpectralDecomposition:
    """Decomposition from a matrix the Jacobi kernel has diagonalised."""
    if off > threshold:
        raise EigenConvergenceError(off, sweeps)
    n = a.shape[0]
    diag = np.diag(a).copy()
    order = np.argsort(-diag, kind="stable")
    eigenvalues = diag[order]
    if vectors is not None:
        vectors = vectors[:, order]
    zero_tol = config.ZERO_TOL_FACTOR * scale
    n_pos = int((eigenvalues > zero_tol).sum())
    n_neg = int((eigenvalues < -zero_tol).sum())
    return SpectralDecomposition(
        kind=kind,
        p=p,
        eigenvalues=eigenvalues,
        eigenvectors=vectors,
        inertia=(n_pos, n - n_pos - n_neg, n_neg),
        residual=float(off),
        sweeps=int(sweeps),
        scale=scale,
    )


def eigen_decompose(matrix: np.ndarray, want_vectors: bool = False,
                    kind: str = "p_sombor", p: float | None = None) -> SpectralDecomposition:
    """Full spectrum of a symmetric matrix via cyclic Jacobi rotations."""
    a, scale, threshold = _prepare(matrix)
    a = a.copy()
    n = a.shape[0]
    vectors = np.eye(n) if want_vectors else None
    if n:
        sweeps, off = jacobi_sweeps(a, vectors, threshold, config.MAX_SWEEPS)
    else:
        sweeps, off = 0, 0.0
    return _finish(a, vectors, sweeps, off, threshold, scale, kind, p)


def eigen_decompose_many(specs) -> list[SpectralDecomposition]:
    """Eigenvalues of many symmetric matrices, in input order.

    specs is a sequence of (matrix, kind, p) triples; entry i of the result
    equals eigen_decompose(matrix, False, kind, p) bit for bit. All matrices
    of one size are solved in one call of the batched kernel, on a
    member-last stack. The first matrix (in input order) that is invalid or
    fails to converge raises as eigen_decompose would.
    """
    prepared = [_prepare(matrix) for matrix, _, _ in specs]
    by_size: dict[int, list[int]] = {}
    for i, (a, _, _) in enumerate(prepared):
        by_size.setdefault(a.shape[0], []).append(i)
    solved: list = [None] * len(prepared)
    for members in by_size.values():
        stack = np.stack([prepared[i][0] for i in members], axis=-1)
        thresholds = np.array([prepared[i][2] for i in members])
        sweeps, offs = jacobi_sweeps_batch(stack, thresholds, config.MAX_SWEEPS)
        for j, i in enumerate(members):
            solved[i] = (stack[:, :, j], int(sweeps[j]), float(offs[j]))
    out = []
    for (_, scale, threshold), (a, sweeps, off), (_, kind, p) in zip(prepared, solved, specs):
        out.append(_finish(a, None, sweeps, off, threshold, scale, kind, p))
    return out


def sombor_decomposition(g: Graph, p: float, want_vectors: bool = False) -> SpectralDecomposition:
    return eigen_decompose(build_sombor_matrix(g, p), want_vectors, "p_sombor", p)


def laplacian_decomposition(g: Graph, p: float, want_vectors: bool = False) -> SpectralDecomposition:
    return eigen_decompose(build_p_laplacian(g, p), want_vectors, "p_laplacian", p)


def adjacency_decomposition(g: Graph, want_vectors: bool = False) -> SpectralDecomposition:
    return eigen_decompose(adjacency_matrix(g), want_vectors, "adjacency", None)


# ---------------------------------------------------------------------------
# spectral moments

@dataclass(frozen=True)
class MomentSet:
    """Closed-form power sums N_0..N_4 of the weighted adjacency spectrum."""

    p: float
    n0: float
    n1: float
    n2: float
    n3: float
    n4: float

    def __getitem__(self, k: int) -> float:
        return (self.n0, self.n1, self.n2, self.n3, self.n4)[k]


def moments_closed_form(g: Graph, p: float) -> MomentSet:
    """N_0..N_4 from edge weights and common-neighbour sums only.

    N2 = 2 sum_{ij in E} w_ij^2;
    N3 = 2 sum_{ij in E} w_ij * sum_{k ~ i, k ~ j} w_ik w_kj;
    N4 = sum_i (sum_{j ~ i} w_ij^2)^2
         + sum_{i != j} (sum_{k ~ i, k ~ j} w_ik w_kj)^2.
    No eigensolver involved, so this is an independent check on the spectrum.
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    d = g.degrees
    n = g.n
    w = {}
    for i, j in g.edges():
        w[(i, j)] = w[(j, i)] = edge_weight(d[i], d[j], p)
    nbr = [set(a) for a in g.adj]

    n2 = 2.0 * sum(w[(i, j)] ** 2 for i, j in g.edges())

    n3 = 0.0
    for i, j in g.edges():
        inner = sum(w[(i, k)] * w[(k, j)] for k in nbr[i] & nbr[j])
        n3 += w[(i, j)] * inner
    n3 *= 2.0

    n4 = 0.0
    for i in range(n):
        n4 += sum(w[(i, j)] ** 2 for j in g.adj[i]) ** 2
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            common = nbr[i] & nbr[j]
            if common:
                n4 += sum(w[(i, k)] * w[(k, j)] for k in common) ** 2

    return MomentSet(p=p, n0=float(n), n1=0.0, n2=n2, n3=n3, n4=n4)


def moments_from_spectrum(dec: SpectralDecomposition, k: int) -> float:
    """Power sum of the eigenvalues: sum_i (xi_i)^k."""
    if k == 0:
        return float(dec.n)
    return float((dec.eigenvalues ** k).sum())
