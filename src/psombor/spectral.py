"""Dense symmetric matrices attached to a graph and their spectra.

The eigensolver is a self-contained Jacobi iteration (psombor.backend) in a
fixed round-robin order, so results are reproducible bit for bit across runs,
platforms and batches. Every full spectrum goes through decompose_stack,
which validates a member-first stack of same-size matrices once, solves it
scaled by a power of two per member (exact, and safe for tiny entries) and
sorts it into a Spectra, arrays with a row per member; eigen_decompose and
eigen_decompose_many return SpectralDecomposition views of members. Spectral
moments N_0..N_4 are available through two independent routes: power sums
of the computed eigenvalues, and traces of powers of the matrix itself,
N_k = tr(S_p^k), which cross-validate each other. (Tree radii come from
Gram matrices of the biadjacency block: extremal.bipartite_radii, via _solve.)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
# jacobi_sweeps (the kernel's B = 1 call) stays importable from here by name.
from .backend import jacobi_sweeps, jacobi_sweeps_batch  # noqa: F401
from .graphs import Graph


class EigenConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the target off-diagonal norm."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(f"no convergence after {sweeps} sweeps "
                         f"(off-diagonal norm {residual:.3e})")
        self.residual = residual
        self.sweeps = sweeps


class EigenvectorResidualError(RuntimeError):
    """Computed eigenvectors miss ||M v - lambda v|| <= VECTOR_RESIDUAL_FACTOR scale."""


def edge_weight(di: int, dj: int, p: float) -> float:
    """Matrix entry ((d_i)^p + (d_j)^p)^(1/p) for an edge between degrees
    d_i and d_j; p must be nonzero.

    The direct form is used whenever its inner sum and result are finite
    normal floats. When the sum overflows, underflows or divides by zero
    (large |p|), the scaled form M (1 + (m/M)^p)^(1/p) is used instead, with M
    the larger degree for p > 0 and the smaller for p < 0. OverflowError
    remains only when the weight itself leaves the normal float range: at tiny
    positive p above it (from about p = 1/1024 down; inf once 1/p is, at
    subnormal p), at tiny negative p below it (inaccurate or 0). Its message
    says which, never the errno of a float power that overflowed.
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    try:
        inner = di ** p + dj ** p
        if sys.float_info.min <= inner < math.inf:
            w = inner ** (1.0 / p)
            if sys.float_info.min <= w < math.inf:
                return w
    except (OverflowError, ZeroDivisionError):
        pass
    big, small = (max(di, dj), min(di, dj)) if p > 0 else (min(di, dj), max(di, dj))
    try:
        w = big * (1.0 + (small / big) ** p) ** (1.0 / p)
    except OverflowError:  # float ** raises where it would round to inf
        w = math.inf
    if w < sys.float_info.min:
        raise OverflowError("an edge weight of S_p underflows the float range")
    if not math.isfinite(w):
        raise OverflowError("an edge weight of S_p overflows the float range")
    return w


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


def laplacian_of(s: np.ndarray) -> np.ndarray:
    """Diagonal row-sum matrix of a weighted adjacency s minus s; rows sum to 0."""
    return np.diag(s.sum(axis=1)) - s


def build_p_laplacian(g: Graph, p: float) -> np.ndarray:
    """The p-Laplacian L_p = D_p - S_p of g."""
    return laplacian_of(build_sombor_matrix(g, p))


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
    norm: float                           # Frobenius norm of the input

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
        """(value, multiplicity) clusters (cluster_starts), descending."""
        starts = np.flatnonzero(cluster_starts(self.eigenvalues[None], min(1.0, self.norm)))
        return tuple(zip(self.eigenvalues[starts].tolist(),
                         np.diff(starts, append=self.n).tolist()))

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


@dataclass
class Spectra:
    """The spectra of a stack of B matrices, row i for member i; member(i,
    kind, p) views one as a SpectralDecomposition of that kind and p.
    order[i, j] is the diagonal position where member i's j-th eigenvalue
    ended. The kernel never rotates an exact zero a_pq, so a member that is
    block-diagonal up to a permutation stays so, and each eigenvalue ends at
    a position of the block it belongs to."""

    eigenvalues: np.ndarray               # (B, n), descending
    eigenvectors: np.ndarray | None       # (B, n, n)
    inertia: np.ndarray                   # (B, 3)
    residual: np.ndarray
    sweeps: np.ndarray
    scale: np.ndarray
    norm: np.ndarray
    order: np.ndarray                     # (B, n)

    def member(self, i: int, kind: str, p: float | None) -> SpectralDecomposition:
        vectors = None if self.eigenvectors is None else self.eigenvectors[i]
        return SpectralDecomposition(kind, p, self.eigenvalues[i], vectors,
                                     tuple(self.inertia[i].tolist()), self.residual[i].item(),
                                     self.sweeps[i].item(), self.scale[i].item(), self.norm[i].item())


def cluster_starts(values: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Where the descending rows of a (B, n) array start a cluster, as bools.
    Column by column, a value joins its row's last cluster when within
    CLUSTER_GAP_FACTOR * max(floor, |v|) of that cluster's first value v."""
    starts = np.ones(values.shape, dtype=bool)
    if values.shape[1]:
        cluster = values[:, 0]
        for j in range(1, values.shape[1]):
            x = values[:, j]
            joins = (np.abs(cluster - x)
                     <= config.CLUSTER_GAP_FACTOR * np.maximum(floors, np.abs(cluster)))
            starts[:, j] = ~joins
            cluster = np.where(joins, cluster, x)
    return starts


def _squares(stack) -> np.ndarray:
    """Squared Frobenius norms of a member-last (n, n, B) stack, row-major left to right."""
    squared = (stack * stack).reshape(stack.shape[0] * stack.shape[1], stack.shape[2])
    return np.cumsum(squared, axis=0)[-1] if len(squared) else np.zeros(stack.shape[2])


def _solve(work, squares, e, vectors=None):
    """Jacobi-solve a member-last (n, n, B) stack (and its vectors) in place;
    member i, scaled by 2^-e[i], stops at OFF_DIAG_FACTOR * sqrt(squares[i]).
    Returns (sweeps, residuals scaled back by 2^e: inf beyond the float range);
    EigenConvergenceError for the first member that does not converge."""
    thresholds = config.OFF_DIAG_FACTOR * np.sqrt(squares)
    sweeps, offs = jacobi_sweeps_batch(work, thresholds, config.MAX_SWEEPS, vectors)
    with np.errstate(over="ignore"):
        residual = np.ldexp(offs, e)
    failed = np.flatnonzero(offs > thresholds)
    if failed.size:
        raise EigenConvergenceError(float(residual[failed[0]]), int(sweeps[failed[0]]))
    return sweeps, residual


def _square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    return a


def _by_size(sizes) -> dict[int, list[int]]:
    """The indices of each size, sizes in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        groups.setdefault(n, []).append(i)
    return groups


def decompose_stack(stack: np.ndarray, want_vectors: bool = False) -> Spectra:
    """Spectra of a member-first (B, n, n) stack of symmetric matrices, in
    stack order. The stack is validated once: entries finite, members
    symmetric, squared Frobenius norms (_squares) in the float range; the
    first member that fails raises. _solve runs on each member scaled by
    2^-e to put its largest |entry| in [1/2, 1) (exact, and the squares of
    tiny entries cannot underflow); eigenvalues, residual and norm are scaled
    back. With eigenvectors, each must have ||M v - lambda v|| <=
    VECTOR_RESIDUAL_FACTOR * scale, where scale is max(1, ||M||_F). The
    eigenvalues are the diagonal sorted by a stable sort, which puts the
    first position of tied values first, and order keeps those positions.
    An empty stack has empty spectra.
    """
    b, n = stack.shape[:2]
    flat = stack.reshape(b, n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(flat).all(axis=1)
        symmetric = (stack == stack.transpose(0, 2, 1)).reshape(b, n * n).all(axis=1)
        e = np.frexp(np.abs(flat).max(axis=1, initial=0.0))[1]
        work = np.ldexp(stack, -e[:, None, None])
        squares = _squares(work.transpose(1, 2, 0))
        in_range = np.isfinite(np.ldexp(squares, 2 * e))
    bad = ~(finite & symmetric & in_range)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            raise ValueError("matrix entries must be finite")
        if not symmetric[i]:
            raise ValueError("matrix must be symmetric")
        raise OverflowError("Frobenius norm of the matrix exceeds the float range")
    vectors = np.broadcast_to(np.eye(n), (b, n, n)).copy() if want_vectors else None
    sweeps, residual = _solve(work.transpose(1, 2, 0), squares, e,
                              None if vectors is None else vectors.transpose(1, 2, 0))
    true_norm = np.ldexp(np.sqrt(squares), e)
    scale = np.maximum(1.0, true_norm)
    diag = np.diagonal(work, axis1=1, axis2=2)
    order = np.argsort(-diag, axis=1, kind="stable")
    eigenvalues = np.ldexp(np.take_along_axis(diag, order, axis=1), e[:, None])
    if vectors is not None:
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
        worst = np.linalg.norm(stack @ vectors - vectors * eigenvalues[:, None, :],
                               axis=1).max(axis=1, initial=0)
        limit = config.VECTOR_RESIDUAL_FACTOR * scale
        over = np.flatnonzero(~(worst <= limit))
        if over.size:
            i = over[0]
            raise EigenvectorResidualError(f"eigenvector residual {worst[i]:.3e} exceeds "
                                           f"{limit[i]:.3e}")
    # Relative to the norm itself, as the stopping threshold: at tiny |p| the
    # whole spectrum lies far below 1. Strict comparisons keep the exact
    # zeros of an all-zero matrix zero.
    zero_tol = config.ZERO_TOL_FACTOR * true_norm[:, None]
    n_pos = (eigenvalues > zero_tol).sum(axis=1)
    n_neg = (eigenvalues < -zero_tol).sum(axis=1)
    inertia = np.stack((n_pos, n - n_pos - n_neg, n_neg), axis=1)
    return Spectra(eigenvalues, vectors, inertia, residual, sweeps, scale, true_norm, order)


def eigen_decompose(matrix: np.ndarray, want_vectors: bool = False,
                    kind: str = "p_sombor", p: float | None = None) -> SpectralDecomposition:
    """Full spectrum of a symmetric matrix via Jacobi rotations: a
    decompose_stack of one, with eigenvectors if asked for."""
    return decompose_stack(_square(matrix)[None], want_vectors).member(0, kind, p)


def eigen_decompose_many(specs) -> list[SpectralDecomposition]:
    """Eigenvalues of many symmetric matrices, in input order.

    specs is a sequence of (matrix, kind, p) triples; entry i of the result
    equals eigen_decompose(matrix, False, kind, p) bit for bit. The matrices
    of each size are solved as one decompose_stack; a matrix that is invalid
    or fails to converge raises as eigen_decompose would.
    """
    matrices = [_square(matrix) for matrix, _, _ in specs]
    out: list = [None] * len(specs)
    for members in _by_size(len(a) for a in matrices).values():
        spectra = decompose_stack(np.stack([matrices[i] for i in members]))
        for j, i in enumerate(members):
            out[i] = spectra.member(j, *specs[i][1:])
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
    """Power sums N_0..N_4 of the weighted adjacency spectrum, as traces."""

    p: float
    n0: float
    n1: float
    n2: float
    n3: float
    n4: float

    def __getitem__(self, k: int) -> float:
        return (self.n0, self.n1, self.n2, self.n3, self.n4)[k]


def moments_closed_form(g: Graph, p: float) -> MomentSet:
    """N_0..N_4 as traces of powers of W = build_sombor_matrix(g, p).

    tr(W^k) sums the weights of the closed walks of length k, so
    N2 = sum W o W, N3 = sum (W W) o W and N4 = sum (W W) o (W W), with o the
    entrywise product. No eigensolver involved, so this is an independent
    check on the spectrum. OverflowError when a moment leaves the float range.
    """
    w = build_sombor_matrix(g, p)
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = w @ w
        n2, n3, n4 = float((w * w).sum()), float((w2 * w).sum()), float((w2 * w2).sum())
    if not (math.isfinite(n2) and math.isfinite(n3) and math.isfinite(n4)):
        raise OverflowError("spectral moments of S_p exceed the float range")
    return MomentSet(p=p, n0=float(g.n), n1=0.0, n2=n2, n3=n3, n4=n4)


def moments_from_spectrum(dec: SpectralDecomposition, k: int) -> float:
    """Power sum of the eigenvalues: sum_i (xi_i)^k."""
    if k == 0:
        return float(dec.n)
    return float((dec.eigenvalues ** k).sum())
