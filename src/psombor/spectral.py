"""Dense symmetric matrices attached to a graph and their spectra.

The eigensolver is a self-contained Jacobi iteration (psombor.backend) in a
fixed round-robin order, so results are reproducible bit for bit across runs,
platforms and batches. Spectral moments N_0..N_4 are available through two
independent routes: power sums of the computed eigenvalues, and traces of
powers of the matrix itself, N_k = tr(S_p^k), which cross-validate each
other. Spectral radii of bipartite graphs (the tree experiments) come from
the smaller Gram matrix B B^T of the biadjacency block (bipartite_radii).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .backend import jacobi_sweeps, jacobi_sweeps_batch
from .graphs import Graph, _component_depths


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
    positive p above it, at tiny negative p below it (inaccurate or 0).
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    try:
        inner = di ** p + dj ** p
        if sys.float_info.min <= inner < math.inf:
            w = inner ** (1.0 / p)
            if w >= sys.float_info.min:
                return w
    except (OverflowError, ZeroDivisionError):
        pass
    big, small = (max(di, dj), min(di, dj)) if p > 0 else (min(di, dj), max(di, dj))
    w = big * (1.0 + (small / big) ** p) ** (1.0 / p)
    if w < sys.float_info.min:
        raise OverflowError("an edge weight of S_p underflows the float range")
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


def _stop_threshold(norm):
    """Jacobi stopping threshold of a matrix of Frobenius norm ``norm``, at every scale."""
    return config.OFF_DIAG_FACTOR * norm


def _prepare(matrix) -> tuple[np.ndarray, float, float]:
    """A symmetric matrix as a validated float array (not copied when it
    already is one), its scale max(1, ||M||_F) and the Jacobi stopping
    threshold. OverflowError when the norm leaves the float range."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise OverflowError("Frobenius norm of the matrix exceeds the float range")
    return a, max(1.0, norm), _stop_threshold(norm)


def _finish(a: np.ndarray, sweeps: int, off: float, threshold: float, scale: float,
            kind: str, p: float | None, matrix: np.ndarray | None = None,
            vectors: np.ndarray | None = None) -> SpectralDecomposition:
    """Decomposition from a matrix the Jacobi kernel has diagonalised; with
    vectors, each must have ||M v - lambda v|| <= VECTOR_RESIDUAL_FACTOR scale."""
    if off > threshold:
        raise EigenConvergenceError(off, sweeps)
    n = a.shape[0]
    diag = np.diag(a).copy()
    order = np.argsort(-diag, kind="stable")
    eigenvalues = diag[order]
    if vectors is not None:
        vectors = vectors[:, order]
        worst = np.linalg.norm(matrix @ vectors - vectors * eigenvalues, axis=0).max(initial=0)
        if not worst <= config.VECTOR_RESIDUAL_FACTOR * scale:
            raise EigenvectorResidualError(f"eigenvector residual {worst:.3e} exceeds "
                                           f"{config.VECTOR_RESIDUAL_FACTOR * scale:.3e}")
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
    """Full spectrum of a symmetric matrix via Jacobi rotations (the kernel's
    B = 1 call), with eigenvectors checked as in _finish if asked for."""
    m, scale, threshold = _prepare(matrix)
    a = m.copy()
    vectors = np.eye(a.shape[0]) if want_vectors else None
    sweeps, off = jacobi_sweeps(a, vectors, threshold, config.MAX_SWEEPS)
    return _finish(a, sweeps, off, threshold, scale, kind, p, m, vectors)


def _size_stacks(matrices):
    """For each size of the square matrices, in order of first appearance:
    the indices of the matrices of that size and their member-last
    (n, n, B) stack, as jacobi_sweeps_batch takes it."""
    by_size: dict[int, list[int]] = {}
    for i, a in enumerate(matrices):
        by_size.setdefault(a.shape[0], []).append(i)
    for members in by_size.values():
        yield members, np.stack([matrices[i] for i in members], axis=-1)


def eigen_decompose_many(specs) -> list[SpectralDecomposition]:
    """Eigenvalues of many symmetric matrices, in input order.

    specs is a sequence of (matrix, kind, p) triples; entry i of the result
    equals eigen_decompose(matrix, False, kind, p) bit for bit. All matrices
    of one size are solved in one call of the batched kernel, on a
    member-last stack. The first matrix (in input order) that is invalid or
    fails to converge raises as eigen_decompose would.
    """
    prepared = [_prepare(matrix) for matrix, _, _ in specs]
    solved: list = [None] * len(prepared)
    for members, stack in _size_stacks([a for a, _, _ in prepared]):
        thresholds = np.array([prepared[i][2] for i in members])
        sweeps, offs = jacobi_sweeps_batch(stack, thresholds, config.MAX_SWEEPS)
        for j, i in enumerate(members):
            solved[i] = (stack[:, :, j], int(sweeps[j]), float(offs[j]))
    out = []
    for (_, scale, threshold), (a, sweeps, off), (_, kind, p) in zip(prepared, solved, specs):
        out.append(_finish(a, sweeps, off, threshold, scale, kind, p))
    return out


def _scaled_gram(g: Graph, p: float, weights: dict) -> tuple[np.ndarray, int]:
    """(G, e) with G = B B^T for the biadjacency block B of S_p scaled by
    2^-e, for a graph g with at least one edge.

    The colour classes are the depth parities of g's BFS; B has the smaller
    class (isolated vertices left out) as rows. e puts B's largest entry in
    [1/2, 1), so G can neither overflow nor lose its largest entries to
    underflow. G is summed over the column vertices, one star at a time, and
    each off-diagonal sum is written to both triangles, so G equals its
    transpose bit for bit. weights caches edge_weight by degree pair;
    ValueError when g is not bipartite.
    """
    depth = _component_depths(g)[1]
    d = g.degrees
    classes: tuple[list[int], list[int]] = ([], [])
    for v in range(g.n):
        if d[v]:
            classes[depth[v] & 1].append(v)
    rows, cols = sorted(classes, key=len)
    row_index = {u: i for i, u in enumerate(rows)}
    stars = []  # per column vertex: (row index, weight) of each of its edges
    for v in cols:
        star = []
        for u in g.adj[v]:
            i = row_index.get(u)
            if i is None:
                raise ValueError("graph is not bipartite")
            key = (d[u], d[v]) if d[u] <= d[v] else (d[v], d[u])
            w = weights.get(key)
            if w is None:
                w = weights[key] = edge_weight(key[0], key[1], p)
            star.append((i, w))
        stars.append(star)
    if sum(map(len, stars)) != g.m:
        # an edge inside the row class closes an odd cycle
        raise ValueError("graph is not bipartite")
    e = math.frexp(max(w for star in stars for _, w in star))[1]
    gram = [[0.0] * len(rows) for _ in rows]
    for star in stars:
        scaled = [(i, math.ldexp(w, -e)) for i, w in star]
        for k, (i, wi) in enumerate(scaled):
            gram[i][i] += wi * wi
            for j, wj in scaled[k + 1:]:
                gram[i][j] = gram[j][i] = gram[i][j] + wi * wj
    return np.array(gram), e


def bipartite_radii(graphs, p: float) -> list[float]:
    """Spectral radius of S_p for each bipartite graph, in input order.

    With the vertices ordered by colour class, S_p = [[0, B], [B^T, 0]], so
    xi_1 = sqrt(lambda_max(B B^T)) and the Jacobi solve runs on a Gram
    matrix of at most n/2 rows (see _scaled_gram). The Gram matrices of each
    size are solved as one stack of the batched kernel, each at the threshold
    _stop_threshold(||G||_F) with the norm taken over the stack (it can
    differ from eigen_decompose's in the last bit), and the largest diagonal
    entry of each solved member gives its radius. Radii only: the square root
    of a Gram eigenvalue that rounds near 0 is no accurate |xi_i|, so energies
    and spectra stay on the full matrices. A graph without edges has radius
    0; ValueError for a graph that is not bipartite, EigenConvergenceError
    as eigen_decompose.
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    radii = np.zeros(len(graphs))
    weights: dict = {}
    owners, grams, exps = [], [], []
    for k, g in enumerate(graphs):
        if g.m:
            gram, e = _scaled_gram(g, p, weights)
            owners.append(k)
            grams.append(gram)
            exps.append(e)
    owners, exps = np.array(owners, dtype=np.intp), np.array(exps)
    for members, stack in _size_stacks(grams):
        thresholds = _stop_threshold(np.linalg.norm(stack, axis=(0, 1)))
        sweeps, offs = jacobi_sweeps_batch(stack, thresholds, config.MAX_SWEEPS)
        failed = np.flatnonzero(offs > thresholds)
        if failed.size:
            raise EigenConvergenceError(float(offs[failed[0]]), int(sweeps[failed[0]]))
        largest = np.diagonal(stack).max(axis=1)
        radii[owners[members]] = np.ldexp(np.sqrt(largest), exps[members])
    return radii.tolist()


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
