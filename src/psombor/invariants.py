"""Scalar graph invariants: degree-based indices and spectrum-derived values."""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import asdict, dataclass
from functools import reduce

from . import config
from .graphs import Graph
from .spectral import SpectralDecomposition, edge_weight


def _left_sum(xs):
    # Adds left to right from the int 0 on every Python version: builtin sum
    # compensates float rounding from Python 3.12 on, which moves last bits.
    return reduce(operator.add, xs, 0)


@dataclass(frozen=True)
class IndexBundle:
    """Degree-based indices of one graph at one p."""

    p: float
    so_p: float           # sum over edges of ((d_i)^p + (d_j)^p)^(1/p)
    m1: float             # first Zagreb index, sum of squared degrees
    isi: float            # sum over edges of d_i d_j / (d_i + d_j)
    randic: float         # sum over edges of (d_i d_j)^(-1/2)
    sigma_sq: float | None  # variance of the edge weights; None when m == 0

    to_dict = asdict


@dataclass(frozen=True)
class SpectralInvariants:
    """Radius, spread, energy, Estrada index and |det| of one decomposition."""

    radius: float
    spread: float
    energy: float
    estrada: float
    abs_det: float

    to_dict = asdict


def sombor_index(g: Graph, p: float) -> float:
    """Half-sum of the weighted adjacency entries; p=1 gives the first Zagreb
    index, p=2 the Sombor index, p=-1 the inverse sum indeg index."""
    if p == 0:
        raise ValueError("p must be nonzero")
    d = g.degrees
    return _left_sum(edge_weight(d[i], d[j], p) for i, j in g.edges())


def first_zagreb(g: Graph) -> float:
    return float(sum(d * d for d in g.degrees))


def isi_index(g: Graph) -> float:
    d = g.degrees
    return _left_sum(d[i] * d[j] / (d[i] + d[j]) for i, j in g.edges())


def randic_index(g: Graph) -> float:
    d = g.degrees
    return _left_sum(1.0 / math.sqrt(d[i] * d[j]) for i, j in g.edges())


def weight_variance(g: Graph, p: float) -> float | None:
    """Population variance of the edge weights; None for the edgeless graph."""
    if p == 0:
        raise ValueError("p must be nonzero")
    if g.m == 0:
        return None
    d = g.degrees
    weights = [edge_weight(d[i], d[j], p) for i, j in g.edges()]
    mean = _left_sum(weights) / g.m
    return _left_sum(w * w for w in weights) / g.m - mean * mean


def index_bundle(g: Graph, p: float) -> IndexBundle:
    return IndexBundle(
        p=p,
        so_p=sombor_index(g, p),
        m1=first_zagreb(g),
        isi=isi_index(g),
        randic=randic_index(g),
        sigma_sq=weight_variance(g, p),
    )


def graph_energy(dec: SpectralDecomposition) -> float:
    return float(abs(dec.eigenvalues).sum())


def _warn_exp_overflow() -> None:
    # One source line and constant text, so the once-per-location filter
    # shows it once, whoever warns.
    warnings.warn("spectral radius too large for exp(); Estrada index reported as inf")


def estrada_index(dec: SpectralDecomposition) -> float:
    if dec.n and dec.radius > config.ESTRADA_EXP_LIMIT:
        _warn_exp_overflow()
        return math.inf
    return float(_left_sum(math.exp(x) for x in dec.eigenvalues))


def abs_determinant(dec: SpectralDecomposition) -> float:
    """Product of |eigenvalues|; snapped to 0 below (ZERO_TOL_FACTOR ||M||_F)^n,
    relative to the norm as the inertia's zero tolerance is."""
    return _abs_product(dec.eigenvalues.tolist(), dec.norm) if dec.n else 1.0


def _abs_product(values: list[float], norm: float) -> float:
    """abs_determinant of a spectrum given as a list, of Frobenius norm norm."""
    product = math.prod(map(abs, values))
    return 0.0 if product < (config.ZERO_TOL_FACTOR * norm) ** len(values) else product


def spectral_invariants(dec: SpectralDecomposition) -> SpectralInvariants:
    return SpectralInvariants(
        radius=dec.radius,
        spread=dec.radius - dec.smallest,
        energy=graph_energy(dec),
        estrada=estrada_index(dec),
        abs_det=abs_determinant(dec),
    )
