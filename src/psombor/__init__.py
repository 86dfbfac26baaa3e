"""p-Sombor matrices of simple graphs: spectra, indices, bound verification,
tree extremes and QSPR regressions."""

from .backend import backend_name
from .graphs import Graph, GraphError, parse_edge_list, structure_stats
from .spectral import (
    SpectralDecomposition,
    adjacency_decomposition,
    build_p_laplacian,
    build_sombor_matrix,
    eigen_decompose,
    laplacian_decomposition,
    moments_closed_form,
    moments_from_spectrum,
    sombor_decomposition,
)
from .invariants import (
    IndexBundle,
    SpectralInvariants,
    index_bundle,
    sombor_index,
    spectral_invariants,
    weight_variance,
)
from .extremal import (
    TreeCatalog,
    enumerate_trees,
    shift_experiment,
    tree_canonical_key,
    verify_tree_extremes,
)
from .chem import (
    MoleculeRecord,
    RegressionFit,
    linear_fit,
    load_dataset,
    octane_crosscheck,
    reproduce_regressions,
)

__version__ = "0.1.0"

_BOUNDS = ("BoundReport", "SuiteReport", "all_checks", "build_corpus", "run_suite")


def __getattr__(name):
    # The check table (psombor.bounds, the largest module) loads on first use,
    # so that importing psombor for spectra or trees does not compile it.
    if name in _BOUNDS:
        from . import bounds
        return getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundReport",
    "Graph",
    "GraphError",
    "IndexBundle",
    "MoleculeRecord",
    "RegressionFit",
    "SpectralDecomposition",
    "SpectralInvariants",
    "SuiteReport",
    "TreeCatalog",
    "adjacency_decomposition",
    "all_checks",
    "backend_name",
    "build_corpus",
    "build_p_laplacian",
    "build_sombor_matrix",
    "eigen_decompose",
    "enumerate_trees",
    "index_bundle",
    "laplacian_decomposition",
    "linear_fit",
    "load_dataset",
    "moments_closed_form",
    "moments_from_spectrum",
    "octane_crosscheck",
    "parse_edge_list",
    "reproduce_regressions",
    "run_suite",
    "shift_experiment",
    "sombor_decomposition",
    "sombor_index",
    "spectral_invariants",
    "structure_stats",
    "tree_canonical_key",
    "verify_tree_extremes",
    "weight_variance",
]
