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

__version__ = "0.1.0"

# The check table (bounds), tree extremes (extremal) and the QSPR regressions
# (chem) load on first use, so that importing psombor for spectra compiles
# none of them.
_LAZY = {
    "bounds": ("BoundReport", "SuiteReport", "all_checks", "build_corpus", "run_suite"),
    "chem": ("MoleculeRecord", "RegressionFit", "linear_fit", "load_dataset",
             "octane_crosscheck", "reproduce_regressions"),
    "extremal": ("TreeCatalog", "enumerate_trees", "shift_experiment", "tree_canonical_key",
                 "verify_tree_extremes"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)


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
