"""Per-layer tracing from outside the package.

The tracer wraps public functions of psombor's modules and records, for each
span name, the call count, the inclusive time of outermost calls and the self
time (inclusive time minus the time of wrapped calls made inside it). Modules
import functions by name (bounds imports structure_stats and
moments_closed_form, spectral imports jacobi_sweeps), so every module
attribute bound to a wrapped function is replaced, and restored on exit.
Spans and counters live in memory and are read after the pass.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from checks import eig_error

CHECK_FAMILIES = (
    "check_moment_index_bounds",
    "check_laplacian_bounds",
    "check_radius_bounds",
    "check_energy_estrada_bounds",
    "check_nordhaus_gaddum",
)
KINDS = ("adjacency", "p_sombor", "p_laplacian")


def _targets() -> list[tuple[object, str]]:
    """(function, span name) for every traced function."""
    from psombor import backend, bounds, cli, extremal, graphs, invariants, spectral

    out = [
        (graphs.structure_stats, "graphs.structure_stats"),
        (graphs.complement, "graphs.complement"),
        (spectral.build_sombor_matrix, "spectral.build_matrix"),
        (spectral.build_p_laplacian, "spectral.build_matrix"),
        (spectral.adjacency_matrix, "spectral.build_matrix"),
        (spectral.eigen_decompose, "spectral.eigen_decompose"),
        (backend.jacobi_sweeps, "spectral.jacobi_sweeps"),
        (spectral.moments_closed_form, "spectral.moments_closed_form"),
        (bounds.all_checks, "bounds.all_checks"),
        (bounds.run_suite, "bounds.run_suite"),
        (extremal.enumerate_trees, "extremal.enumerate_trees"),
        (extremal.tree_canonical_key, "extremal.tree_canonical_key"),
        (cli.run, "cli.run"),
    ]
    out += [(getattr(bounds, name), f"bounds.{name}") for name in CHECK_FAMILIES]
    # The invariants layer: every function defined in psombor.invariants.
    out += [(fn, "invariants") for name, fn in vars(invariants).items()
            if callable(fn) and getattr(fn, "__module__", None) == invariants.__name__
            and not isinstance(fn, type) and not name.startswith("_")]
    return out


class Tracer:
    """Context manager that wraps the traced functions for one pass."""

    def __init__(self, capture_spectra: bool = True):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.decompositions: Counter = Counter()
        self.sweeps: Counter = Counter()
        self.rotations = 0
        self.matrix_digests: set = set()
        self.reports = 0
        self.trees_returned = 0
        self.capture_spectra = capture_spectra
        self.spectra: list = []
        self._stack: list = []          # [span name, child time] per open span
        self._active: Counter = Counter()
        self._patched: list = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn, name):
        on_result = {
            "spectral.eigen_decompose": self._on_decompose,
            "bounds.all_checks": self._on_reports,
            "extremal.enumerate_trees": self._on_trees,
        }.get(name)
        stack, active = self._stack, self._active
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_time[name] += dt - frame[1]
                if not active[name]:
                    inclusive[name] += dt
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                # Hook time is tracer overhead: keep it out of the parent's
                # self time.
                t1 = clock()
                on_result(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - t1
            return result

        return wrapper

    def _on_decompose(self, args, kwargs, dec):
        matrix = np.asarray(args[0] if args else kwargs["matrix"], dtype=float)
        self.decompositions[dec.kind] += 1
        self.sweeps[dec.kind] += dec.sweeps
        n = dec.n
        self.rotations += dec.sweeps * n * (n - 1) // 2
        self.matrix_digests.add(hashlib.blake2b(
            repr(matrix.shape).encode() + matrix.tobytes(), digest_size=16).digest())
        if self.capture_spectra:
            self.spectra.append((matrix.copy(), dec.eigenvalues.copy()))

    def _on_reports(self, args, kwargs, reports):
        self.reports += len(reports)

    def _on_trees(self, args, kwargs, catalog):
        self.trees_returned += len(catalog.trees)

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "psombor" or key.startswith("psombor."))]
        for fn, name in _targets():
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    # -- results ----------------------------------------------------------

    def counts(self) -> dict:
        """Deterministic work counts of the pass (the ledger entries)."""
        return {
            "decompositions": {k: self.decompositions[k] for k in KINDS},
            "sweeps": {k: self.sweeps[k] for k in KINDS},
            "rotations_computed": self.rotations,
            "distinct_matrices": len(self.matrix_digests),
            "bounds_reports": self.reports,
            "canonical_key_calls": self.calls["extremal.tree_canonical_key"],
            "trees_returned": self.trees_returned,
            "structure_stats_calls": self.calls["graphs.structure_stats"],
            "complement_calls": self.calls["graphs.complement"],
            "moments_closed_form_calls": self.calls["spectral.moments_closed_form"],
            "enumerate_trees_calls": self.calls["extremal.enumerate_trees"],
        }

    def eig_err_scaled(self) -> float:
        """Largest scaled oracle error over every captured decomposition."""
        return max((eig_error(m, lam) for m, lam in self.spectra), default=0.0)

    def metrics(self) -> dict:
        """Per-layer metric values of the pass, by BENCHMARK.json name."""
        c = self.counts()
        total_calls = sum(c["decompositions"].values())
        out = {
            "spectral.kernel_s": self.inclusive["spectral.jacobi_sweeps"],
            "spectral.rotations_computed": c["rotations_computed"],
            "spectral.eigen_decompose.self_s": self.self_time["spectral.eigen_decompose"],
            "spectral.eigen_decompose.unique_ratio":
                c["distinct_matrices"] / total_calls if total_calls else 1.0,
            "spectral.build_matrix_s": self.inclusive["spectral.build_matrix"],
            "spectral.moments_closed_form.calls": c["moments_closed_form_calls"],
            "spectral.moments_closed_form.s": self.inclusive["spectral.moments_closed_form"],
            "graphs.structure_stats.calls": c["structure_stats_calls"],
            "graphs.structure_stats.s": self.inclusive["graphs.structure_stats"],
            "graphs.complement.calls": c["complement_calls"],
            "graphs.complement.s": self.inclusive["graphs.complement"],
            "bounds.reports": c["bounds_reports"],
            "bounds.run_suite.self_s": self.self_time["bounds.run_suite"],
            "extremal.enumerate_trees.calls": c["enumerate_trees_calls"],
            "extremal.enumerate_trees.s": self.inclusive["extremal.enumerate_trees"],
            "extremal.tree_canonical_key.calls": c["canonical_key_calls"],
            "extremal.trees_per_key":
                c["trees_returned"] / c["canonical_key_calls"] if c["canonical_key_calls"] else 0.0,
            "invariants.s": self.inclusive["invariants"],
            "cli.run.self_s": self.self_time["cli.run"],
        }
        for kind in KINDS:
            out[f"spectral.sweeps.{kind}"] = c["sweeps"][kind]
            out[f"spectral.eigen_decompose.calls.{kind}"] = c["decompositions"][kind]
        for family in CHECK_FAMILIES:
            out[f"bounds.{family}.self_s"] = self.self_time[f"bounds.{family}"]
        return out
