"""Kernel backend selection: compiled extension when importable, pure Python
otherwise. Set PSOMBOR_PURE=1 to force the pure kernel."""

import os

import numpy as np

if os.environ.get("PSOMBOR_PURE", "") not in ("", "0"):
    from . import _kernels_py as _impl
    BACKEND = "pure"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
        BACKEND = "compiled"
    except ImportError:
        from . import _kernels_py as _impl
        BACKEND = "pure"

jacobi_sweeps = _impl.jacobi_sweeps
off_diagonal_norm = _impl.off_diagonal_norm


def jacobi_sweeps_per_slice(stack, thresholds, max_sweeps: int):
    """jacobi_sweeps_batch by running the scalar kernel on one member of the
    (B, n, n) stack at a time, in place. The compiled kernel uses this: per
    matrix it is already faster than the vectorised pure kernel."""
    sweeps = np.zeros(len(stack), dtype=np.int64)
    offs = np.zeros(len(stack))
    for i, a in enumerate(stack):
        sweeps[i], offs[i] = jacobi_sweeps(a, None, float(thresholds[i]), max_sweeps)
    return sweeps, offs


if BACKEND == "compiled":
    jacobi_sweeps_batch = jacobi_sweeps_per_slice
else:
    jacobi_sweeps_batch = _impl.jacobi_sweeps_batch


def backend_name() -> str:
    return BACKEND
