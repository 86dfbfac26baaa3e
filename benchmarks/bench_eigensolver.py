"""Benchmark the Jacobi kernels: scalar pure Python, batched pure (NumPy, one
stack of same-size matrices) and compiled, on the same random matrices.

Run:  python benchmarks/bench_eigensolver.py
"""

import time

import numpy as np

from psombor import _kernels_py
from psombor.backend import backend_name

try:
    from psombor import _kernels
except ImportError:
    _kernels = None


def _threshold(a):
    return 1e-12 * max(1.0, float(np.linalg.norm(a)))


def bench(kernel, matrices, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        copies = [m.copy() for m in matrices]
        t0 = time.perf_counter()
        for a in copies:
            kernel.jacobi_sweeps(a, None, _threshold(a), 100)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_batch(matrices, repeats=3):
    thresholds = np.array([_threshold(m) for m in matrices])
    best = float("inf")
    for _ in range(repeats):
        stack = np.stack(matrices)
        t0 = time.perf_counter()
        _kernels_py.jacobi_sweeps_batch(stack, thresholds, 100)
        best = min(best, time.perf_counter() - t0)
    return best


def batch_parity(matrices) -> bool:
    """Batched and scalar pure kernels agree bit for bit (matrix, sweeps, norm)."""
    stack = np.stack(matrices)
    thresholds = np.array([_threshold(m) for m in matrices])
    sweeps, offs = _kernels_py.jacobi_sweeps_batch(stack, thresholds, 100)
    for i, m in enumerate(matrices):
        a = m.copy()
        s, off = _kernels_py.jacobi_sweeps(a, None, thresholds[i], 100)
        if (s, off) != (sweeps[i], offs[i]) or not np.array_equal(a, stack[i]):
            return False
    return True


def main():
    rng = np.random.default_rng(20240817)
    print(f"active backend: {backend_name()}")
    print("eigenvalues only (no eigenvector accumulation), best of 3")
    print(f"{'n':>5} {'count':>6} {'pure (s)':>10} {'batched (s)':>12} {'compiled (s)':>13} "
          f"{'parity':>7}")
    for n, count in ((8, 200), (16, 100), (32, 40), (64, 10), (128, 3)):
        mats = []
        for _ in range(count):
            a = rng.standard_normal((n, n))
            mats.append(a + a.T)
        t_pure = bench(_kernels_py, mats)
        t_batch = bench_batch(mats)
        parity = "ok" if batch_parity(mats[:5]) else "DRIFT"
        if _kernels is None:
            print(f"{n:>5} {count:>6} {t_pure:>10.4f} {t_batch:>12.4f} {'unavailable':>13} "
                  f"{parity:>7}")
            continue
        t_comp = bench(_kernels, mats)
        # compiled-vs-pure parity spot check on the first matrix
        a1, v1 = mats[0].copy(), np.eye(n)
        a2, v2 = mats[0].copy(), np.eye(n)
        thr = _threshold(mats[0])
        _kernels_py.jacobi_sweeps(a1, v1, thr, 100)
        _kernels.jacobi_sweeps(a2, v2, thr, 100)
        drift = max(np.abs(a1 - a2).max(), np.abs(v1 - v2).max())
        print(f"{n:>5} {count:>6} {t_pure:>10.4f} {t_batch:>12.4f} {t_comp:>13.4f} "
              f"{parity:>7}   (compiled {t_pure / t_comp:.1f}x, backend drift {drift:.1e})")


if __name__ == "__main__":
    main()
