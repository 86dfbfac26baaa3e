"""Benchmark the Jacobi kernel: scalar (pure Python) against batched (NumPy,
one stack of same-size matrices), on the same random matrices.

Run:  python benchmarks/bench_eigensolver.py
"""

import time

import numpy as np

from psombor import backend


def _threshold(a):
    return 1e-12 * max(1.0, float(np.linalg.norm(a)))


def bench(matrices, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        copies = [m.copy() for m in matrices]
        t0 = time.perf_counter()
        for a in copies:
            backend.jacobi_sweeps(a, None, _threshold(a), 100)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_batch(matrices, repeats=3):
    thresholds = np.array([_threshold(m) for m in matrices])
    best = float("inf")
    for _ in range(repeats):
        stack = np.stack(matrices)
        t0 = time.perf_counter()
        backend.jacobi_sweeps_batch(stack, thresholds, 100)
        best = min(best, time.perf_counter() - t0)
    return best


def batch_parity(matrices) -> bool:
    """Batched and scalar kernels agree bit for bit (matrix, sweeps, norm)."""
    stack = np.stack(matrices)
    thresholds = np.array([_threshold(m) for m in matrices])
    sweeps, offs = backend.jacobi_sweeps_batch(stack, thresholds, 100)
    for i, m in enumerate(matrices):
        a = m.copy()
        s, off = backend.jacobi_sweeps(a, None, thresholds[i], 100)
        if (s, off) != (sweeps[i], offs[i]) or not np.array_equal(a, stack[i]):
            return False
    return True


def main():
    rng = np.random.default_rng(20240817)
    print("eigenvalues only (no eigenvector accumulation), best of 3")
    print(f"{'n':>5} {'count':>6} {'scalar (s)':>11} {'batched (s)':>12} {'parity':>7}")
    for n, count in ((8, 200), (16, 100), (32, 40), (64, 10), (128, 3)):
        mats = []
        for _ in range(count):
            a = rng.standard_normal((n, n))
            mats.append(a + a.T)
        t_scalar = bench(mats)
        t_batch = bench_batch(mats)
        parity = "ok" if batch_parity(mats[:5]) else "DRIFT"
        print(f"{n:>5} {count:>6} {t_scalar:>11.4f} {t_batch:>12.4f} {parity:>7}")


if __name__ == "__main__":
    main()
