"""The cyclic-Jacobi sweep kernel: psombor's one eigensolver backend.

jacobi_sweeps is the scalar kernel, run on one matrix in pure Python.
jacobi_sweeps_batch runs the same iteration on a member-last (n, n, B) stack
of same-size matrices with NumPy, one rotation for the whole stack at a time,
and matches jacobi_sweeps bit for bit on every member.
"""

from math import sqrt

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend; there is one, the pure kernel."""
    return "pure"


def jacobi_sweeps(a, v, threshold: float, max_sweeps: int):
    """Run cyclic Jacobi sweeps in place on the symmetric matrix ``a``.

    Rotations visit the upper triangle in row-major order. ``v`` (optional)
    accumulates the rotations so its columns end up as eigenvectors. Returns
    (sweeps used, final off-diagonal norm); the diagonal of ``a`` holds the
    eigenvalues once the returned norm is at or below ``threshold``.
    """
    n = a.shape[0]
    rows = a.tolist()
    vrows = v.tolist() if v is not None else None
    sweeps = 0
    off = _off_from_rows(rows, n)
    while off > threshold and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = rows[p][q]
                if apq == 0.0:
                    continue
                app = rows[p][p]
                aqq = rows[q][q]
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    if theta >= 0.0:
                        t = 1.0 / (theta + sqrt(theta * theta + 1.0))
                    else:
                        t = -1.0 / (-theta + sqrt(theta * theta + 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                rows[p][p] = app - t * apq
                rows[q][q] = aqq + t * apq
                rows[p][q] = 0.0
                rows[q][p] = 0.0
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp = rows[k][p]
                    akq = rows[k][q]
                    rkp = akp - s * (akq + tau * akp)
                    rkq = akq + s * (akp - tau * akq)
                    rows[k][p] = rkp
                    rows[p][k] = rkp
                    rows[k][q] = rkq
                    rows[q][k] = rkq
                if vrows is not None:
                    for k in range(n):
                        vkp = vrows[k][p]
                        vkq = vrows[k][q]
                        vrows[k][p] = vkp - s * (vkq + tau * vkp)
                        vrows[k][q] = vkq + s * (vkp - tau * vkq)
        sweeps += 1
        off = _off_from_rows(rows, n)
    for i in range(n):
        for j in range(n):
            a[i, j] = rows[i][j]
    if v is not None:
        for i in range(n):
            for j in range(n):
                v[i, j] = vrows[i][j]
    return sweeps, off


def _off_from_rows(rows, n: int) -> float:
    total = 0.0
    for p in range(n - 1):
        row = rows[p]
        for q in range(p + 1, n):
            total += 2.0 * row[q] * row[q]
    return sqrt(total)


def jacobi_sweeps_batch(stack, thresholds, max_sweeps: int):
    """Run cyclic Jacobi sweeps in place on every matrix of an (n, n, B) stack.

    The stack is member-last: member i is stack[:, :, i], so row p of every
    member is one contiguous (n, B) block. Each member goes through exactly
    the iteration jacobi_sweeps(member, None, thresholds[i], max_sweeps)
    would: the same rotations in the same order with the same formulas, so
    the results agree bit for bit for members equal to their transpose bit
    for bit (signed zeros included; the kernel reads row p where the scalar
    kernel reads column p). Rotation (p, q) is applied to all still-active
    members at once; the scalar kernel's branches (skip when apq == 0, the
    |theta| > 1e150 form of t) become per-member selections. A member leaves
    the active set after the sweep at which its off-diagonal norm reaches its
    threshold. Returns (sweeps used, final off-diagonal norm) as two
    length-B arrays.
    """
    n, count = stack.shape[0], stack.shape[2]
    thresholds = np.asarray(thresholds, dtype=float)
    sweeps = np.zeros(count, dtype=np.int64)
    offs = _off_batch(stack)
    active = np.flatnonzero(offs > thresholds)
    # np.take and compress keep the sub-stack member-last in memory; indexing
    # the last axis with an array (stack[:, :, active]) would lay it out
    # member-first and lose the contiguous rows.
    work = np.take(stack, active, axis=2)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    done = 0
    # Lanes whose branch is not taken divide by zero or overflow; their
    # values are computed but never selected.
    with np.errstate(all="ignore"):
        while active.size and done < max_sweeps:
            for p, q in pairs:
                _rotate_batch(work, p, q)
            done += 1
            off = _off_batch(work)
            sweeps[active] = done
            offs[active] = off
            keep = off > thresholds[active]
            if not keep.all():
                stack[:, :, active[~keep]] = work[:, :, ~keep]
                active, work = active[keep], work.compress(keep, axis=2)
    stack[:, :, active] = work
    return sweeps, offs


def _rotate_batch(work, p: int, q: int) -> None:
    apq = work[p, q]
    n_live = np.count_nonzero(apq)
    if not n_live:
        return
    app = work[p, p]
    aqq = work[q, q]
    theta = (aqq - app) / (2.0 * apq)
    abs_theta = np.abs(theta)
    # 1/(theta + r) for theta >= 0 and -1/(-theta + r) otherwise, with
    # r = sqrt(theta^2 + 1): both are +-1/(|theta| + r), rounded alike.
    t = 1.0 / (abs_theta + np.sqrt(theta * theta + 1.0))
    t = np.where(theta >= 0.0, t, -t)
    big = abs_theta > 1e150
    if big.any():
        t = np.where(big, 1.0 / (2.0 * theta), t)
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    tau = s / (1.0 + c)
    t_apq = t * apq
    # Every member is symmetric, so its contiguous row p is its column p.
    rowp = work[p]
    rowq = work[q]
    newp = rowp - s * (rowq + tau * rowp)
    newq = rowq + s * (rowp - tau * rowq)
    newp[p] = app - t_apq
    newq[q] = aqq + t_apq
    newp[q] = 0.0
    newq[p] = 0.0
    if n_live < apq.size:
        # Members with apq == 0 keep their rows bit for bit (signed zeros
        # included), as the scalar kernel skips them.
        keep = apq != 0.0
        newp = np.where(keep, newp, rowp)
        newq = np.where(keep, newq, rowq)
    work[:, p] = newp
    work[p] = newp
    work[:, q] = newq
    work[q] = newq


def _off_batch(stack) -> np.ndarray:
    # Same terms as _off_from_rows, summed left to right in row-major order:
    # cumsum accumulates sequentially, unlike sum.
    n = stack.shape[0]
    rows, cols = np.triu_indices(n, 1)
    if not rows.size:
        return np.zeros(stack.shape[2])
    upper = stack[rows, cols]
    return np.sqrt(np.cumsum(2.0 * upper * upper, axis=0)[-1])
