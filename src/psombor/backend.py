"""The Jacobi sweep kernel: psombor's one eigensolver backend.

jacobi_sweeps_batch diagonalises a stack of same-size symmetric matrices with
NumPy in parallel (round-robin) order (Brent & Luk, SIAM J. Sci. Stat. Comput.
6(1), 1985). jacobi_sweeps is its B = 1 call, for one matrix.
"""

from functools import cache
from typing import NamedTuple

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend; there is one, the pure kernel."""
    return "pure"


def jacobi_sweeps(a, v, threshold: float, max_sweeps: int):
    """jacobi_sweeps_batch on the one matrix ``a`` (and, optionally, its
    eigenvector matrix ``v``); returns (sweeps used, final off-diagonal norm)
    as a batch member of its own would."""
    sweeps, offs = jacobi_sweeps_batch(a[:, :, None], [threshold], max_sweeps,
                                       None if v is None else v[:, :, None])
    return int(sweeps[0]), float(offs[0])


def jacobi_sweeps_batch(stack, thresholds, max_sweeps: int, vectors=None):
    """Run Jacobi sweeps in place on every matrix of an (n, n, B) stack.

    Member i is stack[:, :, i]. A sweep is n - 1 rounds (n for odd n) of
    n // 2 disjoint rotations (_schedule), and a round rotates all its pairs
    in all still-active members at once. A member leaves after the sweep at
    which its off-diagonal norm reaches thresholds[i]; every step is
    elementwise over the members, so its result does not depend on its
    stack. The columns of ``vectors`` (optional, same shape) get every
    rotation of their member. Returns (sweeps, final off-diagonal norms).
    """
    n, count = stack.shape[0], stack.shape[2]
    schedule = _schedule(n)
    thresholds = np.asarray(thresholds, dtype=float)
    sweeps = np.zeros(count, dtype=np.int64)
    flat, gather = stack.reshape(n * n, count), schedule.gather
    offs = _off_batch(flat, schedule.upper)
    active = np.flatnonzero(offs > thresholds)
    if vectors is not None:
        # The rows of the eigenvector matrices follow those of the matrices:
        # their columns move and rotate with the matrices' columns.
        flat = np.concatenate((flat, vectors.reshape(n * n, count)))
        gather = np.concatenate((gather, n * n + (np.arange(n)[:, None] * n
                                                  + schedule.perm).ravel()))
    # The active members, flat and member-last: entry (i, j) of all of them
    # is the contiguous row i * n + j (np.take and compress return C order).
    work = np.take(flat, active, axis=1)
    done = 0
    # Lanes whose branch is not taken divide by zero or overflow; their
    # values are computed but never selected.
    with np.errstate(all="ignore"):
        while active.size and done < max_sweeps:
            for _ in range(schedule.rounds):
                work = work.take(gather, axis=0)
                _rotate_round(work, n, schedule)
            done += 1
            off = _off_batch(work, schedule.upper)
            sweeps[active] = done
            offs[active] = off
            keep = off > thresholds[active]
            if not keep.all():
                _store(stack, vectors, active[~keep], work[:, ~keep])
                active, work = active[keep], work.compress(keep, axis=1)
    _store(stack, vectors, active, work)
    return sweeps, offs


def _store(stack, vectors, members, work) -> None:
    n = stack.shape[0]
    stack[:, :, members] = work[:n * n].reshape(n, n, members.size)
    if vectors is not None:
        vectors[:, :, members] = work[n * n:].reshape(n, n, members.size)


class _Schedule(NamedTuple):
    """One sweep of the round-robin order on n x n matrices, as index arrays
    into the flat (n * n, B) work stack. Each round works on the members
    permuted to its layout: its k = n // 2 pairs in slots (j, k + j), for odd
    n the index left out in slot n - 1. In the circle method one index (a
    dummy for odd n) stays put while the others turn one place, so each
    layout is the previous one permuted by the same perm (gather: the same
    on the flat entries), and a sweep ends in the order it started in.
    """

    rounds: int
    gather: np.ndarray
    perm: np.ndarray
    pair_entries: np.ndarray  # (p, p), then (q, q), then (p, q) of each slot pair
    cleared: np.ndarray       # (p, q) and (q, p) of each slot pair
    upper: np.ndarray         # the upper triangle, row-major


@cache
def _schedule(n: int) -> _Schedule:
    m, k = n + (n & 1), n // 2
    order, layouts = [m - 1] + list(range(m - 1)), []
    for _ in range(2 if n > 1 else 0):
        pairs = [(order[i], order[m - 1 - i]) for i in range(m // 2)]
        idle = [pairs.pop(0)[1]] if n & 1 else []
        layouts.append([i for i, _ in pairs] + [j for _, j in pairs] + idle)
        order = order[:1] + order[-1:] + order[1:-1]
    perm = np.argsort(layouts[0])[layouts[1]] if layouts else np.arange(n)
    p = np.arange(k)
    q = p + k
    return _Schedule(m - 1 if n > 1 else 0, (perm[:, None] * n + perm).ravel(), perm,
                     np.concatenate((p * (n + 1), q * (n + 1), p * n + q)),
                     np.concatenate((p * n + q, q * n + p)),
                     np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1)))


def _rotate_round(work, n: int, schedule: _Schedule) -> None:
    """Rotate the round's slot pairs in every member of work: rows, columns
    (of the eigenvector rows too), then the exact 2 x 2 result."""
    k = n // 2
    entries = work.take(schedule.pair_entries, axis=0)
    app, aqq, apq = entries[:k], entries[k:2 * k], entries[2 * k:]
    theta = (aqq - app) / (2.0 * apq)
    # A member with apq == 0 skips the rotation: theta = inf gives
    # t = s = tau = 0, which keeps its rows and columns p and q (a zero
    # among them may change sign).
    skip = apq == 0.0
    if skip.any():
        theta[skip] = np.inf
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
    rows = work.reshape(-1, n, work.shape[1])
    _rotate_pairs(rows[:k], rows[k:2 * k], s[:, None], tau[:, None])
    _rotate_pairs(rows[:, :k], rows[:, k:2 * k], s, tau)
    work[schedule.pair_entries[:2 * k]] = np.concatenate((app - t_apq, aqq + t_apq))
    work[schedule.cleared] = 0.0


def _rotate_pairs(x, y, s, tau) -> None:
    """x, y <- x - s (y + tau x), y + s (x - tau y), in place."""
    u = tau * x
    u += y
    u *= s
    v = tau * y
    np.subtract(x, v, out=v)
    v *= s
    x -= u
    y += v


def _off_batch(flat, upper) -> np.ndarray:
    # Off-diagonal Frobenius norm of each member of a flat stack, its upper
    # triangle summed left to right (cumsum is sequential, unlike sum).
    if not upper.size:
        return np.zeros(flat.shape[1])
    entries = flat.take(upper, axis=0)
    return np.sqrt(np.cumsum(2.0 * entries * entries, axis=0)[-1])
