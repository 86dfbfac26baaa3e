"""Output checks for each workload, and the eigenvalue oracle.

The oracle rebuilds every matrix from the graph and p with its own code and
takes its spectrum from numpy.linalg.eigvalsh (LAPACK), which is used only
as a reference: psombor reports Jacobi eigenvalues.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Largest accepted |lambda_jacobi - lambda_oracle| / max(1, ||M||_F). The
# solver stops at an off-diagonal norm of 1e-12 * max(1, ||M||_F); observed
# errors are near 1e-15.
EIG_TOL = 1e-10
# Relative tolerance on the reference extreme radii of trees_n12.
RADIUS_RTOL = 1e-12


def sombor_matrix(n: int, edges, p: float) -> np.ndarray:
    """Weighted adjacency with ((d_i)^p + (d_j)^p)^(1/p) on each edge."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    mat = np.zeros((n, n))
    for u, v in edges:
        w = (deg[u] ** p + deg[v] ** p) ** (1.0 / p)
        mat[u, v] = mat[v, u] = w
    return mat


def eig_error(mat: np.ndarray, eigenvalues) -> float:
    """Largest eigenvalue error against the oracle, scaled by max(1, ||M||_F)."""
    oracle = np.sort(np.linalg.eigvalsh(mat))[::-1]
    got = np.asarray(eigenvalues, dtype=float)
    if got.shape != oracle.shape:
        return math.inf
    scale = max(1.0, float(np.linalg.norm(mat)))
    return float(np.max(np.abs(got - oracle))) / scale


class CheckResult:
    """Outcome of one cli.run item: ok flag, reasons and oracle error."""

    def __init__(self):
        self.reasons: list[str] = []
        self.eig_err = 0.0

    @property
    def ok(self) -> bool:
        return not self.reasons

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)


def check_verify_all(item: dict, rc: int, data: bytes, refs: dict) -> CheckResult:
    res = CheckResult()
    if rc != 0:
        res.fail(f"exit code {rc}, expected 0")
    ref = refs["verify_all"].get(str(item["corpus_seed"]))
    if ref is None:
        res.fail(f"no reference recorded for corpus seed {item['corpus_seed']}")
    elif hashlib.sha256(data).hexdigest() != ref["sha256"]:
        res.fail(f"report differs from the reference for corpus seed "
                 f"{item['corpus_seed']} ({len(data)} bytes, "
                 f"reference {ref['bytes']})")
    return res


def check_trees_n12(item: dict, rc: int, data: bytes, refs: dict) -> CheckResult:
    res = CheckResult()
    if rc != 0:
        res.fail(f"exit code {rc}, expected 0")
    ref = refs["trees_n12"]
    extremes = json.loads(data)["extremes"]
    if [e["p"] for e in extremes] != [r["p"] for r in ref]:
        res.fail("p values differ from the reference")
        return res
    for got, want in zip(extremes, ref):
        p = want["p"]
        for flag in ("min_is_path", "max_is_star", "min_unique", "max_unique"):
            if got[flag] is not True:
                res.fail(f"p={p}: {flag} is {got[flag]}")
        for key in ("min_radius", "max_radius"):
            if not math.isclose(got[key], want[key], rel_tol=RADIUS_RTOL, abs_tol=0.0):
                res.fail(f"p={p}: {key} {got[key]!r} != reference {want[key]!r}")
        n = got["n"]
        path = sombor_matrix(n, [(i, i + 1) for i in range(n - 1)], p)
        star = sombor_matrix(n, [(0, i) for i in range(1, n)], p)
        for mat, value in ((path, got["min_radius"]), (star, got["max_radius"])):
            scale = max(1.0, float(np.linalg.norm(mat)))
            err = abs(value - float(np.linalg.eigvalsh(mat)[-1])) / scale
            res.eig_err = max(res.eig_err, err)
    if res.eig_err > EIG_TOL:
        res.fail(f"eig_err_scaled {res.eig_err:.3e} above {EIG_TOL:g}")
    return res


CHECKS = {
    "verify_all": check_verify_all,
    "trees_n12": check_trees_n12,
}
