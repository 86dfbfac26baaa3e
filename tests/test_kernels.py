"""Backend selection and compiled-vs-pure kernel agreement."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from psombor import _kernels_py
from psombor.backend import backend_name


@pytest.fixture
def compiled():
    return pytest.importorskip("psombor._kernels",
                               reason="compiled kernel not built")


def _run_both(compiled, a, with_vectors=True):
    thr = 1e-12 * max(1.0, float(np.linalg.norm(a)))
    a1, a2 = a.copy(), a.copy()
    v1 = np.eye(a.shape[0]) if with_vectors else None
    v2 = np.eye(a.shape[0]) if with_vectors else None
    s1, off1 = compiled.jacobi_sweeps(a1, v1, thr, 100)
    s2, off2 = _kernels_py.jacobi_sweeps(a2, v2, thr, 100)
    return (a1, v1, s1, off1), (a2, v2, s2, off2)


def test_backends_bit_identical(compiled):
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 24))
        a = rng.standard_normal((n, n))
        a = a + a.T
        (a1, v1, s1, off1), (a2, v2, s2, off2) = _run_both(compiled, a)
        assert s1 == s2 and off1 == off2
        assert np.array_equal(a1, a2)
        assert np.array_equal(v1, v2)


def test_backends_without_vectors(compiled):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    (a1, _, _, _), (a2, _, _, _) = _run_both(compiled, a, with_vectors=False)
    assert np.array_equal(a1, a2)


def test_off_diagonal_norm_agrees(compiled):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((9, 9))
    a = a + a.T
    assert compiled.off_diagonal_norm(a) == _kernels_py.off_diagonal_norm(a)


def test_env_var_forces_pure_backend():
    code = "import psombor; print(psombor.backend_name())"
    env = dict(os.environ, PSOMBOR_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "pure"


def test_default_backend_is_compiled_when_available(compiled):
    assert backend_name() == "compiled"


def test_pure_backend_produces_same_spectra():
    # full pipeline parity through a subprocess with the pure kernel
    code = (
        "import psombor, json\n"
        "from psombor.graphs import random_gnm\n"
        "dec = psombor.sombor_decomposition(random_gnm(8, 12, 7), 2.0)\n"
        "print(json.dumps([float(x) for x in dec.eigenvalues]))\n"
    )
    env = dict(os.environ, PSOMBOR_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    import json

    import psombor
    from psombor.graphs import random_gnm
    here = [float(x) for x in psombor.sombor_decomposition(random_gnm(8, 12, 7), 2.0).eigenvalues]
    assert json.loads(out.stdout) == here


# --- batched kernel: bit parity with the scalar pure kernel ---

def _thresholds(mats):
    return np.array([1e-12 * max(1.0, float(np.linalg.norm(m))) for m in mats])


def _assert_batch_matches_scalar(mats, max_sweeps=100, batch=None):
    """Run the batched kernel on a stack of mats and the scalar pure kernel on
    each member; every output must agree bit for bit. Returns the sweeps."""
    batch = batch or _kernels_py.jacobi_sweeps_batch
    thr = _thresholds(mats)
    stack = np.stack(mats)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps, offs = batch(stack, thr, max_sweeps)
    assert sweeps.shape == offs.shape == (len(mats),)
    for i, m in enumerate(mats):
        a = m.copy()
        s, off = _kernels_py.jacobi_sweeps(a, None, float(thr[i]), max_sweeps)
        assert (s, off) == (sweeps[i], offs[i])
        assert np.array_equal(a, stack[i])
        assert np.array_equal(np.signbit(a), np.signbit(stack[i]))
    return sweeps


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_batch_matches_scalar_on_random_stacks_of_mixed_n():
    rng = np.random.default_rng(2024)
    for n in (3, 4, 7, 12, 17):
        _assert_batch_matches_scalar([_random_symmetric(rng, n) for _ in range(9)])


def test_batch_matches_scalar_on_sparse_tree_matrices():
    from psombor.extremal import enumerate_trees
    from psombor.spectral import build_sombor_matrix

    rng = np.random.default_rng(9)
    trees = enumerate_trees(9).trees
    for p in (-1.0, 0.5, 2.0):
        mats = [build_sombor_matrix(t, p) for t in trees]
        # Relabelled copies: at each (p, q) some members have an edge and
        # others not, while the zero diagonal makes a skipped theta 0/0.
        for m in mats[:20]:
            perm = rng.permutation(9)
            mats.append(m[np.ix_(perm, perm)])
        _assert_batch_matches_scalar(mats)


def test_batch_keeps_signed_zeros_of_skipped_rotations():
    # Rows 0 and 1 of b are decoupled, so its -0.0 at (0, 1) is never
    # touched by the scalar kernel, while a rotates at (0, 1).
    rng = np.random.default_rng(4)
    a = _random_symmetric(rng, 4)
    b = np.diag([1.0, 2.0, 3.0, 4.0])
    b[0, 1] = b[1, 0] = -0.0
    b[2, 3] = b[3, 2] = 0.5
    _assert_batch_matches_scalar([a, b])


def test_batch_matches_scalar_on_huge_theta_branch():
    # Rotation (0, 1) comes first and sees theta = 1 / (2e-160) > 1e150,
    # while the (1, 2) entry keeps the off-diagonal norm above threshold.
    a = np.array([[0.0, 1e-160, 0.0], [1e-160, 1.0, 1.0], [0.0, 1.0, 3.0]])
    b = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.0], [0.1, 0.0, -1.0]])
    theta = (a[1, 1] - a[0, 0]) / (2.0 * a[0, 1])
    assert abs(theta) > 1e150
    _assert_batch_matches_scalar([a, b])


def test_batch_matches_scalar_on_tiny_stacks():
    rng = np.random.default_rng(8)
    _assert_batch_matches_scalar([_random_symmetric(rng, 6)])          # B = 1
    _assert_batch_matches_scalar([np.array([[2.5]]), np.array([[-1.0]])])  # n = 1
    _assert_batch_matches_scalar([_random_symmetric(rng, 2) for _ in range(4)]
                                 + [np.array([[1.0, 0.0], [0.0, 2.0]])])  # n = 2


def test_batch_members_stop_at_their_own_sweep():
    rng = np.random.default_rng(3)
    nearly_diagonal = np.diag([4.0, 3.0, 2.0, 1.0, 0.0])
    nearly_diagonal[0, 1] = nearly_diagonal[1, 0] = 1e-3
    mats = [np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), nearly_diagonal,
            _random_symmetric(rng, 5), _random_symmetric(rng, 5)]
    sweeps = _assert_batch_matches_scalar(mats)
    assert sweeps[0] == 0
    assert len(set(sweeps.tolist())) >= 3


def test_batch_stops_at_max_sweeps_like_scalar():
    rng = np.random.default_rng(11)
    mats = [_random_symmetric(rng, 8) for _ in range(5)]
    sweeps = _assert_batch_matches_scalar(mats, max_sweeps=2)
    assert (sweeps == 2).all()


def test_per_slice_batch_matches_vectorised_batch():
    from psombor.backend import jacobi_sweeps_per_slice

    rng = np.random.default_rng(12)
    mats = [_random_symmetric(rng, 7) for _ in range(6)]
    _assert_batch_matches_scalar(mats, batch=jacobi_sweeps_per_slice)
