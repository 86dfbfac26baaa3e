"""The Jacobi kernel: a batch member equals the B = 1 solve of the same
kernel bit for bit, the round-robin schedule, and property tests of the
eigensolver built on it against LAPACK as an oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from psombor import backend, config
from psombor.graphs import random_gnm
from psombor.spectral import build_sombor_matrix, eigen_decompose, eigen_decompose_many


# --- one kernel: a batch member equals its B = 1 solve bit for bit ---

def _thresholds(mats):
    return np.array([1e-12 * float(np.linalg.norm(m)) for m in mats])


def _assert_batch_matches_single(mats, max_sweeps=100):
    """Run the kernel on a member-last stack of mats and, as its B = 1 call
    (jacobi_sweeps), on each member alone; every output must agree bit for
    bit, so no member's result depends on the stack it is in. Returns the
    sweeps."""
    thr = _thresholds(mats)
    stack = np.stack(mats, axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps, offs = backend.jacobi_sweeps_batch(stack, thr, max_sweeps)
    assert sweeps.shape == offs.shape == (len(mats),)
    for i, m in enumerate(mats):
        a = m.copy()
        s, off = backend.jacobi_sweeps(a, None, float(thr[i]), max_sweeps)
        assert (s, off) == (sweeps[i], offs[i])
        assert np.array_equal(a, stack[:, :, i])
        assert np.array_equal(np.signbit(a), np.signbit(stack[:, :, i]))
    return sweeps


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_batch_matches_scalar_on_random_stacks_of_mixed_n():
    rng = np.random.default_rng(2024)
    for n in (3, 4, 7, 12, 17):
        _assert_batch_matches_single([_random_symmetric(rng, n) for _ in range(9)])


def test_batch_matches_scalar_on_sparse_tree_matrices():
    from psombor.extremal import enumerate_trees

    rng = np.random.default_rng(9)
    for n in (9, 11):
        trees = enumerate_trees(n).trees
        for p in (-1.0, 0.5, 2.0):
            mats = [build_sombor_matrix(t, p) for t in trees]
            # Relabelled copies: at each (p, q) some members have an edge and
            # others not, while the zero diagonal makes a skipped theta 0/0.
            for m in mats[:40]:
                perm = rng.permutation(n)
                mats.append(m[np.ix_(perm, perm)])
            sweeps = _assert_batch_matches_single(mats)
            assert len(set(sweeps.tolist())) > 1
    # n = 11 gives 275 members, more than one stack used to hold.
    assert len(mats) > 256


def test_batch_keeps_signed_zeros_of_skipped_rotations():
    # Rows 0 and 1 of b are decoupled (a -0.0 at (0, 1)), so b skips every
    # rotation that a makes there and keeps its diagonal 1 and 2 exactly.
    rng = np.random.default_rng(4)
    a = _random_symmetric(rng, 4)
    b = np.diag([1.0, 2.0, 3.0, 4.0])
    b[0, 1] = b[1, 0] = -0.0
    b[2, 3] = b[3, 2] = 0.5
    _assert_batch_matches_single([a, b])
    stack = np.stack([a, b], axis=-1)
    backend.jacobi_sweeps_batch(stack, _thresholds([a, b]), 100)
    assert stack[0, 0, 1] == 1.0 and stack[1, 1, 1] == 2.0


def test_batch_matches_scalar_on_huge_theta_branch():
    # The first round's pair (p, q) sees theta = 1 / (2e-160) > 1e150, while
    # the entry coupling the third index keeps the off-diagonal norm above
    # threshold.
    p, q = sorted(backend._schedule(3).perm[:2])
    (r,) = set(range(3)) - {p, q}
    a = np.diag([0.0, 0.0, 0.0])
    a[q, q] = 1.0
    a[p, q] = a[q, p] = 1e-160
    a[q, r] = a[r, q] = 1.0
    a[r, r] = 3.0
    b = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.0], [0.1, 0.0, -1.0]])
    theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
    assert abs(theta) > 1e150
    _assert_batch_matches_single([a, b])
    dec = eigen_decompose(a)
    assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(a)[::-1]).max() <= 1e-15 * dec.scale


def test_batch_matches_scalar_on_tiny_stacks():
    rng = np.random.default_rng(8)
    _assert_batch_matches_single([_random_symmetric(rng, 6)])          # B = 1
    _assert_batch_matches_single([np.array([[2.5]]), np.array([[-1.0]])])  # n = 1
    _assert_batch_matches_single([_random_symmetric(rng, 2) for _ in range(4)]
                                 + [np.array([[1.0, 0.0], [0.0, 2.0]])])  # n = 2


def test_batch_members_stop_at_their_own_sweep():
    rng = np.random.default_rng(3)
    nearly_diagonal = np.diag([4.0, 3.0, 2.0, 1.0, 0.0])
    nearly_diagonal[0, 1] = nearly_diagonal[1, 0] = 1e-3
    mats = [np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), nearly_diagonal,
            _random_symmetric(rng, 5), _random_symmetric(rng, 5)]
    sweeps = _assert_batch_matches_single(mats)
    assert sweeps[0] == 0
    assert len(set(sweeps.tolist())) >= 3


def test_batch_rotates_contiguous_member_last_stacks(monkeypatch):
    # Every round sees a C-contiguous flat (n * n, B) sub-stack, also after
    # members leave it, so entry (i, j) of all members stays one contiguous
    # row.
    contiguous = []
    rotate = backend._rotate_round

    def recording_rotate(work, n, schedule):
        contiguous.append(work.flags.c_contiguous and work.shape[0] == n * n)
        rotate(work, n, schedule)

    monkeypatch.setattr(backend, "_rotate_round", recording_rotate)
    nearly_diagonal = np.diag([4.0, 3.0, 2.0, 1.0, 0.0])
    nearly_diagonal[0, 1] = nearly_diagonal[1, 0] = 1e-3
    rng = np.random.default_rng(4)
    mats = [np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), nearly_diagonal]
    mats += [_random_symmetric(rng, 5) for _ in range(6)]
    sweeps = _assert_batch_matches_single(mats)
    assert sweeps[0] == 0 and len(set(sweeps.tolist())) >= 3
    assert contiguous and all(contiguous)


@pytest.mark.parametrize("n", range(0, 14))
def test_schedule_visits_every_pair_once_per_sweep(n):
    # n - 1 rounds of n // 2 disjoint pairs (n rounds for odd n), each pair
    # once, and the sweep ends in the input order.
    schedule = backend._schedule(n)
    perm = schedule.perm
    assert schedule.rounds == (0 if n < 2 else n - 1 + n % 2)
    assert np.array_equal(schedule.gather, (perm[:, None] * n + perm).ravel())
    layout, met = np.arange(n), []
    for _ in range(schedule.rounds):
        layout = layout[perm]
        met += [tuple(sorted((layout[j], layout[j + n // 2]))) for j in range(n // 2)]
    assert sorted(met) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert np.array_equal(layout, np.arange(n))


def test_vector_stack_members_equal_single_solves():
    rng = np.random.default_rng(21)
    mats = [_random_symmetric(rng, 7) for _ in range(4)] + [np.diag(np.arange(7.0))]
    stack, vectors = np.stack(mats, axis=-1), np.stack([np.eye(7)] * 5, axis=-1)
    sweeps, offs = backend.jacobi_sweeps_batch(stack, _thresholds(mats), 100, vectors)
    for i, m in enumerate(mats):
        a, v = m.copy(), np.eye(7)
        assert backend.jacobi_sweeps(a, v, float(_thresholds([m])[0]), 100) == (sweeps[i], offs[i])
        assert np.array_equal(a, stack[:, :, i]) and np.array_equal(v, vectors[:, :, i])
        assert np.abs(m @ v - v * np.diag(a)).max() <= config.VECTOR_RESIDUAL_FACTOR * np.linalg.norm(m)


def test_batch_stops_at_max_sweeps_like_scalar():
    rng = np.random.default_rng(11)
    mats = [_random_symmetric(rng, 8) for _ in range(5)]
    sweeps = _assert_batch_matches_single(mats, max_sweeps=2)
    assert (sweeps == 2).all()
    # A member converged from the start stays out of the sub-stack the kernel
    # solves; the others must still be written back when they run out of sweeps.
    sweeps = _assert_batch_matches_single(mats + [np.diag(np.arange(8.0))], max_sweeps=2)
    assert sweeps.tolist() == [2, 2, 2, 2, 2, 0]


def test_many_solves_each_size_in_one_batch_call(monkeypatch):
    import psombor.spectral as spectral

    calls = []
    batch = spectral.jacobi_sweeps_batch

    def counting_batch(stack, *args):
        calls.append(stack.shape)
        return batch(stack, *args)

    monkeypatch.setattr(spectral, "jacobi_sweeps_batch", counting_batch)
    rng = np.random.default_rng(12)
    mats = [_random_symmetric(rng, 6) for _ in range(600)]
    for at in (0, 300, 600):
        mats.insert(at, _random_symmetric(rng, 4))
    specs = [(m, "p_sombor", 2.0) for m in mats]
    decs = eigen_decompose_many(specs)
    assert sorted(calls) == [(4, 4, 3), (6, 6, 600)]
    for m, many in zip(mats, decs):
        one = eigen_decompose(m, False, "p_sombor", 2.0)
        assert many.to_dict() == one.to_dict()
        assert np.array_equal(np.signbit(many.eigenvalues), np.signbit(one.eigenvalues))


# --- property tests: the eigensolver against LAPACK as an oracle ---

# Entries mix exact zeros and a few repeated values (sparse and degenerate
# spectra) with arbitrary floats of moderate size.
_ENTRIES = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, -1.0, 2.0, 0.5]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def symmetric_matrices(draw, sizes=st.integers(1, 12)):
    n = draw(sizes)
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = draw(arrays(np.float64, n * (n + 1) // 2, elements=_ENTRIES))
    return a + np.triu(a, 1).T


def _settings(max_examples):
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=max_examples)


@_settings(100)
@given(symmetric_matrices())
def test_eigenvalues_match_lapack(m):
    dec = eigen_decompose(m)
    oracle = np.linalg.eigvalsh(m)[::-1]
    assert np.abs(dec.eigenvalues - oracle).max() <= 1e-12 * dec.scale


@_settings(100)
@given(symmetric_matrices())
def test_eigenvectors_have_small_residuals(m):
    dec = eigen_decompose(m, want_vectors=True)
    residuals = np.linalg.norm(m @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues,
                               axis=0)
    assert residuals.max() <= config.VECTOR_RESIDUAL_FACTOR * dec.scale


@pytest.mark.parametrize("source", ("random", "sombor"))
def test_n128_decomposition_with_vectors_matches_lapack(source):
    # A single solve of a size the batched workloads never reach, with
    # eigenvectors: LAPACK eigenvalues, residuals under
    # VECTOR_RESIDUAL_FACTOR and orthonormal columns.
    n = 128
    if source == "random":
        m = _random_symmetric(np.random.default_rng(128), n)
    else:
        m = build_sombor_matrix(random_gnm(n, 1600, 128), 2.0)
    dec = eigen_decompose(m, want_vectors=True)
    assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(m)[::-1]).max() <= 1e-12 * dec.scale
    v = dec.eigenvectors
    residuals = np.linalg.norm(m @ v - v * dec.eigenvalues, axis=0)
    assert residuals.max() <= config.VECTOR_RESIDUAL_FACTOR * dec.scale
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12


@st.composite
def mixed_size_stacks(draw):
    # A few sizes shared by up to eight matrices, so that the batched kernel
    # gets stacks of several members next to singletons.
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    return draw(st.lists(symmetric_matrices(st.sampled_from(sizes)),
                         min_size=1, max_size=8))


@_settings(60)
@given(mixed_size_stacks())
def test_batched_decompositions_equal_scalar_ones(mats):
    specs = [(m, "p_sombor", 2.0) for m in mats]
    for m, many in zip(mats, eigen_decompose_many(specs)):
        one = eigen_decompose(m, False, "p_sombor", 2.0)
        assert many.to_dict() == one.to_dict()
        assert np.array_equal(many.eigenvalues, one.eigenvalues)
        assert np.array_equal(np.signbit(many.eigenvalues), np.signbit(one.eigenvalues))
