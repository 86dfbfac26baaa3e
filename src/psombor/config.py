"""Numerical tolerances used across the package, surfaced in one place.

Spectral tolerances are relative to the Frobenius norm ||M||_F of the matrix
at every scale, as Jacobi's accuracy guarantee is (Demmel & Veselic, SIMAX
13(4), 1992); bound-check tolerances are relative to max(1, |value|).
"""

# Jacobi eigensolver: sweep until the off-diagonal Frobenius norm falls below
# OFF_DIAG_FACTOR * ||M||_F (at every scale); give up after MAX_SWEEPS sweeps.
OFF_DIAG_FACTOR = 1e-12
MAX_SWEEPS = 100
# Input guard: spectrum and verify refuse a graph file with more than this many
# vertices before the graph is built, so that a header such as n=10000000000
# fails at once instead of allocating an adjacency set per vertex. 500 is a
# chosen cap, not a runtime bound: a solve costs O(n^3) per sweep. One solve
# with eigenvectors of a random G(n, 0.2) at p = 2 took 2.3 s at n = 256 and
# 23 s at n = 500 on a shared 2-core Xeon VM, so graphs near the cap still
# run for a while. Graphs built in code are not limited.
MAX_INPUT_VERTICES = 500

# run_suite cuts the corpus, in order, into frames whose matrix stacks hold at
# most SUITE_FRAME_ENTRIES float64 entries (4 MiB), counting (3k + 1) n^2 per
# graph of n vertices at k p values: S_p of the graph and of its complement
# and L_p at each p, and the adjacency matrix. A frame costs one evaluation
# per check whatever its size. contexts() solves the frame's graphs of each
# vertex count in stacks of at most SUITE_CHUNK_ENTRIES entries (512 KiB), one
# kernel call each; SUITE_CHUNK_ENTRIES cuts nothing else. A graph over a
# budget gets a frame or a stack of its own. Memory is bounded at a multiple
# of the budgets, not at them. During a solve the stack, decompose_stack's
# scaled copy, the kernel's working copy and its temporaries are live at once:
# 16 graphs of 40 vertices at 5 p, one frame of eight full stacks of 0.41 MB,
# peak at 3.4 MB under tracemalloc. Each stack's edge and weight arrays are
# built with that stack and dropped before it is solved. The frame's own state
# grows with its entries: one boolean adjacency block per stack (the structure
# columns are read from it), the spectra, and the columns of the checks.
# verify --corpus all at 5 p is 344,736 entries, one frame of 14 stacks, and
# run_suite's tracemalloc peak is 2.0, 2.5, 3.8 and 6.7 MB at stack budgets of
# 2^14, 2^15, 2^16 and 2^17 entries (3.3 MB with frames cut at 2^16 entries
# too, six of them).
SUITE_FRAME_ENTRIES = 2 ** 19
SUITE_CHUNK_ENTRIES = 2 ** 16

# Eigenvalue classification. At tiny |p| ||M||_F can be ~1e-49, so a floor of 1
# would count every eigenvalue as zero and merge them all into one cluster.
ZERO_TOL_FACTOR = 1e-8        # inertia: |eigenvalue| <= this * ||M||_F counts as zero
# distinct eigenvalues: a value within this * max(min(1, ||M||_F), |cluster
# value|) of the last cluster joins it
CLUSTER_GAP_FACTOR = 1e-7
VECTOR_RESIDUAL_FACTOR = 1e-10  # ||M v - lambda v|| acceptance when vectors built

# Bound verification.
HOLDS_REL_TOL = 1e-8          # slack >= -HOLDS_REL_TOL * max(1, |value|)
EQUALITY_REL_TOL = 1e-8       # |slack| below this counts as an attained equality

# Regression reproduction (published values carry ~4 significant figures).
COEFF_REL_TOL = 0.005         # slope / intercept
CORR_ABS_TOL = 5e-4           # Pearson R
OCTANE_MATCH_ATOL = 1e-3      # per-component (radius, energy) match

# Estrada index overflow guard: exp() of a larger radius overflows float64.
ESTRADA_EXP_LIMIT = 700.0

