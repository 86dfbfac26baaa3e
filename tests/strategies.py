"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from psombor.graphs import Graph


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    """Any simple graph on 1..max_n vertices, isolated vertices included."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


# Finite nonzero p from both sides of 0.
nonzero_p = st.builds(lambda a, sign: sign * a, st.floats(0.1, 10.0),
                      st.sampled_from([1.0, -1.0]))


@st.composite
def circulants(draw, max_n: int = 12) -> Graph:
    """A circulant C_n(S): i ~ i +- s (mod n) for each jump s in a nonempty
    S within 1..n/2; regular of degree 2|S|, or one less when n/2 is in S."""
    n = draw(st.integers(2, max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in jumps])
