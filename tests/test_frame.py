"""The frame's helpers give what Python's scalar arithmetic gives, row by row:
the same values (NaN, signed zeros and infinities included) and the same
exceptions."""

import math

import numpy as np
import pytest

from psombor.bounds import contexts
from psombor.frame import Frame, divide, exp, maximum, minimum, power, sqrt
from psombor.graphs import Graph

NAN, INF = math.nan, math.inf
VALUES = [0.0, -0.0, 1.0, -2.5, 3e-320, 1e300, INF, -INF, NAN]


def _same(got, expected):
    """Equal lists of floats by repr, so that nan, -0.0 and inf count."""
    return [repr(float(x)) for x in got] == [repr(float(x)) for x in expected]


def _pairs():
    a = np.array([x for x in VALUES for _ in VALUES])
    b = np.array([y for _ in VALUES for y in VALUES])
    return a, b


def test_maximum_and_minimum_pick_as_python():
    a, b = _pairs()
    with np.errstate(all="ignore"):
        assert _same(maximum(a, b), [max(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert _same(minimum(a, b), [min(x, y) for x, y in zip(a.tolist(), b.tolist())])
        # a scalar floor, as the table writes max(0.0, x)
        assert _same(maximum(0.0, b), [max(0.0, y) for y in b.tolist()])


def test_power_and_exp_match_python_and_raise_as_it_does():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 50.0, 2000)
    assert _same(power(x, 0.25), [v ** 0.25 for v in x.tolist()])
    assert _same(power(x, 3), [v ** 3 for v in x.tolist()])
    assert _same(exp(x), [math.exp(v) for v in x.tolist()])
    with pytest.raises(OverflowError):
        power(np.array([1.0, 1e200]), 2)
    with pytest.raises(OverflowError):
        exp(np.array([1.0, 710.0]))


def test_sqrt_and_divide_raise_where_python_does():
    x = np.array(VALUES[:4] + [INF, NAN])
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            sqrt(x)
        ok = x[x >= 0]
        assert _same(sqrt(ok), [math.sqrt(v) for v in ok.tolist()])
        with pytest.raises(ZeroDivisionError):
            divide(np.array([1.0, 2.0]), np.array([4.0, -0.0]))
        assert _same(divide(np.array([1.0, -INF]), np.array([3.0, 2.0])), [1.0 / 3.0, -INF])


def test_pow2_raises_only_for_a_p_of_its_rows():
    # K1 has no edge, so its contexts exist at any p; 2^(1 + 3/p) overflows
    # at p = 0.002 and is 2^2.5 at p = 2.
    frame = Frame(contexts([("K1", Graph(1))], (0.002, 2.0))[0])
    with pytest.raises(OverflowError):
        frame.pow2(1, 3.0)
    at_two = Frame(contexts([("K1", Graph(1))], (2.0,))[0])
    assert at_two.pow2(1, 3.0).tolist() == [2.0 ** (1 + 3.0 / 2.0)]
    assert at_two.root.tolist() == [2.0 ** (1.0 / 2.0)]
