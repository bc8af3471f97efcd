"""Integrator unit tests: tableau integrity, accuracy, failure state."""

import math

import numpy as np
import pytest

from shwave import rk
from shwave.errors import IntegrationError

# exact Dormand-Prince rationals the unrolled step must reproduce
A4 = [44 / 45, -56 / 15, 32 / 9]
A5 = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
A6 = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
B = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def test_tableau_matches_fractions():
    assert np.allclose(rk._A[2], A4, rtol=0, atol=0)
    assert np.allclose(rk._A[3], A5, rtol=0, atol=0)
    assert np.allclose(rk._A[4], A6, rtol=0, atol=0)
    assert np.allclose(rk._B, B, rtol=0, atol=0)
    assert np.allclose(rk._E, E, rtol=0, atol=0)


def test_exponential_decay():
    res = rk.solve(lambda t, y: -y, 0.0, np.array([1.0]), 3.0,
                   rtol=1e-12, atol=1e-14)
    assert abs(res.y[0] - math.exp(-3.0)) < 1e-11


def test_oscillator():
    def f(t, y):
        return np.array([y[1], -y[0]])

    res = rk.solve(f, 0.0, np.array([1.0, 0.0]), 7.0, rtol=1e-11,
                   atol=1e-13)
    assert abs(res.y[0] - math.cos(7.0)) < 1e-9


def test_backward_integration():
    res = rk.solve(lambda t, y: y, 2.0, np.array([math.e ** 2]), 0.0,
                   rtol=1e-12, atol=1e-14)
    assert abs(res.y[0] - 1.0) < 1e-10


def test_vector_batch_elementwise_control():
    rates = np.array([0.1, 1.0, 10.0, 55.0])
    res = rk.solve(lambda t, y: -rates * y, 0.0, np.ones(4), 1.0,
                   rtol=1e-10, atol=1e-13)
    assert np.max(np.abs(res.y - np.exp(-rates))) < 1e-9


def test_nonfinite_rhs_raises_with_state():
    def f(t, y):
        return np.array([float("nan")]) if t > 0.5 else np.array([1.0])

    with pytest.raises(IntegrationError) as exc:
        rk.solve(f, 0.0, np.array([0.0]), 1.0)
    assert exc.value.last_state is not None
    t_last, y_last = exc.value.last_state
    assert t_last <= 0.5 + 1e-6


def test_zero_span():
    res = rk.solve(lambda t, y: y, 1.0, np.array([2.0]), 1.0)
    assert res.y[0] == 2.0
