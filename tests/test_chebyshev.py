"""Tests for the second-kind Chebyshev recurrence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_chebyu

from trigsum import DegreeTooLarge, chebyshev_u, u_sequence
from trigsum.chebyshev import MAX_DEGREE


@pytest.mark.parametrize("x", [-2.0, -1.0, -0.3, 0.0, 0.5, 1.0, 7.5])
def test_degree_zero_is_one(x):
    assert chebyshev_u(0, x) == 1.0


def test_degree_one_is_2x():
    assert chebyshev_u(1, 0.3) == 0.6
    assert chebyshev_u(1, -1.0) == -2.0


def test_u2_at_one():
    # 4x^2 - 1 at x = 1
    assert chebyshev_u(2, 1.0) == 3.0


def test_u3_at_cos_pi_over_6():
    # 8x^3 - 4x at x = sqrt(3)/2 collapses to sqrt(3)
    x = math.cos(math.pi / 6)
    assert chebyshev_u(3, x) == pytest.approx(math.sqrt(3), abs=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 17, 64, 150])
def test_matches_reference_implementation(degree):
    xs = np.linspace(-1.0, 1.0, 41)
    ours = np.array([chebyshev_u(degree, float(x)) for x in xs])
    ref = eval_chebyu(degree, xs)
    scale = np.maximum(1.0, np.abs(ref))
    assert np.max(np.abs(ours - ref) / scale) < 1e-10


def test_ndarray_input_matches_scalar():
    xs = np.linspace(-1.0, 1.0, 101)
    vec = chebyshev_u(25, xs)
    assert isinstance(vec, np.ndarray)
    scalar = np.array([chebyshev_u(25, float(x)) for x in xs])
    assert np.array_equal(vec, scalar)


def test_u_sequence_matches_per_degree_calls():
    seq = u_sequence(40, 0.37)
    assert len(seq) == 41
    for degree, value in enumerate(seq):
        assert value == chebyshev_u(degree, 0.37)


def test_u_sequence_ndarray():
    xs = np.linspace(-0.9, 0.9, 7)
    seq = u_sequence(10, xs)
    assert len(seq) == 11
    for degree, values in enumerate(seq):
        assert np.array_equal(values, chebyshev_u(degree, xs))


def test_degree_validation():
    with pytest.raises(ValueError):
        chebyshev_u(-1, 0.5)
    with pytest.raises(DegreeTooLarge):
        chebyshev_u(MAX_DEGREE + 1, 0.5)
    with pytest.raises(DegreeTooLarge):
        u_sequence(MAX_DEGREE + 1, 0.5)
    # 8x^3 - 4x at x = 2
    assert chebyshev_u(3, 2.0) == pytest.approx(56.0)


@given(st.integers(1, 200), st.floats(-1.0, 1.0))
@settings(deadline=None)
def test_recurrence_consistency(n, x):
    # U_{n+1} + U_{n-1} = 2x U_n, relative to the largest participating term
    seq = u_sequence(n + 1, x)
    lhs = seq[n + 1] + seq[n - 1]
    rhs = 2.0 * x * seq[n]
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@given(st.integers(0, 200), st.floats(-1.5, 1.5))
@settings(deadline=None)
def test_parity(n, x):
    direct = chebyshev_u(n, -x)
    mirrored = (-1.0) ** n * chebyshev_u(n, x)
    scale = max(1.0, abs(direct), abs(mirrored))
    assert abs(direct - mirrored) <= 1e-12 * scale


def test_ratio_identity_on_guarded_grid():
    # U_{n-1}(cos a) sin a reproduces sin(n a) within 1e-10 * n
    alphas = np.linspace(0.0, 2.0 * math.pi, 1002)[1:-1]
    mask = np.abs(np.sin(alphas)) >= 1e-3
    alphas = alphas[mask]
    sin_a = np.sin(alphas)
    cos_a = np.cos(alphas)
    seq = u_sequence(99, cos_a)
    for n in range(1, 101):
        residual = np.max(np.abs(seq[n - 1] * sin_a - np.sin(n * alphas)))
        assert residual <= 1e-10 * n
