"""Floating-point special functions against exact coefficients and scipy."""

import numpy as np
import pytest
import scipy.special as sps

from zeemanzones.exact import laguerre_exact
from zeemanzones.special import (gaussian_moment_integral, laguerre,
                                 laguerre_levels)


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("n", range(9))
def test_laguerre_vs_scipy(alpha, n):
    t = np.linspace(0.0, 6.0, 13)
    ref = sps.eval_genlaguerre(n, alpha, t)
    assert np.allclose(laguerre(alpha, n, t), ref, rtol=1e-12, atol=1e-12)


def test_laguerre_scalar_and_complex():
    v = laguerre(1, 3, 0.7)
    assert isinstance(v, float)
    vc = laguerre(1, 3, 0.7 + 0.2j)
    # recurrence continues analytically off the real axis
    coeffs = laguerre_exact(1, 3).coeffs()
    ref = sum(complex(c) * (0.7 + 0.2j) ** i for i, c in enumerate(coeffs))
    assert abs(vc - ref) < 1e-12


def test_laguerre_scalar_types_every_n():
    # a complex scalar gives a complex for every n, n = 0 included
    for n in range(3):
        assert type(laguerre(0, n, 1 + 1j)) is complex
        assert type(laguerre(0, n, 0.5)) is float
    assert laguerre(0, 0, 1 + 1j) == 1


@pytest.mark.parametrize("alpha", range(3))
def test_laguerre_homogeneous_form(alpha):
    # eps^n L_n(t / eps) without dividing by eps; eps = 1 is bit-identical
    t = np.array([0.0, 0.3 + 0.1j, 2.5 - 1.0j])
    eps = 0.6 * np.exp(0.4j)
    for n in range(7):
        ref = eps ** n * laguerre(alpha, n, t / eps)
        got = laguerre(alpha, n, t, eps)
        assert np.max(np.abs(got - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))
        assert np.array_equal(laguerre(alpha, n, t, 1.0), laguerre(alpha, n, t))
    # at eps = 0 only the top coefficient survives: (-t)^n / n!
    assert laguerre(alpha, 4, 0.7, 0.0) == pytest.approx(0.7 ** 4 / 24)


@pytest.mark.parametrize("t", [np.array([[0.0, 0.3], [2.5, 7.0]]),
                               np.array([0.3 + 0.1j, 2.5 - 1.0j]), 0.7,
                               0.3 + 0.1j])
def test_laguerre_levels_are_laguerre(t):
    # one pass yields every level laguerre gives, bit for bit, with M_0 the
    # scalar 1.0 and a scalar t's levels Python scalars
    for eps in (1.0, 0.6 * np.exp(0.4j)):
        levels = list(laguerre_levels(2, 6, t, eps))
        assert len(levels) == 7 and levels[0] == 1.0
        for n, level in enumerate(levels[1:], start=1):
            assert type(level) is type(laguerre(2, n, t, eps))
            assert np.array_equal(level, laguerre(2, n, t, eps))


def test_gaussian_moment_real_oracle():
    # [TRIVIAL] int exp(-|Z|^2/2) dZ over R^2 = 2 pi
    assert np.isclose(gaussian_moment_integral(1.0, np.zeros(2)), 2 * np.pi)


def test_gaussian_moment_vs_quadrature():
    # complex A and C against a brute-force Gauss-Hermite evaluation
    from zeemanzones.quadrature import QuadRule, tree_sum
    A = 1.5 + 0.8j
    C = np.array([0.3 - 0.2j, 0.1 + 0.4j])
    U, w = QuadRule(48, (A.real / 2, A.real / 2)).nodes_weights()
    vals = np.exp(-0.5 * A * (U ** 2).sum(axis=1) + U @ C)
    num = tree_sum(w * vals)
    assert abs(num - gaussian_moment_integral(A, C)) < 1e-10


def test_gaussian_moment_rejects_decaying():
    with pytest.raises(ValueError):
        gaussian_moment_integral(-1.0, np.zeros(2))


@pytest.mark.parametrize("size", [1, 2, 5, 64])
@pytest.mark.parametrize("alpha", [0, 2])
def test_laguerre_work_buffers_same_bits(size, alpha):
    # in three work buffers each level keeps its bits, one-entry arrays
    # included (an in-place product rounds differently there), and the
    # last level is left in a buffer
    rng = np.random.default_rng(size)
    t = rng.normal(size=size) + 1j * rng.normal(size=size)
    work = np.empty((3, size), dtype=complex)
    for eps in (1.0, 0.6 * np.exp(0.4j)):
        for n in range(1, 9):
            got = laguerre(alpha, n, t, eps, work)
            assert np.array_equal(got, laguerre(alpha, n, t, eps))
            assert np.shares_memory(got, work)
