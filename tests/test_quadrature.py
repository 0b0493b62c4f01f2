"""Tensor Gauss-Hermite rules: exactness, determinism, failure modes."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeemanzones import quadrature
from zeemanzones.quadrature import (BLOCK_NODES, MAX_DEGREE,
                                    NonFiniteIntegrand, QuadRule,
                                    QuadratureError, QuadratureNonConvergence,
                                    exact_value, gauss_hermite_rule, integrate,
                                    tree_sum)


def test_axis_rule_moments():
    # [TRIVIAL] Gaussian moments: int x^{2m} e^{-s x^2} dx
    rule = QuadRule(20, (2.0,))
    U, w = rule.nodes_weights()
    for m in range(6):
        ref = (math.gamma(m + 0.5) / 2.0 ** (m + 0.5))
        num = tree_sum(w * U[:, 0] ** (2 * m) * np.exp(-2.0 * U[:, 0] ** 2))
        assert abs(num - ref) < 1e-12 * max(1, abs(ref))


def test_polynomial_exactness_degree():
    # degree-n rule integrates weighted polynomials up to order 2n-1 exactly
    x, w = gauss_hermite_rule(5)
    for m in range(0, 10, 2):
        ref = math.gamma((m + 1) / 2)
        assert abs(np.sum(w * x ** m) - ref) < 1e-12 * ref


def test_tensor_rule_shape():
    rule = QuadRule(8, (1.0, 2.0, 1.0))
    U, w = rule.nodes_weights()
    assert U.shape == (512, 3) and w.shape == (512,)


def test_integrate_separable(p4):
    rule = QuadRule(16, p4.axis_lambdas())
    got = integrate(lambda U: np.exp(-(p4.axis_lambdas() * U ** 2).sum(axis=1)),
                    rule)
    ref = np.prod([np.sqrt(np.pi / s) for s in p4.axis_lambdas()])
    assert abs(got - ref) < 1e-13


def test_tree_sum_matches_fsum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=1000)
    assert abs(tree_sum(v) - math.fsum(v)) < 1e-11


@given(st.integers(2, 200))
def test_tree_sum_length_safety(n):
    v = np.ones(n)
    assert tree_sum(v) == pytest.approx(n)


def test_tree_sum_deterministic_under_repeat():
    rng = np.random.default_rng(3)
    v = rng.normal(size=777)
    assert tree_sum(v) == tree_sum(v.copy())


def test_nonfinite_integrand_raises():
    rule = QuadRule(8, (1.0,))
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda U: np.where(U[:, 0] > 0, np.inf, 1.0), rule)


def test_degree_cap():
    with pytest.raises(QuadratureError):
        QuadRule(MAX_DEGREE + 1, (1.0,))


def test_real_scales_keep_the_real_axis_rule():
    # complex-scale support must not perturb the real rule: nodes and
    # weights stay x / sqrt(s) and w e^{x^2} / sqrt(s), bit for bit
    x, w = gauss_hermite_rule(12)
    U, W = QuadRule(12, (2.0,)).nodes_weights()
    assert np.array_equal(U[:, 0], x / np.sqrt(2.0))
    assert np.array_equal(W, w * np.exp(x * x) / np.sqrt(2.0))


def test_nonpositive_real_scale_refused_before_nodes(monkeypatch):
    def no_nodes(degree):
        raise AssertionError("nodes built for an invalid rule")

    monkeypatch.setattr(quadrature, "gauss_hermite_rule", no_nodes)
    for scale in (0.0, -1.0, 2j, -0.5 + 1j):
        with pytest.raises(QuadratureError):
            QuadRule(4, (1.0, scale))


def _rotated_moment(A, c, m):
    # int (u - c)^m e^{-A (u - c)^2} du along the rotated contour
    if m % 2:
        return 0j
    return math.gamma((m + 1) / 2) / A ** ((m + 1) / 2)


def test_exact_value_rotated_polynomial():
    # p(u) e^{-A (u - c)^2} with complex A, c: the n-node rule centred at
    # c is exact up to degree 2n - 1, and the n + 2 check agrees
    A, c = 0.7 - 2.0j, 0.3 + 0.4j
    for m in range(6):
        got, delta = exact_value(lambda U: (U[:, 0] - c) ** m
                                 * np.exp(-A * (U[:, 0] - c) ** 2),
                                 (A,), m // 2 + 1, (c,))
        assert abs(got - _rotated_moment(A, c, m)) < 1e-14
        assert delta < 1e-14


def test_batched_centres_integrate_per_entry():
    A = 1.0 - 1.0j
    cs = np.array([[0.0], [0.5j], [1.0 - 0.2j]])
    got = integrate(lambda U: U[..., 0] ** 2 * np.exp(-A * U[..., 0] ** 2
                                                      + 2 * A * U[..., 0] * cs),
                    QuadRule(3, (A,), cs))
    # int u^2 e^{-A u^2 + 2 A c u} du = e^{A c^2} sqrt(pi / A) (c^2 + 1 / 2A)
    ref = (np.exp(A * cs[:, 0] ** 2) * np.sqrt(np.pi / A)
           * (cs[:, 0] ** 2 + 1 / (2 * A)))
    assert got.shape == (3,) and np.max(np.abs(got - ref)) < 1e-13


def test_exact_value_flags_nonpolynomial():
    # a discontinuity defeats the exactness argument; n and n + 2 disagree
    with pytest.raises(QuadratureNonConvergence):
        exact_value(lambda U: np.exp(-U[:, 0] ** 2) * np.sign(U[:, 0] - 0.37),
                    (1.0,), 8)


# ---------------------------------------------------------------------------
# blocks: integrate evaluates the grid one bounded block at a time
# ---------------------------------------------------------------------------

K4_SCALES = (0.5, 0.5 - 0.25j, 1.0, 1.0)
K4_C = np.array([0.4 - 0.2j, -0.3 + 0.1j, 0.2, 0.5j])


def _k4_rule(degree=24, centre=None):
    # 24^4 = 331,776 nodes: 24 blocks of 24^3; 12^4: 12 blocks of 12^3
    return QuadRule(degree, K4_SCALES, centre)


def _k4_gaussian(U):
    return np.exp(-np.sum(np.array(K4_SCALES) * U ** 2, axis=-1) + U @ K4_C)


def test_blocks_bound_the_nodes_per_batch_entry():
    centres = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, -0.2j, 0.3, 0.0]])
    for rule, batch in ((_k4_rule(), ()), (_k4_rule(centre=centres), (2,))):
        assert rule.degree ** rule.dim > BLOCK_NODES
        shapes = []

        def f(U):
            shapes.append(U.shape)
            return _k4_gaussian(U)

        integrate(f, rule)
        assert shapes == [batch + (24 ** 3, 4)] * 24


@pytest.mark.parametrize("rule", [
    _k4_rule(), _k4_rule(12, np.array([[0.0, 0.1, 0.2j, 0.0],
                                       [0.3, 0.0, 0.0, -0.1]]))])
def test_blocks_concatenate_to_the_grid_bit_for_bit(rule):
    U, w = rule.nodes_weights()
    nodes, weights = zip(*rule.blocks())
    assert len(nodes) == rule.degree
    assert np.concatenate(nodes, axis=-2).tobytes() == U.tobytes()
    assert np.concatenate(weights).tobytes() == w.tobytes()


def test_blocked_integral_matches_flat_tree_sum():
    rule = _k4_rule()
    U, w = rule.nodes_weights()
    flat = tree_sum(w * _k4_gaussian(U))
    assert abs(integrate(_k4_gaussian, rule) - flat) <= 1e-15 * abs(flat)


def test_one_block_is_bit_identical_to_flat_tree_sum():
    # 128^2 = BLOCK_NODES: the largest k=2 rule that is a single block
    rule = QuadRule(128, (1.0, 2.0 - 0.5j))
    assert len(list(rule.blocks())) == 1
    U, w = rule.nodes_weights()

    def f(U):
        return np.exp(-U[:, 0] ** 2 - (2.0 - 0.5j) * U[:, 1] ** 2 + 0.3 * U[:, 0])

    assert integrate(f, rule) == tree_sum(w * f(U))


def test_nonfinite_in_last_block_raises():
    calls = itertools.count(1)

    def f(U):
        v = _k4_gaussian(U)
        if next(calls) == 24:
            v[-1] = np.nan
        return v

    with pytest.raises(NonFiniteIntegrand):
        integrate(f, _k4_rule())
    assert next(calls) == 25


def test_k4_integral_memory_is_bounded_by_the_block():
    # the whole 24^4 grid with its temporaries at once takes about 69 MB
    tracemalloc.start()
    try:
        integrate(_k4_gaussian, _k4_rule())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6
