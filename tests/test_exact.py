"""Exact rational-arithmetic oracles for the polynomial layer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeemanzones.exact import (QC, ZonePoly, apply_box, box_eigenvalue_exact,
                               box_field_constant, gaussian_pair_integral_exact,
                               hermite_scaled_exact,
                               laguerre_composition_check,
                               laguerre_exact, laguerre_recurrence_exact,
                               padd, pderiv, peval, pmul, pscale, psub, ptrim,
                               rodrigues_check)


# ---------------------------------------------------------------------------
# univariate polynomial plumbing
# ---------------------------------------------------------------------------

def test_peval_matches_horner():
    # [TRIVIAL] 1 + 2t + 3t^2 at t = 1/2 -> 1 + 1 + 3/4
    p = [Fraction(1), Fraction(2), Fraction(3)]
    assert peval(p, Fraction(1, 2)) == Fraction(11, 4)


def test_pderiv_product_rule():
    a = [Fraction(1), Fraction(-2), Fraction(1)]
    b = [Fraction(0), Fraction(3)]
    lhs = pderiv(pmul(a, b))
    rhs = padd(pmul(pderiv(a), b), pmul(a, pderiv(b)))
    assert ptrim(lhs) == ptrim(rhs)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_pmul_commutes(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    assert ptrim(pmul(a, b)) == ptrim(pmul(b, a))


# ---------------------------------------------------------------------------
# Laguerre identities (exact)
# ---------------------------------------------------------------------------

def test_laguerre_small_table():
    # [DERIVED] L_0^a = 1, L_1^a = 1 + a - t, L_2^0 = 1 - 2t + t^2/2
    assert laguerre_exact(0, 0) == [Fraction(1)]
    assert laguerre_exact(2, 1) == [Fraction(3), Fraction(-1)]
    assert laguerre_exact(0, 2) == [Fraction(1), Fraction(-2), Fraction(1, 2)]


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("n", range(9))
def test_recurrence_matches_explicit(alpha, n):
    assert laguerre_recurrence_exact(alpha, n) == laguerre_exact(alpha, n)


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("n", range(1, 9))
def test_rodrigues(alpha, n):
    assert rodrigues_check(alpha, n)


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("n", range(7))
def test_composition(alpha, n):
    assert laguerre_composition_check(alpha, n)


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("n", range(1, 9))
def test_derivative_lowers_alpha(alpha, n):
    # d/dt L_n^{(alpha)} = -L_{n-1}^{(alpha+1)}
    lhs = ptrim(pderiv(laguerre_exact(alpha, n)))
    rhs = ptrim(pscale(laguerre_exact(alpha + 1, n - 1), Fraction(-1)))
    assert lhs == rhs


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("n", range(9))
def test_alpha_sum(alpha, n):
    # L_n^{(alpha+1)} = sum_{i<=n} L_i^{(alpha)}
    acc = [Fraction(0)]
    for i in range(n + 1):
        acc = padd(acc, laguerre_exact(alpha, i))
    assert ptrim(acc) == ptrim(laguerre_exact(alpha + 1, n))


def test_hermite_exact_table():
    # [TRIVIAL] physicists' H_0..H_3
    assert hermite_scaled_exact(0, 1) == [Fraction(1)]
    assert hermite_scaled_exact(1, 1) == [Fraction(0), Fraction(2)]
    assert hermite_scaled_exact(3, 1) == [Fraction(0), Fraction(-12),
                                          Fraction(0), Fraction(8)]


# ---------------------------------------------------------------------------
# zone polynomials and the box operator
# ---------------------------------------------------------------------------

def test_apply_box_on_constant():
    # Box(const * gaussian) = -(k lam + c_f) const in the polynomial gauge
    h = ZonePoly.constant(1, 3)
    out = apply_box(h, 1, 0)
    assert out == h * QC.of(-2)


def test_apply_box_monomial_eigen():
    # z^p is a holomorphic eigenvector: eigenvalue -( (4p+k) lam + c_f )
    lam, cf = Fraction(2), box_field_constant(Fraction(2), 2)
    for p in range(5):
        h = ZonePoly.constant(1)
        for _ in range(p):
            h = h * ZonePoly.z(1, 0)
        mu = box_eigenvalue_exact(p, lam, 2, cf)
        # apply_box keeps only the lam-dependent ladder terms on monomials
        assert apply_box(h, lam, cf) == h * QC.of(mu)


def test_gaussian_pair_integral_orthogonality():
    # z and zbar are orthogonal under the weighted pairing; |z|^2 norm 1/lam^2
    z = ZonePoly.z(1, 0)
    zb = ZonePoly.zbar(1, 0)
    lam = Fraction(3)
    assert gaussian_pair_integral_exact(z, zb, lam) == 0
    got = gaussian_pair_integral_exact(z, z, lam)
    assert got == QC.of(Fraction(1, 9))


def test_gaussian_pair_integral_vs_numeric():
    # cross-check the exact rational pairing against a numeric Gauss rule
    from zeemanzones.quadrature import QuadRule, tree_sum
    lam = Fraction(2)
    f = ZonePoly.z(1, 0) * ZonePoly.zbar(1, 0) + ZonePoly.constant(1, 2)
    exact = float(gaussian_pair_integral_exact(f, f, lam)) * np.pi
    U, w = QuadRule(24, (2.0, 2.0)).nodes_weights()
    z = U[:, 0] + 1j * U[:, 1]
    vals = np.abs(z * np.conj(z) + 2) ** 2
    num = tree_sum(w * vals * np.exp(-2.0 * (U ** 2).sum(axis=1)))
    assert abs(num - exact) < 1e-12


def test_zone_poly_refuses_floats():
    # coefficients enter through QC.of, so a float never reaches the ring
    one = ((0,), (0,))
    h = ZonePoly.constant(1, 3)
    for call in (lambda: ZonePoly(1, {one: 0.5}),
                 lambda: ZonePoly.constant(1, 0.5),
                 lambda: h * 0.5,
                 lambda: 0.5 * h,
                 lambda: apply_box(h, 1.0, 0)):
        with pytest.raises(TypeError, match="exact rational"):
            call()
    assert QC.of(2) == Fraction(2) and QC.of(Fraction(1, 3)) == Fraction(1, 3)
