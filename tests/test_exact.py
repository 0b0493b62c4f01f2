"""Exact rational-arithmetic oracles for the polynomial layer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeemanzones.exact import (QC, ZonePoly, _poly_subst, apply_box,
                               box_eigenvalue_exact, box_field_constant,
                               gaussian_pair_integral_exact,
                               hermite_scaled_exact,
                               laguerre_composition_check,
                               laguerre_exact, laguerre_recurrence_exact,
                               rodrigues_check)


# ---------------------------------------------------------------------------
# polynomials in one variable: ring laws on ZonePoly
# ---------------------------------------------------------------------------

def test_poly_subst_at_a_constant_is_horner():
    # [TRIVIAL] 1 + 2t + 3t^2 at t = 1/2 -> 1 + 1 + 3/4, in one and two variables
    p = ZonePoly.univariate([1, 2, 3])
    for nvars in (1, 2):
        got = _poly_subst(p, ZonePoly.constant(nvars, Fraction(1, 2)))
        assert got == ZonePoly.constant(nvars, Fraction(11, 4))


def test_diff_z_product_rule():
    a = ZonePoly.univariate([1, -2, 1])
    b = ZonePoly.univariate([0, 3])
    assert (a * b).diff_z(0) == a.diff_z(0) * b + a * b.diff_z(0)
    # in two variables, d/dz_0 of a product mixing z_0, z_1 and zbar_0
    z0, z1, zb0 = ZonePoly.z(2, 0), ZonePoly.z(2, 1), ZonePoly.zbar(2, 0)
    f = z0 * z0 * zb0 + z1 * 3
    g = z0 * z1 + zb0 * -2 + ZonePoly.constant(2, Fraction(1, 5))
    assert (f * g).diff_z(0) == f.diff_z(0) * g + f * g.diff_z(0)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_univariate_products_commute(a, b):
    a, b = ZonePoly.univariate(a), ZonePoly.univariate(b)
    assert a * b == b * a


def test_coeffs_needs_a_polynomial_in_z_alone():
    assert ZonePoly.univariate([0, 0, 0]).coeffs() == [Fraction(0)]
    assert ZonePoly.univariate([1, 0, 2, 0]).coeffs() == [1, 0, 2]
    for p in (ZonePoly.zbar(1, 0), ZonePoly.z(1, 0) * ZonePoly.zbar(1, 0),
              ZonePoly.z(2, 0), ZonePoly.constant(2)):
        with pytest.raises(ValueError, match="one z alone"):
            p.coeffs()


# ---------------------------------------------------------------------------
# Laguerre identities (exact)
# ---------------------------------------------------------------------------

def test_laguerre_small_table():
    # [DERIVED] L_0^a = 1, L_1^a = 1 + a - t, L_2^0 = 1 - 2t + t^2/2
    assert laguerre_exact(0, 0).coeffs() == [Fraction(1)]
    assert laguerre_exact(2, 1).coeffs() == [Fraction(3), Fraction(-1)]
    assert laguerre_exact(0, 2).coeffs() == [Fraction(1), Fraction(-2), Fraction(1, 2)]


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
    lhs = laguerre_exact(alpha, n).diff_z(0)
    rhs = laguerre_exact(alpha + 1, n - 1) * Fraction(-1)
    assert lhs == rhs


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("n", range(9))
def test_alpha_sum(alpha, n):
    # L_n^{(alpha+1)} = sum_{i<=n} L_i^{(alpha)}
    acc = ZonePoly(1)
    for i in range(n + 1):
        acc = acc + laguerre_exact(alpha, i)
    assert acc == laguerre_exact(alpha + 1, n)


def test_hermite_exact_table():
    # [TRIVIAL] physicists' H_0..H_3
    assert hermite_scaled_exact(0, 1).coeffs() == [Fraction(1)]
    assert hermite_scaled_exact(1, 1).coeffs() == [Fraction(0), Fraction(2)]
    assert hermite_scaled_exact(3, 1).coeffs() == [Fraction(0), Fraction(-12),
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
                 lambda: ZonePoly.univariate([1, 0.5]),
                 lambda: h * 0.5,
                 lambda: 0.5 * h,
                 lambda: apply_box(h, 1.0, 0)):
        with pytest.raises(TypeError, match="exact rational"):
            call()
    assert QC.of(2) == Fraction(2) and QC.of(Fraction(1, 3)) == Fraction(1, 3)
