"""Spectra, multiplicities, eigenfunctions, zones."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from zeemanzones import spectrum
from zeemanzones.exact import (QC, apply_box, box_eigenvalue_exact,
                               box_field_constant)
from zeemanzones.params import (BOX, H_Z, H_ZF, HamiltonianVariant,
                                MagneticParams, _compositions)
from zeemanzones.spectrum import (build_eigenfunction, eigenvalue,
                                  multiplicity, radial_eigenpoly,
                                  radial_operator_residual, radial_vs_laguerre,
                                  spectrum_table, split_by_magnetic,
                                  vandermonde_split, zonal_series_value,
                                  zone_count, zone_eigenfunction_exact,
                                  zone_of)
from zeemanzones.kernels import zonal_kernel_closed


# ---------------------------------------------------------------------------
# eigenvalues and multiplicities
# ---------------------------------------------------------------------------

def test_eigenvalue_zeeman_ladder(p2):
    # [DERIVED] H_Z spectrum for k=2, lam=1 is the odd ladder 2p+1
    for p in range(6):
        assert eigenvalue((p,), p2, H_Z) == pytest.approx(2 * p + 1)


def test_eigenvalue_box_includes_field_constant(p2):
    cf = float(box_field_constant(1, 2))
    for p in range(4):
        assert eigenvalue((p,), p2, BOX) == pytest.approx(-((4 * p + 2) + cf))


@pytest.mark.parametrize("c_f", [None, 0.5])
@pytest.mark.parametrize("blocks", [[(1.0, 2)], [(1.0, 2), (2.0, 2)]])
def test_box_eigenvalue_is_minus_twice_h_zf(blocks, c_f):
    # box = -(sum lam_i (4 p_i + k_i) + 2 c_f) = -2 H_Zf for every c_f, so
    # the exact box eigenvalue takes the box constant 2 c_f (one block; on
    # two, the first block carries it and the others take 0)
    params = MagneticParams.make(blocks)
    box, h_zf = HamiltonianVariant("box", c_f), HamiltonianVariant("H_Zf", c_f)
    const = 2 * Fraction(box.field_constant(params))
    for ps in itertools.product(range(5), repeat=len(blocks)):
        ev = eigenvalue(ps, params, box)
        assert ev == -2 * eigenvalue(ps, params, h_zf)
        assert ev == sum(box_eigenvalue_exact(p, Fraction(b.lam), b.k,
                                              const if i == 0 else 0)
                         for i, (p, b) in enumerate(zip(ps, params.blocks)))


def test_eigenvalue_shifted_variant(p2):
    shift = HamiltonianVariant("H_Zf").field_constant(p2)
    for p in range(4):
        assert (eigenvalue((p,), p2, H_ZF)
                == pytest.approx(eigenvalue((p,), p2, H_Z) + shift))


def test_eigenvalue_blocks_add(p4):
    assert eigenvalue((1, 2), p4, H_Z) == pytest.approx(
        0.5 * (1.0 * (4 * 1 + 2) + 2.0 * (4 * 2 + 2)))


def test_multiplicity_k2_is_one(p2):
    for p in range(5):
        for v in range(3):
            assert multiplicity((p,), (v,), p2) == 1


def test_multiplicity_k4_single_block():
    # [DERIVED] single lam, k=4: dim of holomorphic degree p in 2 variables
    # is p+1; zone v multiplies by the zone count of the antiholomorphic part
    p4s = MagneticParams.make([(1.0, 4)])
    for p in range(5):
        assert multiplicity((p,), (0,), p4s) == p + 1


def test_zone_count_values():
    # [TRIVIAL] binomial(a + q - 1, q - 1), q = k/2
    assert [zone_count(a, 2) for a in range(4)] == [1, 1, 1, 1]
    assert [zone_count(a, 4) for a in range(4)] == [1, 2, 3, 4]
    assert zone_count(2, 6) == 6


def test_zone_of_magnetic_index():
    # upsilon = (l - m)/2 with m = 2p - l
    for l in range(8):
        for p in range(l + 1):
            assert zone_of(l, 2 * p - l) == l - p


# ---------------------------------------------------------------------------
# spectrum tables
# ---------------------------------------------------------------------------

def _table_brute_force(params, variant, max_p, max_zone):
    """The table with every zone's multiplicities summed over its per-block
    splits v: the reference for `spectrum_table`'s zone_count(a, k)
    scaling."""
    nb = len(params.blocks)
    rows = []
    for a in range(max_zone + 1):
        by_eig = {}
        for ptup in sorted(pt for tot in range(max_p + 1)
                           for pt in _compositions(tot, nb)):
            key = round(eigenvalue(ptup, params, variant), 12)
            mult = sum(multiplicity(ptup, v, params)
                       for v in _compositions(a, nb))
            rep, m0 = by_eig.get(key, (ptup, 0))
            by_eig[key] = (min(rep, ptup), m0 + mult)
        rows += [(a, sum(ptup), ev, mult)
                 for ev, (ptup, mult) in sorted(by_eig.items())]
    return rows


@pytest.mark.parametrize("blocks", [
    [(1.0, 2)], [(1.0, 4)], [(1.0, 2), (2.0, 2)], [(1.0, 2), (3.0, 4)],
    [(0.5, 2), (1.5, 4), (1.0, 2)]],
    ids=["k2", "k4-one-block", "k4", "k6", "three-blocks"])
@pytest.mark.parametrize("variant", [BOX, H_Z, H_ZF],
                         ids=["box", "H_Z", "H_Zf"])
def test_spectrum_table_matches_per_zone_sum(blocks, variant):
    params = MagneticParams.make(blocks)
    table = spectrum_table(params, variant, max_p=6, max_zone=3)
    assert [(e.zone, e.p, e.eigenvalue, e.multiplicity) for e in table] \
        == _table_brute_force(params, variant, 6, 3)
    assert all(e.upsilon == e.zone and e.l == e.p + e.zone
               and e.m == e.p - e.zone for e in table)


def test_zone_eigenvalues_upsilon_independent(p4):
    table = spectrum_table(p4, H_Z, max_p=4, max_zone=2)
    by_zone = {}
    for e in table:
        by_zone.setdefault(e.zone, {})[e.p] = e.eigenvalue
    for a in (1, 2):
        for p, ev in by_zone[0].items():
            assert by_zone[a][p] == pytest.approx(ev)


# ---------------------------------------------------------------------------
# eigenfunctions: exact operator residuals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam,k", [(1, 2), (2, 2), (1, 4)])
def test_box_eigen_exact(lam, k):
    params = MagneticParams.make([(float(lam), k)])
    cf = box_field_constant(Fraction(lam), k)
    from zeemanzones.spectrum import _compositions
    for tot in range(4):
        for lt in _compositions(tot, k):
            hp = build_eigenfunction(lt, params)
            for comp in split_by_magnetic(hp).values():
                mu = box_eigenvalue_exact(comp.holo_degree(), Fraction(lam),
                                          k, cf)
                from zeemanzones.exact import QC
                assert apply_box(comp, Fraction(lam), cf) == comp * QC.of(mu)


def _evaluate(hp, X):
    """The (z, zbar) polynomial hp at the real points X, shape (n, k)."""
    z = X[:, 0::2] + 1j * X[:, 1::2]
    return sum(float(c) * np.prod(z ** np.array(a) * np.conj(z) ** np.array(b),
                                  axis=1)
               for (a, b), c in hp.terms.items())


@pytest.mark.parametrize("lam,k", [(1, 2), (2, 2), (1, 4), (2, 4)])
def test_eigenfunction_scalar_convention(lam, k):
    # i^L prod_i lam^{-l_i/2} H_{l_i}(sqrt(lam) X^i), L the odd-axis orders,
    # with every coefficient a real rational
    params = MagneticParams.make([(float(lam), k)])
    X = np.random.default_rng(34).normal(0.0, 1.0, size=(8, k))
    for tot in range(5):
        for lt in _compositions(tot, k):
            hp = build_eigenfunction(lt, params)
            assert all(type(c) is Fraction for c in hp.terms.values())
            ref = 1j ** sum(lt[1::2]) * np.prod(
                [lam ** (-l / 2) * hermval(np.sqrt(lam) * X[:, i], [0] * l + [1])
                 for i, l in enumerate(lt)], axis=0)
            err = np.max(np.abs(_evaluate(hp, X) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (lt, err)


def _hermite_products(lam, k, orders):
    params = MagneticParams.make([(float(lam), k)])
    return [(build_eigenfunction(lt, params), sum(lt), params)
            for tot in orders for lt in _compositions(tot, k)]


def test_vandermonde_split_equals_degree_split():
    for lam, k in [(1, 2), (2, 2), (1, 4)]:
        for hp, order, params in _hermite_products(lam, k, range(4)):
            assert vandermonde_split(hp, order, params) == split_by_magnetic(hp)


@pytest.mark.parametrize("lam,k", [(1, 2), (2, 2), (1, 4)])
def test_vandermonde_split_reads_the_operator(monkeypatch, lam, k):
    # with D shifted to D + lam*I every eigenvalue moves off its node, so a
    # split that reads D (and not monomial degrees) must change
    angular = spectrum._angular_operator
    monkeypatch.setattr(spectrum, "_angular_operator",
                        lambda hp, exact: angular(hp, exact) + hp * QC.of(exact))
    assert any(vandermonde_split(hp, order, params) != split_by_magnetic(hp)
               for hp, order, params in _hermite_products(lam, k, (1, 2)))


def test_exact_oracles_refuse_irrational_lambda():
    tiny = MagneticParams.make([(1e-13, 2)])
    hp = build_eigenfunction((1, 0), MagneticParams.make([(1.0, 2)]))
    for call in (lambda: build_eigenfunction((1, 0), tiny),
                 lambda: vandermonde_split(hp, 1, tiny),
                 lambda: zonal_series_value("wk", 0, 0.5, (0.3, -0.2),
                                            (0.1, 0.4), 1e-13)):
        with pytest.raises(ValueError, match="needs a rational lambda"):
            call()


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("lt", range(3))
@pytest.mark.parametrize("n", range(5))
def test_radial_recursion(k, lt, n):
    assert radial_vs_laguerre(n, lt, k)
    res = radial_operator_residual(radial_eigenpoly(n, lt, k), lt, k, n)
    assert not res.terms


# ---------------------------------------------------------------------------
# zone eigenfunctions and the spectral series
# ---------------------------------------------------------------------------

def test_zone_eigenfunction_ground_state():
    cs, nsq = zone_eigenfunction_exact(0, 0, 1)
    assert cs == [Fraction(1)]
    assert nsq == Fraction(1)  # pi * 0!/1 / pi


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(1, 3)])
def test_zone_eigenfunction_norm_is_the_radial_moment_sum(lam):
    # every pair of terms of h = sum_r c_r z^{p-r} zbar^{a-r} has the same
    # magnetic number, so nsq sums c_r c_q N!/lam^{N+1}, N = p + a - r - q,
    # from int |z|^{2N} e^{-lam |z|^2} dX = pi N!/lam^{N+1}
    for p in range(13):
        for a in range(4):
            cs, nsq = zone_eigenfunction_exact(p, a, lam)
            assert nsq == sum(
                cr * cq * math.factorial(p + a - r - q) / lam ** (p + a - r - q + 1)
                for r, cr in enumerate(cs) for q, cq in enumerate(cs))


def test_zone_eigenfunction_refuses_floats():
    # a float would pass as the binary rational nearest it (0.1 is not 1/10)
    with pytest.raises(TypeError):
        zone_eigenfunction_exact(1, 1, 0.1)


def test_zonal_series_matches_closed(p2, xy2):
    X, Y = xy2
    for sigma in ("wk", "df"):
        for a in (0, 1):
            ref = zonal_kernel_closed(sigma, a, 0.8, X, Y, p2).value
            got = zonal_series_value(sigma, a, 0.8, X, Y, 1.0, levels=40)
            assert abs(got - ref) < 1e-12


def test_zonal_series_rejects_unknown_flow(xy2):
    X, Y = xy2
    with pytest.raises(ValueError, match="flow"):
        zonal_series_value("xx", 0, 0.8, X, Y, 1.0)
