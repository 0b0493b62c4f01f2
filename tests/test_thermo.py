"""Partition functions, trace quadrature, zeta values."""

import math

import numpy as np
import mpmath as mp
import pytest

from zeemanzones import thermo
from zeemanzones.kernels import KernelValue
from zeemanzones.params import H_Z, HamiltonianVariant, MagneticParams
from zeemanzones.quadrature import NonFiniteIntegrand, QuadratureError
from zeemanzones.thermo import (dominant_trace, hurwitz_zeta, longterm_trace,
                                mehler_comparison_bound, partition,
                                partition_by_trace, partition_spectral,
                                partition_trace, riemann_zeta, zeta_zonal,
                                _mult_tail)


# ---------------------------------------------------------------------------
# closed-form partition functions
# ---------------------------------------------------------------------------

def test_partition_k2_golden(p2):
    # [DERIVED] Z^(0)(t) = e^{-t} / (1 - e^{-2t}) for k=2, lam=1, H_Z
    for t in (0.5, 1.0, 2.0):
        ref = np.exp(-t) / (1 - np.exp(-2 * t))
        assert partition("wk", 0, t, p2) == pytest.approx(ref, abs=1e-15)


def test_partition_zone_independent_of_a_for_k2(p2):
    # k=2 zones are simple: every zone has the same partition function
    assert partition("wk", 0, 0.7, p2) == pytest.approx(
        partition("wk", 2, 0.7, p2))


def test_partition_df_unit_modulus_ratio(p2):
    # df partition is the analytic continuation t -> it of the wk one
    t = 0.8
    zdf = partition("df", 0, t, p2)
    ref = np.exp(-1j * t) / (1 - np.exp(-2j * t))
    assert zdf == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("t", [-0.5, 0.0, math.nan])
@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_partition_sums_refuse_nonpositive_time(p2, sigma, t):
    # the closed form and the spectral sum share one refusal
    for value in (partition, partition_spectral):
        with pytest.raises(ValueError, match="requires t > 0"):
            value(sigma, 0, t, p2)


def test_partition_blocks_multiply(p4):
    z = partition("wk", 0, 0.9, p4)
    z1 = partition("wk", 0, 0.9, MagneticParams.make([(1.0, 2)]))
    z2 = partition("wk", 0, 0.9, MagneticParams.make([(2.0, 2)]))
    assert z == pytest.approx(z1 * z2, abs=1e-15)


def test_partition_zone_count_prefactor():
    p4s = MagneticParams.make([(1.0, 4)])
    # gross zone 1 of k=4 carries 2 irreducible zones
    assert partition("wk", 1, 0.7, p4s) == pytest.approx(
        2 * partition("wk", 0, 0.7, p4s))


# ---------------------------------------------------------------------------
# diagonal trace quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0, 1, 2])
def test_trace_matches_closed_wk(p2, a):
    for t in (0.5, 1.0):
        assert abs(partition_by_trace("wk", a, t, p2)
                   - partition("wk", a, t, p2)) < 1e-9


def test_trace_matches_closed_df(p2):
    for a in (0, 1):
        got = partition_by_trace("df", a, 0.5, p2, quad_degree=120)
        assert abs(got - partition("df", a, 0.5, p2)) < 1e-9


@pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
def test_trace_matches_closed_df_exact(p2, p4, a):
    # the real-axis rule missed by 4.8e-7 at t=0.5 (and more elsewhere)
    for params in (p2, p4):
        for t in (0.05, 0.5, 1.0, 3.0):
            ref = partition("df", a, t, params)
            got = partition_by_trace("df", a, t, params)
            assert abs(got - ref) <= 1e-12 * abs(ref)


def test_trace_delta_is_evidence(p4):
    z, delta = partition_trace("df", 2, 0.5, p4)
    assert z == partition_by_trace("df", 2, 0.5, p4)
    assert 0.0 <= delta < 1e-12


def test_trace_near_caustic_raises_not_guesses(p2):
    # 2e-9 past t = pi, cos 2t rounds to 1 and the plane rule has no decay
    # left: an error, never a silently wrong number
    for a in range(5):
        with pytest.raises(QuadratureError):
            partition_trace("df", a, math.pi + 2e-9, p2)


def test_trace_just_past_caustic_matches_closed(p2):
    # 1e-8 past t = pi the closed zone-2 diagonal still traces to the
    # partition function (~5e7); both are limited by how precisely t is
    # represented
    t = math.pi + 1e-8
    z, delta = partition_trace("df", 2, t, p2)
    assert abs(z - partition("df", 2, t, p2)) <= 1e-7
    assert delta <= 1e-7


def test_nan_plane_trace_is_nonfinite(monkeypatch, p2):
    # a plane trace goes through `integrate`, which refuses a non-finite
    # integrand before comparing the rule with its check
    def nan_kernel(sigma, a, t, X, Y, params):
        v = np.full(np.shape(X)[:-1], np.nan + 0j)
        return KernelValue(v, v, v)
    monkeypatch.setattr(thermo, "zonal_kernel_closed", nan_kernel)
    with pytest.raises(NonFiniteIntegrand):
        partition_trace("wk", 1, 0.5, p2)


def test_trace_multiblock(p4):
    got = partition_by_trace("wk", 1, 0.8, p4)
    assert abs(got - partition("wk", 1, 0.8, p4)) < 1e-9


def test_dominant_trace_equals_partition(p2):
    # the long-term part has zero trace, so the dominant part carries it all
    for a in (0, 1, 2):
        assert abs(dominant_trace("wk", a, 0.6, p2)
                   - partition("wk", a, 0.6, p2)) < 1e-9


def test_longterm_trace_vanishes(p2, p4):
    for params in (p2, p4):
        for sigma in ("wk", "df"):
            deg = 120 if sigma == "df" else 40
            assert abs(longterm_trace(sigma, 0.6, params,
                                      quad_degree=deg)) < 1e-8


# ---------------------------------------------------------------------------
# spectral sums with analytic tails
# ---------------------------------------------------------------------------

def test_mult_tail_closed_form():
    # sum_{p >= L} binom(p + q - 1, q - 1) r^p against brute force
    r = 0.9
    for q in (1, 2, 3):
        brute = sum(float(math.comb(p + q - 1, q - 1)) * r ** p
                    for p in range(30, 4000))
        assert abs(_mult_tail(q, 30, r) - brute) < 1e-10


@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("a", [0, 1, 2])
def test_spectral_sum_matches_closed(p2, sigma, a):
    for t in (0.5, 1.0):
        got = partition_spectral(sigma, a, t, p2)
        assert abs(got - partition(sigma, a, t, p2)) < 1e-10


def test_spectral_sum_k4():
    # one block of k = 4, 6 and 8: the level multiplicities binom(p+q-1, q-1)
    # grow like p^{q-1}
    for k in (4, 6, 8):
        params = MagneticParams.make([(1.0, k)])
        got = partition_spectral("wk", 1, 0.5, params)
        assert abs(got - partition("wk", 1, 0.5, params)) < 1e-10


# ---------------------------------------------------------------------------
# zeta functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 4.0])
def test_riemann_zeta_vs_mpmath(s):
    assert abs(riemann_zeta(s) - complex(mp.zeta(s))) < 1e-12


@pytest.mark.parametrize("s,x", [(2.0, 0.5), (3.0, 1.5), (2.5, 0.25)])
def test_hurwitz_zeta_vs_mpmath(s, x):
    assert abs(hurwitz_zeta(s, x) - complex(mp.zeta(s, x))) < 1e-12


def test_hurwitz_requires_convergent_region():
    with pytest.raises(ValueError):
        hurwitz_zeta(0.5, 1.0)


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 4.0])
def test_zonal_zeta_riemann_relation(p2, s):
    # [PAPER] zeta_zonal(s) = (1 - 2^{-s}) zeta_R(s) for k=2, lam=1, H_Z
    zz = zeta_zonal(0, s, p2, variant=H_Z)
    ref = (1 - 2.0 ** (-s)) * riemann_zeta(s)
    assert abs(zz - ref) < 1e-10


def test_zonal_zeta_direct_sum(p2):
    # mu_p = 2p + 1 ladder: direct high-precision sum as oracle
    s = 3.0
    ref = complex(mp.nsum(lambda p: (2 * p + 1) ** (-s), [0, mp.inf]))
    assert abs(zeta_zonal(0, s, p2, variant=H_Z) - ref) < 1e-10


def _hurwitz_zonal_zeta(a, s, lam, k, c_f):
    """The zonal zeta at 50 digits: binom(p+q-1, q-1) as a polynomial in
    mu_p = alpha + beta p, each power j of mu_p one Hurwitz zeta
    beta^{j-s} zeta_Hu(s-j, alpha/beta)."""
    with mp.workdps(50):
        q = k // 2
        alpha, beta = mp.mpf(lam) * q + mp.mpf(c_f), 2 * mp.mpf(lam)
        poly = [mp.mpf(1)]  # ascending coefficients in mu
        for i in range(1, q):
            lo, hi = 1 - alpha / (i * beta), 1 / (i * beta)
            poly = [(poly[d] if d < len(poly) else 0) * lo
                    + (poly[d - 1] if d else 0) * hi
                    for d in range(len(poly) + 1)]
        s = mp.mpf(s)
        return math.comb(a + q - 1, q - 1) * sum(
            cj * beta ** (j - s) * mp.zeta(s - j, alpha / beta)
            for j, cj in enumerate(poly))


@pytest.mark.parametrize("kind", ["H_Z", "H_Zf"])
@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_zonal_zeta_vs_hurwitz(k, kind):
    # down to s within 0.01 of the bound k/2, where the top power of mu
    # sums like zeta_Hu(1.01, .)
    variant = HamiltonianVariant(kind)
    for lam in (0.5, 1.0, 2.0, 3.0):
        params = MagneticParams.make([(lam, k)])
        c_f = 0.0 if kind == "H_Z" else variant.field_constant(params)
        for s in (k / 2 + 0.01, k / 2 + 0.5, k / 2 + 2.5, k / 2 + 6):
            for a in (0, 2):
                want = _hurwitz_zonal_zeta(a, s, lam, k, c_f)
                got = zeta_zonal(a, s, params, variant)
                assert abs(got - want) <= 2e-15 * abs(want), (lam, s, a)


def test_zonal_zeta_domain_refusal_names_value_and_bound():
    with pytest.raises(ValueError, match=r"k/2 = 2, got s = 2\.0"):
        zeta_zonal(0, 2.0, MagneticParams.make([(1.0, 4)]))
    with pytest.raises(ValueError, match=r"k/2 = 1, got s = 0\.5"):
        zeta_zonal(0, 0.5, MagneticParams.make([(1.0, 2)]))


@pytest.mark.parametrize("k", [2, 4])
def test_zonal_zeta_head_matches_binomial_sum(k):
    # one block, lam=1: mu_p = q + 2p with multiplicity binom(p+q-1, q-1),
    # q = k/2; the direct levels plus the Euler-Maclaurin tail against the
    # binomial sum in mpmath
    params, s = MagneticParams.make([(1.0, k)]), 3.0
    q = k // 2
    ref = complex(mp.nsum(lambda p: mp.binomial(p + q - 1, q - 1)
                          * (q + 2 * p) ** (-s), [0, mp.inf]))
    for a in (0, 2):
        want = math.comb(a + q - 1, q - 1) * ref
        assert abs(zeta_zonal(a, s, params) - want) <= 1e-12 * abs(want)


def test_zonal_zeta_negative_zone_refused():
    # binom(a+q-1, q-1) is 0 for a = -1, q = 2: a silent zero, not a value
    with pytest.raises(ValueError, match="zone"):
        zeta_zonal(-1, 3.0, MagneticParams.make([(1.0, 4)]))


def test_single_block_closed_forms_refuse_two_blocks(p4):
    # the zonal zeta and the Mehler envelope are single-block closed forms:
    # on the two-block geometry they refuse rather than read one block
    for call in (lambda: zeta_zonal(0, 3.0, p4),
                 lambda: mehler_comparison_bound(0, 0.5, p4)):
        with pytest.raises(ValueError, match="single-lambda"):
            call()


def test_mehler_comparison_bound_envelopes(p2, p2b):
    for params in (p2, p2b):
        for a in (0, 1):
            for t in (0.5, 1.0, 2.0):
                z = partition("wk", a, t, params).real
                assert 0.0 < z < mehler_comparison_bound(a, t, params)
