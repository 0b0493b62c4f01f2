"""Projection, heat and Schrodinger kernels: identities and residuals."""

import math
import tracemalloc
from functools import partial, reduce

import mpmath as mp
import numpy as np
import pytest

from zeemanzones import kernels, pathint, thermo
from zeemanzones.kernels import (EXPANDED_ZONES, SingularTimeError,
                                 _zonal0_parts, check_df_time,
                                 convolution_rule, global_factor,
                                 global_kernel, global_parts,
                                 lt1_printed, pde_residual, plane_step,
                                 projection_kernel, projection_parts,
                                 weighted_dist_sq, zonal0, zonal_factor,
                                 zonal_kernel_closed, zonal_kernel_numeric)
from zeemanzones.params import (J_apply, MagneticParams, _composition_sum,
                                _compositions, _factor_levels, sigma_value,
                                zone_flow)
from zeemanzones.pathint import TimeSlicing
from zeemanzones.quadrature import QuadRule, tensor_points, tree_sum
from zeemanzones.special import laguerre
from zeemanzones.spectrum import zonal_series_value


def _rule(params, deg=40):
    return QuadRule(deg, params.axis_lambdas())


def _zone_step(sigma, a, t, X, Y, lam):
    """The plane step operator of d_sigma^{(a)}(t), from grid X to grid Y."""
    return plane_step(X, Y, lam, *zone_flow(sigma, t, lam), a)


# ---------------------------------------------------------------------------
# projection kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0, 1, 2])
def test_projection_idempotent(p2, xy2, a):
    X, Y = xy2
    U, w = _rule(p2).nodes_weights()
    conv = tree_sum(w * projection_kernel(a, X[None, :], U, p2)
                    * projection_kernel(a, U, Y[None, :], p2))
    assert abs(conv - projection_kernel(a, X, Y, p2)) < 1e-10


def test_projection_orthogonal_zones(p2, xy2):
    X, Y = xy2
    U, w = _rule(p2).nodes_weights()
    conv = tree_sum(w * projection_kernel(0, X[None, :], U, p2)
                    * projection_kernel(1, U, Y[None, :], p2))
    assert abs(conv) < 1e-10


def test_projection_reproduces_holomorphic(p2):
    # delta^(0) reproduces z^m e^{-lam|z|^2/2} pointwise
    U, w = _rule(p2).nodes_weights()
    zU = U[:, 0] + 1j * U[:, 1]
    X = np.array([0.4, 0.1])
    zX = X[0] + 1j * X[1]
    for m in range(4):
        f = zU ** m * np.exp(-0.5 * (U ** 2).sum(axis=1))
        got = tree_sum(w * projection_kernel(0, X[None, :], U, p2) * f)
        ref = zX ** m * np.exp(-0.5 * (X ** 2).sum())
        assert abs(got - ref) < 1e-10


def test_projection_parts_consistent(p2, xy2):
    X, Y = xy2
    pref, expo = projection_parts(1, X, Y, p2)
    assert pref * np.exp(expo) == pytest.approx(
        projection_kernel(1, X, Y, p2), abs=1e-15)


def test_weighted_dist_sq_symmetry(p4, xy4):
    X, Y = xy4
    assert weighted_dist_sq(X, Y, p4) == pytest.approx(
        weighted_dist_sq(Y, X, p4))
    assert weighted_dist_sq(X, X, p4) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# global kernels
# ---------------------------------------------------------------------------

def test_global_parts_consistency(p4, xy4):
    X, Y = xy4
    for sigma in ("wk", "df"):
        pref, expo = global_parts(sigma, 0.6, X, Y, p4)
        assert pref * np.exp(expo) == pytest.approx(
            global_kernel(sigma, 0.6, X, Y, p4), abs=1e-15)


def test_global_wk_chapman_kolmogorov(p2, xy2):
    X, Y = xy2
    s, t = 0.4, 0.3
    scales = tuple(l * (1 / np.tanh(l * s) + 1 / np.tanh(l * t)) / 2
                   for l in p2.axis_lambdas())
    U, w = QuadRule(40, scales).nodes_weights()
    conv = tree_sum(w * global_kernel("wk", s, X[None, :], U, p2)
                    * global_kernel("wk", t, U, Y[None, :], p2))
    assert abs(conv - global_kernel("wk", s + t, X, Y, p2)) < 1e-9


def test_df_singular_times_and_guard(p2b):
    with pytest.raises(SingularTimeError):
        check_df_time("df", np.pi / 2, p2b)
    with pytest.raises(SingularTimeError):
        global_kernel("df", np.pi / 2, np.zeros(2), np.zeros(2), p2b)
    check_df_time("df", 0.7, p2b)  # regular time passes
    check_df_time("wk", np.pi / 2, p2b)  # the heat flow has no caustic


_XC = np.array([0.3, -0.2])
_SLC = TimeSlicing(np.pi, 2)     # its second slice ends at the caustic
DF_AT_CAUSTIC = {
    "global_kernel": lambda p: global_kernel("df", np.pi, _XC, _XC, p),
    "zonal_kernel_numeric": lambda p: zonal_kernel_numeric(
        "df", 0, np.pi, _XC, _XC, p),
    "partition": lambda p: thermo.partition("df", 0, np.pi, p),
    "partition_spectral": lambda p: thermo.partition_spectral(
        "df", 0, np.pi, p),
    "partition_trace": lambda p: thermo.partition_trace("df", 0, np.pi, p),
    "dominant_trace": lambda p: thermo.dominant_trace("df", 0, np.pi, p),
    "longterm_trace": lambda p: thermo.longterm_trace("df", np.pi, p),
    "cylinder_value": lambda p: pathint.cylinder_value(
        "df", 0, _SLC, None, _XC, _XC, p, quad_degree=8),
    "feynman_kac_chain": lambda p: pathint.feynman_kac_chain(
        "df", _SLC, _XC, _XC, p, 8),
    "probability_conservation": lambda p: pathint.probability_conservation(
        np.pi, _XC, p, quad_degree=8),
    "radon_nikodym_consistency": lambda p: pathint.radon_nikodym_consistency(
        _SLC, _XC, _XC, p, 8),
    "second_form_residual": lambda p: pathint.second_form_residual(
        "df", _SLC, _XC, _XC, p, 8),
}


@pytest.mark.parametrize("name", sorted(DF_AT_CAUSTIC))
def test_df_number_refused_at_caustic(p2, name):
    # every DF quantity built on the global kernel is singular at t = pi
    # for lambda = 1; only the zonal closed forms are entire
    with pytest.raises(SingularTimeError):
        DF_AT_CAUSTIC[name](p2)


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_pde_residual_small(p2, xy2, sigma):
    X, Y = xy2
    assert pde_residual(sigma, 0.6, X, Y, p2) < 1e-7


# ---------------------------------------------------------------------------
# zonal closed forms
# ---------------------------------------------------------------------------

_XP = [_XC[:1], _XC[1:]]        # _XC as a one-point plane grid
BAD_TIME = {
    "zonal0": lambda t, p: zonal0("wk", t, _XC, _XC, p),
    "zonal_kernel_closed_a0": lambda t, p: zonal_kernel_closed(
        "wk", 0, t, _XC, _XC, p),
    "zonal_kernel_closed_a2": lambda t, p: zonal_kernel_closed(
        "df", 2, t, _XC, _XC, p),
    "plane_step": lambda t, p: _zone_step("df", 0, t, _XP, _XP, 1.0),
    "zonal_factor": lambda t, p: zonal_factor("wk", t)(1.0),
    "convolution_rule": lambda t, p: convolution_rule(
        zonal_factor("df", t), global_factor("df", 0.5), _XC, _XC, p),
}


@pytest.mark.parametrize("name", sorted(BAD_TIME))
@pytest.mark.parametrize("t", [-0.1, np.nan])
def test_zonal_entry_points_refuse_negative_or_nan_time(p2, name, t):
    # every zonal number takes its flow from `zone_flow`, whose one
    # refusal covers them all (eps = e^{0.2} would be silently wrong)
    with pytest.raises(ValueError, match=r"zonal closed forms require t >= 0"):
        BAD_TIME[name](t, p2)


INFINITE_TIME = {
    "zonal_kernel_closed": lambda t, p: zonal_kernel_closed(
        "wk", 0, t, _XC, _XC, p),
    "partition": lambda t, p: thermo.partition("wk", 0, t, p),
    "cylinder_value": lambda t, p: pathint.cylinder_value(
        "wk", 0, TimeSlicing(t, 2), None, _XC, _XC, p, quad_degree=8),
}


@pytest.mark.parametrize("name, t", [
    pytest.param(name, t, id=name + suffix) for name in sorted(INFINITE_TIME)
    for t, suffix in ((math.inf, ""), (math.nan, "-nan"))])
def test_infinite_time_refused(p2, name, t):
    # t = inf once gave NaN from the zonal closed forms, the partition
    # function and the chains; every refusal, of NaN too, names the time
    with pytest.raises(ValueError, match=f"t={t}"):
        INFINITE_TIME[name](t, p2)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_df_time_check_refuses_non_finite(p2, t):
    # round() once raised a bare OverflowError (inf) or ValueError (NaN)
    with pytest.raises(ValueError, match=f"t={t}"):
        check_df_time("df", t, p2)


@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("lam,t", [(1.0, 0.0), (2.0, 0.3), (0.5, 1.3)])
def test_zone_flow_is_the_plane_factor(sigma, lam, t):
    # level p of a zone on one plane gains e^{shift} eps^p
    eps, shift = zone_flow(sigma, t, lam)
    s = sigma_value(sigma)
    assert eps == np.exp(-2 * lam * t * s)
    assert shift == pytest.approx(-lam * t * s, abs=1e-15)
    assert zonal_factor(sigma, t)(lam) == (1, eps, eps)


@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("a", [0, 1])
def test_zonal_closed_vs_numeric(p2, xy2, sigma, a):
    X, Y = xy2
    t = 1.0
    ref = zonal_kernel_closed(sigma, a, t, X, Y, p2).value
    num = zonal_kernel_numeric(sigma, a, t, X, Y, p2)
    assert abs(num - ref) < 1e-9


def test_zonal_split_sums(p2, xy2):
    X, Y = xy2
    for sigma in ("wk", "df"):
        kv = zonal_kernel_closed(sigma, 1, 0.5, X, Y, p2)
        assert kv.value == pytest.approx(kv.dominant + kv.long_term,
                                         abs=1e-15)
        assert kv.dominant == pytest.approx(
            laguerre(0, 1, weighted_dist_sq(X, Y, p2))
            * zonal0(sigma, 0.5, X, Y, p2), abs=1e-15)


def test_zonal_long_term_vanishes_at_zero(p2, xy2):
    X, Y = xy2
    for sigma in ("wk", "df"):
        assert zonal_kernel_closed(sigma, 1, 0.0, X, Y, p2).long_term == 0j


def test_lt1_printed_matches_general(p2, xy2):
    X, Y = xy2
    for sigma in ("wk", "df"):
        kv = zonal_kernel_closed(sigma, 1, 0.4, X, Y, p2)
        ref = lt1_printed(sigma, 0.4, X, Y) * zonal0(sigma, 0.4, X, Y, p2)
        assert abs(kv.long_term - ref) < 1e-14


def test_zonal_entire_at_df_caustic(p2):
    # unlike the global df kernel, the zonal closed form is finite at t = pi
    X = np.array([0.3, -0.2])
    v = zonal_kernel_closed("df", 0, np.pi, X, X, p2).value
    assert np.isfinite(v)


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_zonal_chapman_kolmogorov(p2, xy2, sigma):
    X, Y = xy2
    s, t = 0.5, 0.5
    U, w = _rule(p2).nodes_weights()
    for a in (0, 1):
        conv = tree_sum(
            w * zonal_kernel_closed(sigma, a, s, X[None, :], U, p2).value
            * zonal_kernel_closed(sigma, a, t, U, Y[None, :], p2).value)
        ref = zonal_kernel_closed(sigma, a, s + t, X, Y, p2).value
        assert abs(conv - ref) < 1e-9


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_delta_limit_monotone(p2, sigma):
    rng = np.random.default_rng(11)
    pairs = [(rng.normal(scale=0.4, size=2), rng.normal(scale=0.4, size=2))
             for _ in range(10)]
    for a in (0, 1):
        sups = []
        for t in (1e-1, 1e-2, 1e-3):
            sups.append(max(
                abs(zonal_kernel_closed(sigma, a, t, X, Y, p2).value
                    - projection_kernel(a, X, Y, p2)) for X, Y in pairs))
        assert sups[0] > sups[1] > sups[2]


GEOMETRIES = [[(1.0, 2)], [(2.0, 2)], [(1.5, 4)], [(1.0, 2), (2.0, 2)]]


@pytest.mark.parametrize("blocks", GEOMETRIES)
@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_zonal_closed_every_zone_vs_numeric(blocks, sigma):
    # one closed form for every zone, against the exact rotated convolution
    params = MagneticParams.make(blocks)
    X = np.array([0.3, -0.2, 0.15, 0.25][:params.k])
    Y = np.array([0.1, 0.4, -0.3, 0.05][:params.k])
    for t, zones in ((0.05, 7), (0.4, 7), (1.3, 4)):
        for a in range(zones):
            ref = zonal_kernel_numeric(sigma, a, t, X, Y, params)
            got = zonal_kernel_closed(sigma, a, t, X, Y, params).value
            assert abs(got - ref) <= 1e-11 * abs(ref), (t, a)


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_zonal_closed_every_zone_vs_series(xy2, lam, sigma):
    # at t = 1.3 the 60-level eigen-expansion is converged to rounding
    X, Y = xy2
    params = MagneticParams.make([(lam, 2)])
    for a in range(7):
        ref = zonal_series_value(sigma, a, 1.3, X, Y, lam, levels=60)
        got = zonal_kernel_closed(sigma, a, 1.3, X, Y, params).value
        assert abs(got - ref) <= 1e-12 * abs(ref), a


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_zonal_closed_every_zone_split(p2, p4, xy2, xy4, sigma):
    # value = dominant + long-term for every zone; at t = 0 on one block the
    # long-term part is exactly zero
    for params, (X, Y) in ((p2, xy2), (p4, xy4)):
        for a in range(5):
            kv = zonal_kernel_closed(sigma, a, 0.7, X, Y, params)
            # D^{(a)} = L_a^{(k/2 - 1)}(sum lam_i |X_i - Y_i|^2) d^{(0)}
            assert kv.dominant == laguerre(
                params.k // 2 - 1, a, weighted_dist_sq(X, Y, params)) \
                * zonal0(sigma, 0.7, X, Y, params)
            assert abs(kv.value - kv.dominant - kv.long_term) <= 1e-15
    for a in range(7):
        assert zonal_kernel_closed(sigma, a, 0.0, *xy2, p2).long_term == 0
    with pytest.raises(ValueError, match="nonnegative"):
        zonal_kernel_closed(sigma, -1, 0.7, *xy2, p2)


def _oracle_scales(sigma, params, X, Y):
    # the numeric oracle's rule: delta^{(a)} times the global kernel
    return convolution_rule(zonal_factor("wk", 0.0), global_factor(sigma, 0.5),
                            X, Y, params)[0]


def test_zonal_numeric_scales_positive(p2, xy2):
    # the decay A is complex for DF; the rotated rule needs Re A > 0
    for sigma in ("wk", "df"):
        assert all(np.real(s) > 0 for s in _oracle_scales(sigma, p2, *xy2))
    assert all(np.imag(s) != 0 for s in _oracle_scales("df", p2, *xy2))


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_convolution_rule_centre_is_stationary(p4, xy4, sigma):
    # every pair of zonal and global factors: the summed exponent in U has
    # zero gradient at the centre and second derivative -2 S on each axis
    X, Y = xy4
    factors = [(zonal_factor(sigma, 0.3), partial(_zonal0_parts, sigma, 0.3)),
               (global_factor(sigma, 0.4), partial(global_parts, sigma, 0.4))]
    h = 1e-3
    for (f1, e1), (f2, e2) in [(f, g) for f in factors for g in factors]:
        scales, centre = convolution_rule(f1, f2, X, Y, p4)
        step = h * np.eye(4)
        up, mid, down = (e1(X, U, p4)[1] + e2(U, Y, p4)[1]
                         for U in (centre + step, centre, centre - step))
        assert np.max(np.abs((up - down) / (2 * h))) < 1e-8
        assert np.max(np.abs((up + down - 2 * mid) / h ** 2
                             + 2 * np.array(scales))) < 1e-5


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("k", [2, 4])
def test_zonal_numeric_df_exact(a, k):
    # the real-axis rule was wrong by 0.03-0.5 at t=0.1 for every degree
    # 40-200; the rotated rule is exact at every time
    params = MagneticParams.make([(1.0, k)])
    X = np.array([0.3, -0.2, 0.1, 0.2][:k])
    Y = np.array([0.1, 0.4, -0.3, 0.05][:k])
    for t in (0.01, 0.1, 0.3, 1.0, 3.0):
        ref = zonal_kernel_closed("df", a, t, X, Y, params).value
        num = zonal_kernel_numeric("df", a, t, X, Y, params)
        assert abs(num - ref) <= 1e-12 * max(1.0, abs(ref))


def test_zonal_numeric_broadcasts(p4):
    rng = np.random.default_rng(7)
    G = rng.normal(scale=0.5, size=(6, 4))
    for sigma in ("wk", "df"):
        num = zonal_kernel_numeric(sigma, 1, 0.4, G[:, None, :],
                                   G[None, :, :], p4)
        ref = zonal_kernel_closed(sigma, 1, 0.4, G[:, None, :],
                                  G[None, :, :], p4).value
        assert num.shape == (6, 6)
        assert np.max(np.abs(num - ref)) < 1e-13


def test_zonal_multiblock_consistency(p4, xy4):
    X, Y = xy4
    # gross zone 1 of a two-block geometry splits over the blocks
    direct = zonal_kernel_closed("wk", 1, 0.6, X, Y, p4).value
    num = zonal_kernel_numeric("wk", 1, 0.6, X, Y, p4)
    assert abs(num - direct) < 1e-9


# ---------------------------------------------------------------------------
# one-plane step operators, applied to an identity to give the kernel
# matrix of a plane; on R^k, the sum over the compositions of the zone
# over the planes of Kronecker products of plane matrices
# ---------------------------------------------------------------------------

def _axes(params, deg):
    rule = _rule(params, deg)
    return [rule.axis_nodes_weights(j)[0] for j in range(params.k)]


def zonal_matrix(sigma, a, t, G, H, params):
    """d_sigma^{(a)}(t, G_n, H_m) as an (N, M) array: per plane, the step
    operator on the identity; over the planes, the addition theorem."""
    lams = params.plane_lambdas()

    def plane(j, m):
        X, Y = G[2 * j:2 * j + 2], H[2 * j:2 * j + 2]
        return _zone_step(sigma, m, t, X, Y, lams[j])(
            np.eye(len(X[0]) * len(X[1])))

    return sum(reduce(np.kron, [plane(j, m) for j, m in enumerate(comp)])
               for comp in _compositions(a, len(lams)))


def _assert_matches_closed(sigma, a, t, G, H, params, tol=1e-12):
    ref = zonal_kernel_closed(sigma, a, t, tensor_points(G)[:, None, :],
                              tensor_points(H)[None, :, :], params).value
    got = zonal_matrix(sigma, a, t, G, H, params)
    assert got.shape == ref.shape
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("blocks", [[(1.0, 2)], [(1.0, 2), (2.0, 2)],
                                    [(1.5, 4)]])
@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
def test_zonal_matrix_matches_closed_form(blocks, sigma, a):
    params = MagneticParams.make(blocks)
    G = _axes(params, 10 if params.k == 2 else 5)
    H = [ax[::3] + 0.1 for ax in G]
    # axes of different lengths on both sides
    U = [np.linspace(-1.5, 1.5, n) for n in (2, 3, 4, 5)[:params.k]]
    V = [np.linspace(-1.0, 1.2, n) for n in (3, 1, 2, 4)[:params.k]]
    for t in (0.0, 0.05, 0.4, 1.3):
        _assert_matches_closed(sigma, a, t, G, H, params)
        _assert_matches_closed(sigma, a, t, U, V, params)


@pytest.mark.parametrize("a", [0, 1])
def test_zonal_matrix_full_degree_grid(p2, a):
    # the chain grid itself (degree 40, N = 1600) at the largest DF phases
    G = _axes(p2, 40)
    _assert_matches_closed("df", a, 1.3, G, [ax[::7] for ax in G], p2)


@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("a", [0, 1])
def test_zonal_matrix_point_row(p2, xy2, sigma, a):
    # a one-point grid (two length-1 axes) against a grid: one row, equal
    # to per-point closed-form values
    x, _ = xy2
    G = _axes(p2, 4)
    got = _zone_step(sigma, a, 0.4, x[:, None], G, 1.0)(np.ones(1))
    assert got.shape == (4 ** 2,)
    ref = np.array([zonal_kernel_closed(sigma, a, 0.4, x, u, p2).value
                    for u in tensor_points(G)])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _zonal_closed_mp(sigma, a, t, X, Y):
    """d_sigma^{(a)}(t, X, Y) on k=2, lambda=1 in 60-digit mpmath, on the
    same double inputs: eps^a L_a(rho / eps) d^{(0)} with eps = e^{-2 t
    sigma}, P = z_x conj(z_y), rho = eps |X - Y|^2 - (1 - eps)^2 Re P
    + i (1 - eps^2) Im P and d^{(0)} = e^{-sigma t - (|X|^2 + |Y|^2) / 2
    + eps P} / pi (`zonal_kernel_closed`)."""
    with mp.workdps(60):
        st = mp.mpf(t) * (1 if sigma == "wk" else 1j)
        x1, x2, y1, y2 = (mp.mpf(float(v)) for v in (*X, *Y))
        eps = mp.exp(-2 * st)
        P = mp.mpc(x1, x2) * mp.mpc(y1, -y2)
        rho = (eps * ((x1 - y1) ** 2 + (x2 - y2) ** 2)
               - (1 - eps) ** 2 * P.real + 1j * (1 - eps ** 2) * P.imag)
        d0 = mp.exp(-st - (x1 ** 2 + x2 ** 2 + y1 ** 2 + y2 ** 2) / 2
                    + eps * P) / mp.pi
        return complex(eps ** a * mp.laguerre(a, 0, rho / eps) * d0)


@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
def test_zonal_matrix_far_points_finite(p2, sigma, a):
    # neither per-axis factor overflows when points lie far from the
    # origin (|z|^2 / 2 > 709), in either slot or in both; at t = pi/4 the
    # DF flow turns z_y = 40i onto z_x = -40, where the kernel is O(1).
    # Against the point form on G x H, zones 0-4 miss by up to 1.9e-15;
    # the point form itself is off mpmath by up to 2.6e-12 on F x F2,
    # where the operator is within 2.9e-13 (DF zone 4; 2.7e-14 at DF zone
    # 0, WK within 6.2e-16).
    # A zone factor split over the x1 and x2 halves by the addition theorem
    # misses by 5e-10 to 5e-4 there.  The point form is pinned too: it
    # misses by up to 5.2e-16 (WK) and by 1.1e-13 (DF zone 0) to 2.6e-12
    # (DF zone 4), cancelling O(|z|^2) terms of its exponent and rho
    G = _axes(p2, 40)
    H = [np.array([0.1, 45.0]), np.array([-0.2, 38.0])]
    F = [np.array([0.1, -40.0]), np.array([0.2, 0.0])]
    F2 = [np.array([0.0, 0.3]), np.array([40.0, -0.1])]
    for t in (0.05, np.pi / 4, 1.3):
        for X, Y in ((G, H), (H, G)):
            _assert_matches_closed(sigma, a, t, X, Y, p2,
                                   tol=1e-12 if a <= 1 else 1e-11)
        ref = np.array([[_zonal_closed_mp(sigma, a, t, x, y)
                         for y in tensor_points(F2)] for x in tensor_points(F)])
        got = zonal_matrix(sigma, a, t, F, F2, p2)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        point = zonal_kernel_closed(sigma, a, t, tensor_points(F)[:, None, :],
                                    tensor_points(F2)[None, :, :], p2).value
        assert np.max(np.abs(point - ref)) <= 5e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_zonal_step_far_grids_finite(lam, sigma):
    # both coordinates of G lie at 30-45 and H holds them with either
    # sign, so a quarter-turn DF step (t = pi / (4 lam)) still meets G.
    # lam kap x y reaches 8100 here: a product of the four n x n factors
    # e^{lam kap x_i y_j} overflows, while the step's one real exponential
    # stays bounded (worst miss 3.1e-12, DF zone 2)
    p = MagneticParams.make([(lam, 2)])
    side = np.linspace(30.0, 45.0, 5)
    G = [np.linspace(30.0, 45.0, 7), np.linspace(30.0, 45.0, 6)]
    H = [np.concatenate([-side[::-1], side])] * 2
    for t in (0.05, np.pi / (8 * lam), np.pi / (4 * lam), 1.3):
        for a in (0, 1, 2):
            for X, Y in ((G, H), (H, G)):
                _assert_matches_closed(sigma, a, t, X, Y, p, tol=1e-11)


@pytest.mark.parametrize("a, ceiling_mib", [(0, 3.0), (1, 5.5)])
def test_zonal_step_build_memory(p2, a, ceiling_mib):
    # a degree-40 operator keeps u and v, 40^3 complex entries (1 MiB)
    # each, and at zone 1 also the tables U_0 and V_1 of the expanded zone
    # factor, each built in place; the build adds one real 40^3 modulus,
    # one 40^3 ru while U_0 is built, and n x n pieces
    G = _axes(p2, 40)
    tracemalloc.start()
    try:
        _zone_step("df", a, 0.3, G, G, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling_mib * 2 ** 20


class _CountingNumpy:
    """numpy, with the calls of its matrix product counted."""

    def __init__(self):
        self.products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.products += 1
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_zone_step_apply_work(p2, sigma, monkeypatch):
    # one degree-40 grid-to-grid apply: up to EXPANDED_ZONES, a + 1 matrix
    # products per block of y columns (eight of 200, so that a block's h
    # holds at most SCRATCH_BYTES) and no Laguerre table; one zone
    # above, a table and a product per x1 slab, the n^4 entries the
    # expansion leaves out; the bench's chain jobs run zones 0 and 1, so
    # both are expanded
    assert EXPANDED_ZONES >= 1
    G = _axes(p2, 40)
    blocks = 8
    f = np.ones(len(G[0]) * len(G[1]))
    for a in range(EXPANDED_ZONES + 2):
        op = _zone_step(sigma, a, 0.4, G, G, 1.0)
        counting = _CountingNumpy()
        tables = []

        def counted_laguerre(*args, **kwargs):
            tables.append(args[1])
            return laguerre(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(kernels, "np", counting)
            m.setattr(kernels, "laguerre", counted_laguerre)
            op(f)
        expanded = a <= EXPANDED_ZONES
        assert len(tables) == (0 if expanded else len(G[0])), a
        assert counting.products == (
            (a + 1) * blocks if expanded else len(G[0])), a


@pytest.mark.parametrize("deg", [7, 9, 13, 40])
@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_blocked_apply_is_one_block_bit_for_bit(p2, sigma, a, deg,
                                                monkeypatch):
    # each y column is reduced over x1 on its own, and the blocks start at
    # multiples of COLUMN_ALIGN, so the blocked apply, at its own block
    # size and at the smallest (COLUMN_ALIGN columns), has the bits of one
    # block; at degrees 9 and 13 the smallest leaves one column last, whose
    # product goes with the column before it (numpy's vector product
    # rounds otherwise)
    G = _axes(p2, deg)
    N = len(G[0]) * len(G[1])
    rng = np.random.default_rng(deg)
    f = rng.normal(size=N) + 1j * rng.normal(size=N)
    y = [np.array([0.1]), np.array([0.4])]
    cases = [(_zone_step(sigma, a, 0.4, G, G, 1.0), f),
             (_zone_step(sigma, a, 0.4, G, y, 1.0), f)]
    if deg in (7, 13):
        cases.append((cases[0][0], np.eye(N)))
    for op, g in cases:
        with monkeypatch.context() as m:
            m.setattr(kernels, "SCRATCH_BYTES", 2 ** 40)
            ref = op(g).tobytes()
        for size in (kernels.SCRATCH_BYTES, 1):
            with monkeypatch.context() as m:
                m.setattr(kernels, "SCRATCH_BYTES", size)
                assert op(g).tobytes() == ref, (g.shape, size)


def test_zonal_matrix_refuses_point_sets():
    # an (N, 2) point set is not a plane grid
    with pytest.raises(ValueError, match="axes"):
        _zone_step("wk", 0, 0.5, np.zeros((3, 2)), np.zeros((2, 1)), 1.0)


# ---------------------------------------------------------------------------
# point-form kernels walk the coordinate planes; the references below
# take the same sums over each block's axis (np.sum, J applied by copy),
# and on real points the plane walk must match them bit for bit
# ---------------------------------------------------------------------------

_PLANE_GEOMETRIES = [[(1.0, 2)], [(1.0, 2), (2.0, 2)], [(1.5, 4)],
                     [(1.5, 4), (0.5, 2)]]
_ZONES = 4


def _enumerated_composition_sum(a, factors):
    """The reference for `_composition_sum`: the sum over every
    composition comp of a over len(factors) parts of prod_p
    factors[p](comp[p]), added in the order of `_compositions`."""
    terms = (math.prod(f(m) for f, m in zip(factors, comp))
             for comp in _compositions(a, len(factors)))
    total = next(terms)
    for t in terms:
        total += t
    return total


def _block_factors(sigma, t, X, Y, params):
    """Per block, m -> M_m^{((k_i/2)-1)}(rho_i, eps_i) of
    `zonal_kernel_closed`, rho_i from sums over the block's axis."""
    s = sigma_value(sigma)
    factors = []
    for b, sl in zip(params.blocks, params.block_slices()):
        Xi, Yi = X[..., sl], Y[..., sl]
        e = np.exp(-2 * b.lam * t * s)
        rho = b.lam * (e * np.sum((Xi - Yi) * (Xi - Yi), axis=-1)
                       - (1 - e) ** 2 * np.sum(Xi * Yi, axis=-1)
                       + 1j * (1 - e * e) * np.sum(Xi * J_apply(Yi), axis=-1))
        factors.append(partial(laguerre, b.k // 2 - 1, t=rho, eps=e))
    return factors


def _block_reference(sigma, t, X, Y, params, zones=_ZONES):
    """weighted |X - Y|^2, the exponents of d^{(0)} and (t > 0) of the
    global kernel, and (value, dominant, long_term) of d^{(a)} at the
    first `zones` zones, from sums over each block's axis."""
    s = sigma_value(sigma)
    dist, z0_expo, g_expo = 0.0, 0j, 0j
    for b, sl in zip(params.blocks, params.block_slices()):
        Xi, Yi = X[..., sl], Y[..., sl]
        d2 = np.sum((Xi - Yi) * (Xi - Yi), axis=-1)
        dot = np.sum(Xi * Yi, axis=-1)
        jdot = np.sum(Xi * J_apply(Yi), axis=-1)
        e = np.exp(-2 * b.lam * t * s)
        dist = dist + b.lam * d2
        z0_expo = z0_expo + b.lam * (
            -0.5 * (np.sum(Xi * Xi, axis=-1) + np.sum(Yi * Yi, axis=-1))
            + e * (dot + 1j * jdot))
        if t > 0:
            g = complex(1.0 / np.tanh(b.lam * t * s))
            g_expo = g_expo - b.lam * (0.5 * g * d2 + 1j * jdot)
    levels = _block_factors(sigma, t, X, Y, params)
    parts = []
    if zones:
        z0 = _zonal0_parts(sigma, t, X, Y, params)[0] * np.exp(z0_expo)
        parts.append((z0, z0, np.zeros_like(z0)))
    for a in range(1, zones):
        fac = _enumerated_composition_sum(a, levels)
        lag = laguerre(params.k // 2 - 1, a, dist)
        parts.append((fac * z0, lag * z0, (fac - lag) * z0))
    return dist, z0_expo, g_expo if t > 0 else None, parts


def _plane_walk(sigma, t, X, Y, params, zones=_ZONES):
    """The same quantities from the kernels."""
    parts = [zonal_kernel_closed(sigma, a, t, X, Y, params)
             for a in range(zones)]
    return (weighted_dist_sq(X, Y, params),
            _zonal0_parts(sigma, t, X, Y, params)[1],
            global_parts(sigma, t, X, Y, params)[1] if t > 0 else None,
            [(kv.value, kv.dominant, kv.long_term) for kv in parts])


def _pair_grid(rng, k, imag=0.0):
    """X (5, 1, k) and Y (1, 6, k), 30 pairs, with imaginary parts drawn
    uniformly from [-imag, imag]."""
    X, Y = rng.normal(size=(5, 1, k)), rng.normal(size=(1, 6, k))
    if imag:
        X = X + 1j * rng.uniform(-imag, imag, X.shape)
        Y = Y + 1j * rng.uniform(-imag, imag, Y.shape)
    return X, Y


@pytest.mark.parametrize("blocks", _PLANE_GEOMETRIES)
@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.3])
def test_plane_walk_same_bits_on_real_points(blocks, sigma, t):
    params = MagneticParams.make(blocks)
    rng = np.random.default_rng(25)
    single = rng.normal(size=params.k), rng.normal(size=params.k)
    for X, Y in (_pair_grid(rng, params.k), single):
        got = _plane_walk(sigma, t, X, Y, params)
        ref = _block_reference(sigma, t, X, Y, params)
        for g, r in zip(got[:3], ref[:3]):
            assert np.array_equal(g, r)
        for g, r in zip(got[3], ref[3]):
            assert all(np.array_equal(gp, rp) for gp, rp in zip(g, r))


@pytest.mark.parametrize("blocks", _PLANE_GEOMETRIES)
@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.3])
def test_plane_walk_on_complex_points(blocks, sigma, t):
    # numpy adds a complex block axis of length 4 pairwise, the plane walk
    # in coordinate order, so a k_i = 4 block may move the last bits.  The
    # exponents are compared with imaginary parts up to 50; the kernel
    # values, which grow like e^{(1 - eps) |Im X|^2} there, with parts up
    # to 1, where they stay finite
    params = MagneticParams.make(blocks)
    rng = np.random.default_rng(26)
    X, Y = _pair_grid(rng, params.k, imag=50.0)
    got = _plane_walk(sigma, t, X, Y, params, zones=0)
    ref = _block_reference(sigma, t, X, Y, params, zones=0)
    for g, r in zip(got[:3], ref[:3]):
        if r is not None:
            assert np.all(np.abs(g - r) <= 1e-13 * np.abs(r))
    X, Y = _pair_grid(rng, params.k, imag=1.0)
    got = _plane_walk(sigma, t, X, Y, params)[3]
    ref = _block_reference(sigma, t, X, Y, params)[3]
    for (value, dominant, long_term), (rv, rd, rl) in zip(got, ref):
        assert np.all(np.isfinite(rv))
        assert np.all(np.abs(value - rv) <= 1e-13 * np.abs(rv))
        assert np.all(np.abs(dominant - rd) <= 1e-13 * np.abs(rd))
        # the long-term part is their difference: relative to its terms
        assert np.all(np.abs(long_term - rl)
                      <= 1e-13 * (np.abs(rv) + np.abs(rd)))


@pytest.mark.parametrize("blocks", _PLANE_GEOMETRIES)
def test_j_pairing_exactly_zero_on_complex_diagonal(blocks):
    # both products of a plane's <X, J X> multiply the same coordinate pair
    # in the same order, so on complex points, as on thermo's rotated
    # contours, the global exponent vanishes exactly at X = Y; numpy's
    # vectorised complex product does not commute bit for bit, so a sum of
    # x1 (-x2) and x2 x1 leaves rounding
    params = MagneticParams.make(blocks)
    rng = np.random.default_rng(27)
    X = (rng.normal(size=(64, params.k))
         + 1j * rng.uniform(-50.0, 50.0, (64, params.k)))
    for sigma in ("wk", "df"):
        assert np.all(global_parts(sigma, 0.7, X, X, params)[1] == 0)


@pytest.mark.parametrize("zone_kernel, ceiling_mib", [
    (partial(projection_kernel, 2), 1.2),
    (lambda X, U, p: zonal_kernel_closed("df", 2, 0.3, X, U, p), 2.0),
    (lambda X, U, p: zonal_kernel_closed("df", 10, 0.3, X, U, p), 4.2)],
    ids=["projection_kernel", "zonal_kernel_closed", "zonal_kernel_zone10"])
def test_point_form_block_memory(p4, zone_kernel, ceiling_mib):
    # one `integrate` block of the 24^4 rule, 13,824 nodes (0.21 MiB per
    # complex array): the plane sums accumulate in place, so the peak is
    # 0.97 MiB (projection), 1.69 MiB (zonal zone 2, which keeps the second
    # block's levels 0..2) and 3.59 MiB (zone 10, its levels 0..10), where
    # a list of every coordinate's products reached 1.71 MiB on the
    # projection
    U, _ = next(QuadRule(24, p4.axis_lambdas()).blocks())
    assert U.shape == (24 ** 3, 4)
    X = np.array([0.3, -0.2, 0.15, 0.25])[None, :]
    tracemalloc.start()
    try:
        zone_kernel(X, U, p4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling_mib * 2 ** 20


# ---------------------------------------------------------------------------
# composition sums: Cauchy products of level sequences against the sum
# over every composition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("blocks", [
    [(1.0, 2)], [(1.5, 4), (0.5, 2)], [(1.0, 2), (2.0, 2), (0.5, 2)],
    [(1.0, 2), (2.0, 2), (0.5, 2), (1.5, 2)]],
    ids=["1-block", "2-blocks", "3-blocks", "4-blocks"])
@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("a", [3, 10, 20, 30])
def test_zonal_kernel_closed_against_enumeration(blocks, sigma, a):
    # the reference tabulates each block's levels and sums over every
    # composition (C(33, 3) = 5456 terms at four blocks, zone 30); one or
    # two factors add the same terms in the same order, so the bits agree
    params = MagneticParams.make(blocks)
    X, Y = _pair_grid(np.random.default_rng(31), params.k)
    tables = [[f(m) for m in range(a + 1)]
              for f in _block_factors(sigma, 0.5, X, Y, params)]
    ref = (_enumerated_composition_sum(a, [tab.__getitem__ for tab in tables])
           * zonal0(sigma, 0.5, X, Y, params))
    got = zonal_kernel_closed(sigma, a, 0.5, X, Y, params).value
    if len(blocks) <= 2:
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [0, 1, 5])
def test_composition_sum_reads_each_level_once(parts, a):
    # every factor is read P (a + 1) times in all for P >= 2, a lone one
    # once, at level a; integer values make every sum exact
    calls = []

    def factor(p, m):
        calls.append((p, m))
        return float(p + 2 * m + 1)

    ms = _factor_levels(a, parts)
    got = _composition_sum(a, [map(partial(factor, p), ms)
                               for p in range(parts)])
    if parts == 1:
        assert calls == [(0, a)]
    else:
        assert sorted(calls) == [(p, m) for p in range(parts)
                                 for m in range(a + 1)]
    calls.clear()
    ref = _enumerated_composition_sum(
        a, [partial(factor, p) for p in range(parts)])
    assert got == ref
