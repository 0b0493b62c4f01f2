"""Verification harness: every module invariant as a named three-state check.

Each check computes a residual and compares it to a fixed tolerance;
quadrature non-convergence, singular times and any other exception a
check raises surface as ERROR, never as FAIL, so numerical limitations
cannot masquerade as mathematical failure.  Most checks are declared
as sweeps (`_sweep`, `_holds`): a case function and the named axes it
runs over, which are also the params the check reports.  Five stay
hand-written: `_chk_pde` feeds both geometries from one random stream per
flow, which a sweep over geometry would reorder; `_chk_hurwitz_conditional`
also reports shifts that fail a second identity; `_chk_uniform_bound`,
`_chk_discrete_fk` and `_chk_rn_consistency` put per-case numbers in their
notes.  Every convolution (`_conv`) is one `exact_value` call, its node
count (`rule_nodes`) set by the zones; the real-axis rule runs only where
it is under test (the degree ladder, rerun and moment checks).  Check
ordering and JSON output are deterministic: wall times are kept on the
in-memory results and written only by `timings_json`.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import numpy as np

from . import pathint, thermo
from .exact import (ZonePoly, apply_box, box_eigenvalue_exact,
                    box_field_constant, gaussian_pair_integral_exact,
                    laguerre_composition_check, laguerre_exact,
                    laguerre_recurrence_exact, rodrigues_check)
from .kernels import (convolution_rule, global_factor, global_kernel,
                      lt1_printed, pde_residual, projection_kernel, zonal0,
                      zonal_factor, zonal_kernel_closed, zonal_kernel_numeric)
from .params import H_Z, MagneticParams, _compositions
from .quadrature import QuadRule, exact_value, integrate
from .special import gaussian_moment_integral, laguerre
from .spectrum import (build_eigenfunction, radial_operator_residual,
                       radial_eigenpoly, radial_vs_laguerre, spectrum_table,
                       split_by_magnetic, vandermonde_split, zonal_series_value,
                       zone_of)
from .zeta import _em_sum_inverse_powers, hurwitz_zeta, riemann_zeta, zeta_zonal

SUITES = ("laguerre", "spectrum", "projections", "global_kernels",
          "zonal_wk", "zonal_df", "thermo", "pathint")

_SIGMAS = ("wk", "df")
_P2 = MagneticParams.make([(1.0, 2)])
_P2B = MagneticParams.make([(2.0, 2)])
_P4 = MagneticParams.make([(1.0, 2), (2.0, 2)])
_X0 = np.array([0.3, -0.2])
_Y0 = np.array([0.1, 0.4])
_X4 = np.array([0.3, -0.2, 0.15, 0.25])
_Y4 = np.array([0.1, 0.4, -0.3, 0.05])
_ZONES = (0, 1, 2, 3)
_TIMES = (0.5, 1.0)
_DELTA_TIMES = (1e-1, 1e-2, 1e-3, 1e-4)  # t -> 0 in the delta-limit checks
_S_T = ((0.2, 0.3), (0.5, 0.5))     # (s, t) pairs of the CK checks
_DEGREE = 40                        # every other rule and chain grid
_K4_DEGREE = 24                     # the moment check's k=4 rule: 24^4 nodes
_GEOMETRIES = ((1, 2), (2, 2), (1, 4))    # one-block (lambda, k), exact
_PAIR_ORDERS = range(4)             # orders of the eigenfunction pairs
_LAG_GRID = np.linspace(0.0, 8.0, 17)
_MOMENT_C = np.array([0.4 - 0.2j, -0.3 + 0.1j, 0.2, 0.5j])


@dataclass
class CheckResult:
    check_id: str
    params: dict
    residual: float | None
    tolerance: float
    status: str                 # PASS | FAIL | ERROR
    note: str = ""
    seconds: float = 0.0        # informational; excluded from reports

    def to_json_dict(self) -> dict:
        return {"check_id": self.check_id, "params": self.params,
                "residual": self.residual, "tolerance": self.tolerance,
                "status": self.status, "note": self.note}


def _plain(v):
    """v as JSON values: a parameter set as its [lambda, k] blocks, arrays,
    ranges and tuples as lists, complex numbers as [re, im]."""
    if isinstance(v, MagneticParams):
        return [[b.lam, b.k] for b in v.blocks]
    if isinstance(v, dict):
        return {key: _plain(x) for key, x in v.items()}
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple, range)):
        return [_plain(x) for x in v]
    return [v.real, v.imag] if isinstance(v, complex) else v


def _worst(values):
    """The largest residual in `values` (0.0 for none), or NaN if one is
    NaN, which max() would drop, letting a NaN check PASS."""
    worst = 0.0
    for v in values:
        if v != v:
            return v
        worst = max(worst, v)
    return worst


def _points(axes: dict):
    """Each point of the axes' product as {name: value}, last axis fastest."""
    return (dict(zip(axes, values)) for values in product(*axes.values()))


def _sweep(case, tol, note="", degree=None, ran=(), **axes):
    """A check whose residual is the worst case(**point) over the points of
    `axes` (each case also gets deg=degree if degree is given); it reports
    that degree, the axes, then `ran`, what cases fix."""
    def check():
        deg = {} if degree is None else {"deg": degree}
        residual = _worst(case(**deg, **point) for point in _points(axes))
        used = {"quad_degree": deg["deg"]} if deg else {}
        return residual, tol, note, _plain({**used, **axes, **dict(ran)})
    return check


def _holds(case, ran=(), **axes):
    """An exact check: case(**point) must be true at every point of `axes`;
    the note names the first point where it is not."""
    def check():
        bad = next((p for p in _points(axes) if not case(**p)), None)
        note = "" if bad is None else ", ".join(
            f"{name}={_plain(v)}" for name, v in bad.items())
        return float(bad is not None), 0.0, note, _plain({**axes, **dict(ran)})
    return check


# --- laguerre suite --------------------------------------------------------
def _lag_float_gap(alpha, n):
    """Largest relative gap of the float recurrence from the explicit
    L_n^{(alpha)} on _LAG_GRID; inf if the exact recurrence differs."""
    exact = laguerre_exact(alpha, n)
    if laguerre_recurrence_exact(alpha, n) != exact:
        return np.inf
    ref = np.zeros_like(_LAG_GRID)
    for c in reversed(exact.coeffs()):  # Horner, from the leading coefficient
        ref = ref * _LAG_GRID + float(c)
    return float(np.max(np.abs(laguerre(alpha, n, _LAG_GRID) - ref)
                        / (1.0 + np.abs(ref))))


def _rec3_residual(alpha, a, lower):
    """(a+1) L_{a+1} - (2a+1+alpha-t) L_a + lower L_{a-1} on the binomial
    form: the zero polynomial when lower is the coefficient a + alpha."""
    L = [laguerre_exact(alpha, j) for j in (a - 1, a, a + 1)]
    return (L[2] * (a + 1) - ZonePoly.univariate([2 * a + 1 + alpha, -1]) * L[1]
            + L[0] * lower)


def _moment_gap(deg, k, A):
    """Relative error of the rule for int exp(-A|U|^2/2 + U.C) dU on R^k."""
    C = _MOMENT_C[:k]
    ref = gaussian_moment_integral(A, C)
    got = integrate(lambda U: np.exp(-0.5 * A * np.sum(U ** 2, axis=-1)
                                     + U @ C),
                    QuadRule(deg if k <= 2 else _K4_DEGREE, (A.real / 2,) * k))
    return abs(got - ref) / abs(ref)


# cases look functions up when they run (a lambda, not the function), so a
# rebinding of this module's imports (a monkeypatch, a tracer) reaches them
_LAGUERRE = [
    ("laguerre.recurrence_vs_explicit", _sweep(
        _lag_float_gap, 1e-10, ran={"t": _LAG_GRID}, alpha=range(5),
        n=range(13))),
    ("laguerre.rodrigues", _holds(lambda alpha, a: rodrigues_check(alpha, a),
                                  alpha=range(4), a=range(6))),
    ("laguerre.derivative_identity", _holds(
        lambda alpha, a: laguerre_exact(alpha, a).diff_z(0)
        == laguerre_exact(alpha + 1, a - 1) * -1,
        alpha=range(5), a=range(1, 13))),
    # partial sums of L_0^{(alpha)} .. L_a^{(alpha)} against L_a^{(alpha+1)}
    ("laguerre.sum_identity", _holds(
        lambda alpha, a: sum((laguerre_exact(alpha, j) for j in range(a + 1)),
                             ZonePoly(1)) == laguerre_exact(alpha + 1, a),
        alpha=range(5), a=range(13))),
    ("laguerre.rec3_identity", _holds(
        lambda alpha, a: not _rec3_residual(alpha, a, a + alpha).terms,
        alpha=range(5), a=range(1, 13))),
    ("laguerre.composition", _holds(
        lambda alpha, n: laguerre_composition_check(alpha, n),
        alpha=range(4), n=range(9))),
    ("laguerre.gaussian_moment_quadrature", _sweep(
        _moment_gap, 1e-9, degree=_DEGREE,
        ran={"C": _MOMENT_C, "k4_quad_degree": _K4_DEGREE},
        k=(1, 2, 4), A=(1.0, 1.0 + 0.5j, 2.0 - 1.0j))),
]


# --- spectrum suite --------------------------------------------------------
def _eigenfunctions(geometry, order):
    """(eigenfunction, params) of each order tuple summing to `order`."""
    lam, k = geometry
    params = MagneticParams.make([(float(lam), k)])
    return ((build_eigenfunction(lt, params), params)
            for lt in _compositions(order, k))


def _box_eigen(geometry, order):
    """Each magnetic part of each eigenfunction is a box eigenfunction."""
    lam, k = Fraction(geometry[0]), geometry[1]
    const = box_field_constant(lam, k)
    return all(apply_box(comp, lam, const)
               == comp * box_eigenvalue_exact(comp.holo_degree(), lam, k, const)
               for hp, _ in _eigenfunctions(geometry, order)
               for comp in split_by_magnetic(hp).values())


def _zones(params, max_zone):
    """(eigenvalues, multiplicities) of the H_Z levels through degree 5 of
    each zone 0..max_zone, in table order."""
    table = spectrum_table(params, H_Z, max_p=5, max_zone=max_zone)
    return [([e.eigenvalue for e in table if e.zone == a],
             [e.multiplicity for e in table if e.zone == a])
            for a in range(max_zone + 1)]


def _upsilon_independent(geometry, a):
    """Every level of zone a, in order, equals that of zone 0 (to 1e-12)."""
    ev = [eigenvalues for eigenvalues, _ in _zones(geometry, 2)]
    return len(ev[a]) == len(ev[0]) and all(
        abs(x - y) <= 1e-12 for x, y in zip(ev[0], ev[a]))


def _isochromatic(geometry):
    """Zones 0 and 1 share their eigenvalues; their multiplicities differ
    on k=4 and agree on k=2."""
    (ev0, mu0), (ev1, mu1) = _zones(geometry, 1)
    return ev0 == ev1 and (mu0 == mu1) == (geometry.k == 2)


def _orthogonal(geometry, order):
    """Distinct magnetic parts of each eigenfunction are orthogonal, and so
    are distinct eigenfunctions at each order of _PAIR_ORDERS.  The parts
    are orthogonal for any (z, zbar) polynomial; only the pairs see a
    wrong eigenfunction."""
    hps = [hp for hp, _ in _eigenfunctions(geometry, order)]
    pairs = [pair for hp in hps
             for pair in combinations(split_by_magnetic(hp).values(), 2)]
    if order in _PAIR_ORDERS:
        pairs += combinations(hps, 2)
    return all(gaussian_pair_integral_exact(f, g, Fraction(geometry[0])) == 0
               for f, g in pairs)


_SPECTRUM = [
    ("spectrum.eigen_residual", _holds(
        _box_eigen, geometry=_GEOMETRIES + ((2, 4),), order=range(5))),
    ("spectrum.vandermonde_split", _sweep(
        lambda geometry, order: float(not all(
            vandermonde_split(hp, order, params) == split_by_magnetic(hp)
            for hp, params in _eigenfunctions(geometry, order))), 0.0,
        "two splits of one polynomial, the inverse-Vandermonde one against "
        "the degree one: tests the split, not the eigenfunction",
        geometry=_GEOMETRIES, order=range(4))),
    ("spectrum.upsilon_independence", _holds(
        _upsilon_independent, ran={"max_p": 5}, geometry=(_P2, _P4),
        a=(0, 1, 2))),
    ("spectrum.isochromatic_zones", _holds(
        _isochromatic, ran={"a": (0, 1), "max_p": 5}, geometry=(_P4, _P2))),
    ("spectrum.zone_of_consistency", _holds(
        lambda l, p: p > l or zone_of(l, 2 * p - l) == l - p,
        l=range(9), p=range(9))),
    ("spectrum.magnetic_orthogonality", _holds(
        _orthogonal, ran={"pair_order": _PAIR_ORDERS}, geometry=_GEOMETRIES,
        order=range(5))),
    ("spectrum.radial_laguerre", _holds(
        lambda k, lt, n: radial_vs_laguerre(n, lt, k) and not
        radial_operator_residual(radial_eigenpoly(n, lt, k), lt, k, n).terms,
        k=(2, 4), lt=range(4), n=range(7))),
]


# --- projections suite -----------------------------------------------------
def _conv(left, right, n, X, Y, params):
    """int K1(X, U) K2(U, Y) dU for (kernel, `convolution_rule` factor)
    pairs, by the exact n-node rule at the stationary point."""
    (k1, f1), (k2, f2) = left, right
    scales, centre = convolution_rule(f1, f2, X, Y, params)
    return exact_value(lambda U: k1(X[None, :], U) * k2(U, Y[None, :]),
                       scales, n, centre)[0]


def _delta(a, params):
    """delta^{(a)} on params as a (kernel of (X, Y), factor) pair."""
    return partial(projection_kernel, a, params=params), zonal_factor("wk", 0)


def _idempotency(geometry, a):
    """|delta^{(a)} * delta^{(a)} - delta^{(a)}|: degree 4a per axis."""
    X, Y = (_X0, _Y0) if geometry.k == 2 else (_X4, _Y4)
    return abs(_conv(_delta(a, geometry), _delta(a, geometry), 2 * a + 1, X,
                     Y, geometry) - projection_kernel(a, X, Y, geometry))


def _reproducing(geometry, m):
    """|delta^{(0)} applied to f = z^m e^{-lambda|z|^2/2}, minus f| at _X0;
    f is entire (|z|^2 = u1^2 + u2^2), degree m per axis, factor (1, 0, 0)."""
    def f(U, _=None):
        z = U[..., 0] + 1j * U[..., 1]
        return z ** m * np.exp(-0.5 * geometry.single_lambda
                               * (U[..., 0] ** 2 + U[..., 1] ** 2))
    return abs(_conv(_delta(0, geometry), (f, lambda lam: (1, 0, 0)),
                     m // 2 + 1, _X0, _X0, geometry) - f(_X0))


def _axis_conv(a, deg):
    """delta^{(a)} * delta^{(a)} on _P2 by the real-axis rule of degree deg."""
    return integrate(lambda U: projection_kernel(a, _X0[None, :], U, _P2)
                     * projection_kernel(a, U, _Y0[None, :], _P2),
                     QuadRule(deg, _P2.axis_lambdas()))


_PROJECTIONS = [
    ("projections.idempotency", _sweep(
        _idempotency, 1e-12, ran={"rule_nodes": "2a+1"},
        geometry=(_P2, _P2B, _P4), a=_ZONES)),
    ("projections.orthogonality", _sweep(
        lambda a, b: 0.0 if a == b else abs(_conv(
            _delta(a, _P2), _delta(b, _P2), a + b + 1, _X0, _Y0, _P2)),
        1e-12, ran={"rule_nodes": "a+b+1"}, a=_ZONES, b=_ZONES)),
    ("projections.reproducing", _sweep(
        _reproducing, 1e-12, ran={"rule_nodes": "m//2+1"},
        geometry=(_P2, _P2B), m=range(5))),
    # the real-axis rule under test: change between degrees, between runs
    ("quadrature.convergence_ladder", _sweep(
        lambda degrees: abs(_axis_conv(2, degrees[1])
                            - _axis_conv(2, degrees[0])),
        1e-8, ran={"a": 2}, degrees=((20, 30), (30, 40)))),
    ("quadrature.determinism", _sweep(
        lambda deg: float(_axis_conv(1, deg) != _axis_conv(1, deg)),
        0.0, "pairwise tree reduction, fixed order", degree=_DEGREE,
        ran={"a": 1})),
]


# --- global kernels suite --------------------------------------------------
def _chk_pde(sigma):
    seed = 42 if sigma == "wk" else 43
    # numpy's stream stays, so this suite alone loads numpy.random: the
    # samples PASS only 7.4x (wk) and 3.6x (df) under tolerance, and a new
    # stream would reseed a check close to failing.  ROADMAP item 4
    # replaces the samples.
    rng = np.random.default_rng(seed)
    res = []
    for params in (_P2, _P4):
        for _ in range(10):
            t = float(rng.uniform(0.3, 1.2))
            X = rng.normal(scale=0.5, size=params.k)
            Y = rng.normal(scale=0.5, size=params.k)
            res.append(pde_residual(sigma, t, X, Y, params))
    return _worst(res), 1e-6, "central FD in t (1e-4), analytic in X", \
        _plain({"geometry": (_P2, _P4), "samples": 10, "seed": seed,
                "t_range": (0.3, 1.2)})


def _global_ck(s_t, geometry):
    """|e^{-sH} * e^{-tH} - e^{-(s+t)H}| (WK): a pure Gaussian, 1 node."""
    X, Y = (_X0, _Y0) if geometry.k == 2 else (_X4, _Y4)
    conv = _conv(*[(partial(global_kernel, "wk", u, params=geometry),
                    global_factor("wk", u)) for u in s_t], 1, X, Y, geometry)
    return abs(conv - global_kernel("wk", sum(s_t), X, Y, geometry))


# the modulus of the DF chaining integrand is constant in the midpoint, so
# the convolution is not absolutely convergent; the check demonstrates the
# constancy rather than "test" a divergent integral
_DF_MIDPOINTS = {"s": 0.2, "t": 0.3,
                 "U": (np.array([0.5, -0.1]), np.array([40.0, 25.0]))}


def _df_modulus_change(s, t, U):
    """|change| of |d_df(s, X, U) d_df(t, U, Y)| from the first midpoint U
    to the second."""
    near, far = (abs(global_kernel("df", s, _X0, u, _P2)
                     * global_kernel("df", t, u, _Y0, _P2)) for u in U)
    return abs(far / near - 1.0)


_GLOBAL = [
    ("global.heat_equation", partial(_chk_pde, "wk")),
    ("global.schrodinger_equation", partial(_chk_pde, "df")),
    ("global.ck_wk", _sweep(_global_ck, 1e-13, ran={"rule_nodes": 1},
                            s_t=_S_T, geometry=(_P2, _P4))),
    ("global.df_divergence_note", _sweep(
        lambda: _df_modulus_change(**_DF_MIDPOINTS), 1e-10,
        "|integrand| is independent of the midpoint: the global DF kernel "
        "is neither L1 nor L2, CK holds only as an oscillatory (improper) "
        "integral", ran=_DF_MIDPOINTS)),
]


# --- zonal suites ----------------------------------------------------------
def _zonal_ck(sigma, s_t, a):
    """|d^{(a)}(s) * d^{(a)}(t) - d^{(a)}(s + t)|: degree 4a per axis."""
    def d(u):                               # d_sigma^{(a)}(u) on _P2
        return (lambda X, Y: zonal_kernel_closed(sigma, a, u, X, Y, _P2).value,
                zonal_factor(sigma, u))
    conv = _conv(*map(d, s_t), 2 * a + 1, _X0, _Y0, _P2)
    return abs(conv - d(sum(s_t))[0](_X0, _Y0))


def _delta_limit(sigma, a):
    """d_sigma^{(a)}(t) -> delta^{(a)} at rate O(t) as t runs down
    _DELTA_TIMES: the worst gap over three point pairs, divided by t, grows
    less than 2x from each time to the next."""
    slopes = [_worst(abs(zonal_kernel_closed(sigma, a, t, X, Y, _P2).value
                         - projection_kernel(a, X, Y, _P2))
                     for X, Y in ((_X0, _Y0), (_X0, _X0), (_Y0, 0 * _Y0))) / t
              for t in _DELTA_TIMES]
    return all(s1 < 2 * s0 for s0, s1 in zip(slopes, slopes[1:]))


def _zonal_checks(sigma):
    """(check_id, check) for the seven checks of suite zonal_<sigma>."""
    one = (sigma,)
    return [(f"zonal_{sigma}.{name}", check) for name, check in (
        # the numeric oracle's rule: a+1 nodes per axis, checked at a+3
        *[(f"closed_vs_numeric_a{a}", _sweep(
            lambda sigma, a, geometry, t: abs(
                zonal_kernel_numeric(sigma, a, t, _X0, _Y0, geometry)
                - zonal_kernel_closed(sigma, a, t, _X0, _Y0, geometry).value),
            1e-8, ran={"rule_nodes": a + 1}, sigma=one, a=(a,),
            geometry=(_P2, _P2B), t=_TIMES)) for a in (0, 1)],
        ("lt1_printed", _sweep(
            lambda sigma, t: abs(
                zonal_kernel_closed(sigma, 1, t, _X0, _Y0, _P2).long_term
                - lt1_printed(sigma, t, _X0, _Y0)
                * zonal0(sigma, t, _X0, _Y0, _P2)),
            1e-12, "printed k=2, lambda=1 long-term factor",
            ran={"a": 1, "geometry": _P2}, sigma=one, t=_TIMES)),
        ("chapman_kolmogorov", _sweep(
            _zonal_ck, 1e-13 if sigma == "wk" else 1e-12,
            ran={"rule_nodes": "2a+1"}, sigma=one, s_t=_S_T, a=_ZONES)),
        ("delta_limit", _holds(_delta_limit, ran={"t": _DELTA_TIMES},
                               sigma=one, a=_ZONES)),
        ("longterm_vanish_t0", _sweep(
            lambda sigma, a: abs(zonal_kernel_closed(sigma, a, 0.0, _X0, _Y0,
                                                     _P2).long_term),
            0.0, "factor 1 - e^{-2 sigma t} at t=0", ran={"t": 0.0},
            sigma=one, a=_ZONES)),
        ("spectral_series", _sweep(
            lambda sigma, a, t: abs(
                zonal_series_value(sigma, a, t, _X0, _Y0, 1.0, levels=12)
                - zonal_kernel_closed(sigma, a, t, _X0, _Y0, _P2).value),
            1e-6, "exact eigenbasis, 12 levels", sigma=one, a=_ZONES,
            t=_TIMES)))]


# --- thermo suite ----------------------------------------------------------
def _partition_gap(value, tol, note="", t=_TIMES, **ran):
    """Worst |value - partition| over geometries, flows, zones 0-2, times t."""
    return _sweep(lambda geometry, sigma, a, t: abs(
        value(sigma, a, t, geometry) - thermo.partition(sigma, a, t, geometry)),
        tol, note, ran=ran, geometry=(_P2, _P4), sigma=_SIGMAS, a=(0, 1, 2),
        t=t)


def _chk_hurwitz_conditional():
    # asserted: sum_n (1 + c_f + 2n)^{-s} = 2^{-s} zeta_Hu(s, (1 + c_f)/2);
    # recorded: no shift makes that sum (1 - 2^{-s}) zeta_Hu(s, 4)
    ss, shifts = (2.5, 3.0, 4.0), (0.0, 1.0, 3.0, 7.0)
    residual = _worst(abs(_em_sum_inverse_powers(s, 1 + c, 2.0, 0)
                          - 2.0 ** -s * hurwitz_zeta(s, (1 + c) / 2))
                      for s in ss for c in shifts)
    cands = {c: abs(_em_sum_inverse_powers(3.0, 1 + c, 2.0, 0)
                    - (1 - 2.0 ** -3) * hurwitz_zeta(3.0, 4.0)) for c in shifts}
    by_shift = ", ".join(f"c_f={c}: {r:.3e}" for c, r in cands.items())
    return residual, 1e-12, (
        "shift identity: tests hurwitz_zeta and the shift, not "
        "_em_sum_inverse_powers, which both sides share (mpmath tests test "
        f"it); conditional only, s=3.0 residuals by shift {by_shift}; "
        f"best c_f={min(cands, key=cands.get)}"), _plain({"s": ss, "c_f": shifts})


_THERMO = [
    # a zone-a plane trace uses the exact (a+1)-node rule, checked at a+3
    ("thermo.trace_vs_closed", _partition_gap(
        lambda *case: thermo.partition_by_trace(*case), 1e-7,
        rule_nodes=(1, 2, 3))),
    ("thermo.spectral_sum", _partition_gap(
        lambda *case: thermo.partition_spectral(*case, levels=200), 1e-8,
        "200 levels + analytic geometric tail", levels=200)),
    ("thermo.dominant_trace", _partition_gap(
        lambda *case: thermo.dominant_trace(*case), 1e-7, t=(0.5,),
        rule_nodes=1)),
    ("thermo.longterm_trace_zero", _sweep(
        lambda geometry, sigma, t: abs(thermo.longterm_trace(sigma, t, geometry)),
        1e-7, "zero trace class", ran={"a": 1, "rule_nodes": (1, 2)},
        geometry=(_P2, _P4), sigma=_SIGMAS, t=_TIMES)),
    ("thermo.riemann_relation", _sweep(
        lambda s, a: abs(zeta_zonal(a, s, _P2)
                         - (1 - 2.0 ** (-s)) * riemann_zeta(s)),
        1e-8, "zone-independent for k=2", ran={"geometry": _P2},
        s=(2.0, 2.5, 3.0, 4.0), a=(0, 1, 2))),
    ("thermo.hurwitz_conditional", _chk_hurwitz_conditional),
    ("thermo.mehler_comparison", _holds(
        lambda geometry, a, t: 0.0
        < thermo.partition("wk", a, t, geometry).real
        < thermo.mehler_comparison_bound(a, t, geometry),
        ran={"sigma": "wk"}, geometry=(_P2, _P2B), a=(0, 1),
        t=(0.5, 1.0, 2.0))),
]


# --- pathint suite ---------------------------------------------------------
def _chk_uniform_bound():
    rep = pathint.uniform_bound_check(pathint.TimeSlicing(1.0, 3), _X0, _P2,
                                      _DEGREE)
    note = "; ".join(f"{r['F']}: |W|={r['abs']:.4f} <= {r['bound']:.4f}"
                     for r in rep["results"])
    return (float(not rep["all_ok"]), 0.0, note,
            {"quad_degree": _DEGREE, "sigma": "df", "T": 1.0, "n": 3})


def _chk_discrete_fk():
    notes = []
    params = _plain({"quad_degree": _DEGREE, "sigma": _SIGMAS, "T": 0.5,
                     "n": (1, 2, 3, 4)})
    for sigma in _SIGMAS:
        ref = zonal_kernel_closed(sigma, 0, 0.5, _X0, _Y0, _P2).value
        res = [abs(pathint.feynman_kac_chain(
            sigma, pathint.TimeSlicing(0.5, n), _X0, _Y0, _P2, _DEGREE)
            - ref)
            / abs(ref) for n in (1, 2, 3, 4)]
        notes.append(f"{sigma}: " + ", ".join(f"{r:.2e}" for r in res))
        if not all(res[i + 1] < res[i] for i in range(3)):
            return 1.0, 0.0, "; ".join(notes), params
    return 0.0, 0.0, "monotone in n; " + "; ".join(notes), params


def _chk_rn_consistency():
    rep2, rep4 = (pathint.radon_nikodym_consistency(
        pathint.TimeSlicing(0.3, n), _X0, _Y0, _P2, _DEGREE) for n in (2, 4))
    note = (f"left-action residuals n=2: {rep2['residual_left']:.3e}, "
            f"n=4: {rep4['residual_left']:.3e} (O(T/n) discretization)")
    return (_worst((rep2["residual_exact"], rep4["residual_exact"])), 1e-6,
            note, _plain({"quad_degree": _DEGREE, "sigma": _SIGMAS,
                          "T": 0.3, "n": (2, 4)}))


_PATHINT = [
    ("pathint.slicing_invariance", _sweep(
        lambda deg, sigma, T, n: abs(
            pathint.cylinder_value(sigma, 0, pathint.TimeSlicing(T, n), None,
                                   _X0, _Y0, _P2, deg)
            - zonal_kernel_closed(sigma, 0, T, _X0, _Y0, _P2).value),
        1e-6, degree=_DEGREE, ran={"a": 0}, sigma=_SIGMAS, T=(0.3, 1.0),
        n=(1, 2, 3, 4))),
    ("pathint.uniform_bound", _chk_uniform_bound),
    ("pathint.probability_conservation", _sweep(
        lambda deg, T: pathint.probability_conservation(T, _X0, _P2, deg),
        1e-7, "unitary zone evolution", degree=_DEGREE,
        ran={"sigma": "df", "n": 1}, T=(0.3, 0.7))),
    ("pathint.discrete_feynman_kac", _chk_discrete_fk),
    ("pathint.nu_consistency", _sweep(
        lambda deg, n: abs(pathint.nu_cylinder_value(
            pathint.TimeSlicing(1.0, n), None, _X0, _Y0, _P2, deg)
            - complex(projection_kernel(0, _X0, _Y0, _P2))),
        1e-8, "n-independent by exact idempotency", degree=_DEGREE,
        ran={"T": 1.0}, n=(1, 2, 3, 4))),
    ("pathint.second_form_identity", _sweep(
        lambda deg, sigma, T: pathint.second_form_residual(
            sigma, pathint.TimeSlicing(T, 3), _X0, _Y0, _P2, deg),
        1e-8, "action-weighted chain vs kernel chain", degree=_DEGREE,
        ran={"n": 3}, sigma=_SIGMAS, T=(0.3, 1.0))),
    ("pathint.rn_consistency", _chk_rn_consistency),
]


# --- registry and runner ---------------------------------------------------
# (check_id, suite, check), in report order
CHECKS = [(cid, suite, check) for suite, checks in zip(SUITES, (
    _LAGUERRE, _SPECTRUM, _PROJECTIONS, _GLOBAL, _zonal_checks("wk"),
    _zonal_checks("df"), _THERMO, _PATHINT)) for cid, check in checks]


def _run_one(check_id, func) -> CheckResult:
    t0 = time.perf_counter()
    try:
        # a check returns (residual, tolerance, note, params it ran with)
        residual, tolerance, note, params = func()
        status = "PASS" if residual <= tolerance else "FAIL"
        res = CheckResult(check_id, params, float(residual), float(tolerance),
                          status, note)
    except Exception as exc:
        # one broken check (numeric or not: TypeError, MemoryError, ...)
        # is reported, never allowed to abort the rest of the run
        res = CheckResult(check_id, {}, None, 0.0, "ERROR",
                          f"{type(exc).__name__}: {exc}")
    res.seconds = time.perf_counter() - t0
    return res


def run_suite(suite: str, threads: int = 1) -> list[CheckResult]:
    """Run one suite (or 'all') on `threads` threads; deterministic order,
    three-state results."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(SUITES + ('all',))}")
    selected = [(cid, fn) for cid, s, fn in CHECKS
                if suite == "all" or s == suite]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda cf: _run_one(*cf), selected))
    return [_run_one(cid, fn) for cid, fn in selected]


def report_json(results: list[CheckResult]) -> str:
    """Deterministic JSON conformance report (no wall times)."""
    counts = {"PASS": 0, "FAIL": 0, "ERROR": 0}
    for r in results:
        counts[r.status] += 1
    doc = {"summary": counts,
           "checks": [r.to_json_dict() for r in results]}
    return json.dumps(doc, indent=2, sort_keys=False)


def timings_json(results: list[CheckResult]) -> str:
    """Wall seconds per check, in check order: the side file of
    `verify --timings`, kept out of the deterministic report."""
    return json.dumps({r.check_id: r.seconds for r in results}, indent=2)
