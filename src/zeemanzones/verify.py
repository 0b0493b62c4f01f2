"""Verification harness: every module invariant as a named three-state check.

Each check computes a residual and compares it to a fixed tolerance;
quadrature non-convergence, singular times and any other exception a
check raises surface as ERROR, never as FAIL, so numerical limitations
cannot masquerade as mathematical failure.  Check ordering and JSON
output are deterministic: wall times are kept on the in-memory results
and written only by `timings_json`.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations

import numpy as np

from . import pathint, thermo
from .exact import (apply_box, box_eigenvalue_exact,
                    box_field_constant, gaussian_pair_integral_exact,
                    laguerre_composition_check, laguerre_exact,
                    laguerre_recurrence_exact, padd, pderiv, peval, pmul,
                    pscale, psub, ptrim, rodrigues_check)
from .kernels import (global_kernel, lt1_printed, pde_residual,
                      projection_kernel, zonal0, zonal_kernel_closed,
                      zonal_kernel_numeric)
from .params import H_Z, MagneticParams, _compositions
from .quadrature import QuadRule, tree_sum
from .special import gaussian_moment_integral, laguerre
from .spectrum import (build_eigenfunction, radial_operator_residual,
                       radial_eigenpoly, radial_vs_laguerre, spectrum_table,
                       split_by_magnetic, vandermonde_split, zonal_series_value,
                       zone_of)

SUITES = ("laguerre", "spectrum", "projections", "global_kernels",
          "zonal_wk", "zonal_df", "thermo", "pathint")

_P2 = MagneticParams.make([(1.0, 2)])
_P2B = MagneticParams.make([(2.0, 2)])
_P4 = MagneticParams.make([(1.0, 2), (2.0, 2)])
_X0 = np.array([0.3, -0.2])
_Y0 = np.array([0.1, 0.4])
_X4 = np.array([0.3, -0.2, 0.15, 0.25])
_Y4 = np.array([0.1, 0.4, -0.3, 0.05])


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


def _ran(geometries=(), **fields) -> dict:
    """What a check ran with, for its report: the parameter sets as
    [lambda, k] block lists (when given), then `fields`, tuples as lists."""
    out = {"geometries": [[[b.lam, b.k] for b in p.blocks]
                          for p in geometries]} if geometries else {}
    out.update((key, list(v) if isinstance(v, tuple) else v)
               for key, v in fields.items())
    return out


def _cfg_degree(config: dict, default: int) -> int:
    d = config.get("quad_degree")
    return default if d is None else max(int(d), default)


def _worst(values):
    """The largest residual in `values` (0.0 for none), or NaN if one is
    NaN, which max() would drop, letting a NaN check PASS."""
    worst = 0.0
    for v in values:
        if v != v:
            return v
        worst = max(worst, v)
    return worst


def _first_failure(failures):
    """A pass/fail check result: `failures` lazily yields a note per
    failing case, and the first one (if any) is reported."""
    note = next(iter(failures), None)
    return (0.0, 0.0, "") if note is None else (1.0, 0.0, note)


# ---------------------------------------------------------------------------
# laguerre suite
# ---------------------------------------------------------------------------

def _chk_lag_recurrence(config):
    res = []
    grid = np.linspace(0.0, 8.0, 17)
    for alpha in range(5):
        for n in range(13):
            exact = laguerre_exact(alpha, n)
            if laguerre_recurrence_exact(alpha, n) != exact:
                return 1.0, 0.0, "recurrence coefficients differ"
            vals = laguerre(alpha, n, grid)
            ref = np.array([float(peval([float(c) for c in exact], t))
                            for t in grid])
            res.append(float(np.max(np.abs(vals - ref) / (1.0 + np.abs(ref)))))
    return _worst(res), 1e-10, ""


def _chk_lag_rodrigues(config):
    return _first_failure(f"alpha={alpha}, a={a}" for alpha in range(4)
                          for a in range(6) if not rodrigues_check(alpha, a))


def _chk_lag_derivative(config):
    return _first_failure(
        f"alpha={alpha}, a={a}" for alpha in range(5) for a in range(1, 13)
        if ptrim(pderiv(laguerre_exact(alpha, a)))
        != ptrim(pscale(laguerre_exact(alpha + 1, a - 1), -1)))


def _chk_lag_sum(config):
    # partial sums of L_0^{(alpha)} .. L_a^{(alpha)} against L_a^{(alpha+1)}
    return _first_failure(
        f"alpha={alpha}, a={a}" for alpha in range(5)
        for a, acc in enumerate(accumulate(
            (laguerre_exact(alpha, j) for j in range(13)), padd))
        if ptrim(acc) != laguerre_exact(alpha + 1, a))


def _rec3_residual(alpha, a, lower):
    """(a+1) L_{a+1} - (2a+1+alpha-t) L_a + lower L_{a-1} on the binomial
    form: the zero polynomial when lower is the coefficient a + alpha."""
    L = [laguerre_exact(alpha, j) for j in (a - 1, a, a + 1)]
    return padd(psub(pscale(L[2], a + 1),
                     pmul([Fraction(2 * a + 1 + alpha), Fraction(-1)], L[1])),
                pscale(L[0], lower))


def _chk_lag_rec3(config):
    for alpha in range(5):
        for a in range(1, 13):
            res = _rec3_residual(alpha, a, a + alpha)
            worst = float(max(abs(c) for c in res))
            if worst:
                return worst, 0.0, f"alpha={alpha}, a={a}"
    return 0.0, 0.0, ""


def _chk_lag_composition(config):
    return _first_failure(f"alpha={alpha}, n={n}" for alpha in range(4)
                          for n in range(9)
                          if not laguerre_composition_check(alpha, n))


def _chk_gaussian_moment(config):
    res = []
    for k in (1, 2, 4):
        for A in (1.0, 1.0 + 0.5j, 2.0 - 1.0j):
            C = np.array([0.4 - 0.2j, -0.3 + 0.1j, 0.2, 0.5j][:k])
            ref = gaussian_moment_integral(A, C, k)
            rule = QuadRule(_cfg_degree(config, 40) if k <= 2 else 24,
                            (A.real / 2,) * k)
            nodes, w = rule.nodes_weights()
            vals = np.exp(-0.5 * A * np.sum(nodes ** 2, axis=-1)
                          + nodes @ C)
            res.append(abs(tree_sum(w * vals) - ref) / abs(ref))
    return _worst(res), 1e-9, ""


# ---------------------------------------------------------------------------
# spectrum suite
# ---------------------------------------------------------------------------

def _eigenfunctions(geometries, total):
    """(lam, k, l, eigenfunction, params) for each single-block geometry
    (lam, k), with lam exact, and each Hermite order tuple l of total
    order <= total."""
    for lam, k in geometries:
        params = MagneticParams.make([(float(lam), k)])
        for tot in range(total + 1):
            for lt in _compositions(tot, k):
                yield Fraction(lam), k, lt, build_eigenfunction(lt, params), params


def _chk_eigen_residual(config):
    def failures():
        for lam, k, lt, hp, _ in _eigenfunctions(
                ((1, 2), (2, 2), (1, 4), (2, 4)), 4):
            c_f = box_field_constant(lam, k)
            for m, comp in split_by_magnetic(hp).items():
                mu = box_eigenvalue_exact(comp.holo_degree(), lam, k, c_f)
                if apply_box(comp, lam, c_f) != comp * mu:
                    yield f"lam={lam}, k={k}, l={lt}, m={m}"
    return _first_failure(failures())


def _chk_vandermonde(config):
    return _first_failure(
        f"lam={lam}, k={k}, l={lt}" for lam, k, lt, hp, params
        in _eigenfunctions(((1, 2), (2, 2), (1, 4)), 3)
        if vandermonde_split(hp, sum(lt), params) != split_by_magnetic(hp))


def _chk_upsilon_independence(config):
    # every level of zone 0, in order, against the same level of zones 1, 2
    for params in (_P2, _P4):
        table = spectrum_table(params, H_Z, max_p=5, max_zone=2)
        ev = [[e.eigenvalue for e in table if e.zone == a] for a in (0, 1, 2)]
        for a in (1, 2):
            if len(ev[a]) != len(ev[0]) or not all(
                    abs(x - y) <= 1e-12 for x, y in zip(ev[0], ev[a])):
                return 1.0, 0.0, f"k={params.k}, zone={a}: {ev[a]}"
    return 0.0, 0.0, ""


def _chk_isochromatic(config):
    t4 = spectrum_table(_P4, H_Z, max_p=5, max_zone=1)
    ev = {a: [e.eigenvalue for e in t4 if e.zone == a] for a in (0, 1)}
    mu = {a: [e.multiplicity for e in t4 if e.zone == a] for a in (0, 1)}
    if ev[0] != ev[1]:
        return 1.0, 0.0, "k=4 eigenvalue sets differ"
    if mu[0] == mu[1]:
        return 1.0, 0.0, "k=4 multiplicity vectors should differ"
    t2 = spectrum_table(_P2, H_Z, max_p=5, max_zone=1)
    mu2 = {a: [e.multiplicity for e in t2 if e.zone == a] for a in (0, 1)}
    if mu2[0] != mu2[1]:
        return 1.0, 0.0, "k=2 multiplicity vectors should agree"
    return 0.0, 0.0, ""


def _chk_zone_of(config):
    return _first_failure(f"l={l}, p={p}" for l in range(9)
                          for p in range(l + 1) if zone_of(l, 2 * p - l) != l - p)


def _chk_magnetic_orthogonality(config):
    return _first_failure(
        f"lam={lam}, k={k}, l={lt}" for lam, k, lt, hp, _
        in _eigenfunctions(((1, 2), (2, 2), (1, 4)), 4)
        if any(not gaussian_pair_integral_exact(f, g, lam).is_zero()
               for f, g in combinations(split_by_magnetic(hp).values(), 2)))


def _chk_radial(config):
    for k in (2, 4):
        for lt in range(4):
            for n in range(7):
                if not radial_vs_laguerre(n, lt, k):
                    return 1.0, 0.0, f"k={k}, l~={lt}, n={n}"
                res = radial_operator_residual(radial_eigenpoly(n, lt, k),
                                               lt, k, n)
                if ptrim(res) != [Fraction(0)]:
                    return 1.0, 0.0, f"operator residual k={k}, l~={lt}, n={n}"
    return 0.0, 0.0, ""


# ---------------------------------------------------------------------------
# projections suite
# ---------------------------------------------------------------------------

def _proj_rule(params, degree):
    return QuadRule(degree, params.axis_lambdas())


def _proj_conv(nodes, a, b, X, Y, params):
    """int delta^{(a)}(X, U) delta^{(b)}(U, Y) dU on the rule nodes (U, w)."""
    U, w = nodes
    return tree_sum(w * projection_kernel(a, X[None, :], U, params)
                    * projection_kernel(b, U, Y[None, :], params))


def _chk_idempotency(config):
    res = []
    for params, X, Y, zones, deg in (
            (_P2, _X0, _Y0, (0, 1, 2, 3), _cfg_degree(config, 40)),
            (_P2B, _X0, _Y0, (0, 1, 2, 3), _cfg_degree(config, 40)),
            (_P4, _X4, _Y4, (0, 1, 2), 24)):
        nodes = _proj_rule(params, deg).nodes_weights()
        for a in zones:
            conv = _proj_conv(nodes, a, a, X, Y, params)
            res.append(abs(conv - projection_kernel(a, X, Y, params)))
    return _worst(res), 1e-8, ""


def _chk_orthogonality(config):
    nodes = _proj_rule(_P2, _cfg_degree(config, 40)).nodes_weights()
    return _worst(abs(_proj_conv(nodes, a, b, _X0, _Y0, _P2))
                  for a in range(4) for b in range(4) if a != b), 1e-8, ""


def _chk_reproducing(config):
    res = []
    for params in (_P2, _P2B):
        lam = params.single_lambda
        U, w = _proj_rule(params, _cfg_degree(config, 40)).nodes_weights()
        zu = U[:, 0] + 1j * U[:, 1]
        zx = _X0[0] + 1j * _X0[1]
        for deg in range(5):
            f = zu ** deg * np.exp(-0.5 * lam * np.abs(zu) ** 2)
            rep = tree_sum(w * projection_kernel(0, _X0[None, :], U, params) * f)
            ref = zx ** deg * np.exp(-0.5 * lam * abs(zx) ** 2)
            res.append(abs(rep - ref))
    return _worst(res), 1e-8, ""


def _chk_quad_ladder(config):
    vals = [_proj_conv(_proj_rule(_P2, deg).nodes_weights(), 2, 2, _X0, _Y0,
                       _P2) for deg in (20, 30, 40)]
    return (float(_worst((abs(vals[2] - vals[1]), abs(vals[1] - vals[0])))),
            1e-8, "")


def _chk_quad_determinism(config):
    nodes = _proj_rule(_P2, 40).nodes_weights()
    a, b = (_proj_conv(nodes, 1, 1, _X0, _Y0, _P2) for _ in range(2))
    return float(a != b), 0.0, "pairwise tree reduction, fixed order"


# ---------------------------------------------------------------------------
# global kernels suite
# ---------------------------------------------------------------------------

def _chk_pde(sigma, config):
    rng = np.random.default_rng(42 if sigma == "wk" else 43)
    res = []
    for params in (_P2, _P4):
        for _ in range(10):
            t = float(rng.uniform(0.3, 1.2))
            X = rng.normal(scale=0.5, size=params.k)
            Y = rng.normal(scale=0.5, size=params.k)
            res.append(pde_residual(sigma, t, X, Y, params))
    return _worst(res), 1e-6, "central FD in t (1e-4), analytic in X"


def _chk_global_ck_wk(config):
    res = []
    for s, t in ((0.2, 0.3), (0.5, 0.5)):
        for params, X, Y in ((_P2, _X0, _Y0), (_P4, _X4, _Y4)):
            lam = params.axis_lambdas()
            scales = tuple(l * (1 / np.tanh(l * s) + 1 / np.tanh(l * t)) / 2
                           for l in lam)
            deg = _cfg_degree(config, 40) if params.k == 2 else 24
            U, w = QuadRule(deg, scales).nodes_weights()
            conv = tree_sum(w * global_kernel("wk", s, X[None, :], U, params)
                            * global_kernel("wk", t, U, Y[None, :], params))
            res.append(abs(conv - global_kernel("wk", s + t, X, Y, params)))
    return _worst(res), 1e-7, ""


def _chk_global_df_divergence(config):
    # the modulus of the DF chaining integrand is constant in the midpoint,
    # so the convolution is not absolutely convergent; we demonstrate the
    # constancy rather than "test" a divergent integral
    s, t = 0.2, 0.3
    U0 = np.array([0.5, -0.1])
    U1 = np.array([40.0, 25.0])
    mods = [abs(global_kernel("df", s, _X0, U, _P2)
                * global_kernel("df", t, U, _Y0, _P2)) for U in (U0, U1)]
    res = abs(mods[1] / mods[0] - 1.0)
    return res, 1e-10, ("|integrand| is independent of the midpoint: the "
                        "global DF kernel is neither L1 nor L2, CK holds "
                        "only as an oscillatory (improper) integral")


# ---------------------------------------------------------------------------
# zonal suites
# ---------------------------------------------------------------------------

def _zonal_times(config):
    return tuple(config.get("df_times", (0.5, 1.0)))


_ZONES = (0, 1, 2, 3)


def _chk_zonal_closed_vs_numeric(sigma, a, config):
    times = _zonal_times(config)
    # the numeric oracle's rule: a+1 nodes per axis, checked at a+3
    return _worst(abs(zonal_kernel_numeric(sigma, a, t, _X0, _Y0, params)
                      - zonal_kernel_closed(sigma, a, t, _X0, _Y0, params).value)
                  for params in (_P2, _P2B) for t in times), 1e-8, "", \
        _ran((_P2, _P2B), sigma=[sigma], zones=[a], t=times,
             rule_nodes=[a + 1])


def _chk_lt1_printed(sigma, config):
    times = _zonal_times(config)
    return _worst(abs(zonal_kernel_closed(sigma, 1, t, _X0, _Y0, _P2).long_term
                      - lt1_printed(sigma, t, _X0, _Y0)
                      * zonal0(sigma, t, _X0, _Y0, _P2))
                  for t in times), \
        1e-12, "printed k=2, lambda=1 long-term factor", \
        _ran((_P2,), sigma=[sigma], zones=[1], t=times)


def _chk_zonal_ck(sigma, config):
    res = []
    deg = _cfg_degree(config, 40)
    U, w = _proj_rule(_P2, deg).nodes_weights()
    for s, t in ((0.2, 0.3), (0.5, 0.5)):
        for a in _ZONES:
            conv = tree_sum(
                w * zonal_kernel_closed(sigma, a, s, _X0[None, :], U, _P2).value
                * zonal_kernel_closed(sigma, a, t, U, _Y0[None, :], _P2).value)
            ref = zonal_kernel_closed(sigma, a, s + t, _X0, _Y0, _P2).value
            res.append(abs(conv - ref))
    return _worst(res), 1e-7, "", {"zones": list(_ZONES)}


def _chk_delta_limit(sigma, config):
    for a in _ZONES:
        gaps = [_worst(abs(zonal_kernel_closed(sigma, a, t, X, Y, _P2).value
                           - projection_kernel(a, X, Y, _P2))
                       for X, Y in ((_X0, _Y0), (_X0, _X0), (_Y0, 0 * _Y0)))
                for t in (1e-1, 1e-2, 1e-3)]
        if not (gaps[0] > gaps[1] > gaps[2]):
            return 1.0, 0.0, f"a={a}: gaps {gaps}", {"zones": list(_ZONES)}
    return 0.0, 0.0, "", {"zones": list(_ZONES)}


def _chk_lt_vanish(sigma, config):
    return (_worst(abs(zonal_kernel_closed(sigma, a, 0.0, _X0, _Y0,
                                           _P2).long_term) for a in _ZONES),
            0.0, "factor 1 - e^{-2 sigma t} at t=0", {"zones": list(_ZONES)})


def _chk_spectral_series(sigma, config):
    return (_worst(abs(zonal_series_value(sigma, a, t, _X0, _Y0, 1.0, levels=12)
                       - zonal_kernel_closed(sigma, a, t, _X0, _Y0, _P2).value)
                   for a in _ZONES for t in _zonal_times(config) if t >= 0.5),
            1e-6, "exact eigenbasis, 12 levels", {"zones": list(_ZONES)})


# ---------------------------------------------------------------------------
# thermo suite
# ---------------------------------------------------------------------------

def _partition_gap(value, times=(0.5, 1.0), **ran):
    """Largest |value(sigma, a, t, params) - partition| over both
    geometries, both flows, zones 0-2 and the given times, with what ran."""
    geometries, sigmas, zones = (_P2, _P4), ("wk", "df"), (0, 1, 2)
    return _worst(abs(value(sigma, a, t, params)
                      - thermo.partition(sigma, a, t, params))
                  for params in geometries for sigma in sigmas
                  for a in zones for t in times), \
        _ran(geometries, sigma=sigmas, zones=zones, t=times, **ran)


# a zone-a plane trace uses the exact (a+1)-node rule, checked at a+3

def _chk_trace_vs_closed(config):
    gap, ran = _partition_gap(thermo.partition_by_trace, rule_nodes=[1, 2, 3])
    return gap, 1e-7, "", ran


def _chk_spectral_sum(config):
    gap, ran = _partition_gap(partial(thermo.partition_spectral, levels=200),
                              levels=200)
    return gap, 1e-8, "200 levels + analytic geometric tail", ran


def _chk_dominant_trace(config):
    gap, ran = _partition_gap(thermo.dominant_trace, (0.5,), rule_nodes=[1])
    return gap, 1e-7, "", ran


def _chk_longterm_trace(config):
    geometries, sigmas, times = (_P2, _P4), ("wk", "df"), (0.5, 1.0)
    return _worst(abs(thermo.longterm_trace(sigma, t, params))
                  for params in geometries for sigma in sigmas
                  for t in times), 1e-7, "zero trace class", \
        _ran(geometries, sigma=sigmas, zones=[1], t=times, rule_nodes=[1, 2])


def _chk_riemann_relation(config):
    s_values, zones = (2.0, 2.5, 3.0, 4.0), (0, 1, 2)
    return _worst(abs(thermo.zeta_zonal(a, s, _P2)
                      - (1 - 2.0 ** (-s)) * thermo.riemann_zeta(s))
                  for s in s_values for a in zones), \
        1e-8, "zone-independent for k=2", \
        _ran((_P2,), zones=zones, s=s_values)


def _chk_hurwitz_conditional(config):
    # recorded, not asserted: no constant shift makes the zonal spectrum
    # sum equal (1 - 2^{-s}) zeta_Hu(s, 4) termwise; report candidates
    residuals = {}
    s, terms, shifts = 3.0, 200000, (0.0, 1.0, 3.0, 7.0)
    for c_f in shifts:
        got = sum((2 * p + 1 + c_f) ** (-s) for p in range(terms))
        ref = (1 - 2.0 ** (-s)) * thermo.hurwitz_zeta(s, 4.0)
        residuals[c_f] = abs(got - ref)
    best = min(residuals, key=residuals.get)
    return 0.0, 0.0, ("conditional only; residuals by shift " +
                      ", ".join(f"c_f={c}: {r:.3e}"
                                for c, r in residuals.items()) +
                      f"; best c_f={best}"), \
        _ran(s=[s], c_f=shifts, terms=terms)


def _chk_mehler_comparison(config):
    geometries, zones, times = (_P2, _P2B), (0, 1), (0.5, 1.0, 2.0)
    return *_first_failure(
        f"lam={params.single_lambda}, a={a}, t={t}"
        for params in geometries for a in zones for t in times
        if not 0.0 < thermo.partition("wk", a, t, params).real
        < thermo.mehler_comparison_bound(a, t, params)), \
        _ran(geometries, sigma=["wk"], zones=zones, t=times)


# ---------------------------------------------------------------------------
# pathint suite
# ---------------------------------------------------------------------------

def _chain_params(deg, sigmas, times, slices):
    """What a pathint check ran: the effective grid degree and the
    (sigma, T, n) sets."""
    return _ran(quad_degree=deg, sigma=sigmas, T=times, n=slices)


def _chk_slicing_invariance(config):
    res = []
    deg = _cfg_degree(config, 24)
    for sigma in ("wk", "df"):
        for T in (0.3, 1.0):
            ref = zonal_kernel_closed(sigma, 0, T, _X0, _Y0, _P2).value
            for n in (1, 2, 3, 4):
                got = pathint.cylinder_value(sigma, 0,
                                             pathint.TimeSlicing(T, n),
                                             None, _X0, _Y0, _P2, deg)
                res.append(abs(got - ref))
    return _worst(res), 1e-6, "", _chain_params(deg, ("wk", "df"), (0.3, 1.0),
                                          (1, 2, 3, 4))


def _chk_uniform_bound(config):
    deg = _cfg_degree(config, 24)
    rep = pathint.uniform_bound_check(pathint.TimeSlicing(1.0, 3), _X0, _P2,
                                      deg)
    note = "; ".join(f"{r['F']}: |W|={r['abs']:.4f} <= {r['bound']:.4f}"
                     for r in rep["results"])
    return (float(not rep["all_ok"]), 0.0, note,
            _chain_params(deg, ("df",), (1.0,), (3,)))


def _chk_probability(config):
    deg = _cfg_degree(config, 40)
    worst = _worst(pathint.probability_conservation(t, _X0, _P2, deg)
                   for t in (0.3, 0.7))
    return (worst, 1e-7, "unitary zone evolution",
            _chain_params(deg, ("df",), (0.3, 0.7), (1,)))


def _chk_discrete_fk(config):
    deg = _cfg_degree(config, 24)
    notes = []
    params = _chain_params(deg, ("wk", "df"), (0.5,), (1, 2, 3, 4))
    for sigma in ("wk", "df"):
        ref = zonal_kernel_closed(sigma, 0, 0.5, _X0, _Y0, _P2).value
        res = [abs(pathint.feynman_kac_chain(
            sigma, pathint.TimeSlicing(0.5, n), _X0, _Y0, _P2, deg) - ref)
            / abs(ref) for n in (1, 2, 3, 4)]
        notes.append(f"{sigma}: " + ", ".join(f"{r:.2e}" for r in res))
        if not all(res[i + 1] < res[i] for i in range(3)):
            return 1.0, 0.0, "; ".join(notes), params
    return 0.0, 0.0, "monotone in n; " + "; ".join(notes), params


def _chk_nu_consistency(config):
    deg = _cfg_degree(config, 24)
    ref = complex(projection_kernel(0, _X0, _Y0, _P2))
    worst = _worst(abs(pathint.nu_cylinder_value(pathint.TimeSlicing(1.0, n),
                                                 None, _X0, _Y0, _P2, deg)
                       - ref) for n in (1, 2, 3, 4))
    return (worst, 1e-8, "n-independent by exact idempotency",
            {"quad_degree": deg, "T": [1.0], "n": [1, 2, 3, 4]})


def _chk_second_form(config):
    deg = _cfg_degree(config, 24)
    worst = _worst(pathint.second_form_residual(sigma,
                                                pathint.TimeSlicing(T, 3),
                                                _X0, _Y0, _P2, deg)
                   for sigma in ("wk", "df") for T in (0.3, 1.0))
    return (worst, 1e-8, "action-weighted chain vs kernel chain",
            _chain_params(deg, ("wk", "df"), (0.3, 1.0), (3,)))


def _chk_rn_consistency(config):
    deg = _cfg_degree(config, 24)
    rep2, rep4 = (pathint.radon_nikodym_consistency(
        pathint.TimeSlicing(0.3, n), _X0, _Y0, _P2, deg) for n in (2, 4))
    note = (f"left-action residuals n=2: {rep2['residual_left']:.3e}, "
            f"n=4: {rep4['residual_left']:.3e} (O(T/n) discretization)")
    return (_worst((rep2["residual_exact"], rep4["residual_exact"])), 1e-6, note,
            _chain_params(deg, ("wk", "df"), (0.3,), (2, 4)))


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

CHECKS = [
    ("laguerre.recurrence_vs_explicit", "laguerre", _chk_lag_recurrence),
    ("laguerre.rodrigues", "laguerre", _chk_lag_rodrigues),
    ("laguerre.derivative_identity", "laguerre", _chk_lag_derivative),
    ("laguerre.sum_identity", "laguerre", _chk_lag_sum),
    ("laguerre.rec3_identity", "laguerre", _chk_lag_rec3),
    ("laguerre.composition", "laguerre", _chk_lag_composition),
    ("laguerre.gaussian_moment_quadrature", "laguerre", _chk_gaussian_moment),
    ("spectrum.eigen_residual", "spectrum", _chk_eigen_residual),
    ("spectrum.vandermonde_split", "spectrum", _chk_vandermonde),
    ("spectrum.upsilon_independence", "spectrum", _chk_upsilon_independence),
    ("spectrum.isochromatic_zones", "spectrum", _chk_isochromatic),
    ("spectrum.zone_of_consistency", "spectrum", _chk_zone_of),
    ("spectrum.magnetic_orthogonality", "spectrum", _chk_magnetic_orthogonality),
    ("spectrum.radial_laguerre", "spectrum", _chk_radial),
    ("projections.idempotency", "projections", _chk_idempotency),
    ("projections.orthogonality", "projections", _chk_orthogonality),
    ("projections.reproducing", "projections", _chk_reproducing),
    ("quadrature.convergence_ladder", "projections", _chk_quad_ladder),
    ("quadrature.determinism", "projections", _chk_quad_determinism),
    ("global.heat_equation", "global_kernels", partial(_chk_pde, "wk")),
    ("global.schrodinger_equation", "global_kernels", partial(_chk_pde, "df")),
    ("global.ck_wk", "global_kernels", _chk_global_ck_wk),
    ("global.df_divergence_note", "global_kernels", _chk_global_df_divergence),
    *[(f"zonal_{sigma}.{name}", f"zonal_{sigma}", partial(check, sigma, *args))
      for sigma in ("wk", "df") for name, check, *args in (
          ("closed_vs_numeric_a0", _chk_zonal_closed_vs_numeric, 0),
          ("closed_vs_numeric_a1", _chk_zonal_closed_vs_numeric, 1),
          ("lt1_printed", _chk_lt1_printed),
          ("chapman_kolmogorov", _chk_zonal_ck),
          ("delta_limit", _chk_delta_limit),
          ("longterm_vanish_t0", _chk_lt_vanish),
          ("spectral_series", _chk_spectral_series))],
    ("thermo.trace_vs_closed", "thermo", _chk_trace_vs_closed),
    ("thermo.spectral_sum", "thermo", _chk_spectral_sum),
    ("thermo.dominant_trace", "thermo", _chk_dominant_trace),
    ("thermo.longterm_trace_zero", "thermo", _chk_longterm_trace),
    ("thermo.riemann_relation", "thermo", _chk_riemann_relation),
    ("thermo.hurwitz_conditional", "thermo", _chk_hurwitz_conditional),
    ("thermo.mehler_comparison", "thermo", _chk_mehler_comparison),
    ("pathint.slicing_invariance", "pathint", _chk_slicing_invariance),
    ("pathint.uniform_bound", "pathint", _chk_uniform_bound),
    ("pathint.probability_conservation", "pathint", _chk_probability),
    ("pathint.discrete_feynman_kac", "pathint", _chk_discrete_fk),
    ("pathint.nu_consistency", "pathint", _chk_nu_consistency),
    ("pathint.second_form_identity", "pathint", _chk_second_form),
    ("pathint.rn_consistency", "pathint", _chk_rn_consistency),
]


def _run_one(check_id, func, config) -> CheckResult:
    t0 = time.perf_counter()
    try:
        # a check returns (residual, tolerance, note[, params it ran with])
        residual, tolerance, note, *params = func(config)
        status = "PASS" if residual <= tolerance else "FAIL"
        res = CheckResult(check_id, params[0] if params else {},
                          float(residual), float(tolerance), status, note)
    except Exception as exc:
        # one broken check (numeric or not: TypeError, MemoryError, ...)
        # is reported, never allowed to abort the rest of the run
        res = CheckResult(check_id, {}, None, 0.0, "ERROR",
                          f"{type(exc).__name__}: {exc}")
    res.seconds = time.perf_counter() - t0
    return res


def run_suite(suite: str, config: dict | None = None) -> list[CheckResult]:
    """Run one suite (or 'all'); deterministic order, three-state results."""
    config = dict(config or {})
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(SUITES + ('all',))}")
    selected = [(cid, fn) for cid, s, fn in CHECKS
                if suite == "all" or s == suite]
    threads = int(config.get("threads", 1) or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda cf: _run_one(cf[0], cf[1], config),
                                    selected))
    else:
        results = [_run_one(cid, fn, config) for cid, fn in selected]
    return results


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
