"""Zonal partition functions, zeta functions, and the classical zeta relations."""

from __future__ import annotations

import math

import numpy as np

from .params import (MagneticParams, HamiltonianVariant, _composition_sum,
                     _factor_levels, sigma_value, zone_count, zone_flow)
from .kernels import check_df_time, zonal_kernel_closed
from .quadrature import exact_value, tree_sum


def _variant_shift(variant: HamiltonianVariant | None, params) -> float:
    if variant is None or variant.kind == "H_Z":
        return 0.0
    if variant.kind == "H_Zf":
        return variant.field_constant(params)
    raise ValueError("partition/zeta functions are defined for H_Z or H_Zf")


# ---------------------------------------------------------------------------
# closed form and oracles
# ---------------------------------------------------------------------------

def _check_partition_time(sigma, t: float, params: MagneticParams) -> None:
    """Refuse a t the partition sums are not defined at: t <= 0 or NaN,
    and a DF caustic (`check_df_time`)."""
    if not t > 0:
        raise ValueError("partition function requires t > 0")
    check_df_time(sigma, t, params)


def partition(sigma, a: int, t: float, params: MagneticParams,
              variant: HamiltonianVariant | None = None) -> complex:
    """Z_sigma^{(a)}(t) = binom(a + k/2 - 1, a) prod e^{-k_i lam_i t s / 2}
    / (1 - e^{-2 lam_i t s})^{k_i/2}, times e^{-s t c_f} for H_Zf."""
    _check_partition_time(sigma, t, params)
    s = sigma_value(sigma)
    out = complex(zone_count(a, params.k))
    for b in params.blocks:
        e, shift = zone_flow(sigma, t, b.lam)
        out *= np.exp(shift * (b.k // 2)) / (1 - e) ** (b.k // 2)
    return out * np.exp(-s * t * _variant_shift(variant, params))


def _plane_trace(sigma, a: int, t: float, lam: float,
                 part: str = "value") -> tuple[complex, float]:
    """Diagonal trace of the zone-a kernel on a single coordinate plane,
    with its quadrature delta (`exact_value`).

    The diagonal is a polynomial of degree 2a times e^{-A|X|^2} with
    complex A = lam (1 - e^{-2 lam t sigma}) (Re A = 0 at a DF caustic,
    which the rule refuses), so the rotated (a+1)-node rule is exact.
    part selects "value", "dominant" or "long_term" of the closed kernel.
    """
    pp = MagneticParams.make([(lam, 2)])
    A = complex(lam * (1 - zone_flow(sigma, t, lam)[0]))
    return exact_value(lambda X: getattr(
        zonal_kernel_closed(sigma, a, t, X, X, pp), part), (A, A), a + 1)


def _composed_trace(sigma, a: int, t: float, params: MagneticParams,
                    part: str = "value") -> tuple[complex, float]:
    """Sum over the compositions (a_p) of a over the coordinate planes of
    the products of plane traces, part `part` of each plane with a_p > 0
    and the zone-0 value of the others, with the worst plane delta.

    The kernels are products over planes, so their diagonal integrals over
    R^k factorize; the sum is taken as Cauchy products of the planes'
    trace sequences (`_composition_sum`), each block's computed once for
    its k_i/2 planes, and a lone plane computes only its zone-a trace.
    """
    _check_partition_time(sigma, t, params)
    ms = _factor_levels(a, params.n_planes)
    levels, deltas = [], []
    for b in params.blocks:
        values, ds = zip(*(_plane_trace(sigma, m, t, b.lam,
                                        part if m else "value") for m in ms))
        levels += [values] * (b.k // 2)
        deltas += ds
    return _composition_sum(a, levels), max(deltas)


def partition_trace(sigma, a: int, t: float, params: MagneticParams,
                    variant: HamiltonianVariant | None = None
                    ) -> tuple[complex, float]:
    """Quadrature of the diagonal, the trace-side oracle for `partition`,
    with the worst quadrature delta over the plane traces used: the gross
    kernel expands over irreducible tuples, whose kernels are products
    over planes (`_composed_trace`)."""
    total, delta = _composed_trace(sigma, a, t, params)
    s = sigma_value(sigma)
    return total * np.exp(-s * t * _variant_shift(variant, params)), delta


def partition_by_trace(sigma, a: int, t: float, params: MagneticParams,
                       quad_degree: int = 40,
                       variant: HamiltonianVariant | None = None) -> complex:
    """`partition_trace` without its delta.  The plane rules are sized
    from the zone index; quad_degree is accepted for compatibility and
    not used."""
    return partition_trace(sigma, a, t, params, variant)[0]


def dominant_trace(sigma, a: int, t: float, params: MagneticParams) -> complex:
    """Diagonal quadrature of the dominant kernel alone (equals `partition`):
    on the diagonal it is binom(a + k/2 - 1, a) times d^{(0)}."""
    return zone_count(a, params.k) * _composed_trace(sigma, 0, t, params)[0]


def longterm_trace(sigma, t: float, params: MagneticParams,
                   quad_degree: int = 40) -> complex:
    """Diagonal quadrature of the a=1 long-term kernel; zero trace class.

    The gross long-term part is sum_j lt_j prod_{i!=j} zonal0_i over
    planes, the zone-1 compositions of `_composed_trace`.  quad_degree is
    accepted for compatibility; the rule is exact.
    """
    return _composed_trace(sigma, 1, t, params, part="long_term")[0]


def _mult_tail(q: int, L: int, r: complex) -> complex:
    """sum_{p >= L} binom(p+q-1, q-1) r^p in closed form, L >= 1:
    r^L sum_j binom(L+q-2-j, q-1-j) (1-r)^{-(j+1)}, j = 0..q-1."""
    return r ** L * sum(math.comb(L + q - 2 - j, q - 1 - j)
                        * (1 - r) ** (-(j + 1)) for j in range(q - 1, -1, -1))


def partition_spectral(sigma, a: int, t: float, params: MagneticParams,
                       variant: HamiltonianVariant | None = None,
                       levels: int = 200) -> complex:
    """Eigenvalue sum sum mult e^{-s t mu} over gross zone a.

    Direct terms up to the level cap plus the closed geometric tail (the
    DF sum is only Abel-convergent; the tail term is its analytic value).
    The upsilon-composition binomials sum to zone_count(a, k)
    independently of the level, so the sum factorizes over blocks.
    """
    _check_partition_time(sigma, t, params)
    s = sigma_value(sigma)
    total = complex(zone_count(a, params.k))
    for b in params.blocks:
        q = b.k // 2
        p = np.arange(levels)
        mult = np.array([zone_count(n, b.k) for n in p], float)
        r, shift = map(complex, zone_flow(sigma, t, b.lam))
        head = tree_sum(mult * r ** p)
        total *= (head + _mult_tail(q, levels, r)) * np.exp(shift * q)
    return total * np.exp(-s * t * _variant_shift(variant, params))


# ---------------------------------------------------------------------------
# zeta functions
# ---------------------------------------------------------------------------

_BERNOULLI = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730]
_EM_DIRECT = 40             # direct terms before an Euler-Maclaurin tail


def _em_sum_inverse_powers(s: complex, base: float, step: float,
                           start: int) -> complex:
    """sum_{n >= start} (base + step*n)^{-s} by direct terms + Euler-Maclaurin."""
    N = start + _EM_DIRECT
    n = np.arange(start, N)
    acc = np.sum((base + step * n) ** (-s))
    w = base + step * N
    acc += w ** (1 - s) / (step * (s - 1)) + 0.5 * w ** (-s)
    # derivative terms: g^{(2j-1)}(N) for g(x) = (base + step x)^{-s}
    fac = -s * step * w ** (-s - 1)  # g'(N)
    order = 1
    for j, B in enumerate(_BERNOULLI, start=1):
        acc -= B / math.factorial(2 * j) * fac
        for _ in range(2):
            fac *= -(s + order) * step / w
            order += 1
    return acc


def riemann_zeta(s: complex) -> complex:
    """zeta_R(s) by direct series plus Euler-Maclaurin tail, Re(s) > 1."""
    s = complex(s)
    if not s.real > 1:
        raise ValueError("riemann_zeta implemented for Re(s) > 1 only")
    return _em_sum_inverse_powers(s, 0.0, 1.0, start=1)


def hurwitz_zeta(s: complex, x: float) -> complex:
    """zeta_Hu(s, x) = sum_{n >= 0} (n + x)^{-s}, Re(s) > 1, x > 0."""
    s = complex(s)
    if not s.real > 1:
        raise ValueError("hurwitz_zeta implemented for Re(s) > 1 only")
    if not x > 0:
        raise ValueError("hurwitz_zeta requires x > 0")
    return _em_sum_inverse_powers(s, x, 1.0, start=0)


def zeta_zonal(a: int, s: complex, params: MagneticParams,
               variant: HamiltonianVariant | None = None) -> complex:
    """Zonal zeta sum mult(p) mu_p^{-s} on gross zone a, Re(s) > k/2.

    Single-block parameters only (the acceptance scope); the per-level
    multiplicity is binom(p+q-1, q-1) binom(a+q-1, q-1) with q = k/2 and
    mu_p = alpha + beta p, alpha = lam q + c_f, beta = 2 lam.  The first
    _EM_DIRECT levels are summed directly; beyond them binom(p+q-1, q-1)
    = prod_{i<q} (mu_p - alpha + i beta) / (i beta) is a polynomial in mu_p
    and each power j of mu_p adds one Euler-Maclaurin sum of mu_p^{j-s}
    (which needs Re(s) > q).  The direct head keeps that polynomial away
    from mu_p = alpha, where its terms cancel.
    """
    if a < 0:
        raise ValueError(f"zone index must be nonnegative, got {a}")
    lam, q = params.single_lambda, params.k // 2
    # q >= 1, so this also keeps Re(s) > 1 (no analytic continuation)
    if not complex(s).real > q:
        raise ValueError(f"zeta_zonal needs Re(s) > k/2 = {q}, got s = {s}")
    s = complex(s)
    alpha, beta = lam * q + _variant_shift(variant, params), 2 * lam
    p = np.arange(_EM_DIRECT)
    mult = np.array([zone_count(n, params.k) for n in p], float)
    acc = complex(np.sum(mult * (alpha + beta * p) ** (-s)))
    poly = np.array([1.0])  # ascending coefficients in mu
    for i in range(1, q):
        poly = np.convolve(poly, [1 - alpha / (i * beta), 1 / (i * beta)])
    for j, cj in enumerate(poly):
        acc += cj * _em_sum_inverse_powers(s - j, alpha, beta, _EM_DIRECT)
    return zone_count(a, params.k) * acc


def mehler_comparison_bound(a: int, t: float, params: MagneticParams) -> float:
    """Upper envelope e^{(4a + k) lam t} / (B (cosh 2Bt - 1))^{k/2}, B = lam.

    With B = lam the envelope stays above the zone partition function for
    all t > 0: as t -> infinity it flattens to 1/B^{k/2} while the zone
    trace decays, and for t -> 0 it blows up one order faster.
    """
    B, k = params.single_lambda, params.k
    return float(np.exp((4 * a + k) * B * t) /
                 (B * (np.cosh(2 * B * t) - 1)) ** (k / 2))
