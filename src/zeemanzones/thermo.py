"""Zonal partition functions and their oracles; zeta functions from `zeta`."""

from __future__ import annotations

import math

import numpy as np

from .params import (H_Z, MagneticParams, HamiltonianVariant,
                     _composition_sum, _factor_levels, sigma_value,
                     zone_count, zone_flow)
from .kernels import check_df_time, zonal_kernel_closed
from .quadrature import exact_value, tree_sum
from .zeta import hurwitz_zeta, riemann_zeta, zeta_zonal  # noqa: F401


# ---------------------------------------------------------------------------
# closed form and oracles
# ---------------------------------------------------------------------------

def _check_partition_time(sigma, t: float, params: MagneticParams) -> None:
    """Refuse a t the partition sums are not defined at: t <= 0 or NaN,
    and a DF caustic (`check_df_time`)."""
    if not t > 0:
        raise ValueError(f"partition function requires t > 0, got t={t}")
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
    return out * np.exp(-s * t * (variant or H_Z).spectral_shift(params))


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
    shift = (variant or H_Z).spectral_shift(params)
    return total * np.exp(-sigma_value(sigma) * t * shift), delta


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
    return total * np.exp(-s * t * (variant or H_Z).spectral_shift(params))


def mehler_comparison_bound(a: int, t: float, params: MagneticParams) -> float:
    """Upper envelope e^{(4a + k) lam t} / (B (cosh 2Bt - 1))^{k/2}, B = lam.

    With B = lam the envelope stays above the zone partition function for
    all t > 0: as t -> infinity it flattens to 1/B^{k/2} while the zone
    trace decays, and for t -> 0 it blows up one order faster.
    """
    B, k = params.single_lambda, params.k
    return float(np.exp((4 * a + k) * B * t) /
                 (B * (np.cosh(2 * B * t) - 1)) ** (k / 2))
