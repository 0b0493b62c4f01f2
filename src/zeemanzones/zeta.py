"""Riemann, Hurwitz and zonal zeta functions on floats and `math` alone."""

import math

from .params import H_Z, MagneticParams, HamiltonianVariant, zone_count

_BERNOULLI = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730]
_EM_DIRECT = 40             # direct terms before an Euler-Maclaurin tail


def _fsum(terms) -> complex:
    """The correctly rounded sum of complex terms, in any order."""
    re, im = zip(*((z.real, z.imag) for z in terms))
    return complex(math.fsum(re), math.fsum(im))


def _em_sum_inverse_powers(s: complex, base: float, step: float,
                           start: int) -> complex:
    """sum_{n >= start} (base + step*n)^{-s} by direct terms + Euler-Maclaurin."""
    N = start + _EM_DIRECT
    acc = _fsum((base + step * n) ** (-s) for n in range(start, N))
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


def hurwitz_zeta(s: complex, x: float) -> complex:
    """zeta_Hu(s, x) = sum_{n >= 0} (n + x)^{-s}, Re(s) > 1, x > 0."""
    s = complex(s)
    if not s.real > 1:
        raise ValueError("zeta sums implemented for Re(s) > 1 only")
    if not x > 0:
        raise ValueError("hurwitz_zeta requires x > 0")
    return _em_sum_inverse_powers(s, x, 1.0, start=0)


def riemann_zeta(s: complex) -> complex:
    """zeta_R(s) = zeta_Hu(s, 1), Re(s) > 1."""
    return hurwitz_zeta(s, 1.0)


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
    alpha, beta = lam * q + (variant or H_Z).spectral_shift(params), 2 * lam
    acc = _fsum(zone_count(p, params.k) * (alpha + beta * p) ** (-s)
                for p in range(_EM_DIRECT))
    poly = [1.0]  # ascending coefficients in mu
    for i in range(1, q):
        c0, c1 = 1 - alpha / (i * beta), 1 / (i * beta)
        poly = [c0 * lo + c1 * hi for lo, hi in zip(poly + [0.0], [0.0] + poly)]
    for j, cj in enumerate(poly):
        acc += cj * _em_sum_inverse_powers(s - j, alpha, beta, _EM_DIRECT)
    return zone_count(a, params.k) * acc
