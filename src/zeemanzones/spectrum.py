"""Explicit spectra, multiplicities, zone indexing, and eigenfunction oracles.

Quantum numbers: holomorphic degree p, antiholomorphic degree upsilon,
azimuthal l = p + upsilon, magnetic m = 2p - l.  The gross zone index is
upsilon; eigenvalues depend only on the holomorphic indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (QC, ZonePoly, _poly_subst, gaussian_pair_integral_exact,
                    hermite_scaled_exact, laguerre_exact)
# _compositions and zone_count are also imported from here by the tests
from .params import (MagneticParams, HamiltonianVariant, _compositions,
                     sigma_value, zone_count)


# ---------------------------------------------------------------------------
# eigenvalues / multiplicities / zones
# ---------------------------------------------------------------------------

def eigenvalue(p_blocks, params: MagneticParams,
               variant: HamiltonianVariant) -> float:
    """Eigenvalue at per-block holomorphic degrees p_i.

    box:  -(sum lambda_i (4 p_i + k_i) + 2 c_f) = -2 H_Zf; the default c_f
          gives the sum of 4 lambda_i^2 k_i,
    H_Z:  +(1/2) sum lambda_i (4 p_i + k_i),
    H_Zf: H_Z + c_f (`HamiltonianVariant.spectral_shift`).
    """
    p_blocks = tuple(int(p) for p in p_blocks)
    if len(p_blocks) != len(params.blocks):
        raise ValueError("one holomorphic index per block required")
    if any(p < 0 for p in p_blocks):
        raise ValueError("holomorphic indices must be nonnegative")
    base = sum(b.lam * (4 * p + b.k) for p, b in zip(p_blocks, params.blocks))
    if variant.kind == "box":
        return -(base + 2.0 * variant.field_constant(params))
    return 0.5 * base + variant.spectral_shift(params)


def multiplicity(p_blocks, v_blocks, params: MagneticParams) -> int:
    """Product of binomials over blocks for fixed (p_i, upsilon_i)."""
    if len(p_blocks) != len(params.blocks) or len(v_blocks) != len(params.blocks):
        raise ValueError("one index pair per block required")
    return math.prod(zone_count(p, b.k) * zone_count(v, b.k)
                     for p, v, b in zip(p_blocks, v_blocks, params.blocks))


def zone_of(l: int, m: int) -> int:
    """Gross zone index upsilon = (l - m) / 2."""
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got l={l}, m={m}")
    if (l - m) % 2:
        raise ValueError(f"l - m must be even, got l={l}, m={m}")
    return (l - m) // 2


@dataclass(frozen=True)
class SpectrumEntry:
    zone: int
    p: int
    upsilon: int
    l: int
    m: int
    eigenvalue: float
    multiplicity: int


def spectrum_table(params: MagneticParams, variant: HamiltonianVariant,
                   max_p: int, max_zone: int) -> list[SpectrumEntry]:
    """Eigenvalue table grouped by gross zone, eigenvalues ascending.

    Complete through total holomorphic degree max_p: multiplicities
    aggregate all per-block decompositions of each eigenvalue; ordering
    ties between decompositions break lexicographically.  The levels are
    grouped once: summed over the zone's per-block splits v, a tuple's
    multiplicity is prod_i zone_count(p_i, k_i) * zone_count(a, k), so
    zone a scales each level's zone-free count by zone_count(a, k).
    """
    by_eig: dict[float, tuple[tuple[int, ...], int]] = {}
    for ptup in sorted(pt for tot in range(max_p + 1)
                       for pt in _compositions(tot, len(params.blocks))):
        key = round(eigenvalue(ptup, params, variant), 12)
        mult = math.prod(zone_count(p, b.k)
                         for p, b in zip(ptup, params.blocks))
        rep, m0 = by_eig.get(key, (ptup, 0))
        by_eig[key] = (min(rep, ptup), m0 + mult)
    levels = [(ev, sum(ptup), mult) for ev, (ptup, mult)
              in sorted(by_eig.items())]
    return [SpectrumEntry(zone=a, p=p, upsilon=a, l=p + a, m=p - a,
                          eigenvalue=float(ev),
                          multiplicity=mult * zone_count(a, params.k))
            for a in range(max_zone + 1) for ev, p, mult in levels]


# ---------------------------------------------------------------------------
# eigenfunction construction (exact, single-lambda oracle scope)
# ---------------------------------------------------------------------------

def _axis_linear(nvars: int, axis: int) -> ZonePoly:
    """(z + zbar)/2 on an even axis, (z - zbar)/2 on an odd one.

    Plane j holds axes (2j, 2j+1) with z_j = X^{2j} + i X^{2j+1}, so
    X^{2j} = (z + zbar)/2 and X^{2j+1} = -i w with w = (z - zbar)/2.  The
    odd axis is returned as w: `build_eigenfunction` takes its -i into a
    unit scalar, so the ring keeps real rational coefficients.
    """
    j, parity = divmod(axis, 2)
    z = ZonePoly.z(nvars, j)
    zb = ZonePoly.zbar(nvars, j)
    return (z - zb if parity else z + zb) * Fraction(1, 2)


def _exact_lambda(lam: float) -> Fraction:
    """The field strength lam as the exact rational it must be."""
    exact = Fraction(lam).limit_denominator(10 ** 12)
    if float(exact) != lam:
        raise ValueError("exact eigenfunction oracle needs a rational lambda")
    return exact


def build_eigenfunction(l_tuple, params: MagneticParams) -> ZonePoly:
    """Hermite-product eigenfunction as an exact (z, zbar) polynomial.

    Returns i^L prod_i lam^{-l_i/2} H_{l_i}(sqrt(lam) X^i), L the sum of
    the orders on odd axes, expanded in the complex coordinates.  The
    lam^{-l/2} rescaling keeps coefficients rational.  H_l has the parity
    of l, so on an odd axis, X = -i w, the factor times i^l is
    hermite_scaled_exact(l, -lam) at w (`_axis_linear`): the coefficients
    are real.  Neither scalar changes an eigenfunction property, the
    magnetic split or the orthogonality of the parts.
    """
    lam = _exact_lambda(params.single_lambda)
    k = params.k
    if len(l_tuple) != k:
        raise ValueError(f"need one Hermite order per coordinate, k={k}")
    nvars = k // 2
    out = ZonePoly.constant(nvars, 1)
    for axis, l in enumerate(l_tuple):
        if l == 0:
            continue
        scale = -lam if axis % 2 else lam
        out = out * _poly_subst(hermite_scaled_exact(l, scale), _axis_linear(nvars, axis))
    return out


def split_by_magnetic(hp: ZonePoly) -> dict[int, ZonePoly]:
    """Group monomials by magnetic number m = |alpha| - |beta|."""
    return {m: hp.magnetic_component(m) for m in sorted(hp.magnetic_numbers())}


def _angular_operator(hp: ZonePoly, lam: Fraction) -> ZonePoly:
    """D = -lam * sum_j (z_j d_z_j - zbar_j d_zbar_j); eigenvalue -m*lam."""
    out = ZonePoly(hp.nvars)
    for j in range(hp.nvars):
        out = out + ZonePoly.z(hp.nvars, j) * hp.diff_z(j) * -lam
        out = out + ZonePoly.zbar(hp.nvars, j) * hp.diff_zbar(j) * lam
    return out


def vandermonde_split(hp: ZonePoly, l: int, params: MagneticParams) -> dict[int, ZonePoly]:
    """Recover magnetic components through the inverse Vandermonde matrix.

    An order-l Hermite product has candidate magnetic numbers m = 2p - l,
    p = 0..l, with D-eigenvalues c_m = -m*lam.  The Lagrange basis
    ell_m(x) = prod_{m' != m} (x - c_{m'}) / (c_m - c_{m'}) inverts the
    Vandermonde system sum_m c_m^i H^{(m)} = D^i(hp), so D's spectral
    projector gives H^{(m)} = sum_i ell_{m,i} D^i(hp) without reading
    monomial degrees."""
    lam = _exact_lambda(params.single_lambda)
    cs = {m: -m * lam for m in range(-l, l + 1, 2)}
    powers = [hp]
    for _ in range(l):
        powers.append(_angular_operator(powers[-1], lam))
    out = {}
    for m, c in cs.items():
        ell = ZonePoly.constant(1)
        for n, cn in cs.items():
            if n != m:
                ell = ell * ZonePoly.univariate([-cn / (c - cn), 1 / (c - cn)])
        comp = sum((w * e for e, w in zip(ell.coeffs(), powers)), ZonePoly(hp.nvars))
        if comp.terms:
            out[m] = comp
    return out


# ---------------------------------------------------------------------------
# zone eigenbasis and spectral series (k=2 oracle)
# ---------------------------------------------------------------------------

def zone_eigenfunction_exact(p: int, a: int, lam) -> tuple[list[Fraction], Fraction]:
    """Level-p zone-a eigenfunction for k=2: h = sum_r c_r z^{p-r} zbar^{a-r}.

    The eigenspace at fixed (p, a) is one-dimensional; requiring
    Box h = -((4p+2) lam + c_f) h forces
        c_{r+1} = -(p-r)(a-r) c_r / (lam (r+1)),   c_0 = 1.
    lam is an int or a Fraction (`QC.of`).  Returns (coefficients, nsq),
    nsq the pair integral of h with itself, so the squared L^2(dX) norm
    of h e^{-lam |z|^2 / 2} is pi * nsq.
    """
    lam = QC.of(lam)
    if p < 0 or a < 0:
        raise ValueError("indices must be nonnegative")
    cs = [Fraction(1)]
    for r in range(min(p, a)):
        cs.append(-cs[-1] * Fraction((p - r) * (a - r), (r + 1)) / lam)
    h = ZonePoly(1, {((p - r,), (a - r,)): c for r, c in enumerate(cs)})
    return cs, gaussian_pair_integral_exact(h, h, lam)


def zonal_series_value(sigma, a: int, t: float, X, Y, lam: float,
                       levels: int = 12):
    """Truncated eigen-expansion sum_p e^{-sigma t mu_p} phi_p(X) conj(phi_p(Y))
    of the k=2 zone-a kernel under H_Z (mu_p = lam (2p+1))."""
    import numpy as np
    s = sigma_value(sigma)
    exact = _exact_lambda(lam)
    X, Y = (np.asarray(V, dtype=float) for V in (X, Y))
    zx = X[..., 0] + 1j * X[..., 1]
    zy = Y[..., 0] + 1j * Y[..., 1]
    gx = np.exp(-0.5 * lam * np.abs(zx) ** 2)
    gy = np.exp(-0.5 * lam * np.abs(zy) ** 2)
    out = 0j
    for p in range(levels + 1):
        cs, nsq = zone_eigenfunction_exact(p, a, exact)
        hx, hy = (sum(float(c) * z ** (p - r) * np.conj(z) ** (a - r)
                      for r, c in enumerate(cs)) for z in (zx, zy))
        mu = lam * (2 * p + 1)
        out = out + np.exp(-s * t * mu) * hx * np.conj(hy) / (np.pi * float(nsq))
    return out * gx * gy


# ---------------------------------------------------------------------------
# radial-Laguerre cross-check
# ---------------------------------------------------------------------------

def radial_eigenpoly(n: int, l_tilde: int, k: int) -> ZonePoly:
    """Monic polynomial eigenfunction of the radial operator, in t = z.

    Coefficients a_i of t^{n-i} follow
        a_0 = 1,  a_i = -a_{i-1} (n - i + 1)(n + l_tilde + k/2 - i) / i,
    which is the recursion the radial eigen-equation actually forces (the
    printed form annihilates a_1 for n = 1 and cannot be proportional to a
    Laguerre polynomial; see the exact operator check below).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k <= 0 or k % 2:
        raise ValueError("k must be a positive even integer")
    desc = [Fraction(1)]
    for i in range(1, n + 1):
        desc.append(-desc[-1] * Fraction((n - i + 1) * (2 * (n + l_tilde) + k - 2 * i), 2 * i))
    return ZonePoly.univariate(reversed(desc))


def radial_operator_residual(u: ZonePoly, l_tilde: int, k: int, n: int) -> ZonePoly:
    """Exact residual of t u'' + (alpha + 1 - t) u' + n u, alpha = k/2 + l_tilde - 1.

    Zero iff u is the degree-n polynomial eigenfunction; equivalently the
    full radial operator 4t u'' + (2k + 4 l_tilde - 4t) u' has eigenvalue
    -4n on u.
    """
    a1 = Fraction(k, 2) + l_tilde  # alpha + 1
    du = u.diff_z(0)
    return ZonePoly.z(1, 0) * du.diff_z(0) + ZonePoly.univariate([a1, -1]) * du + u * n


def radial_vs_laguerre(n: int, l_tilde: int, k: int) -> bool:
    """radial_eigenpoly equals the monic rescaling of L_n^{(k/2 + l_tilde - 1)}."""
    u = radial_eigenpoly(n, l_tilde, k)
    L = laguerre_exact(k // 2 + l_tilde - 1, n)
    return u == L * (1 / L.coeffs()[-1])
