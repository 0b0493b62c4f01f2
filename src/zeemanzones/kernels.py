"""Closed-form projection, global and zonal kernels.

Flat gauge throughout: every kernel carries its Gaussian factor
internally and every convolution is a plain Lebesgue integral.

Flows are labelled by sigma: 'wk' (heat, sigma = 1) and 'df'
(Schrodinger, sigma = i).  The point-form evaluators broadcast over
leading axes of X and Y, whose last axis holds (x, y) pairs, one per
coordinate plane; they walk the planes (`_planes`), adding elementwise
products of coordinate views in coordinate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .params import (MagneticParams, NumericError, _composition_sum,
                     _factor_levels, sigma_value, zone_flow)
from .quadrature import exact_value, tree_sum
from .special import laguerre, laguerre_levels


# The largest zone a whose chain step applies its zone factor expanded in
# the x2 half (`plane_step`), as a + 1 matrix products; above it the apply
# evaluates the factor slab by slab.  It is the largest zone at which
# chains stay within 1e-14 relative of the slab loop, measured at degree
# 40 over WK and DF, T in {0.3, 0.5, 1, 2, 5}, n = 2..4 and four point
# pairs on k=2 (two on the k=4 geometry): zone 1 is within 9.6e-16 (WK)
# and 3.7e-15 (DF); at zone 2 DF reaches 1.9e-14, and at zone 3 7.3e-12.
EXPANDED_ZONES = 1

# The most bytes a step's scratch array holds: a modulus block of
# `_outer_exp`, and a block of y columns of an expanded apply's h
# (`_contract_plane`).  A degree-40 `verify --suite pathint --threads 2`
# job peaks at 38.8 MB with 128 KiB, against 39.7 MB with 256 KiB apply
# blocks and 42.2 MB with h whole (medians of 5-7 runs on 2 cores); 64
# KiB saved nothing more and made the suite slower.
SCRATCH_BYTES = 2 ** 17

# An expanded apply's blocks start at multiples of this many columns: a
# multiple of the BLAS kernels' column tiles, so each block's matrix
# product has the bits of the whole product's columns (blocks of 7, 14 or
# 21 columns round otherwise).
COLUMN_ALIGN = 8


class SingularTimeError(NumericError, ValueError):
    """DF evaluation at t within tolerance of a sin-zero n*pi/lambda_i."""


def check_df_time(sigma, t: float, params: MagneticParams):
    """Refuse a non-finite t for every flow, and t within 1e-9 of a
    caustic n pi / lambda_i, n >= 1, of the DF flow, where the global
    kernel and every trace and chain built on it are singular; the WK
    flow has none.  The zonal closed forms are entire and call no check."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got t={t}")
    if sigma != "df":
        return
    for b in params.blocks:
        n = round(b.lam * t / np.pi)
        if n >= 1 and abs(t - n * np.pi / b.lam) < 1e-9:
            raise SingularTimeError(
                f"t={t} is within 1e-09 of the singular time {n}*pi/{b.lam}")


# ---------------------------------------------------------------------------
# coordinate planes
# ---------------------------------------------------------------------------

def _planes(X, Y, params):
    """Yield (block, planes) per block: its coordinate planes in order,
    each as four strided views (x1, x2, y1, y2) of X and Y."""
    X = np.asarray(X, dtype=complex if np.iscomplexobj(X) else float)
    Y = np.asarray(Y, dtype=complex if np.iscomplexobj(Y) else float)
    if X.shape[-1] != params.k or Y.shape[-1] != params.k:
        raise ValueError(f"points must have dimension k={params.k}")
    for b, sl in zip(params.blocks, params.block_slices()):
        yield b, [(X[..., i], X[..., i + 1], Y[..., i], Y[..., i + 1])
                  for i in range(sl.start, sl.stop, 2)]


def _coord_sum(planes, term):
    """sum of term(x, y) over a block's coordinates, added in place in
    coordinate order: on real points np.sum's bits (it adds left to right)."""
    terms = (term(p[i], p[i + 2]) for p in planes for i in (0, 1))
    acc = next(terms)
    for t in terms:
        acc += t
    return acc


def _dist_sq(planes):
    """|X - Y|^2 on one block."""
    return _coord_sum(planes, lambda x, y: np.square(x - y))


def _norms_sq(planes):
    """|X|^2 + |Y|^2 on one block."""
    return (_coord_sum(planes, lambda x, _: x * x)
            + _coord_sum(planes, lambda _, y: y * y))


def _j_dot(planes):
    """<X, J Y> on one block, J(y1, y2) = (-y2, y1): each plane's -y2 x1 +
    x2 y1, the same product at X = Y, so it cancels exactly on complex
    points too (numpy's vectorised complex product does not commute)."""
    (x1, x2, y1, y2), *rest = planes
    acc = x2 * y1
    acc -= y2 * x1
    for x1, x2, y1, y2 in rest:
        acc -= y2 * x1
        acc += x2 * y1
    return acc


def _pairing(planes):
    """<X, Y> + i <X, J Y> on one block."""
    return _coord_sum(planes, np.multiply) + 1j * _j_dot(planes)


def weighted_dist_sq(X, Y, params):
    """sum_i lambda_i |X_i - Y_i|^2."""
    return sum(b.lam * _dist_sq(planes) for b, planes in _planes(X, Y, params))


# ---------------------------------------------------------------------------
# projections (point-spreads)
# ---------------------------------------------------------------------------

def projection_parts(a: int, X, Y, params: MagneticParams):
    """delta^{(a)}(X, Y) as (polynomial-times-prefactor, exponent)."""
    lag = laguerre(params.k // 2 - 1, a, weighted_dist_sq(X, Y, params))
    pref, expo = _zonal0_parts("wk", 0.0, X, Y, params)
    return lag * pref, expo


def projection_kernel(a: int, X, Y, params: MagneticParams):
    """Gross-zone point-spread delta^{(a)}(X, Y): the dominant zone-a
    kernel at t = 0."""
    lag = laguerre(params.k // 2 - 1, a, weighted_dist_sq(X, Y, params))
    return lag * zonal0("wk", 0.0, X, Y, params)


# ---------------------------------------------------------------------------
# global kernels
# ---------------------------------------------------------------------------

def global_parts(sigma, t: float, X, Y, params: MagneticParams):
    """Global WK/DF kernel as (prefactor, exponent): on each block
    (lam / (2 pi sinh(lam t sigma)))^{k_i/2} and -lam (g |X_i - Y_i|^2 / 2
    + i <X_i, J Y_i>), g = coth(lam t sigma) (`_flow_coth`)."""
    s = sigma_value(sigma)
    check_df_time(sigma, t, params)
    pref, expo = 1.0 + 0j, 0j
    for b, planes in _planes(X, Y, params):
        g = _flow_coth(sigma, t, b.lam)
        pref *= (b.lam / (2 * np.pi * np.sinh(b.lam * t * s))) ** (b.k // 2)
        expo = expo - b.lam * (0.5 * g * _dist_sq(planes)
                               + 1j * _j_dot(planes))
    return pref, expo


def global_kernel(sigma, t: float, X, Y, params: MagneticParams):
    """Global WK/DF kernel e^{-t sigma H_Z}(X, Y)."""
    pref, expo = global_parts(sigma, t, X, Y, params)
    return pref * np.exp(expo)


# ---------------------------------------------------------------------------
# zonal closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelValue:
    value: complex
    dominant: complex
    long_term: complex


def _zonal0_parts(sigma, t: float, X, Y, params: MagneticParams):
    """d_sigma^{(0)}(t, X, Y) as (prefactor, exponent); at t = 0 it is the
    projection delta^{(0)}.  Callers can merge the exponent with other
    kernel factors before exponentiating (avoids overflow on shifted
    contours)."""
    pref = np.prod([b.lam ** (b.k / 2) for b in params.blocks]) / np.pi ** (params.k / 2)
    lead, expo = 0, 0j
    for b, planes in _planes(X, Y, params):
        e, shift = zone_flow(sigma, t, b.lam)
        lead = lead + shift * (b.k // 2)
        expo = expo + b.lam * (e * _pairing(planes) - 0.5 * _norms_sq(planes))
    return pref * np.exp(lead), expo


def zonal0(sigma, t: float, X, Y, params: MagneticParams):
    """Holomorphic-zone kernel d_sigma^{(0)}; entire in t >= 0."""
    pref, expo = _zonal0_parts(sigma, t, X, Y, params)
    return pref * np.exp(expo)


def zonal_kernel_closed(sigma, a: int, t: float, X, Y,
                        params: MagneticParams) -> KernelValue:
    """Closed-form zonal kernel d_sigma^{(a)}, every zone a, with its
    dominant/long-term split.

    On zone a, e^{-t sigma H_Z} multiplies level p by eps^{p + k/4},
    eps_i = e^{-2 lam_i t sigma}: z -> eps z, conj z -> conj z / eps and a
    factor eps^a on the polynomial part of delta^{(a)}.  So d^{(a)} = [sum
    over compositions (a_i) of a over blocks of prod_i
    M_{a_i}^{((k_i/2)-1)}(rho_i, eps_i)] d^{(0)}, M_n(rho, eps) = eps^n
    L_n(rho / eps), rho_i = lam_i (eps_i |X_i - Y_i|^2 - (1 - eps_i)^2
    <X_i, Y_i> + i (1 - eps_i^2) <X_i, J Y_i>), summed as Cauchy products
    of the blocks' level sequences, one recurrence pass each
    (`_zone_levels`); a lone block reads only M_a.  At t = 0, eps_i = 1
    and rho_i = lam_i |X_i - Y_i|^2 exactly, so on one block the
    long-term part is exactly 0.  X and Y may be complex.  On two or more
    blocks the fold holds the last block's a + 1 level arrays at once, so
    a call costs about a + 1 complex arrays of the points' shape.

    Far from the origin the exponent and rho cancel O(|z|^2) terms: on
    points with |z| <= 40 (DF, t = 0.05, pi/4 and 1.3) this point form is
    off a 60-digit evaluation by up to 1.1e-13 of the largest entry at
    zone 0 and 2.6e-12 at zone 4, where the plane operator (`plane_step`)
    is within 2.7e-14 and 2.9e-13.
    """
    z0 = zonal0(sigma, t, X, Y, params)
    if a == 0:
        return KernelValue(value=z0, dominant=z0, long_term=np.zeros_like(z0))
    ms = _factor_levels(a, len(params.blocks))
    fac = _composition_sum(a, [_zone_levels(sigma, t, b, planes, ms)
                               for b, planes in _planes(X, Y, params)])
    lag = laguerre(params.k // 2 - 1, a, weighted_dist_sq(X, Y, params))
    return KernelValue(value=fac * z0, dominant=lag * z0,
                       long_term=(fac - lag) * z0)


def _zone_levels(sigma, t, b, planes, ms):
    """Yield block b's M_m(rho_i, eps_i) of `zonal_kernel_closed` at the
    levels ms (a range), computing rho_i when the first is read."""
    e, _ = zone_flow(sigma, t, b.lam)
    rho = b.lam * (e * _dist_sq(planes)
                   - (1 - e) ** 2 * _coord_sum(planes, np.multiply)
                   + 1j * (1 - e * e) * _j_dot(planes))
    yield from islice(laguerre_levels(b.k // 2 - 1, ms[-1], rho, e),
                      ms[0], None)


def plane_step(X, Y, lam: float, kap, shift, a: int):
    """The step operator f -> r, r[y] = sum_x f[x] K(x, y), on one
    coordinate plane of field lam, of the kernel K = (lam / pi) e^{shift
    + lam (kap P - (|x|^2 + |y|^2) / 2)} times, for a > 0, the zone-a
    factor M_a^{(0)}(rho, kap) of `zonal_kernel_closed` with eps = kap, on
    tensor grids X = (x1, x2) and Y = (y1, y2).

    A grid's points are ordered as in `tensor_points`, x1 slowest (a
    single point is two length-1 arrays), and f has one entry per point
    of X; r has one per point of Y.  Trailing axes of f lead the result,
    so f = I (N x N) gives the kernel K(X_n, Y_m) as an (N, M) array.
    P = z_x conj(z_y), z = x1 + i x2, is the pairing <x, y + i J y>.
    Every chain step is a product over the planes of such operators, of a
    `zone_flow` pair for d_sigma^{(a)}(t) or an action-weighted one.

    P = (x1 y1 - i x1 y2) + (x2 y2 + i x2 y1), so the kernel is u[x1, y1,
    y2] v[x2, y1, y2] with the row and column Gaussians folded in, and each
    of u and v has an exponent e1[x, y1] + e2[x, y2] + c[y1, y2] of n x n
    pieces (`_outer_exp`).  With kap = kr + i ki, w1 = kr y1 + ki y2 and
    w2 = kr y2 - ki y1 (w1^2 + w2^2 = |kap|^2 |y|^2), the real part of
    u's exponent is -lam (x1 - w1)^2 / 2 + Re(shift + log(lam / pi)) and
    that of v's is -lam (x2 - w2)^2 / 2 - lam (1 - |kap|^2) |y|^2 / 2, so
    for |kap| <= 1 (every zonal step) neither modulus, one real
    exponential of n^3 entries each, can overflow however far out the grids
    lie; each phase is a product of two n x n exponentials.  On a real grid
    rho = lam (kap (|x|^2 + |y|^2) - kap^2 P - conj P) is ru[x1, y1, y2] +
    rv[x2, y1, y2], each again an outer sum of n x n pieces.

    M_a is a polynomial of degree a, and d/dt M_m^{(alpha)}(t, eps) =
    -M_{m-1}^{(alpha+1)}(t, eps) (DLMF sec. 18.9), so the zone factor
    expands exactly in the x2 half:

        M_a^{(0)}(ru + rv) = sum_{q=0..a} (-rv)^q / q! M_{a-q}^{(q)}(ru),

    and the kernel is sum_q U_q[x1, y1, y2] V_q[x2, y1, y2], U_q = u
    M_{a-q}^{(q)}(ru, kap) (U_a = u) and V_q = v (-rv)^q / q!.  Up to
    zone EXPANDED_ZONES these 2 (a + 1) tables are kept (u and v alone at
    zone 0), and an apply is a + 1 matrix products per block of y
    columns.  Above that zone the terms, which grow with |rv| where their
    sum does not, cancel beyond 1e-14, so u, v, ru and rv are kept and the
    factor is evaluated per x1 slab.  Applying the operator
    (`_contract_plane`) builds no array of the kernel's N x M size, and up
    to EXPANDED_ZONES none of len(x1) times the result's size either: its
    largest is one block, at most SCRATCH_BYTES for a vector f.
    """
    X = [np.asarray(v, dtype=float) for v in X]
    Y = [np.asarray(v, dtype=float) for v in Y]
    if len(X) != 2 or len(Y) != 2 or any(v.ndim != 1 for v in X + Y):
        raise ValueError("plane grids need two one-dimensional axes")
    (x1, x2), (y1, y2) = X, Y
    x1y1, x1y2 = np.multiply.outer(x1, y1), np.multiply.outer(x1, y2)
    x2y1, x2y2 = np.multiply.outer(x2, y1), np.multiply.outer(x2, y2)
    kap = complex(kap)
    w1sq = np.add.outer(kap.real * y1, kap.imag * y2) ** 2
    u = _outer_exp(lam * (kap * x1y1 - 0.5 * (x1 * x1)[:, None])
                   + (shift + np.log(lam) - np.log(np.pi)),
                   -1j * lam * kap * x1y2, -0.5 * lam * w1sq)
    v = _outer_exp(1j * lam * kap * x2y1,
                   lam * (kap * x2y2 - 0.5 * (x2 * x2)[:, None]),
                   -0.5 * lam * (np.add.outer(y1 * y1, y2 * y2) - w1sq))
    if not a:
        return partial(_contract_plane, ([u], [v], None))
    # each half of rho is lam (kap (x^2 + y^2) - (kap^2 + 1) x y) on its
    # own y axis plus i lam (kap^2 - 1) x y on the other, with the sign of
    # P's imaginary part: + for x1 y2, - for x2 y1
    k2 = kap * kap
    ru = (lam * (kap * np.add.outer(x1 * x1, y1 * y1)
                 - (k2 + 1) * x1y1))[:, :, None] \
        + (1j * lam * (k2 - 1) * x1y2)[:, None, :]
    rv1 = -1j * lam * (k2 - 1) * x2y1
    rv2 = lam * (kap * np.add.outer(x2 * x2, y2 * y2) - (k2 + 1) * x2y2)
    if a > EXPANDED_ZONES:
        rv = rv1[:, :, None] + rv2[:, None, :]
        return partial(_contract_plane, ([u], [v], (ru, rv, kap, a)))
    # U_q = u M_{a-q}^{(q)}(ru) (U_a = u) and V_q = v (-rv)^q / q!, each
    # table built in place, ru freed before -rv is built
    us = [np.multiply(lag, u, out=lag)
          for lag in (laguerre(q, a - q, ru, kap) for q in range(a))] + [u]
    del ru
    nrv = np.subtract(-rv1[:, :, None], rv2[:, None, :])
    vs = [v]
    for q in range(1, a + 1):
        w = np.multiply(vs[-1], nrv, out=nrv if q == a else None)
        if q > 1:
            w /= q
        vs.append(w)
    return partial(_contract_plane, (us, vs, None))


def _outer_exp(e1, e2, c):
    """e^{e1[x, y1] + e2[x, y2] + c[y1, y2]} as an (x, y1, y2) array, for
    complex n x n pieces e1, e2 and real c: one real exponential of the
    outer sum of the real parts (the modulus), times the product of two
    n x n phases.  No complex exponential of n^3 entries is taken, and the
    modulus is formed in one buffer of at most SCRATCH_BYTES, as many rows
    of x at a time as fit."""
    out = np.exp(1j * e1.imag)[:, :, None] * np.exp(1j * e2.imag)[:, None, :]
    step = max(1, SCRATCH_BYTES // 8 // out[0].size)
    buf = np.empty((min(step, len(out)),) + out.shape[1:])
    for i in range(0, len(out), step):
        rows = slice(i, i + step)
        mod = np.add(e1.real[rows, :, None], e2.real[rows, None, :],
                     out=buf[:len(out[rows])])
        mod += c
        out[rows] *= np.exp(mod, out=mod)
    return out


def _contract_plane(plane, f):
    """sum over the points (x1, x2) of f[x1 x2, ...] times the step's
    kernel (`plane_step`), with the y axes flattened last.

    plane is (us, vs, None) up to zone EXPANDED_ZONES: the result is the
    sum over x1 of h = sum_q U_q (g @ V_q) on the tables of `plane_step`,
    g being f with x2 last, formed one block of y columns at a time: per
    block and term one matrix product (x1 rest, x2) @ (x2, block), times
    U_q's block, summed over q, and the block reduced over x1 by a
    `tree_sum`; at zone 0 the one term u (g @ v).  A block holds a
    multiple of COLUMN_ALIGN columns, as many as keep its h within
    SCRATCH_BYTES, so h is never built whole: at degree 40 a vector f
    takes eight blocks of 200 columns.  Each column is reduced on its own
    and the blocks start at multiples of COLUMN_ALIGN, so the result
    is that of one block bit for bit.  Blocks of x1 rows instead would
    pack each V_q into the BLAS kernel once per block: at degree 40 and
    one BLAS thread, five blocks of 8 rows took 476 us a term where the
    whole product takes 357 us.

    Above that zone plane is ([u], [v], (ru, rv, eps, m)): one product
    per x1 slab, with that slab's zone factor M_m^{(0)}(ru[x1] + rv, eps)
    on n^3 entries.  The slabs share one rho buffer and the recurrence's
    three work buffers (`laguerre_levels`), and take the v factor in
    place, so no slab allocates an n^3 array: with fresh ones the C
    allocator hands their pages back and faults them in again every slab
    (14,360 minor faults in a degree-40 zone-3 apply).  x1 is then reduced
    by a `tree_sum`; its input h, len(x1) times the size of the result,
    is the largest array built.
    """
    us, vs, slabs = plane
    f = np.asarray(f)
    n1, n2 = len(us[0]), len(vs[0])
    g = f.reshape((n1, n2) + f.shape[1:])
    gt = np.moveaxis(g, 1, -1).reshape(n1, -1, n2)       # (x1, rest, x2)
    if slabs is None:
        g2, ny = gt.reshape(-1, n2), vs[0][0].size
        width = SCRATCH_BYTES // 16 // len(g2) // COLUMN_ALIGN * COLUMN_ALIGN
        width = max(width, COLUMN_ALIGN)
        terms = [(uq.reshape(n1, 1, -1), vq.reshape(n2, -1))
                 for uq, vq in zip(us, vs)]
        h = np.empty((gt.shape[1], ny), dtype=complex)
        for j in range(0, ny, width):
            # a lone last column would take numpy's vector product, whose
            # bits are not the matrix product's: it goes with the one before
            lo = j - 1 if j == ny - 1 > 0 else j
            cols = slice(lo, j + width)
            hb = None
            for uq, vq in terms:
                hq = np.matmul(g2, vq[:, cols])
                hq = hq.reshape(n1, -1, hq.shape[-1])
                hq *= uq[:, :, cols]
                hb = hq if hb is None else np.add(hb, hq, out=hb)
            h[:, j:j + width] = tree_sum(hb)[:, j - lo:]
        return h.reshape(f.shape[1:] + (-1,))
    else:
        ru, rv, eps, m = slabs
        vt = vs[0].reshape(n2, -1)                       # (x2, y1 y2)
        h = np.empty(gt.shape[:2] + vt.shape[1:], dtype=complex)
        work = np.empty((4, rv.size), dtype=complex)
        rho = work[0].reshape(rv.shape)
        for i, gi in enumerate(gt):
            lag = laguerre(0, m, np.add(ru[i], rv, out=rho), eps,
                           work[1:]).reshape(n2, -1)
            np.matmul(gi, np.multiply(vt, lag, out=lag), out=h[i])
        h *= us[0].reshape(n1, 1, -1)
    return tree_sum(h).reshape(f.shape[1:] + (-1,))


def lt1_printed(sigma, t: float, X, Y):
    """The printed two-dimensional long-term factor (k=2, lambda=1 gauge).

    (1 - e^{-2ts})(|X|^2 + |Y|^2 - 1 - (1 + e^{-2ts}) <X, Y + iJ(Y)>);
    kept as a direct transcription, not from `zone_flow`, to cross-check
    the general zone factor of `zonal_kernel_closed` at a = 1.
    """
    s = sigma_value(sigma)
    (_, planes), = _planes(X, Y, MagneticParams.make([(1.0, 2)]))
    e = np.exp(-2 * t * s)
    return (1 - e) * (_norms_sq(planes) - 1 - (1 + e) * _pairing(planes))


# ---------------------------------------------------------------------------
# numeric zonal kernels (any zone index; oracles for the closed forms)
# ---------------------------------------------------------------------------

def _flow_coth(sigma, t: float, lam: float) -> complex:
    """g = coth(lam t sigma): the global kernel's exponent on a block is
    -(lam/2) g |X - Y|^2 - i lam <X, J Y> (g = -i cot(lam t) for DF)."""
    if not t > 0:
        raise ValueError("global kernel requires t > 0")
    return complex(1.0 / np.tanh(lam * t * sigma_value(sigma)))


def zonal_factor(sigma, t: float):
    """d_sigma^{(a)}(t) as a `convolution_rule` factor (delta^{(a)}: t = 0)."""
    return lambda lam: (1,) + (zone_flow(sigma, t, lam)[0],) * 2


def global_factor(sigma, t: float):
    """The global kernel as a `convolution_rule` factor."""
    return lambda lam: (_flow_coth(sigma, t, lam),) * 2 + (-1,)


def convolution_rule(left, right, X, Y, params: MagneticParams):
    """(scales, centre) of the exact rule for int K1(X, U) K2(U, Y) dU: a
    factor maps a block's lam to the (r, p, q) of its exponent lam (p <A,
    B> + i q <A, J B> - r (|A|^2 + |B|^2) / 2) on points A, B, (1, eps,
    eps) for d_sigma^{(a)} and (g, g, -1) for the global kernel.  Per axis
    the product decays as e^{-lam (r1 + r2) (U - U0)^2 / 2} about U0 = (p1
    X - i q1 J X + p2 Y + i q2 J Y) / (r1 + r2); broadcasts over X, Y."""
    scales, parts = [], []
    for b, planes in _planes(X, Y, params):
        (r1, p1, q1), (r2, p2, q2) = left(b.lam), right(b.lam)
        r = r1 + r2
        scales += [b.lam * r / 2] * b.k
        for x1, x2, y1, y2 in planes:        # J (x1, x2) = (-x2, x1)
            parts += [(p1 * x1 - 1j * q1 * -x2 + p2 * y1 + 1j * q2 * -y2) / r,
                      (p1 * x2 - 1j * q1 * x1 + p2 * y2 + 1j * q2 * y1) / r]
    return tuple(scales), np.stack(parts, axis=-1)


def zonal_kernel_numeric(sigma, a: int, t: float, X, Y, params: MagneticParams):
    """d_sigma^{(a)}(t,X,Y) = int P^{(a)}(X,U) d_sigma(t,U,Y) dU by quadrature.

    The rotated rule sits at the integrand's stationary point
    (`convolution_rule`); the projection's polynomial has degree 2a per
    axis, so `exact_value` is exact at a+1 nodes (checked against a+3).
    X and Y may be complex (points on a rotated contour) and broadcast
    over leading axes.  A DF caustic is refused by `global_parts`.
    """
    Xb, Yb = np.asarray(X)[..., None, :], np.asarray(Y)[..., None, :]

    def f(U):
        p_pref, p_expo = projection_parts(a, Xb, U, params)
        g_pref, g_expo = global_parts(sigma, t, U, Yb, params)
        # merge exponents before exponentiating: off the real axis the
        # two factors can be large and small separately
        return p_pref * g_pref * np.exp(p_expo + g_expo)

    scales, centre = convolution_rule(zonal_factor("wk", 0.0),
                                      global_factor(sigma, t), X, Y, params)
    return exact_value(f, scales, 1 + a, centre)[0]


# ---------------------------------------------------------------------------
# PDE residuals for the global kernels
# ---------------------------------------------------------------------------

def apply_H_Z_global(sigma, t: float, X, Y, params: MagneticParams):
    """H_Z acting on the global kernel in the X variable, analytically.

    H_Z = -(1/2)(Delta + 2i D_lam - sum lam_i^2 |X_i|^2) applied to
    K = e^{g}: H_Z K = -(1/2)(lap g + grad g . grad g
    + 2i sum lam_i grad_i g . J(X_i) - sum lam_i^2 |X_i|^2) K, with the
    gradient and Laplacian of g = log K in X (the prefactor is X-free).
    """
    K = global_kernel(sigma, t, X, Y, params)
    lap, grad_sq, blocks = 0j, 0j, []
    for b, planes in _planes(X, Y, params):
        g = _flow_coth(sigma, t, b.lam)
        lap = lap - b.lam * g * b.k
        grad_jx = 0j                        # grad_i g . J(X_i)
        for x1, x2, y1, y2 in planes:
            g1 = -b.lam * (g * (x1 - y1) + 1j * -y2)
            g2 = -b.lam * (g * (x2 - y2) + 1j * y1)
            grad_sq = grad_sq + (g1 * g1 + g2 * g2)
            grad_jx = grad_jx + (g2 * x1 - g1 * x2)
        blocks.append((b.lam, grad_jx, _coord_sum(planes, lambda x, _: x * x)))
    acc = lap + grad_sq
    for lam, grad_jx, xx in blocks:
        acc = acc + 2j * lam * grad_jx - lam ** 2 * xx
    return -0.5 * acc * K


def pde_residual(sigma, t: float, X, Y, params: MagneticParams,
                 dt: float = 1e-4) -> float:
    """Relative residual of (d/dt + sigma H_Z) applied to the global kernel.

    Central finite difference in t, analytic spatial derivatives.
    """
    s = sigma_value(sigma)
    kp = global_kernel(sigma, t + dt, X, Y, params)
    km = global_kernel(sigma, t - dt, X, Y, params)
    dkdt = (kp - km) / (2 * dt)
    hk = s * apply_H_Z_global(sigma, t, X, Y, params)
    scale = max(abs(dkdt), abs(hk), 1e-300)
    return float(abs(dkdt + hk) / scale)
