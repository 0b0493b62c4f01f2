"""Closed-form projection, global, zonal, and Mehler kernels.

Flat gauge throughout: every kernel carries its Gaussian factor
internally and every convolution is a plain Lebesgue integral.

Flows are labelled by sigma: 'wk' (heat, sigma = 1) and 'df'
(Schrodinger, sigma = i).  All evaluators broadcast over leading axes of
X and Y; the last axis has length k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .exact import _compositions
from .params import MagneticParams, J_apply
from .quadrature import QuadRule, exact_value, integrate
from .special import laguerre

SIGMA = {"wk": 1.0 + 0j, "df": 1j}


class SingularTimeError(ValueError):
    """DF evaluation at t within tolerance of a sin-zero n*pi/lambda_i."""


def sigma_value(sigma) -> complex:
    if sigma in SIGMA:
        return SIGMA[sigma]
    raise ValueError(f"flow must be 'wk' or 'df', got {sigma!r}")


def df_singular_times(params: MagneticParams, t_max: float) -> list[float]:
    out = set()
    for b in params.blocks:
        n = 1
        while n * np.pi / b.lam <= t_max:
            out.add(n * np.pi / b.lam)
            n += 1
    return sorted(out)


def check_df_time(t: float, params: MagneticParams, tol: float = 1e-9):
    for b in params.blocks:
        n = round(b.lam * t / np.pi)
        if n >= 1 and abs(t - n * np.pi / b.lam) < tol:
            raise SingularTimeError(
                f"t={t} is within {tol} of the singular time {n}*pi/{b.lam}")


# ---------------------------------------------------------------------------
# per-block helpers
# ---------------------------------------------------------------------------

def _blockwise(X, Y, params):
    """Yield (block, X_i, Y_i) with block slices applied on the last axis."""
    X = np.asarray(X, dtype=complex if np.iscomplexobj(X) else float)
    Y = np.asarray(Y, dtype=complex if np.iscomplexobj(Y) else float)
    if X.shape[-1] != params.k or Y.shape[-1] != params.k:
        raise ValueError(f"points must have dimension k={params.k}")
    for b, sl in zip(params.blocks, params.block_slices()):
        yield b, X[..., sl], Y[..., sl]


def _block_pair(Xi, Yi):
    """Unweighted complex pairing <X,Y> + i<X,J(Y)> on one block."""
    return np.sum(Xi * Yi, axis=-1) + 1j * np.sum(Xi * J_apply(Yi), axis=-1)


def _sq(Z):
    return np.sum(Z * Z, axis=-1)


def weighted_dist_sq(X, Y, params):
    """sum_i lambda_i |X_i - Y_i|^2."""
    out = 0.0
    for b, Xi, Yi in _blockwise(X, Y, params):
        out = out + b.lam * _sq(Xi - Yi)
    return out


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
    return dominant_kernel("wk", a, 0.0, X, Y, params)


def irreducible_projection_kernel(a_tuple, X, Y, params: MagneticParams):
    """Irreducible-zone point-spread: plane-wise product of L^{(0)} factors."""
    a_tuple = tuple(int(a) for a in a_tuple)
    if len(a_tuple) != params.n_planes:
        raise ValueError(f"need one zone index per plane, k/2={params.n_planes}")
    if any(a < 0 for a in a_tuple):
        raise ValueError("zone indices must be nonnegative")
    X = np.asarray(X, dtype=complex if np.iscomplexobj(X) else float)
    Y = np.asarray(Y, dtype=complex if np.iscomplexobj(Y) else float)
    plam = params.plane_lambdas()
    lag = 1.0
    for j, aj in enumerate(a_tuple):
        d2 = ((X[..., 2 * j] - Y[..., 2 * j]) ** 2 +
              (X[..., 2 * j + 1] - Y[..., 2 * j + 1]) ** 2)
        lag = lag * laguerre(0, aj, plam[j] * d2)
    return lag * zonal0("wk", 0.0, X, Y, params)


# ---------------------------------------------------------------------------
# global kernels
# ---------------------------------------------------------------------------

def global_parts(sigma, t: float, X, Y, params: MagneticParams):
    """Global WK/DF kernel as (prefactor, exponent)."""
    if not t > 0:
        raise ValueError("global kernel requires t > 0")
    if sigma == "df":
        check_df_time(t, params)
        pref, expo = 1.0 + 0j, 0j
        for b, Xi, Yi in _blockwise(X, Y, params):
            pref *= (b.lam / (2j * np.pi * np.sin(b.lam * t))) ** (b.k // 2)
            expo = expo + 1j * b.lam * (
                0.5 / np.tan(b.lam * t) * _sq(Xi - Yi)
                - np.sum(Xi * J_apply(Yi), axis=-1))
        return pref, expo
    sigma_value(sigma)
    pref, expo = 1.0, 0j
    for b, Xi, Yi in _blockwise(X, Y, params):
        pref *= (b.lam / (2 * np.pi * np.sinh(b.lam * t))) ** (b.k // 2)
        expo = expo - b.lam * (0.5 / np.tanh(b.lam * t) * _sq(Xi - Yi)
                               + 1j * np.sum(Xi * J_apply(Yi), axis=-1))
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
    dominant: complex | None = None
    long_term: complex | None = None


def _zonal0_parts(sigma, t: float, X, Y, params: MagneticParams):
    """d_sigma^{(0)}(t, X, Y) as (prefactor, exponent); at t = 0 it is the
    projection delta^{(0)}.  Callers can merge the exponent with other
    kernel factors before exponentiating (avoids overflow on shifted
    contours)."""
    s = sigma_value(sigma)
    if t < 0:
        raise ValueError("zonal closed forms require t >= 0")
    pref = np.prod([b.lam ** (b.k / 2) for b in params.blocks]) / np.pi ** (params.k / 2)
    pref = pref * np.exp(-0.5 * s * t * sum(b.lam * b.k for b in params.blocks))
    expo = 0j
    for b, Xi, Yi in _blockwise(X, Y, params):
        e = np.exp(-2 * b.lam * t * s)
        expo = expo + b.lam * (-0.5 * (_sq(Xi) + _sq(Yi)) + e * _block_pair(Xi, Yi))
    return pref, expo


def zonal0(sigma, t: float, X, Y, params: MagneticParams):
    """Holomorphic-zone kernel d_sigma^{(0)}; entire in t >= 0."""
    pref, expo = _zonal0_parts(sigma, t, X, Y, params)
    return pref * np.exp(expo)


def dominant_kernel(sigma, a: int, t: float, X, Y, params: MagneticParams):
    """D_sigma^{(a)} = L_a^{((k/2)-1)}(sum lam |X-Y|^2) * zonal0."""
    lag = laguerre(params.k // 2 - 1, a, weighted_dist_sq(X, Y, params))
    return lag * zonal0(sigma, t, X, Y, params)


def _zone_factor(a: int, levels, outer):
    """Sum over the compositions (a_i) of a over blocks of the products
    prod_i levels[i](a_i), each joined to the next by outer."""
    if a < 0:
        raise ValueError("zone index must be nonnegative")
    terms = (reduce(outer, [level(n) for n, level in zip(comp, levels)])
             for comp in _compositions(a, len(levels)))
    total = next(terms)
    for term in terms:
        total += term           # in place: one sum and one term live
    return total


def zonal_kernel_closed(sigma, a: int, t: float, X, Y,
                        params: MagneticParams) -> KernelValue:
    """Closed-form zonal kernel d_sigma^{(a)}, every zone a, with its
    dominant/long-term split.

    On zone a, e^{-t sigma H_Z} multiplies level p by eps^{p + k/4},
    eps_i = e^{-2 lam_i t sigma}: z -> eps z, conj z -> conj z / eps and a
    factor eps^a on the polynomial part of delta^{(a)}.  So d^{(a)} = [sum
    over compositions (a_i) of a over blocks of prod_i
    M_{a_i}^{((k_i/2)-1)}(rho_i, eps_i)] d^{(0)}, M_n(rho, eps) = eps^n
    L_n(rho / eps) (`laguerre`), rho_i = lam_i (eps_i |X_i - Y_i|^2 -
    (1 - eps_i)^2 <X_i, Y_i> + i (1 - eps_i^2) <X_i, J Y_i>).  At t = 0,
    eps_i = 1 and rho_i = lam_i |X_i - Y_i|^2 exactly, so on one block
    the long-term part is exactly 0.  X and Y may be complex.
    """
    z0 = zonal0(sigma, t, X, Y, params)
    if a == 0:
        return KernelValue(value=z0, dominant=z0, long_term=np.zeros_like(z0))
    s = sigma_value(sigma)
    levels = []
    for b, Xi, Yi in _blockwise(X, Y, params):
        e = np.exp(-2 * b.lam * t * s)
        rho = b.lam * (e * _sq(Xi - Yi)
                       - (1 - e) ** 2 * np.sum(Xi * Yi, axis=-1)
                       + 1j * (1 - e * e) * np.sum(Xi * J_apply(Yi), axis=-1))
        levels.append(partial(laguerre, b.k // 2 - 1, t=rho, eps=e))
    fac = _zone_factor(a, levels, np.multiply)
    lag = laguerre(params.k // 2 - 1, a, weighted_dist_sq(X, Y, params))
    return KernelValue(value=fac * z0, dominant=lag * z0,
                       long_term=(fac - lag) * z0)


def _plane_outer(op, u, v):
    """op(u[a, c, d], v[b, c, d]) as an (n_a n_b, n_c n_d) matrix: rows
    (a, b) and columns (c, d), first index slowest."""
    return op(u[:, None], v[None]).reshape(u.shape[0] * v.shape[0], -1)


def _grid_outer(op, acc, m):
    """Combine the matrix `acc` of earlier planes with the plane matrix m:
    op(acc[r, c], m[r', c']) at row (r, r') and column (c, c')."""
    if acc is None:
        return m
    return op(acc[:, None, :, None], m[None, :, None, :]).reshape(
        acc.shape[0] * m.shape[0], acc.shape[1] * m.shape[1])


def _grid_level(alpha, eps, m1, n):
    """M_n(rho, eps) of one block on its grid, from the block's M_1 matrix
    m1 = (1 + alpha) eps - rho."""
    return m1 if n == 1 else laguerre(alpha, n, (1 + alpha) * eps - m1, eps)


def plane_form_matrix(X, Y, params: MagneticParams, coeffs, shift=0j, a=0):
    """pref e^{shift + sum_i lam_i (c_i P_i - (|X_i|^2 + |Y_i|^2) / 2)} on
    tensor grids X and Y, as an (N, M) matrix, times for a > 0 the zone-a
    factor of `zonal_kernel_closed` with eps_i = c_i.

    A tensor grid is k per-axis node arrays (a single point is k length-1
    arrays); its points are ordered as in `tensor_points`, first axis
    slowest, so N and M are the products of the axis lengths.
    pref = prod lam_i^{k_i/2} / pi^{k/2} is the delta^{(0)} prefactor and
    P_i = sum over the block's planes of z_x conj(z_y), z = x_1 + i x_2,
    is the pairing <X_i, Y_i + i J Y_i>.  Every zone-0 chain step has this
    form: delta^{(0)} (c_i = 1), d_sigma^{(0)}(t) (c_i = e^{-2 lam_i t
    sigma}, shift -(sigma t / 2) sum lam_i k_i) and the action-weighted
    delta^{(0)} steps of `pathint`.  On a real grid the zone factor's
    rho_i = lam_i (eps_i (|X_i|^2 + |Y_i|^2) - eps_i^2 P_i - conj P_i).

    On a plane with z_x = x1 + i x2 and z_y = y1 + i y2, P = (x1 y1 -
    i x1 y2) + (x2 y2 + i x2 y1): the plane's factor is u[x1, y1, y2]
    v[x2, y1, y2], two exponentials of n^3 entries with the row and column
    Gaussians folded in, and rho_i is two n^3 pieces per plane, from which
    M_1 = (k_i/2) eps_i - rho_i is built with its constant folded in.  The
    zone factor is summed before the matrix is built, so for zones 0 and 1
    at most two (N, M) complex arrays are live.
    """
    X = [np.asarray(v, dtype=float) for v in X]
    Y = [np.asarray(v, dtype=float) for v in Y]
    if len(X) != params.k or len(Y) != params.k \
            or any(v.ndim != 1 for v in X + Y):
        raise ValueError(f"tensor grids need {params.k} one-dimensional axes")
    per_plane = [b.k // 2 for b in params.blocks]
    cp = np.repeat(coeffs, per_plane)
    block = np.repeat(np.arange(len(per_plane)), per_plane)
    const = (shift + sum(b.k / 2 * np.log(b.lam) for b in params.blocks)
             - params.k / 2 * np.log(np.pi))
    planes, m1 = [], [None] * len(per_plane)
    for j, lj in enumerate(params.plane_lambdas()):
        x1, x2 = X[2 * j][:, None, None], X[2 * j + 1][:, None, None]
        y1, y2 = Y[2 * j][:, None], Y[2 * j + 1][None, :]
        kap = complex(cp[j])
        pu = x1 * y1 - 1j * (x1 * y2)                    # P = pu + pv
        pv = x2 * y2 + 1j * (x2 * y1)
        # Re(kap pu) = x1 w1 and Re(kap pv) = x2 w2 with w1^2 + w2^2 =
        # |kap|^2 |z_y|^2: each factor's exponent is -(x1 - w1)^2 / 2 or
        # -(x2 - w2)^2 / 2 - (1 - |kap|^2) |z_y|^2 / 2 in real part, so
        # neither overflows; the n^3 arrays are updated in place, which
        # keeps the job's peak RSS down
        w1sq = (kap.real * y1 + kap.imag * y2) ** 2
        u = lj * kap * pu
        u -= 0.5 * lj * x1 * x1
        u += const - 0.5 * lj * w1sq
        v = lj * kap * pv
        v -= 0.5 * lj * x2 * x2
        v -= 0.5 * lj * (y1 * y1 + y2 * y2 - w1sq)
        planes.append((np.exp(u, out=u), np.exp(v, out=v)))
        const = 0j
        if a:
            # -rho's pieces (conj P = conj(pu) + conj(pv) on the real
            # grid), the block's first plane carrying (k_i/2) eps_i
            i, e1, e2 = block[j], cp[j], cp[j] ** 2
            kb = params.blocks[i].k
            fu = lj * e2 * pu
            fu += lj * pu.conj()
            fu -= lj * e1 * x1 * x1
            fu += ((kb / 2 - kb * (1 - e1) / 2 if m1[i] is None else 0.0)
                   - lj * e1 * y1 * y1)
            fv = lj * e2 * pv
            fv += lj * pv.conj()
            fv -= lj * e1 * x2 * x2
            fv -= lj * e1 * y2 * y2
            m1[i] = _grid_outer(np.add, m1[i], _plane_outer(np.add, fu, fv))
    fac = _zone_factor(a, [partial(_grid_level, b.k // 2 - 1, e, m)
                           for b, e, m in zip(params.blocks, coeffs, m1)],
                       partial(_grid_outer, np.multiply)) if a else None
    out = reduce(lambda acc, uv: _grid_outer(
        np.multiply, acc, _plane_outer(np.multiply, *uv)), planes, None)
    if a:
        out *= fac
    return out


def zonal_matrix(sigma, a: int, t: float, X, Y, params: MagneticParams):
    """d_sigma^{(a)}(t, X_n, Y_m) on tensor grids X and Y (k per-axis node
    arrays each) as an (N, M) matrix: `zonal_kernel_closed` in plane form.
    At t = 0 the zone-0 matrix is delta^{(0)}."""
    s = sigma_value(sigma)
    if t < 0:
        raise ValueError("zonal closed forms require t >= 0")
    e = [np.exp(-2 * b.lam * t * s) for b in params.blocks]
    shift = -0.5 * s * t * sum(b.lam * b.k for b in params.blocks)
    return plane_form_matrix(X, Y, params, e, shift, a)


def lt1_printed(sigma, t: float, X, Y):
    """The printed two-dimensional long-term factor (k=2, lambda=1 gauge).

    (1 - e^{-2ts})(|X|^2 + |Y|^2 - 1 - (1 + e^{-2ts}) <X, Y + iJ(Y)>);
    kept as a direct transcription for cross-checking the general
    zone factor of `zonal_kernel_closed` at a = 1.
    """
    s = sigma_value(sigma)
    X = np.asarray(X, dtype=complex if np.iscomplexobj(X) else float)
    Y = np.asarray(Y, dtype=complex if np.iscomplexobj(Y) else float)
    e = np.exp(-2 * t * s)
    pair = _block_pair(X, Y)
    return (1 - e) * (_sq(X) + _sq(Y) - 1 - (1 + e) * pair)


# ---------------------------------------------------------------------------
# numeric zonal kernels (any zone index; oracles for the closed forms)
# ---------------------------------------------------------------------------

def _flow_coth(sigma, t: float, lam: float) -> complex:
    """g = coth(lam t sigma): the global kernel's exponent on a block is
    -(lam/2) g |X - Y|^2 - i lam <X, J Y> (g = -i cot(lam t) for DF)."""
    if not t > 0:
        raise ValueError("global kernel requires t > 0")
    return complex(1.0 / np.tanh(lam * t * sigma_value(sigma)))


def zonal_numeric_scales(sigma, t: float, params: MagneticParams) -> tuple[complex, ...]:
    """Per-axis complex decay A of P^{(a)}(X,U) d_sigma(t,U,Y) in U.

    On each block the integrand is a polynomial times e^{-A|U|^2 + B.U}
    with A = lam (1 + g) / 2, g = coth(lam t sigma): Re A = lam (1 + coth)
    / 2 for WK and lam / 2 for DF, whose A is complex.
    """
    out = []
    for b in params.blocks:
        out.extend([b.lam * (1 + _flow_coth(sigma, t, b.lam)) / 2] * b.k)
    return tuple(out)


def _convolution_centre(sigma, t: float, X, Y, params: MagneticParams):
    """Stationary point U0 = B / 2A of the convolution exponent in U:
    (X - iJX + g Y - iJY) / (1 + g) per block; broadcasts over X and Y."""
    parts = []
    for b, Xi, Yi in _blockwise(X, Y, params):
        g = _flow_coth(sigma, t, b.lam)
        parts.append((Xi - 1j * J_apply(Xi) + g * Yi - 1j * J_apply(Yi))
                     / (1 + g))
    return np.concatenate(parts, axis=-1)


def zonal_convolution(sigma, a: int, t: float, X, Y, params: MagneticParams,
                      n: int):
    """int P^{(a)}(X,U) d_sigma(t,U,Y) dU by the rotated n-node rule.

    The rule sits at the integrand's stationary point with the complex
    decay of `zonal_numeric_scales`; it is exact once n exceeds the zone
    index (the projection's polynomial has degree 2a per axis).  X and Y
    may be complex (points on a rotated contour) and broadcast.
    """
    X = np.asarray(X, dtype=complex if np.iscomplexobj(X) else float)
    Y = np.asarray(Y, dtype=complex if np.iscomplexobj(Y) else float)
    rule = QuadRule(n, zonal_numeric_scales(sigma, t, params),
                    _convolution_centre(sigma, t, X, Y, params))
    Xb, Yb = X[..., None, :], Y[..., None, :]

    def f(U):
        p_pref, p_expo = projection_parts(a, Xb, U, params)
        g_pref, g_expo = global_parts(sigma, t, U, Yb, params)
        # merge exponents before exponentiating: off the real axis the
        # two factors can be large and small separately
        return p_pref * g_pref * np.exp(p_expo + g_expo)

    return integrate(f, rule)


def zonal_kernel_numeric(sigma, a: int, t: float, X, Y, params: MagneticParams):
    """d_sigma^{(a)}(t,X,Y) = int P^{(a)}(X,U) d_sigma(t,U,Y) dU by quadrature.

    The exact rotated rule of `zonal_convolution` is sized from the zone
    index (a+1 nodes per axis) and checked against a+3 nodes; a
    disagreement raises QuadratureError.  Broadcasts over leading axes of
    X and Y.
    """
    if sigma == "df":
        check_df_time(t, params)
    return exact_value(lambda m: zonal_convolution(sigma, a, t, X, Y, params,
                                                   m), 1 + a)[0]


# ---------------------------------------------------------------------------
# Mehler (harmonic oscillator) kernel
# ---------------------------------------------------------------------------

def mehler_kernel(t: float, X, Y, B: float, k: int):
    """Heat kernel of (1/2)(-Delta + B|X|^2) on R^k."""
    if not (t > 0 and B > 0):
        raise ValueError("mehler_kernel requires t > 0 and B > 0")
    X = np.asarray(X, dtype=complex if np.iscomplexobj(X) else float)
    Y = np.asarray(Y, dtype=complex if np.iscomplexobj(Y) else float)
    sh = np.sinh(2 * B * t)
    expo = (B / sh) * (-0.5 * np.cosh(2 * B * t) * (_sq(X) + _sq(Y))
                       + np.sum(X * Y, axis=-1))
    return np.exp(expo) / (2 * np.pi * sh) ** (k / 2)


# ---------------------------------------------------------------------------
# PDE residuals for the global kernels
# ---------------------------------------------------------------------------

def _global_exponent_derivs(sigma, t, X, Y, params):
    """(grad, laplacian) of log global_kernel in X (prefactor is X-free)."""
    grad = np.zeros(np.asarray(X).shape, dtype=complex)
    lap = 0j
    off = 0
    for b, Xi, Yi in _blockwise(X, Y, params):
        if sigma == "wk":
            c = 1.0 / np.tanh(b.lam * t)
            g = -b.lam * (c * (Xi - Yi) + 1j * J_apply(Yi))
            lap = lap - b.lam * c * b.k
        else:
            c = 1.0 / np.tan(b.lam * t)
            g = 1j * b.lam * (c * (Xi - Yi) - J_apply(Yi))
            lap = lap + 1j * b.lam * c * b.k
        grad[..., off:off + b.k] = g
        off += b.k
    return grad, lap


def apply_H_Z_global(sigma, t: float, X, Y, params: MagneticParams):
    """H_Z acting on the global kernel in the X variable, analytically.

    H_Z = -(1/2)(Delta + 2i D_lam - sum lam_i^2 |X_i|^2) applied to
    K = e^{g}: H_Z K = -(1/2)(lap g + grad g . grad g
    + 2i sum lam_i grad_i g . J(X_i) - sum lam_i^2 |X_i|^2) K.
    """
    K = global_kernel(sigma, t, X, Y, params)
    grad, lap = _global_exponent_derivs(sigma, t, X, Y, params)
    acc = lap + np.sum(grad * grad, axis=-1)
    off = 0
    for b, Xi, _ in _blockwise(X, Y, params):
        gi = grad[..., off:off + b.k]
        acc = acc + 2j * b.lam * np.sum(gi * J_apply(Xi), axis=-1)
        acc = acc - b.lam ** 2 * _sq(Xi)
        off += b.k
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
