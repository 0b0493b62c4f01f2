"""Closed-form projection, global, zonal, and Mehler kernels.

Flat gauge throughout: every kernel carries its Gaussian factor
internally and every convolution is a plain Lebesgue integral.

Flows are labelled by sigma: 'wk' (heat, sigma = 1) and 'df'
(Schrodinger, sigma = i).  All evaluators broadcast over leading axes of
X and Y; the last axis has length k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    if a < 0:
        raise ValueError("zone index must be nonnegative")
    lag = laguerre(params.k // 2 - 1, a, weighted_dist_sq(X, Y, params))
    pref, expo = _zonal0_parts("wk", 0.0, X, Y, params)
    return lag * pref, expo


def projection_kernel(a: int, X, Y, params: MagneticParams):
    """Gross-zone point-spread delta^{(a)}(X, Y): the dominant zone-a
    kernel at t = 0."""
    if a < 0:
        raise ValueError("zone index must be nonnegative")
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


def _lambda1_factor(sigma, t, X, Y, params):
    """Lambda^{(1)} = k/2 - sum_i Q_i, the full polynomial factor of d^{(1)}.

    Obtained by first-moment Gaussian integration of the defining
    convolution int P^{(1)}(X,U) d_sigma(t,U,Y) dU; written in terms of
    e_i = exp(-2 lambda_i t sigma) it is regular down to t = 0, where it
    reduces to L_1^{((k/2)-1)}(sum lambda_i |X_i - Y_i|^2).
    """
    s = sigma_value(sigma)
    total = params.k / 2 + 0j
    for b, Xi, Yi in _blockwise(X, Y, params):
        e = np.exp(-2 * b.lam * t * s)
        u, v = (1 - e) / 2, (1 + e) / 2
        # complex mean of the convolution Gaussian
        m = (u * (Xi - 1j * J_apply(Xi)) + v * Yi - u * 1j * J_apply(Yi))
        Q = b.lam * (_sq(Xi) - 2 * np.sum(Xi * m, axis=-1) + np.sum(m * m, axis=-1)) \
            + b.k * (1 - e) / 2
        total = total - Q
    return total


def dominant_kernel(sigma, a: int, t: float, X, Y, params: MagneticParams):
    """D_sigma^{(a)} = L_a^{((k/2)-1)}(sum lam |X-Y|^2) * zonal0."""
    lag = laguerre(params.k // 2 - 1, a, weighted_dist_sq(X, Y, params))
    return lag * zonal0(sigma, t, X, Y, params)


def zonal_kernel_closed(sigma, a: int, t: float, X, Y,
                        params: MagneticParams) -> KernelValue:
    """Closed-form zonal kernel with dominant/long-term split (a <= 1)."""
    if a not in (0, 1):
        raise ValueError(f"no closed form implemented for zone a={a}; "
                         "use zonal_kernel_numeric")
    z0 = zonal0(sigma, t, X, Y, params)
    if a == 0:
        return KernelValue(value=z0, dominant=z0, long_term=np.zeros_like(z0))
    lam_fac = _lambda1_factor(sigma, t, X, Y, params)
    lag = laguerre(params.k // 2 - 1, 1, weighted_dist_sq(X, Y, params))
    return KernelValue(value=lam_fac * z0, dominant=lag * z0,
                       long_term=(lam_fac - lag) * z0)


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


def plane_form_matrix(X, Y, params: MagneticParams, coeffs, shift=0j, e=None):
    """pref e^{shift + sum_i lam_i (c_i P_i - (|X_i|^2 + |Y_i|^2) / 2)} on
    tensor grids X and Y, as an (N, M) matrix.

    A tensor grid is k per-axis node arrays (a single point is k length-1
    arrays); its points are ordered as in `tensor_points`, first axis
    slowest, so N and M are the products of the axis lengths.
    pref = prod lam_i^{k_i/2} / pi^{k/2} is the delta^{(0)} prefactor and
    P_i = sum over the block's planes of z_x conj(z_y), z = x_1 + i x_2,
    is the pairing <X_i, Y_i + i J Y_i>.  Every zone-0 chain step has this
    form: delta^{(0)} (c_i = 1), d_sigma^{(0)}(t) (c_i = e_i =
    e^{-2 lam_i t sigma}, shift -(sigma t / 2) sum lam_i k_i) and the
    action-weighted delta^{(0)} steps of `pathint`.  Given e = (e_i), the
    matrix is multiplied by the zone-1 factor of `_lambda1_factor`, which
    in plane form (m.m = e_i |Y_i|^2 + 2 u_i e_i P_i) reads
    k/2 - sum_i [lam_i (e_i (|X_i|^2 + |Y_i|^2) - e_i^2 P_i - conj P_i)
    + k_i (1 - e_i) / 2].

    On a plane with z_x = a + ib and z_y = c + id, P = (ac - iad) +
    (bd + ibc), so the plane's factor is u[a, c, d] v[b, c, d]: two
    exponentials of n^3 entries, the row and column Gaussians folded in.
    Lambda^{(1)} splits the same way into a sum of two n^3 pieces.  Planes
    combine by broadcasting, and the prefactor and shift are one scalar.
    At most two (N, M) complex arrays are live: the matrix and, for zone
    1, its factor Lambda^{(1)}.
    """
    X = [np.asarray(v, dtype=float) for v in X]
    Y = [np.asarray(v, dtype=float) for v in Y]
    if len(X) != params.k or len(Y) != params.k \
            or any(v.ndim != 1 for v in X + Y):
        raise ValueError(f"tensor grids need {params.k} one-dimensional axes")
    per_plane = [b.k // 2 for b in params.blocks]
    lam = params.plane_lambdas()
    cp = np.repeat(coeffs, per_plane)
    const = (shift + sum(b.k / 2 * np.log(b.lam) for b in params.blocks)
             - params.k / 2 * np.log(np.pi))
    if e is not None:
        ep = np.repeat(e, per_plane)
        fconst = params.k / 2 - sum(b.k * (1 - eb) / 2
                                    for b, eb in zip(params.blocks, e))
    out = fac = None
    for j, lj in enumerate(lam):
        a, b = X[2 * j][:, None, None], X[2 * j + 1][:, None, None]
        c, d = Y[2 * j][:, None], Y[2 * j + 1][None, :]
        kap = complex(cp[j])
        pu, pv = a * c - 1j * (a * d), b * d + 1j * (b * c)   # P = pu + pv
        # Re(kap pu) = a w1 and Re(kap pv) = b w2 with w1^2 + w2^2 =
        # |kap|^2 |z_y|^2: each factor's exponent is -(a - w1)^2 / 2 or
        # -(b - w2)^2 / 2 - (1 - |kap|^2) |z_y|^2 / 2 in real part, so
        # neither overflows; the n^3 arrays are updated in place, which
        # keeps the job's peak RSS at the parent's
        w1sq = (kap.real * c + kap.imag * d) ** 2
        u = lj * kap * pu
        u -= 0.5 * lj * a * a
        u += const - 0.5 * lj * w1sq
        v = lj * kap * pv
        v -= 0.5 * lj * b * b
        v -= 0.5 * lj * (c * c + d * d - w1sq)
        out = _grid_outer(np.multiply, out,
                          _plane_outer(np.multiply, np.exp(u, out=u),
                                       np.exp(v, out=v)))
        const = 0j
        if e is not None:
            # conj P = conj(pu) + conj(pv) on the real grid
            e1, e2 = ep[j], ep[j] ** 2
            fu = lj * e2 * pu
            fu += lj * pu.conj()
            fu -= lj * e1 * a * a
            fu += fconst - lj * e1 * c * c
            fv = lj * e2 * pv
            fv += lj * pv.conj()
            fv -= lj * e1 * b * b
            fv -= lj * e1 * d * d
            fac = _grid_outer(np.add, fac, _plane_outer(np.add, fu, fv))
            fconst = 0.0
    if fac is not None:
        out *= fac
    return out


def zonal_matrix(sigma, a: int, t: float, X, Y, params: MagneticParams):
    """d_sigma^{(a)}(t, X_n, Y_m), a <= 1, on tensor grids X and Y (k
    per-axis node arrays each) as an (N, M) matrix: `zonal_kernel_closed`
    in plane form.  At t = 0 the zone-0 matrix is delta^{(0)}."""
    s = sigma_value(sigma)
    if a not in (0, 1):
        raise ValueError(f"no plane-form matrix for zone a={a}")
    if t < 0:
        raise ValueError("zonal closed forms require t >= 0")
    e = [np.exp(-2 * b.lam * t * s) for b in params.blocks]
    shift = -0.5 * s * t * sum(b.lam * b.k for b in params.blocks)
    return plane_form_matrix(X, Y, params, e, shift, e if a == 1 else None)


def lt1_printed(sigma, t: float, X, Y):
    """The printed two-dimensional long-term factor (k=2, lambda=1 gauge).

    (1 - e^{-2ts})(|X|^2 + |Y|^2 - 1 - (1 + e^{-2ts}) <X, Y + iJ(Y)>);
    kept as a direct transcription for cross-checking the general
    derivation in _lambda1_factor.
    """
    s = sigma_value(sigma)
    X = np.asarray(X, dtype=complex if np.iscomplexobj(X) else float)
    Y = np.asarray(Y, dtype=complex if np.iscomplexobj(Y) else float)
    e = np.exp(-2 * t * s)
    pair = _block_pair(X, Y)
    return (1 - e) * (_sq(X) + _sq(Y) - 1 - (1 + e) * pair)


# ---------------------------------------------------------------------------
# numeric zonal kernels (any zone index)
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
