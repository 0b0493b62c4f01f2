"""Time-sliced cylinder functionals for the zonal flows.

Chains of zone-kernel factors d(T/n, m_{j-1}, m_j) integrated over the
intermediate points with plain Lebesgue measure (the flat gauge keeps all
Gaussian weights inside the kernels, and Lebesgue chaining is what makes
the pinned F=1 chain collapse to d(T, x, y) exactly).

Every chain is a sum of products of one-plane chains (`_chain`), each
on its plane's grid: a step applies the `plane_step` operator of a flow
(kap, shift) to the vector of grid values, so no N x N step matrix is
built.  x2 is contracted by matrix products and x1 by a `tree_sum`, and
a free end is summed by a `tree_sum`; neither depends on the thread
count.  A step keeps only n x n pieces and is applied one block of y1
rows at a time, forming that block's tables from the pieces, with the
bits of one block (`kernels._contract_plane`), so no array of len(x1)
times its output is built.  The integrand F is None (F = 1) or, on one
plane only, separable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .params import (CHAIN_DEGREE, MagneticParams, _composition_sum,
                     _factor_levels, sigma_value, zone_flow)
from .kernels import check_df_time, plane_step
from .quadrature import (QuadRule, QuadratureError, tensor_points,
                         tensor_weights, tree_sum)

# quad_degree^3: the table entries a chain step's apply forms, one block
# at a time (`kernels.plane_step`); it bounds an apply's work, which above
# kernels.EXPANDED_ZONES is a zone-a factor on quad_degree^4 entries
STEP_ENTRY_CEILING = 2 ** 22


@dataclass(frozen=True)
class TimeSlicing:
    """Uniform slicing of [0, T] into n steps of width T/n."""

    total_time: float
    n_slices: int

    def __post_init__(self):
        if not self.total_time > 0:
            raise ValueError(
                f"horizon must be positive, got t={self.total_time}")
        if self.n_slices < 1:
            raise ValueError("need at least one slice")

    @property
    def step(self) -> float:
        return self.total_time / self.n_slices


def slicing_grid(lam: float, quad_degree: int):
    """One coordinate plane's per-slice chain grid: its two axis node
    arrays and the Lebesgue weights (quad_degree^2,) of its points
    (`tensor_points` order).

    Chain integrands decay like e^{-lam |m|^2} in each intermediate point
    (half a Gaussian from each adjacent kernel factor).  Refused before
    anything is allocated when a grid-to-grid step's tables
    (quad_degree^3 entries) would exceed STEP_ENTRY_CEILING.
    """
    size = int(quad_degree) ** 3
    if size > STEP_ENTRY_CEILING:
        raise QuadratureError(
            f"chain step array of {size} entries exceeds the ceiling of "
            f"{STEP_ENTRY_CEILING}; reduce quad_degree")
    rule = QuadRule(quad_degree, (lam, lam))
    axes, wts = zip(*(rule.axis_nodes_weights(j) for j in range(2)))
    return list(axes), tensor_weights(wts)


def _check_slicing(sigma, slicing: TimeSlicing, params: MagneticParams):
    for j in range(1, slicing.n_slices + 1):
        check_df_time(sigma, j * slicing.step, params)


def _interior_factors(F, n_interior, G):
    """Per-point diagonal factors for F=None or a separable F (a list or
    tuple of callables), on the N points of the plane grid G; each
    factor's values must broadcast to (N,)."""
    if F is None:
        return [None] * n_interior
    if not isinstance(F, (list, tuple)):
        raise ValueError("F must be None or a sequence of per-point "
                         f"factors, got {type(F).__name__}")
    if len(F) != n_interior:
        raise ValueError(f"separable F needs {n_interior} factors, "
                         f"got {len(F)}")
    points = tensor_points(G) if F else None
    return [np.broadcast_to(f(points), (len(points),)) for f in F]


def _chain(flow, a, x, y, F, n_interior, params, quad_degree):
    """Integrate a chain of zone-a steps from the point x to the point y
    (None: free end) over n_interior points.

    Steps are products over the planes, whose zone kernels are orthogonal
    projections times the flow, so the chain is the sum over the
    compositions (a_p) of a over the planes of products of one-plane
    chains at constant zone a_p, `plane(j, m)`, summed as Cauchy products
    of the planes' chain sequences (`_composition_sum`): each runs once,
    and a lone plane runs only its zone-a chain.  On a plane of field lam
    every step is the `plane_step` of flow(lam) = (kap, shift), as from
    `zone_flow`: grid to grid built once, and no grid for n_interior = 0.
    F is None or, on one plane only, a separable F (`_interior_factors`).
    """
    plam = params.plane_lambdas().tolist()
    if F is not None and len(plam) > 1:
        raise ValueError("a separable F needs a one-plane geometry (k = 2)")
    x, y = (None if z is None else np.asarray(z, dtype=float).reshape(-1, 2, 1)
            for z in (x, y))

    def plane(j, m):
        lam = plam[j]
        kap, shift = flow(lam)
        step = partial(plane_step, lam=lam, kap=kap, shift=shift, a=m)
        # with no interior point, the last step leaves from x itself
        G, w = slicing_grid(lam, quad_degree) if n_interior else (x[j], None)
        factors = _interior_factors(F, n_interior, G)
        inner = step(G, G) if n_interior > 1 else None
        vw = np.ones(1)
        for i, f in enumerate(factors):
            v = inner(vw) if i else step(x[j], G)(vw)
            vw = v * w if f is None else v * w * f
        return complex(tree_sum(vw) if y is None else step(G, y[j])(vw)[0])

    ms = _factor_levels(a, len(plam))
    return _composition_sum(a, [map(partial(plane, j), ms)
                                for j in range(len(plam))])


def cylinder_value(sigma, a: int, slicing: TimeSlicing, F, x, y,
                   params: MagneticParams, quad_degree: int = CHAIN_DEGREE,
                   pinned: bool = True):
    """W_{sigma,n}^{T(a)}(F): n-fold chain of zone-a kernels against F.

    F is None (constant 1) or, on a one-plane geometry (k = 2), a list or
    tuple of n_interior callables, one per interior point, each mapping
    the (N, 2) grid points to N values (separable F); anything else is a
    ValueError.  Pinned chains have n-1 interior points and end at y;
    free chains integrate the final point as well (n interior points, y
    ignored).
    """
    _check_slicing(sigma, slicing, params)
    return _chain(partial(zone_flow, sigma, slicing.step),
                  a, x, y if pinned else None, F,
                  slicing.n_slices - int(pinned), params, quad_degree)


def nu_cylinder_value(slicing: TimeSlicing, F, x, y,
                      params: MagneticParams, quad_degree: int):
    """Same chaining, pinned at y, with the holomorphic point-spread
    delta^{(0)} = d^{(0)}(0) as the step kernel (the time-independent nu
    measure); F=1 gives delta^{(0)}(x, y) for every n by exact idempotency."""
    return _chain(partial(zone_flow, "wk", 0.0), 0, x, y, F,
                  slicing.n_slices - 1, params, quad_degree)


# ---------------------------------------------------------------------------
# Feynman-Kac
# ---------------------------------------------------------------------------

def _fk_step(sigma, dt, lam: float, exact: bool):
    """delta^{(0)} times the per-step Feynman-Kac weight on a plane of
    field lam, as the (coefficient, shift) of `plane_step`.

    The weight is e^{-lam dt s} e^{lam c P}, P = <m, m' + i J m'>.
    exact=True takes c = e^{-2 lam dt s} - 1, for which delta^{(0)} times
    the weight is d^{(0)}(dt, m, m'); exact=False is the Feynman-Kac
    surrogate with linearized coefficient c = -2 s dt lam: the slice value
    of |omega|^2 evaluated with the left point paired against the right
    (for continuous paths <m, m' + i J m'> -> |m|^2 since <v, J v> = 0,
    and the surrogate differs from exact at O(dt^2) per step, so the
    chain converges at rate O(dt)).  delta^{(0)} contributes the
    coefficient 1.  The weight of R^k is the product over its planes.
    """
    e, shift = zone_flow(sigma, dt, lam)
    return 1 + (e - 1 if exact else -2 * lam * dt * sigma_value(sigma)), shift


def feynman_kac_chain(sigma, slicing: TimeSlicing, x, y,
                      params: MagneticParams, quad_degree: int,
                      exact_step: bool = False):
    """delta^{(0)} chain with Feynman-Kac weights, pinned at y.

    With exact_step=False (the discrete Feynman-Kac formula proper) the
    left-endpoint action makes this converge to d_sigma^{(0)}(T, x, y) as
    n grows.  With exact_step=True each step carries the exact pairing
    weight and the chain reproduces d^{(0)} identically for every n (the
    second form of the cylinder functional).
    """
    _check_slicing(sigma, slicing, params)
    return _chain(partial(_fk_step, sigma, slicing.step, exact=exact_step),
                  0, x, y, None, slicing.n_slices - 1, params, quad_degree)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def uniform_bound_check(slicing: TimeSlicing, x, params: MagneticParams,
                        quad_degree: int) -> dict:
    """|W_{i,n}^{T(0)}(F)| <= (2 pi)^{k/2} sup|F| on a family of test F.

    Free-endpoint DF chains with F = 1, F = 0 and three random phase
    fields prod_j e^{i <xi_j, m_j>} (sup-norm 1).  The xi_j are N(0, 1)
    draws from the standard library's `random.Random(7)` (`gauss`), row
    by row, so the check does not load `numpy.random`.
    """
    bound = (2 * np.pi) ** (params.k / 2)
    rng = random.Random(7)
    results = []

    def record(name, F, sup):
        val = cylinder_value("df", 0, slicing, F, x, None, params,
                             quad_degree=quad_degree, pinned=False)
        results.append({"F": name, "abs": abs(val), "bound": bound * sup,
                        "ok": bool(abs(val) <= bound * sup + 1e-12)})

    record("one", None, 1.0)
    n_int = slicing.n_slices
    record("zero", [lambda m: np.zeros(m.shape[0])] * n_int, 0.0)
    for r in range(3):
        xis = np.array([[rng.gauss(0.0, 1.0) for _ in range(params.k)]
                        for _ in range(n_int)])
        F = [(lambda m, xi=xi: np.exp(1j * m @ xi)) for xi in xis]
        record(f"phase{r}", F, 1.0)
    return {"bound": bound, "results": results,
            "all_ok": all(r["ok"] for r in results)}


def probability_conservation(t: float, x, params: MagneticParams,
                             quad_degree: int = CHAIN_DEGREE) -> float:
    """| ||psi(t)|| - 1 | for psi(0) the normalized holomorphic point
    spread at x, evolved by the DF zone flow (unitary on the zone); its
    norm is the product of the per-plane norms."""
    check_df_time("df", t, params)
    x = np.asarray(x, dtype=float).reshape(-1, 2, 1)

    def norm(j, lam):
        G, w = slicing_grid(lam, quad_degree)
        psi0 = plane_step(x[j], G, lam, *zone_flow("wk", 0.0, lam), 0)(
            np.ones(1))
        psi0 /= np.sqrt(tree_sum(w * np.abs(psi0) ** 2).real)
        psit = plane_step(G, G, lam, *zone_flow("df", t, lam), 0)(psi0 * w)
        return np.sqrt(tree_sum(w * np.abs(psit) ** 2).real)

    plam = params.plane_lambdas().tolist()
    return abs(math.prod(norm(j, lam) for j, lam in enumerate(plam)) - 1.0)


def radon_nikodym_consistency(slicing: TimeSlicing, x, y,
                              params: MagneticParams,
                              quad_degree: int) -> dict:
    """DF chain vs WK chain times the Radon-Nikodym ratio at the discrete
    level.

    The exact-step DF chain is compared with WK chains whose every step is
    multiplied by the per-step ratio of `_rn_ratio`: with the exact pairing
    action the two sides agree to rounding, and a wrong ratio shows; with
    the left-endpoint Riemann action the residual is the discretization
    error (reported for both).
    """
    def wk_flow(lam, exact):        # reweighted to the DF measure
        coeff, shift = _fk_step("wk", slicing.step, lam, exact)
        ratio, const = _rn_ratio(slicing.step, lam, exact)
        return coeff + ratio, shift + const

    lhs = feynman_kac_chain("df", slicing, x, y, params, quad_degree,
                            exact_step=True)
    return {f"residual_{name}": abs(lhs - _chain(
        partial(wk_flow, exact=exact), 0, x, y, None, slicing.n_slices - 1,
        params, quad_degree)) / max(abs(lhs), 1e-300)
        for name, exact in (("exact", True), ("left", False))}


def _rn_ratio(dt, lam: float, exact: bool):
    """Per-step Radon-Nikodym ratio DF/WK on a plane of field lam,
    e^{lam r P + c}, as (r, c), written out on its own: r = e^{-2 i lam
    dt} - e^{-2 lam dt} with the exact pairing action, 2 lam dt (1 - i)
    with the left-endpoint one, and c = -lam dt (i - 1), not taken from
    `zone_flow`: this is the independent side of the check."""
    ratio = (np.exp(-2j * lam * dt) - np.exp(-2 * lam * dt) if exact
             else 2 * lam * dt * (1 - 1j))
    return ratio, -0.5 * dt * (1j - 1) * (2 * lam)


def second_form_residual(sigma, slicing: TimeSlicing, x, y,
                         params: MagneticParams,
                         quad_degree: int) -> float:
    """Exact-step delta chain vs direct kernel chain, pinned F=1.

    Both equal d_sigma^{(0)}(T, x, y); the residual is pure quadrature
    noise, certifying the second (action-weighted) form of the cylinder
    functional against the first."""
    a_chain = feynman_kac_chain(sigma, slicing, x, y, params, quad_degree,
                                exact_step=True)
    d_chain = cylinder_value(sigma, 0, slicing, None, x, y, params,
                             quad_degree=quad_degree, pinned=True)
    return abs(a_chain - d_chain) / max(abs(d_chain), 1e-300)
