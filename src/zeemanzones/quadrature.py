"""Deterministic tensor-product Gauss-Hermite quadrature over R^k.

All kernel integrals in this package are plain Lebesgue integrals of
integrands that decay like exp(-sum_j s_j (u_j - c_j)^2) (the flat gauge
keeps the Gaussian factors inside the kernels).  A rule therefore carries
one scale s_j per axis and an optional centre c; nodes are
c_j + x / sqrt(s_j) and weights absorb the de-weighting factor
e^{x^2} / sqrt(s_j).

With real scales and no centre this is the real-axis rule, which
integrates polynomial-times-phase remainders accurately.  A complex scale
A (Re A > 0) rotates the nodes onto the steepest-descent line of
e^{-A u^2}: for an entire integrand p(U) e^{-sum_j A_j (U_j - c_j)^2}
whose polynomial p has degree <= 2n - 1 on every axis, the n-node rule
centred at the stationary point c is exact (Gil, Segura & Temme,
*Numerical Methods for Special Functions*, SIAM 2007, on Gauss rules
along saddle-point contours).  `exact_value` integrates by that rule and
by a two-node-larger one as convergence evidence; it is the package's one
exact Gaussian integral.

`tree_sum` reduces in a fixed pairwise tree, independent of any thread
count, so its results are bitwise reproducible.  `integrate` evaluates the
integrand one block of the grid at a time (`QuadRule.blocks`): a block
fixes the leading axes at one node each and spans the full grid of as many
trailing axes as fit in BLOCK_NODES nodes, and the blocks run in
`tensor_points` order.  Each block is reduced by `tree_sum`, then the
block sums are, so memory is bounded by BLOCK_NODES nodes per batch entry
and the order is still fixed; with one block (every k <= 2 rule up to
degree 128) the result is that of a single `tree_sum` over the grid.
Chain steps contract one axis per plane by a BLAS matrix product instead
(`kernels._contract_plane`); a test pins its bits at 1 and 2 BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .params import MAX_DEGREE, NumericError


class QuadratureError(NumericError):
    pass


class NonFiniteIntegrand(QuadratureError):
    pass


class QuadratureNonConvergence(QuadratureError):
    pass


MAX_TENSOR_NODES = 50_000_000
BLOCK_NODES = 2 ** 14       # the most grid nodes `integrate` evaluates at once
EXACT_TOL = 1e-10


@lru_cache(maxsize=None)
def gauss_hermite_rule(degree: int):
    """1D Gauss-Hermite nodes/weights for weight e^{-x^2} (read-only arrays)."""
    if not 1 <= degree <= MAX_DEGREE:
        raise QuadratureError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    x, w = np.polynomial.hermite.hermgauss(degree)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class QuadRule:
    """Tensor rule over R^k with per-axis Gaussian scales.

    Scales may be complex with positive real part.  `centre` is None (the
    origin) or an array of shape (..., k); a batch of centres yields one
    grid per centre, nodes of shape (..., N, k).
    """

    degree: int
    scales: tuple[complex, ...]
    centre: object = field(default=None, compare=False)

    def __post_init__(self):
        # a scale with Re <= 0 (e.g. a caustic) has no Gaussian decay;
        # refuse before any node is built
        if any(not np.real(s) > 0 for s in self.scales):
            raise QuadratureError("all axis scales need a positive real part")
        if self.centre is not None and np.shape(self.centre)[-1:] != (self.dim,):
            raise QuadratureError(f"centre must have last dimension {self.dim}")
        gauss_hermite_rule(self.degree)  # validates degree
        if self.degree ** len(self.scales) > MAX_TENSOR_NODES:
            raise QuadratureError("tensor rule too large; reduce degree or dimension")

    @property
    def dim(self) -> int:
        return len(self.scales)

    def axis_nodes_weights(self, j: int):
        x, w = gauss_hermite_rule(self.degree)
        s = self.scales[j]
        rs = np.sqrt(s)
        return x / rs, w * np.exp(x * x) / rs

    def nodes_weights(self):
        """Full tensor grid: nodes (N, k), or (..., N, k) for a batch of
        centres, and Lebesgue weights (N,)."""
        return self._grid(*zip(*(self.axis_nodes_weights(j)
                                 for j in range(self.dim))))

    def blocks(self):
        """The grid of `nodes_weights` as (nodes, weights) blocks in its
        order: one per node of the leading axes, each the full grid of as
        many trailing axes as fit in BLOCK_NODES nodes."""
        axes, wts = zip(*(self.axis_nodes_weights(j) for j in range(self.dim)))
        lead = next(m for m in range(self.dim + 1)
                    if self.degree ** (self.dim - m) <= BLOCK_NODES)

        def at(arrays, index):
            return ([a[i:i + 1] for a, i in zip(arrays, index)]
                    + list(arrays[lead:]))

        for index in product(range(self.degree), repeat=lead):
            yield self._grid(at(axes, index), at(wts, index))

    def _grid(self, axes, wts):
        nodes = tensor_points(axes)
        if self.centre is not None:
            nodes = np.asarray(self.centre)[..., None, :] + nodes
        return nodes, tensor_weights(wts)


def tensor_points(axes):
    """Points (N, k) of the tensor grid on k per-axis node arrays, first
    axis slowest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def tensor_weights(axis_weights):
    """Weights (N,) of the same grid: products of the per-axis weights."""
    weights = np.ones(np.prod([len(w) for w in axis_weights], dtype=int))
    for g in np.meshgrid(*axis_weights, indexing="ij"):
        weights = weights * g.reshape(-1)
    return weights


def tree_sum(values: np.ndarray):
    """Pairwise-tree reduction along axis 0; fixed order, thread-independent."""
    v = np.asarray(values)
    while v.shape[0] > 1:
        n = v.shape[0]
        if n % 2:
            v = np.concatenate([v[0:n - 1:2] + v[1:n:2], v[n - 1:]], axis=0)
        else:
            v = v[0::2] + v[1::2]
    return v[0]


def integrate(f, rule: QuadRule):
    """int f(U) dU over R^k by the tensor rule; f maps nodes (..., N, k)
    to values (..., N), one integral per batch entry.  f is called once
    per block of `rule.blocks()`, so N is at most BLOCK_NODES."""
    sums = []
    for nodes, weights in rule.blocks():
        vals = np.asarray(f(nodes))
        if vals.shape != nodes.shape[:-1]:
            raise QuadratureError("integrand must return one value per node")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrand("integrand produced non-finite values")
        sums.append(tree_sum(np.moveaxis(weights * vals, -1, 0)))
    return tree_sum(np.stack(sums))


def exact_value(f, scales, n: int, centre=None):
    """int f(U) dU by the exact n-node rule with its convergence evidence.

    The rule on `scales` and `centre` (as for `QuadRule`) is exact at n
    nodes per axis; the (n+2)-node result must agree within
    EXACT_TOL * (1 + |value|) (elementwise for batched centres).  f is
    evaluated as for `integrate`.  Returns (value at n, largest
    |difference|) or raises QuadratureNonConvergence.
    """
    value = integrate(f, QuadRule(n, scales, centre))
    delta = np.abs(integrate(f, QuadRule(n + 2, scales, centre)) - value)
    if not np.all(delta <= EXACT_TOL * (1.0 + np.abs(value))):
        raise QuadratureNonConvergence(
            f"exact rule disagrees with its check: |Delta|={np.max(delta):.3e} "
            f"between {n} and {n + 2} nodes per axis")
    return value, float(np.max(delta))
