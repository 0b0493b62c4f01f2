"""Magnetic parameter sets and the fixed complex structure J.

The configuration space is R^k with k even.  It decomposes into blocks,
one per distinct field strength lambda_i, each block of even dimension
k_i.  Every block further splits into k_i/2 coordinate planes (x, y) and
the complex structure acts plane-wise by the fixed convention

    J(x, y) = (-y, x).

All sign conventions downstream inherit this choice.  The flows are
labelled by sigma: 'wk' (heat, sigma = 1) and 'df' (Schrodinger,
sigma = i).
"""

import math
from dataclasses import dataclass

SIGMA = {"wk": 1.0 + 0j, "df": 1j}
VARIANTS = ("box", "H_Z", "H_Zf")  # the kinds of HamiltonianVariant
MAX_DEGREE = 200        # the most nodes per axis of a Gauss-Hermite rule
CHAIN_DEGREE = 40       # nodes per axis of a path chain's grid by default


class NumericError(Exception):
    """A computation that cannot give a trustworthy number (the CLI's
    numeric ERROR, exit 3)."""


def sigma_value(sigma) -> complex:
    if sigma in SIGMA:
        return SIGMA[sigma]
    raise ValueError(f"flow must be 'wk' or 'df', got {sigma!r}")


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def zone_count(a: int, k: int) -> int:
    """Number of irreducible zones inside gross zone a."""
    if a < 0 or k <= 0 or k % 2:
        raise ValueError("need a >= 0 and even k > 0")
    return math.comb(a + k // 2 - 1, a)


def zone_flow(sigma, t: float, lam: float):
    """(eps, shift) = (e^{-2 lam t s}, -lam t s) on one coordinate plane of
    field lam: e^{-t s H_Z} multiplies level p of every zone by e^{shift}
    eps^p.  Every zonal closed form takes it from here, finite t >= 0
    only: at t = inf eps would be 0 (WK) or NaN (DF) and the kernels NaN."""
    import numpy as np
    s = sigma_value(sigma)
    if not 0 <= t < math.inf:   # NaN too
        raise ValueError(f"zonal closed forms require t >= 0 and finite, "
                         f"got t={t}")
    return np.exp(-2 * lam * t * s), -0.5 * s * t * (2 * lam)


def _factor_levels(a: int, parts: int):
    """The levels m at which `_composition_sum` reads each of `parts`
    factors: 0..a, or a alone for one factor."""
    if a < 0:
        raise ValueError("zone index must be nonnegative")
    return range(a, a + 1) if parts == 1 else range(a + 1)


def _composition_sum(a: int, levels):
    """Sum over the compositions (a_p) of a of prod_p f_p(a_p), levels[p]
    yielding f_p at `_factor_levels`: the coefficient of s^a in prod_p
    sum_m f_p(m) s^m, by Cauchy products folded from the right.  The tail
    product's coefficients are stored and each factor to its left is
    streamed, adding f(j) tail[n - j] in place for j = 0..n, the order of
    `_compositions`, so two factors keep the bits of a sum over them; the
    first factor feeds only coefficient a."""
    *heads, tail = levels
    tail = list(tail)
    for i, f in enumerate(reversed(heads)):
        lo = a if i == len(heads) - 1 else 0    # the first feeds s^a only
        acc = list(tail)
        for j, fj in enumerate(f):
            for n in range(max(j, lo), a + 1):
                if j:
                    acc[n] += fj * tail[n - j]      # in place
                else:
                    acc[n] = fj * tail[n]
        tail = acc
    return tail[-1]


@dataclass(frozen=True)
class Block:
    lam: float
    k: int

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"block field strength must be positive, got {self.lam}")
        if self.k <= 0 or self.k % 2 != 0:
            raise ValueError(f"block dimension must be a positive even integer, got {self.k}")


@dataclass(frozen=True)
class MagneticParams:
    """Full parameter set {(lambda_i, k_i)} of a non-degenerate Zeeman operator."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block required")
        lams = [b.lam for b in self.blocks]
        if len(set(lams)) != len(lams):
            raise ValueError("blocks must have pairwise distinct field strengths "
                             "(merge equal lambdas into one block)")

    @staticmethod
    def make(blocks: list[tuple[float, int]]) -> "MagneticParams":
        return MagneticParams(tuple(Block(lam, k) for lam, k in blocks))

    @property
    def k(self) -> int:
        return sum(b.k for b in self.blocks)

    @property
    def n_planes(self) -> int:
        return self.k // 2

    def block_slices(self) -> list[slice]:
        out, off = [], 0
        for b in self.blocks:
            out.append(slice(off, off + b.k))
            off += b.k
        return out

    def plane_lambdas(self):
        """lambda per coordinate plane, in coordinate order (length k/2)."""
        import numpy as np
        return np.repeat([b.lam for b in self.blocks], [b.k // 2 for b in self.blocks])

    def axis_lambdas(self):
        """lambda per real coordinate axis (length k)."""
        return self.plane_lambdas().repeat(2)

    @property
    def single_lambda(self) -> float:
        """The field strength, provided there is exactly one block (oracle scope)."""
        if len(self.blocks) != 1:
            raise ValueError("operation restricted to single-lambda parameter sets")
        return self.blocks[0].lam


def J_apply(X):
    """Apply J(x, y) = (-y, x) plane-wise along the last axis."""
    import numpy as np
    X = np.asarray(X)
    out = np.empty_like(X)
    out[..., 0::2] = -X[..., 1::2]
    out[..., 1::2] = X[..., 0::2]
    return out


@dataclass(frozen=True)
class HamiltonianVariant:
    """Which Hamiltonian the spectra/partition functions refer to.

    kind 'box'   : the magnetic Laplacian itself (with its field constant),
    kind 'H_Z'   : classical Zeeman operator, -(1/2) of the box with the
                   field constant removed,
    kind 'H_Zf'  : H_Z shifted by the field-energy constant c_f.

    The paper is internally inconsistent about the field constant; c_f is
    therefore explicit configuration.  ``c_f=None`` selects the default
    sum(2*lambda_i^2*k_i); any other constant, such as the per-plane
    alternative 2*sum(lambda_i^2), is given as c_f itself.
    """

    kind: str = "H_Z"
    c_f: float | None = None

    def __post_init__(self):
        if self.kind not in VARIANTS:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")

    def field_constant(self, params: MagneticParams) -> float:
        if self.c_f is not None:
            return self.c_f
        return sum(2.0 * b.lam ** 2 * b.k for b in params.blocks)

    def spectral_shift(self, params: MagneticParams) -> float:
        """The constant eigenvalues, partition and zeta functions add to H_Z."""
        if self.kind == "box":
            raise ValueError("partition/zeta functions are defined for H_Z or H_Zf")
        return self.field_constant(params) if self.kind == "H_Zf" else 0.0


H_Z = HamiltonianVariant("H_Z")
H_ZF = HamiltonianVariant("H_Zf")
BOX = HamiltonianVariant("box")
