"""Exact rational special-function algebra.

This module is the oracle layer, on one ring: ``ZonePoly``, polynomials in
(z_1..z_{k/2}, zbar_1..zbar_{k/2}) with real rational coefficients.  A
polynomial in one variable (Laguerre, Hermite, radial) is a one-variable
ZonePoly in z.  The ring stays real because the only imaginary unit of
the eigen-oracle, the odd axis X^{2j+1} = -i (z - zbar)/2, puts a unit
scalar (-i)^l on its Hermite factor, which the oracle cancels by i^l (see
``spectrum.build_eigenfunction``).  ``_poly_subst``, the one Horner
substitution of a one-variable polynomial into a ZonePoly, builds both the
eigen-oracle's Hermite factors and the Laguerre composition check, whose
sum over compositions is ``params._composition_sum``.  Everything here is
bit-exact; the floating-point evaluation paths live in ``special``.

Note on the three-term recurrence: the coefficient of L_{a-1} must be
(a + alpha), which for alpha = 0 (the two-dimensional case all worked
examples use) degenerates to a.  The recurrence used here is validated
exactly against the explicit binomial form, term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .params import _composition_sum, _factor_levels


class QC:
    """The layer's one exact-scalar conversion: every coefficient is a
    ``Fraction``, and ``QC.of`` is how an int or a Fraction becomes one."""

    @staticmethod
    def of(x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"expected exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# the ring: polynomials in (z_1..z_m, zbar_1..zbar_m), one variable included
# ---------------------------------------------------------------------------

class ZonePoly:
    """Exact polynomial in holomorphic/antiholomorphic coordinates.

    terms: {(alpha, beta): Fraction} with alpha, beta integer multi-degree
    tuples of length nvars = k/2.  Zero coefficients are never stored, and
    every coefficient enters through ``QC.of``, so a float is refused.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for key, c in (terms or {}).items():
            self._iadd_term(key, QC.of(c))

    def _iadd_term(self, key, c: Fraction):
        alpha, beta = key
        if len(alpha) != self.nvars or len(beta) != self.nvars:
            raise ValueError("multi-degree length mismatch")
        cur = self.terms.get(key)
        new = c if cur is None else cur + c
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(nvars: int, c=1) -> "ZonePoly":
        z = (0,) * nvars
        return ZonePoly(nvars, {(z, z): c})

    @staticmethod
    def z(nvars: int, j: int) -> "ZonePoly":
        a = tuple(1 if i == j else 0 for i in range(nvars))
        return ZonePoly(nvars, {(a, (0,) * nvars): 1})

    @staticmethod
    def zbar(nvars: int, j: int) -> "ZonePoly":
        b = tuple(1 if i == j else 0 for i in range(nvars))
        return ZonePoly(nvars, {((0,) * nvars, b): 1})

    @staticmethod
    def univariate(coeffs) -> "ZonePoly":
        """c_0 + c_1 z + c_2 z^2 + ... from ascending coefficients."""
        return ZonePoly(1, {((i,), (0,)): c for i, c in enumerate(coeffs)})

    # -- ring operations ----------------------------------------------------
    def __add__(self, o: "ZonePoly") -> "ZonePoly":
        out = ZonePoly(self.nvars, self.terms)
        for key, c in o.terms.items():
            out._iadd_term(key, c)
        return out

    def __sub__(self, o: "ZonePoly") -> "ZonePoly":
        return self + o * -1

    def __mul__(self, o):
        if isinstance(o, ZonePoly):
            out = ZonePoly(self.nvars)
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in o.terms.items():
                    key = (tuple(x + y for x, y in zip(a1, a2)),
                           tuple(x + y for x, y in zip(b1, b2)))
                    out._iadd_term(key, c1 * c2)
            return out
        c = QC.of(o)
        return ZonePoly(self.nvars, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, o):
        return isinstance(o, ZonePoly) and self.nvars == o.nvars and self.terms == o.terms

    # -- calculus -----------------------------------------------------------
    def diff_z(self, j: int) -> "ZonePoly":
        out = ZonePoly(self.nvars)
        for (a, b), c in self.terms.items():
            if a[j] == 0:
                continue
            na = tuple(x - 1 if i == j else x for i, x in enumerate(a))
            out._iadd_term((na, b), c * a[j])
        return out

    def diff_zbar(self, j: int) -> "ZonePoly":
        out = ZonePoly(self.nvars)
        for (a, b), c in self.terms.items():
            if b[j] == 0:
                continue
            nb = tuple(x - 1 if i == j else x for i, x in enumerate(b))
            out._iadd_term((a, nb), c * b[j])
        return out

    # -- structure ----------------------------------------------------------
    def magnetic_numbers(self) -> set[int]:
        return {sum(a) - sum(b) for a, b in self.terms}

    def magnetic_component(self, m: int) -> "ZonePoly":
        return ZonePoly(self.nvars, {k: c for k, c in self.terms.items()
                                     if sum(k[0]) - sum(k[1]) == m})

    def holo_degree(self) -> int:
        """Maximal holomorphic degree |alpha| over the stored monomials."""
        return max((sum(a) for a, _ in self.terms), default=0)

    def coeffs(self) -> list[Fraction]:
        """Dense ascending coefficients of a polynomial in z alone; the
        zero polynomial reads [0]."""
        if self.nvars != 1 or any(b != (0,) for _, b in self.terms):
            raise ValueError("coeffs() needs a polynomial in one z alone")
        out = [Fraction(0)] * (self.holo_degree() + 1)
        for ((i,), _), c in self.terms.items():
            out[i] = c
        return out

    def __repr__(self):
        items = ", ".join(f"z^{a} zbar^{b}: {c!r}" for (a, b), c in sorted(self.terms.items()))
        return f"ZonePoly({self.nvars}, {{{items}}})"


def _poly_subst(p: ZonePoly, x: ZonePoly) -> ZonePoly:
    """Horner substitution of a polynomial in one variable at a ZonePoly."""
    coeffs = p.coeffs()
    acc = ZonePoly.constant(x.nvars, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + ZonePoly.constant(x.nvars, c)
    return acc


# ---------------------------------------------------------------------------
# Laguerre and Hermite polynomials in one variable t = z
# ---------------------------------------------------------------------------

def laguerre_exact(alpha: int, n: int) -> ZonePoly:
    """L_n^{(alpha)} by the explicit binomial form, a polynomial in t = z."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return ZonePoly.univariate(
        Fraction((-1) ** b * math.comb(n + alpha, n - b), math.factorial(b))
        for b in range(n + 1))


def laguerre_recurrence_exact(alpha: int, n: int) -> ZonePoly:
    """L_n^{(alpha)} built from the corrected three-term recurrence, a
    polynomial in t = z.

    (a+1) L_{a+1} = (2a + 1 + alpha - t) L_a - (a + alpha) L_{a-1},
    seeded with L_0 = 1, L_1 = 1 + alpha - t.
    """
    if n == 0:
        return ZonePoly.constant(1)
    prev, cur = ZonePoly.constant(1), ZonePoly.univariate([1 + alpha, -1])
    for a in range(1, n):
        nxt = ZonePoly.univariate([2 * a + 1 + alpha, -1]) * cur - prev * (a + alpha)
        prev, cur = cur, nxt * Fraction(1, a + 1)
    return cur


def hermite_scaled_exact(l: int, lam: Fraction) -> ZonePoly:
    """lam^{-l/2} H_l(sqrt(lam) x), H_l the physicists' Hermite
    polynomial, as a polynomial in x = z (at lam = 1, H_l).

    All monomials of H_l share the parity of l, so factoring lam^{l/2}
    out leaves rational coefficients: the x^{l-2j} term picks up lam^{-j}.
    The overall scalar does not affect eigenfunction properties.  A
    negative lam is allowed: at x = -i w, i^l lam^{-l/2} H_l(sqrt(lam) x)
    is this polynomial at (l, -lam) evaluated at w, which is how the odd
    axes of ``spectrum.build_eigenfunction`` stay real.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    lam = QC.of(lam)
    return ZonePoly(1, {((l - 2 * j,), (0,)): Fraction(
        (-1) ** j * math.factorial(l) * 2 ** (l - 2 * j),
        math.factorial(j) * math.factorial(l - 2 * j)) / lam ** j
        for j in range(l // 2 + 1)})


def rodrigues_check(alpha: int, a: int) -> bool:
    """e^{-t} t^alpha L_a^{(alpha)} = (1/a!) d^a/dt^a (e^{-t} t^{a+alpha}).

    Differentiating e^{-t} p(t) gives e^{-t} (p' - p), so the right side
    reduces to an exact polynomial identity.
    """
    q = ZonePoly.univariate([0] * (a + alpha) + [1])  # t^{a+alpha}
    for _ in range(a):
        q = q.diff_z(0) - q
    lhs = ZonePoly.univariate([0] * alpha + [1]) * laguerre_exact(alpha, a)
    return q * Fraction(1, math.factorial(a)) == lhs


def laguerre_composition_check(alpha: int, n: int) -> bool:
    """L_n^{(alpha)}(z_1 + ... + z_m) = sum over i_1+...+i_m = n of
    prod_j L_{i_j}^{(0)}(z_j), m = alpha + 1, as exact ZonePolys in m
    variables: the right side is `_composition_sum` over each factor's
    levels L_i^{(0)}(z_j)."""
    m = alpha + 1
    zs = [ZonePoly.z(m, j) for j in range(m)]
    lhs = _poly_subst(laguerre_exact(alpha, n), sum(zs, ZonePoly(m)))
    return lhs == _composition_sum(n, [
        [_poly_subst(laguerre_exact(0, i), z) for i in _factor_levels(n, m)]
        for z in zs])


def apply_box(h: ZonePoly, lam, box_constant) -> ZonePoly:
    """Exact polynomial action of the magnetic Laplacian in the Gaussian gauge.

    For Box = Delta_X + 2i lam D - lam^2 |X|^2 - box_constant acting on
    H(z, zbar) e^{-lam |X|^2 / 2}, the polynomial part transforms by

        H  ->  4 sum_j d_z_j d_zbar_j H  -  4 lam sum_j z_j d_z_j H
                - (k lam + box_constant) H,

    with k = 2 * nvars and box_constant = 2 c_f of `HamiltonianVariant`.
    Derived once from Delta, the rotational field J(X).grad = i(z d_z -
    zbar d_zbar), and cancellation of the |X|^2 terms.
    """
    lam, box_constant = QC.of(lam), QC.of(box_constant)
    k = 2 * h.nvars
    out = h * -(k * lam + box_constant)
    for j in range(h.nvars):
        out = out + h.diff_z(j).diff_zbar(j) * 4
        out = out + (ZonePoly.z(h.nvars, j) * h.diff_z(j)) * (-4 * lam)
    return out


def box_field_constant(lam, k: int):
    """Default box constant 4 lam^2 k of a single block: 2 c_f for the
    default c_f of `HamiltonianVariant`."""
    return 4 * QC.of(lam) ** 2 * k


def box_eigenvalue_exact(p: int, lam, k: int, box_constant) -> Fraction:
    """-((4p + k) lam + box_constant), the box eigenvalue on holomorphic
    degree p; box_constant is 2 c_f of `HamiltonianVariant`."""
    return -((4 * p + k) * QC.of(lam) + QC.of(box_constant))


def gaussian_pair_integral_exact(f: ZonePoly, g: ZonePoly, lam) -> Fraction:
    """<f e^{-lam|X|^2/2}, g e^{-lam|X|^2/2}> over R^k, divided by pi^{k/2}.

    Monomial orthogonality: int z^a zbar^b e^{-lam|z|^2} dV vanishes unless
    a = b, and equals (pi / lam) * a! / lam^a per plane.  The pi^{k/2}
    factor is divided out so the result stays rational.
    """
    lam = QC.of(lam)
    acc = Fraction(0)
    for (a1, b1), c1 in f.terms.items():
        for (a2, b2), c2 in g.terms.items():
            # conj(g) carries g's real coefficient on z^{b2} zbar^{a2}
            exp_z = tuple(x + y for x, y in zip(a1, b2))
            exp_zb = tuple(x + y for x, y in zip(b1, a2))
            if exp_z != exp_zb:
                continue
            w = Fraction(1)
            for n in exp_z:
                w *= Fraction(math.factorial(n)) / lam ** (n + 1)
            acc += c1 * c2 * w
    return acc
