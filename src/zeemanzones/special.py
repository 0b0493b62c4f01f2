"""Floating-point special functions and the complex Gaussian moment integral."""

from __future__ import annotations

import numpy as np


def laguerre(alpha: int, n: int, t):
    """L_n^{(alpha)}(t) by the three-term recurrence; t may be an array.

    (a+1) L_{a+1} = (2a + 1 + alpha - t) L_a - (a + alpha) L_{a-1}.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = np.asarray(t)
    prev = np.ones_like(t, dtype=t.dtype if t.dtype.kind == "c" else float)
    if n == 0:
        return prev if prev.shape else float(prev)
    cur = 1 + alpha - t
    for a in range(1, n):
        prev, cur = cur, ((2 * a + 1 + alpha - t) * cur - (a + alpha) * prev) / (a + 1)
    return cur if np.asarray(cur).shape else complex(cur) if np.iscomplexobj(cur) else float(cur)


def gaussian_moment_integral(A: complex, C, k: int | None = None) -> complex:
    """int_{R^k} exp(-A|Z|^2/2 + C.Z) dZ for scalar A with Re(A) > 0.

    Equals ((2pi)^k / A^k)^{1/2} exp(C.C / (2A)) with the principal branch
    of A^{-k/2}; C is a complex k-vector and C.C the plain (bilinear) dot.
    """
    A = complex(A)
    if not A.real > 0:
        raise ValueError("gaussian_moment_integral requires Re(A) > 0")
    C = np.asarray(C, dtype=complex)
    if k is None:
        k = C.shape[-1]
    elif C.shape == () and k > 0:
        C = np.full(k, complex(C))
    cc = np.sum(C * C, axis=-1)
    pref = np.exp(0.5 * k * (np.log(2 * np.pi) - np.log(A)))
    return pref * np.exp(cc / (2 * A))
