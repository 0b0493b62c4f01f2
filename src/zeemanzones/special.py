"""Floating-point special functions and the complex Gaussian moment integral."""

from __future__ import annotations

import numpy as np


def laguerre(alpha: int, n: int, t, eps=1.0):
    """M_n = eps^n L_n^{(alpha)}(t / eps) by the three-term recurrence
    (a+1) M_{a+1} = ((2a + 1 + alpha) eps - t) M_a - (a + alpha) eps^2
    M_{a-1}, M_0 = 1; t may be an array, eps is a scalar.  At eps = 1 every
    eps factor is an exact multiplication by 1.0.  Complex values divide by
    a + 1 part by part, as real ones do, so a complex t with zero imaginary
    part follows the real recurrence exactly.  A scalar t gives a Python
    float or complex.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = np.asarray(t)
    shape = t.shape
    t = t.reshape(-1)          # 1-d, so every step below is in place
    if n == 0:
        cur = np.ones_like(t, dtype=t.dtype if t.dtype.kind == "c" else float)
    else:
        prev, cur = 1.0, (1 + alpha) * eps - t
    for a in range(1, n):
        nxt = (2 * a + 1 + alpha) * eps - t
        nxt *= cur
        nxt -= (a + alpha) * eps * eps * prev
        # numpy divides a complex by a + 1 through its reciprocal, which
        # rounds twice
        parts = nxt.view(float) if nxt.dtype.kind == "c" else nxt
        parts /= a + 1
        prev, cur = cur, nxt
    cur = cur.reshape(shape)
    return cur if shape else complex(cur) if cur.dtype.kind == "c" else float(cur)


def gaussian_moment_integral(A: complex, C) -> complex:
    """int_{R^k} exp(-A|Z|^2/2 + C.Z) dZ for scalar A with Re(A) > 0.

    Equals ((2pi)^k / A^k)^{1/2} exp(C.C / (2A)) with the principal branch
    of A^{-k/2}; C is a complex k-vector and C.C the plain (bilinear) dot.
    """
    A = complex(A)
    if not A.real > 0:
        raise ValueError("gaussian_moment_integral requires Re(A) > 0")
    C = np.asarray(C, dtype=complex)
    k = C.shape[-1]
    cc = np.sum(C * C, axis=-1)
    pref = np.exp(0.5 * k * (np.log(2 * np.pi) - np.log(A)))
    return pref * np.exp(cc / (2 * A))
