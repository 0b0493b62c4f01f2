"""Floating-point special functions and the complex Gaussian moment integral."""

from __future__ import annotations

import numpy as np


def laguerre_levels(alpha: int, n: int, t, eps, work=None):
    """Yield M_0, ..., M_n, M_m = eps^m L_m^{(alpha)}(t / eps), from one
    pass of the recurrence (a+1) M_{a+1} = ((2a + 1 + alpha) eps - t) M_a
    - (a + alpha) eps^2 M_{a-1}; t may be an array, eps is a scalar.  M_0
    is the scalar 1.0, the others arrays of t's shape that the recurrence
    reads again (not to be written to), or Python scalars for a scalar t.
    At eps = 1 every eps factor is an exact multiplication by 1.0.
    Complex values divide by a + 1 part by part, as real ones do, so a
    complex t with zero imaginary part follows the real recurrence exactly.

    work, if given, is three one-dimensional arrays of t's size and the
    levels' dtype: the levels are computed in the first two, in turn, and
    the third holds the scaled M_{a-1}, with the same bits, so a caller
    reading only the last level (`laguerre`) allocates nothing per call.
    A yielded level is then overwritten two steps later.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = np.asarray(t)
    shape = t.shape
    t = t.reshape(-1)          # 1-d, so every step below is in place
    yield 1.0
    prev, cur = None, 1.0
    for a in range(n):
        if a:
            # (a + alpha) eps^2 M_{a-1}; in work it goes to the third buffer
            # and M_{a+1} takes the place of M_{a-1} (a product in place
            # rounds differently on one-entry arrays)
            s = (a + alpha) * eps * eps
            sp = (s * prev if work is None or a == 1
                  else np.multiply(s, prev, out=work[2]))
        out = None if work is None else work[a] if a < 2 else prev
        nxt = np.subtract((2 * a + 1 + alpha) * eps, t, out=out)
        if a:
            nxt *= cur
            nxt -= sp
            # numpy divides a complex by a + 1 through its reciprocal,
            # which rounds twice
            parts = nxt.view(float) if nxt.dtype.kind == "c" else nxt
            parts /= a + 1
        prev, cur = cur, nxt
        yield cur.reshape(shape) if shape else cur.item()


def laguerre(alpha: int, n: int, t, eps=1.0, work=None):
    """M_n, the last of `laguerre_levels` (in its work buffers, if given),
    with M_0 as ones shaped like t; a scalar t gives a Python float or
    complex."""
    for cur in laguerre_levels(alpha, n, t, eps, work):
        pass
    if n == 0:
        cur = np.ones_like(t, complex if np.iscomplexobj(t) else float)
        return cur if cur.ndim else cur.item()
    return cur


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
