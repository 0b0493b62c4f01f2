"""Explicit spectral theory of Zeeman operators.

Zonal projection (point-spread) kernels, explicit spectra and
multiplicities, global and zonal heat/Schrodinger kernels, partition and
zeta functions, tensor Gauss-Hermite quadrature, time-sliced zonal path
integrals, and a verification harness.

The kernel names are loaded from `kernels` on first access, so importing
the package (or its CLI) loads neither numpy nor the numerical layers.
"""

from .params import Block, MagneticParams, HamiltonianVariant, H_Z, H_ZF, BOX

__version__ = "0.1.0"

_KERNEL_NAMES = (
    "KernelValue", "SingularTimeError", "projection_kernel",
    "global_kernel", "zonal0", "zonal_kernel_closed", "zonal_kernel_numeric",
)

__all__ = [
    "Block", "MagneticParams", "HamiltonianVariant", "H_Z", "H_ZF", "BOX",
    *_KERNEL_NAMES, "__version__",
]


def __getattr__(name):
    if name in _KERNEL_NAMES:
        from . import kernels
        return getattr(kernels, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
