"""Explicit spectral theory of Zeeman operators.

Zonal projection (point-spread) kernels, explicit spectra and
multiplicities, global and zonal heat/Schrodinger kernels, partition and
zeta functions, tensor Gauss-Hermite quadrature, time-sliced zonal path
integrals, and a verification harness.
"""

from .params import Block, MagneticParams, HamiltonianVariant, H_Z, H_ZF, BOX
from .kernels import (KernelValue, SingularTimeError, projection_kernel,
                      irreducible_projection_kernel, global_kernel, zonal0,
                      zonal_kernel_closed, zonal_kernel_numeric,
                      dominant_kernel, mehler_kernel)

__version__ = "0.1.0"

__all__ = [
    "Block", "MagneticParams", "HamiltonianVariant", "H_Z", "H_ZF", "BOX",
    "KernelValue", "SingularTimeError", "projection_kernel",
    "irreducible_projection_kernel", "global_kernel", "zonal0",
    "zonal_kernel_closed", "zonal_kernel_numeric", "dominant_kernel",
    "mehler_kernel", "__version__",
]
