"""Print NumPy's version and the bundled OpenBLAS's core and config.

Byte-identity witnesses are stated on one BLAS kernel (CONTRACTS.md I3),
so every CI job names the kernel it ran on.  A wheel without the
``scipy_openblas`` symbols prints "unknown".

    python .github/scripts/blas_kernel.py
"""

import ctypes

import numpy as np


def blas(symbol):
    try:
        from numpy._core import _multiarray_umath as core

        fn = getattr(ctypes.CDLL(core.__file__), symbol)
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        return fn().decode().strip()
    except Exception:
        return "unknown"


print("numpy", np.__version__)
print("openblas core:", blas("scipy_openblas_get_corename64_"))
print("openblas config:", blas("scipy_openblas_get_config64_"))
