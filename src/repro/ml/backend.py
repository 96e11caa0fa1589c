"""Pin the BLAS threadpool to one thread, once per process.

OpenBLAS results depend on its thread count: the CNN trained on the
same data predicts different bits with one BLAS thread than with two.
So the pool is set to one thread when :mod:`repro.ml` is imported,
before any training or prediction runs, and never changed afterwards.
Every process that trains or predicts — including each forked serve
worker — imports :mod:`repro.ml` and therefore runs the same
arithmetic on any core count.

Thread control talks to the OpenBLAS runtime numpy bundles via
``ctypes`` (``scipy_openblas_set_num_threads64_`` and friends).  When
no control symbol can be found — a numpy built on a different BLAS —
:func:`pin` is a no-op and :func:`blas_threads` returns ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import pathlib

import numpy as np

__all__ = ["blas_threads", "pin"]

#: symbol-name variants across OpenBLAS builds (scipy-openblas wheels
#: prefix and suffix the classic names).
_SET_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)
_GET_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


@functools.cache
def _blas_controls() -> tuple[object, object]:
    """(set_num_threads, get_num_threads) of the BLAS numpy loads,
    or ``(None, None)`` when no control symbol is reachable."""
    numpy_dir = pathlib.Path(np.__file__).resolve().parent
    candidates = [
        *glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*")),
        *glob.glob(str(numpy_dir / ".libs" / "*openblas*")),
        *glob.glob(str(numpy_dir / "*" / "*openblas*")),
    ]
    for path in candidates:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # pragma: no cover - unreadable candidate
            continue
        setter = next(
            (getattr(library, s) for s in _SET_SYMBOLS if hasattr(library, s)),
            None,
        )
        if setter is None:
            continue
        getter = next(
            (getattr(library, s) for s in _GET_SYMBOLS if hasattr(library, s)),
            None,
        )
        setter.restype = None
        setter.argtypes = [ctypes.c_int]
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
        return setter, getter
    return None, None


def blas_threads() -> int | None:
    """The BLAS threadpool size, or ``None`` when it cannot be read."""
    _, getter = _blas_controls()
    return None if getter is None else int(getter())


def pin() -> None:
    """Set the BLAS threadpool to one thread (no-op without control)."""
    setter, _ = _blas_controls()
    if setter is not None:
        setter(1)
