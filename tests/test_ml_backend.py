"""The BLAS threadpool is pinned to one thread (`repro.ml.backend`)."""

from __future__ import annotations

import pytest

import repro.ml  # noqa: F401 - importing the package pins the pool
from repro.ml.backend import blas_threads


def test_importing_repro_ml_pins_blas_to_one_thread():
    threads = blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread-control symbol found")
    assert threads == 1
