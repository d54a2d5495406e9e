"""The BLAS thread pools of the OpenBLAS libraries numpy and scipy load.

``run.py`` pins every pool to one thread before numpy loads, so the
measured runs are serial.  :func:`default_threads` undoes the pin for
the span of a ``with`` block: it sets each loaded OpenBLAS pool to one
thread per CPU, which is what OpenBLAS starts with when nothing pins it,
and pins the pools back afterwards.  That lets one run also report the
figure a user gets with the program's default threading.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["default_threads"]

#: the thread-count setter of each OpenBLAS build numpy and scipy ship
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _setters() -> list:
    """The thread-count setter of every OpenBLAS library in this process."""
    with open("/proc/self/maps") as maps:
        paths = sorted({
            fields[-1] for fields in (line.split() for line in maps)
            if len(fields) >= 6 and "openblas" in os.path.basename(fields[-1])
        })
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, name) for name in _SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            found.append(setter)
    return found


@contextmanager
def default_threads() -> Iterator[bool]:
    """Unpin the BLAS pools inside the block; yields whether any was found."""
    setters = _setters()
    for setter in setters:
        setter(len(os.sched_getaffinity(0)))
    try:
        yield bool(setters)
    finally:
        for setter in setters:
            setter(1)
