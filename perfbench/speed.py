"""Speed probe: a fixed piece of numpy work whose time tracks the speed of
the core it runs on.

On a shared host a core runs 15-30% faster or slower for seconds to
minutes at a time, and the interpreter, BLAS and LAPACK slow down together.
child.py runs the probe in the op's own process, right after set-up and
right after the op, and the harness scales the op's set-up and op times by
REF_S over the mean probe time. The probe uses numpy only, never catlab, so
a change to catlab moves the scaled times as it moves the raw ones.
"""
from __future__ import annotations

import time

import numpy as np

# the probe's time on a typical core of a shared 2-core x86-64 host with one
# OpenBLAS thread; it only sets the scale of the scaled times
REF_S = 0.17
EIGH, MATMUL, UFUNC, LOOP = 60, 450, 1000, 500_000


def probe() -> float:
    """Seconds the probe's work takes now.

    Every array is below glibc's initial mmap threshold (128 KiB). Freeing
    a larger, mmap-backed array would raise that threshold for the rest of
    the process and change how the op that follows allocates memory."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    herm = a + a.conj().T                      # 64 KiB
    mat = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    vec = rng.standard_normal(4096)            # 32 KiB
    start = time.perf_counter()
    for _ in range(EIGH):
        np.linalg.eigh(herm)                   # LAPACK, as in gibbs_state
    for _ in range(MATMUL):
        mat @ mat                              # BLAS level 3, complex
    for _ in range(UFUNC):
        np.sort(np.exp(vec) * vec)             # elementwise numpy calls
    total = 0
    for i in range(LOOP):                      # the interpreter
        total += (i * i) % 7
    return time.perf_counter() - start
