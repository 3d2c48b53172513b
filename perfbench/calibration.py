"""Reference kernel that tracks the speed of a shared machine.

On a shared virtual machine the same code runs up to 1.7x slower for tens of
seconds at a time while neighbours load the physical cores (measured on a
2-core VM: CPU time slows as much as wall time, so this is lost speed, not
lost scheduling).  The benchmark runs this kernel around and, every
SAMPLE_INTERVAL_S, during each job, and rescales the job's time by how slow
the kernel ran meanwhile, which removes most of that drift.

The kernel imitates the program's mix of interpreted complex arithmetic,
many small numpy calls and dense linear algebra, and uses nothing from the
program, so a change to the program cannot change the kernel's time.
"""

import cmath
from time import perf_counter

import numpy as np

# Median kernel time on a 2-core x86-64 VM (OpenBLAS, one thread) in a quiet
# phase.  It only fixes the scale: rescaled times are seconds at that speed.
REFERENCE_SECONDS = 0.0019
SAMPLE_INTERVAL_S = 0.1

_MATRIX = np.random.default_rng(0).standard_normal((96, 96)) + 96 * np.eye(96)


def kernel():
    acc = 0j
    rows = _MATRIX[:, :8]
    for i in range(200):
        z = complex(1e-3 * i, 0.3)
        acc += cmath.sinh(z) / cmath.sinh(z + 0.6j)
        acc += np.linalg.det(rows[i % 88:i % 88 + 4, :4]) * np.sinh(rows[i % 96] * 1e-2).sum()
    table = {}
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0) + i
    acc += np.linalg.solve(_MATRIX, _MATRIX[0]).sum() + (_MATRIX @ _MATRIX)[0, 0]
    return acc


def timed_kernel():
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
