"""Machine-speed calibration kernels.

On a small shared VM the speed of the same code drifts by 20-40% over tens
of seconds, as other tenants load the host. A run's median then says more
about the host than about the program. Each workload therefore names a
calibration kernel: a fixed miniature of its own inner loop, written here
and not in the package, so that no change to the package changes it. The
timed run measures the kernel before the first cycle and after every cycle;
a cycle's speed factor is the mean of the two kernel times around it over
the kernel's reference time, and the cycle's times are divided by it.
The raw times are reported beside the adjusted ones.

The kernels do their products with ``np.einsum`` (no ``optimize``), which
does not call BLAS. So nothing the package sets for the whole process, such
as a BLAS thread count, changes them; the program's own threading costs stay
in its adjusted times.

Kernels:

* ``small`` - per-trial work on tiny arrays, as in ``plain``,
  ``vector_perturb`` and ``nested``: a Philox stream, a 4-vector draw, an
  81-row offset grid, a 4x4 product, row norms and an argmin;
* ``search`` - a depth-first search in Python with a short numpy dot
  product per node, as in ``trellis_shape``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

_FACTOR = np.array([[1.9, 0.0, 0.0, 0.0],
                    [0.3, 1.2, 0.0, 0.0],
                    [-0.4, 0.2, 0.8, 0.0],
                    [0.1, -0.5, 0.3, 0.6]])


def _stream(i: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))


def small(reps: int = 500) -> float:
    acc = 0.0
    for i in range(reps):
        x = _stream(i).random(4) - 0.5
        grid = np.stack(np.meshgrid(*([np.arange(3) - 1] * 4), indexing="ij"), -1).reshape(-1, 4)
        w = np.einsum("ij,jk->ik", x + grid, _FACTOR)
        e = np.einsum("ij,ij->i", w, w)
        acc += float(e[int(np.argmin(e))])
    return acc


def search(reps: int = 3) -> float:
    g = _FACTOR.T.copy()
    u = np.zeros(4)

    def walk(depth: int, partial: float, best: float) -> float:
        if depth == 0:
            return min(best, partial)
        i = depth % 4
        for level in (-0.75, 0.25):
            u[i] = level
            inc = float(np.einsum("i,i->", g[i, i:], u[i:]))
            if partial + inc * inc < best + 4.0:
                best = walk(depth - 1, partial + inc * inc, best)
        return best

    return sum(walk(12, 0.0, float(r)) for r in range(reps))


KERNELS: Dict[str, Callable[[], float]] = {"small": small, "search": search}

# Kernel times in seconds on the reference machine (2-core Xeon VM, Python
# 3.11, numpy 2.4.6) in a quiet period; adjusted times read as seconds on
# that machine at that speed.
REFERENCE_S = {"small": 0.04, "search": 0.036}


def measure(kernel: str) -> float:
    """Wall time of one kernel call, in seconds."""
    fn = KERNELS[kernel]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
