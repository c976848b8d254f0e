"""Speed normalisation: time work against a fixed reference kernel run beside it.

On a shared machine the speed of one core drifts by up to a factor of two
within seconds, as other tenants load the same physical cores.  The benchmark
therefore runs a short reference chunk after every block of about
``BLOCK_S`` seconds of work and divides the block's times by the *speed
factor* of the chunks around it: a chunk's duration over ``NOMINAL_CHUNK_S``.  A factor of
1.0 is the nominal speed, 1.5 a machine running a third slower.  The kernel
mixes interpreter work and small numpy calls like the library's hot paths, and
it uses nothing from the library, so a change to the library cannot move it.

Normalised times are seconds at nominal speed.  The raw (wall-clock) figures
are printed next to them.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

BLOCK_S = 0.01  # work between two reference chunks
CHUNK_ITERATIONS = 200
# Duration of one chunk on an uncontended core of the machine the benchmark
# was defined on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
NOMINAL_CHUNK_S = 1.3e-3

clock = time.perf_counter
_VALUES = np.arange(8.0)


def reference_chunk(iterations: int = CHUNK_ITERATIONS) -> float:
    total = 0.0
    for _ in range(iterations):
        order = np.argsort(_VALUES, kind="stable")
        cums = np.cumsum(_VALUES[order])
        total += math.fsum(cums[:4]) + float(np.searchsorted(cums, 3.0))
    return total


def speed_factor() -> float:
    """Run one reference chunk; return its duration over the nominal duration."""
    t0 = clock()
    reference_chunk()
    return (clock() - t0) / NOMINAL_CHUNK_S


class Pacer:
    """Times operations from outside, in blocks bracketed by reference chunks.

    ``timed(fn, *args)`` runs one operation.  Once a block has lasted
    ``BLOCK_S``, a reference chunk runs, and the block's operation times and
    wall time are divided by the geometric mean of the speed factors of the
    chunks before and after it.  ``close()`` ends the last block; work done
    between the last operation and ``close()`` (writing outputs) belongs to
    that block.
    """

    def __init__(self) -> None:
        # One entry per operation; compact arrays keep the harness's own memory
        # small next to the workload's peak RSS.
        self.op_s = array("d")  # normalised
        self.raw_op_s = array("d")
        self.factors: list[float] = []  # one per block
        self.work_s = 0.0  # normalised wall time of all blocks, reference chunks excluded
        self.raw_work_s = 0.0
        self._block: list[float] = []
        self._block_start = 0.0
        self._factor_before = 1.0

    def start(self) -> None:
        self._factor_before = speed_factor()
        self._block_start = clock()

    def timed(self, fn, *args):
        t0 = clock()
        result = fn(*args)
        t1 = clock()
        self._block.append(t1 - t0)
        if t1 - self._block_start >= BLOCK_S:
            self._close_block(t1)
            self._block_start = clock()
        return result

    def close(self) -> None:
        self._close_block(clock())

    def _close_block(self, t_end: float) -> None:
        factor_after = speed_factor()
        factor = math.sqrt(self._factor_before * factor_after)
        self._factor_before = factor_after
        wall = t_end - self._block_start
        self.raw_work_s += wall
        self.work_s += wall / factor
        self.raw_op_s.extend(self._block)
        self.op_s.extend(d / factor for d in self._block)
        self.factors.append(factor)
        self._block.clear()
