"""Host-speed calibration for the benchmark's time metrics.

On a shared host the speed of the same code drifts by tens of percent, in
phases of seconds to minutes, and CPU time drifts with wall time.  A fixed
block of work that does not touch ``gstdesign`` is therefore timed before
the first and after every timed operation (and set-up).  Each operation
is scaled by the mean of the two blocks that bracket it:

    scaled = seconds * REFERENCE_S / mean(block before, block after)

so ``wall_s`` and ``setup_s`` read in seconds on a host where one block
takes ``REFERENCE_S``.  A change to the package moves the scaled time in
proportion to the raw time; a change in host speed that also slows the
block cancels out.  The raw samples and the block times are kept in the
run record, and ``--trace 1`` reports them as ``host.*`` metrics.

The block mixes the three kinds of work the workloads do: a pure-Python
loop, many small ``eigvalsh`` calls, and 200 x 200 matrix products.
"""

from __future__ import annotations

import time

import numpy as np

# one block on the 2-vCPU host the benchmark was tuned on (Python 3.11,
# OpenBLAS 0.3.31, one thread); only fixes the scale of the reported seconds
REFERENCE_S = 0.30

_rng = np.random.default_rng(0)
_SMALL = _rng.random((6, 6))
_SMALL = _SMALL + _SMALL.T
_MEDIUM = _rng.random((200, 200))
# bound here, so a tracer patching numpy.linalg later never sees the block
_eigvalsh = np.linalg.eigvalsh


def block() -> float:
    """Run the fixed block of work once; its wall seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    for _ in range(10_000):
        _eigvalsh(_SMALL)
    for _ in range(300):
        _MEDIUM @ _MEDIUM
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work bracketed by blocks of ``before`` and ``after``
    seconds, in reference-host seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2)
