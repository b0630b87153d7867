"""How fast the host runs right now, from a fixed reference kernel.

The benchmark's host is a shared machine whose speed drifts: for seconds to
minutes at a time, the same request takes up to 1.7x longer, with CPU time
tracking wall time and no steal. Wall times of runs made minutes apart then
differ by more than any change worth detecting.

The worker times ``HostSpeed.sample()``, a fixed piece of work that lives in
the benchmark and never changes with the program, between every two
requests. A request's duration is scaled by ``REFERENCE_S`` over the mean of
the samples on either side of it, giving its duration at the reference
speed: the speed at which the kernel takes ``REFERENCE_S``. A change to the
program moves the scaled time just as it moves the wall time; a change of
host speed moves the kernel as well and mostly cancels.

The kernel mixes what the program spends its time on: ``%.12g`` formatting
joined into text and written to a file (``runner`` emission), complex dense
``einsum`` (``oracle``), and small Python objects (``hilbert``/``analytic``).
"""

from __future__ import annotations

import time
from pathlib import Path

# Close to the kernel's median wall time on the 2-vCPU Intel Xeon VM where
# the benchmark was written (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31,
# OPENBLAS_NUM_THREADS=1). Scaled times are seconds on a host running at
# that speed. Changing it, or the kernel, rescales every timing, so it
# needs a new baseline.
REFERENCE_S = 0.032

KERNEL_SEED = 2103_09546
FORMAT_ROWS = 600
FORMAT_REPEATS = 10
DIM = 48
TIMES = 128
EINSUM_REPEATS = 15
OBJECTS = 20_000


class HostSpeed:
    """The reference kernel, with its inputs built once.

    It keeps under a megabyte alive, so that it does not raise the peak
    resident memory that the benchmark reports for the program.
    """

    def __init__(self, scratch: Path):
        import random

        import numpy as np

        self.np = np
        rng = random.Random(KERNEL_SEED)
        self.rows = [tuple(rng.gauss(0.0, 1.0) for _ in range(5)) for _ in range(FORMAT_ROWS)]
        self.matrix = np.array([[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                                 for _ in range(DIM)] for _ in range(DIM)])
        self.states = np.array([[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                                 for _ in range(DIM)] for _ in range(TIMES)])
        self.path = Path(scratch) / "hostspeed.txt"

    def sample(self) -> float:
        """Wall seconds of one run of the kernel."""
        np = self.np
        start = time.perf_counter()
        with open(self.path, "w", encoding="utf-8") as handle:
            for _ in range(FORMAT_REPEATS):
                handle.write("".join("%.12g,%.12g,%.12g,%.12g,%.12g\n" % row for row in self.rows))
        total = 0.0
        for _ in range(EINSUM_REPEATS):
            total += float(np.einsum("ij,tj->ti", self.matrix, self.states).real.sum())
        made = 0
        for k in range(OBJECTS):
            item = (k, float(k), complex(k, total))
            made += len(item)
        seconds = time.perf_counter() - start
        if made != 3 * OBJECTS:
            raise RuntimeError("reference kernel lost work")
        self.path.unlink()
        return seconds


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work done between
    two kernel samples."""
    return REFERENCE_S / (0.5 * (before + after))
