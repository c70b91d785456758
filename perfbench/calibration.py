"""Host-speed calibration: a fixed reference kernel timed inside every run.

The benchmark shares its host with other tenants, whose load changed the
speed of identical work by up to 1.6x between runs minutes apart (and
within a run, in bursts of seconds).  Each workload therefore times this
reference kernel -- plain Python and numpy, no ``repro`` code, so no
change to the program can move it -- next to its own timed operations,
and reports every end-to-end time scaled to the speed at which the
kernel takes :data:`REFERENCE_S`.  A change to the program moves its
operations and not the kernel, so the scaled times keep its effect and
shed the host's.  The raw times and the scale factor are printed in the
report.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from .common import median

#: Reference-kernel time that defines the reporting speed (seconds).
REFERENCE_S = 0.020


class Speed:
    """Reference-kernel samples of one run."""

    def __init__(self) -> None:
        import numpy as np

        self._generator = np.random.default_rng(12345)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the reference kernel once; returns (and keeps) its seconds.

        Interpreter work (dict updates) and single-threaded numpy work
        (random draws, element-wise maths, a sort); no BLAS call, whose
        thread pool would tie the kernel to the other CPU's load.
        """
        import numpy as np

        started = time.perf_counter()
        table = {}
        for index in range(60_000):
            slot = index % 997
            table[slot] = table.get(slot, 0) + index
        for _ in range(8):
            draws = self._generator.standard_exponential(100_000)
            np.sort(np.sqrt(draws) * 0.5 + draws)
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        return seconds

    @property
    def factor(self) -> float:
        """Multiply a time measured in this run by this to scale it."""
        return REFERENCE_S / median(self.samples)


def scaled(walls: Sequence[float], references: Sequence[float]) -> float:
    """Median of times each scaled by the reference sample taken beside it."""
    return median([wall * REFERENCE_S / ref for wall, ref in zip(walls, references)])


def speed_note(speed: Speed) -> str:
    return (
        f"host speed: reference kernel median {1000.0 * median(speed.samples):.2f} ms over "
        f"{len(speed.samples)} samples (reporting speed {1000.0 * REFERENCE_S:.0f} ms); "
        f"times scaled by {speed.factor:.4f}"
    )
