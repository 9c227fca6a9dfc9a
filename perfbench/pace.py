"""Machine-speed reference, interleaved with the measured work.

The speed of a shared machine drifts by 20-30%, over minutes and over tens
of milliseconds alike, and the drift is shared by all code running on it, so
medians of raw seconds do not settle from run to run.  Between measured calls
the benchmark times a fixed reference kernel: numpy row updates and
interpreter work that no incver code touches.  A call's speed factor is the
kernel's nominal time over the mean of its measured times just before and
just after the call, and the benchmark reports the call's seconds times that
factor: seconds on a machine where one reference chunk takes ``CHUNK_S``.
"""

from __future__ import annotations

import time

import numpy as np

CHUNK_S = 0.001  # nominal seconds of one reference chunk
CHUNKS = 8  # chunks timed between two measured calls
_ROWS, _COLS, _STEPS = 40, 70, 80


class Pace:
    def __init__(self):
        self.matrix = np.random.default_rng(0).random((_ROWS, _COLS))
        self.prime()

    def _chunk(self) -> float:
        m = self.matrix.copy()
        acc = 0.0
        for i in range(_STEPS):
            j = int(np.argmin(m[0]))
            m -= 1e-6 * np.outer(m[:, j], m[i % _ROWS])
            acc += float(m[1, 2])
        return acc

    def _measure(self) -> float:
        start = time.perf_counter()
        for _ in range(CHUNKS):
            self._chunk()
        return (time.perf_counter() - start) / CHUNKS

    def prime(self) -> None:
        """Time the reference now, as the "before" of the next call."""
        self.before = self._measure()

    def factor(self) -> float:
        """Speed factor of the call that just ended (call right after it)."""
        after = self._measure()
        factor = 2.0 * CHUNK_S / (self.before + after)
        self.before = after
        return factor
