"""Machine speed from a fixed reference computation timed between operations.

The benchmark was built on a machine whose cores are shared with other
tenants: for 10–70 s at a time the same code runs 1.5–1.8× slower, and no
statistic of the program's own timings over a 25-s run removes that (with
each operation's fastest time, the middle half of ten runs spread by
19–32 %).  So the benchmark times a fixed piece of work of its own (small
numpy linear algebra, polynomial products and plain Python, the mix sldstab
runs) before every operation, and scales each operation's CPU time by
``REF_CHUNK_S`` over the reference's CPU time around it.  A scaled time is the
operation's time on a machine that runs the reference chunk in
``REF_CHUNK_S`` seconds.  The reference never imports sldstab, so a change
of the program moves scaled and raw times alike, while a slow phase of the
machine moves the operation and the reference together and largely cancels
out.  Largely: operations dominated by larger matrices slow down less than
the reference does, so their scaled times still move a little with the
machine.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Nominal time of one reference chunk: the speed scaled times refer to.
REF_CHUNK_S = 0.0002
CHUNKS = 5  # chunks per sample; a sample is their median
HALF_WINDOW_S = 0.5  # samples up to this far before and after an operation count


class Reference:
    """Reference samples over a run: ``sample()`` between operations."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        m = rng.standard_normal((8, 8))
        self.sym = m @ m.T + 8.0 * np.eye(8)
        self.rhs = rng.standard_normal(8)
        self.poly = rng.standard_normal(6)
        self.times: list[float] = []  # perf_counter at the sample's middle
        self.chunks: list[float] = []  # median chunk CPU time of the sample

    def chunk(self) -> float:
        acc = 0.0
        for _ in range(8):
            acc += float(np.linalg.eigvalsh(self.sym)[0])
            acc += float(np.linalg.solve(self.sym, self.rhs)[0])
            acc += float(np.convolve(self.poly, self.poly[::-1])[3])
        table: dict[int, float] = {}
        for i in range(240):
            table[i % 13] = table.get(i % 13, 0.0) + 0.5 * i
        return acc + sum(sorted(table.values()))

    def sample(self) -> None:
        took = []
        start = time.perf_counter()
        for _ in range(CHUNKS):
            t = time.process_time()
            self.chunk()
            took.append(time.process_time() - t)
        self.times.append(0.5 * (start + time.perf_counter()))
        self.chunks.append(statistics.median(took))

    def local(self, start: float, end: float) -> float:
        """Median chunk time of the samples within ``HALF_WINDOW_S`` of [start, end].

        The sample taken right before and the one right after an operation
        are always inside, so the window is never empty once both exist.
        """
        lo = bisect.bisect_left(self.times, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + HALF_WINDOW_S)
        window = self.chunks[lo:hi] or self.chunks
        return statistics.median(window)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over [start, end], at the reference speed."""
        return seconds * REF_CHUNK_S / self.local(start, end)

    def factor(self) -> float:
        """Scale factor of the whole run (median over all its samples)."""
        return REF_CHUNK_S / statistics.median(self.chunks)
