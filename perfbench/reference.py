"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same single-threaded Python code runs up to 1.5x
slower for spells of tens of seconds to minutes, in steps (CPU time moves
with wall time, so it is not scheduling). The benchmark runs a short slice
of this kernel after its units of program work and scales each round's time
to the reference speed::

    scaled = measured * NOMINAL_SLICE_S / (mean slice time in the round)

The kernel does not touch blockdec, so a change to the program moves the
scaled time and a change of machine speed moves both sides. It is plain
interpreter work of the kinds blockdec does on a CPU: list rebuilds,
tuple-keyed dict lookups and updates, and integer arithmetic.
"""

from __future__ import annotations

import gc
import statistics
import time

# Repetitions in one slice, and the seconds one slice takes at the
# reference speed: about its median on the 2-vCPU VM it was tuned on
# (Python 3.11.7). Scaled times are seconds at that speed.
SLICE_REPS = 200
NOMINAL_SLICE_S = 0.025
# Seconds of program work between slices: slices cost about a tenth of the
# run.
EVERY_S = 0.25

_CONTEXT = list(range(1024))
_TABLE = {(i, j): (i * 31 + j) % 64 for i in range(64) for j in range(64)}


def kernel(reps: int) -> int:
    """``reps`` repetitions of the mixed work; returns a checksum."""
    acc = 0
    table = _TABLE
    for r in range(reps):
        tokens = list(_CONTEXT) + [r % 64] * 32
        clean = [True] * len(_CONTEXT) + [t % 3 != 0 for t in tokens[-32:]]
        prev = r % 64
        for pos in [i for i, c in enumerate(clean) if not c]:
            prev = table[(prev, tokens[pos - 1] % 64)]
            acc += prev
        for i in range(300):
            acc += i * i % 7
        counts: dict = {}
        for i in range(120):
            key = (i % 13, i % 11)
            counts[key] = counts.get(key, 0) + 1
        acc += len(counts)
    return acc


def slice_seconds() -> float:
    """Seconds one slice of ``SLICE_REPS`` repetitions takes now. The
    collector is off for the slice, so it does not pay for the program's
    garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel(SLICE_REPS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Takes a slice whenever ``EVERY_S`` seconds have passed since the last
    one; the workloads call ``tick`` between units of program work."""

    def __init__(self):
        self.slices: list[float] = []
        self._last = float("-inf")

    def start(self) -> None:
        self.slices = []
        self._last = float("-inf")
        self.tick()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.slices.append(slice_seconds())
            self._last = time.perf_counter()



def scaled_median(rounds, attr: str = "units") -> float:
    """Median over rounds of the round's summed ``attr`` times, each scaled
    to the reference speed by that round's mean reference slice
    (``ref_slices``). Rounds repeat identical work."""
    return statistics.median(
        sum(getattr(r, attr)) * NOMINAL_SLICE_S / statistics.fmean(r.ref_slices) for r in rounds)
