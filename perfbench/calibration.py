"""A fixed calibration kernel that measures how fast the host runs now.

On a small shared host the speed a process gets moves by 1.5–2× over
seconds to minutes, and every timing moves with it: other processes
and the hypervisor take the CPU away for a while, and the CPU itself
runs slower or faster.  The benchmark times samples in CPU seconds,
which leave out the time the process does not run, and runs
:func:`calibrate` right before and right after every timed sample to
scale it to a host that runs the kernel in ``REFERENCE_S`` CPU
seconds::

    scaled = sample * REFERENCE_S / mean(kernel before, kernel after)

The kernel is a mix like the program's own work: string split and int
parse per line with dict and heap operations in a Python loop, then
many small fp16 array ops, on inputs fixed here, not by the workload
seed.  It is the same on every commit, so a change to the program
moves the scaled timings and a change in host speed mostly does not.
The two parts answer a change of host speed by different amounts (the
Python loop by more than the program's passes, the array ops by a
little less), and their 2:3 split in time makes the kernel answer
about as much as the passes do.  Sorting and reductions over large
arrays are left out: they answer it by half as much.
"""

from __future__ import annotations

import heapq
import time
import typing as _t

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "scale"]

#: The kernel's time on the reference host (its typical time on the
#: 2-vCPU host the bounds were set on), so scaled timings read close
#: to that host's wall clock.
REFERENCE_S = 0.1

_RNG = np.random.default_rng(20040101)
_ADDRS = _RNG.integers(0, 1 << 30, 30_000)
_LINES = [f"{'R' if a & 1 else 'W'} {a}\n" for a in _ADDRS.tolist()]
_SMALL = _RNG.standard_normal((64, 32))
_SMALL_STEPS = 1_000
_HEAP_DEPTH = 64


def _kernel() -> int:
    counts: _t.Dict[int, int] = {}
    heap: _t.List[_t.Tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for line in _LINES:
        _, text = line.split()
        addr = int(text)
        key = (addr >> 13) & 255
        counts[key] = counts.get(key, 0) + 1
        push(heap, (addr & 4095, key))
        if len(heap) > _HEAP_DEPTH:
            pop(heap)
    acc = _SMALL
    for _ in range(_SMALL_STEPS):
        acc = np.where(acc > 0, acc * 0.5, acc + 0.25)
        acc = acc.astype(np.float16).astype(np.float64)
    return len(counts) + len(heap) + int(acc.sum() > 0)


def calibrate() -> float:
    """CPU seconds of one run of the kernel."""
    start = time.process_time()
    _kernel()
    return time.process_time() - start


def scale(sample_s: float, before_s: float, after_s: float) -> float:
    """``sample_s`` as it would read on the reference host."""
    return sample_s * REFERENCE_S / (0.5 * (before_s + after_s))
