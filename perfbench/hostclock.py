"""Work timer corrected for the speed of the host.

On a shared virtual machine the speed of a fixed pure-Python loop drifts by
15-20% within seconds, and CPU time drifts with it. The clock therefore runs
a fixed reference loop between slices of work (at every ``mark``) and scales
each slice by ``REF_NOMINAL_S / ref``, where ``ref`` is the mean duration of
the two reference calls that bracket the slice. Reported times stay in
seconds of a host running at nominal speed. The reference loop's own time is
never counted as work.

Run this file to calibrate: it prints the median of many reference calls,
which is how ``REF_NOMINAL_S`` was obtained.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

import numpy as np

# Median duration of one ref_loop() call on the reference machine (2-core
# x86-64 VM, CPython 3.11); see "Host-speed correction" in README.md.
REF_NOMINAL_S = 0.00286

_REF_ITERATIONS = 500

# Longest slice of work between two reference calls where the program
# offers a mark point; the host's speed changes within a second.
SLICE_S = 0.04


def _sets(n: int) -> int:
    acc = 0
    base = frozenset(range(0, 40, 3))
    for i in range(n):
        probe = frozenset((i % 37, i % 11, i % 5))
        acc += len((base - probe) | probe)
    return acc


def _dicts(n: int) -> int:
    table: dict[tuple, int] = {}
    for i in range(n):
        key = ("f", i & 127)
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
    return len(table)


def _calls(n: int) -> int:
    def step(x: int, y: int) -> int:
        return (x * 7 + y) & 0xFFFF
    acc = 0
    items: list[int] = []
    for i in range(n):
        acc = step(acc, i)
        items.append(acc)
        if len(items) > 64:
            items.clear()
    return acc


def _arrays(n: int) -> float:
    vec = np.arange(16, dtype=np.float64)
    mat = np.ones((8, 16))
    acc = 0.0
    for i in range(n):
        row = np.zeros(16)
        row[i & 15] += 1.0
        acc += float((mat @ (vec + row)).max())
    return acc


# Small objects scattered through a few MB, walked in allocation-unrelated
# order: the memory-bound side of the program (the garbage collector walking
# conflict relations, big frozenset builds) changes speed with the host's
# memory traffic, which the interpreter-bound kernels do not feel.
_HEAP: list[tuple[int, int]] = []
_HEAP_CELLS = 80_000
_walk_starts = itertools.count(0, 7919)


def _build_heap() -> None:
    if not _HEAP:
        cells = [(i, i + 1) for i in range(_HEAP_CELLS)]
        random.Random(0).shuffle(cells)
        _HEAP.extend(cells)


def _walk(n: int) -> int:
    start = next(_walk_starts) % (len(_HEAP) - n)
    acc = 0
    for cell in _HEAP[start:start + n]:
        acc += cell[0]
    return acc


def ref_loop() -> float:
    """A fixed mix of the work the planner does: frozenset algebra, dict
    updates with tuple keys, small Python calls, small numpy arrays and a
    walk over scattered objects. Several kernels, so that no single code
    layout or resource sets the pace."""
    return (_sets(_REF_ITERATIONS) + _dicts(_REF_ITERATIONS)
            + _calls(_REF_ITERATIONS) + _arrays(_REF_ITERATIONS // 4)
            + _walk(_REF_ITERATIONS * 5))


class HostClock:
    """Accumulates host-corrected work time between ``start`` and ``stop``.

    ``mark`` closes the current slice of work, runs the reference loop and
    opens the next slice; it also counts work units, so that a lost hook
    shows. ``maybe_mark`` does the same once a slice is ``SLICE_S`` old. A
    listener (the tracer) receives each slice's correction factor so that
    span times can be corrected the same way.
    """

    def __init__(self) -> None:
        _build_heap()
        self.refs: list[float] = []
        self.unit_marks = 0
        self.listener = None
        self._last_ref: float | None = None
        self._slice_start = 0.0
        self._work = 0.0
        self.raw_work = 0.0
        self._running = False

    def _run_ref(self) -> float:
        t0 = time.perf_counter()
        ref_loop()
        ref = time.perf_counter() - t0
        self.refs.append(ref)
        return ref

    def mark(self) -> None:
        """Mark the start of a work unit."""
        self.unit_marks += 1
        self._mark()

    def maybe_mark(self) -> None:
        """Mark if the current slice has run for ``SLICE_S`` or longer."""
        if time.perf_counter() - self._slice_start >= SLICE_S:
            self._mark()

    def _mark(self) -> None:
        now = time.perf_counter()
        if self.listener is not None:
            self.listener.pause(now)
        ref = self._run_ref()
        if self._running:
            factor = REF_NOMINAL_S / ((self._last_ref + ref) / 2)
            self._work += (now - self._slice_start) * factor
            self.raw_work += now - self._slice_start
            if self.listener is not None:
                self.listener.close_slice(factor)
        self._last_ref = ref
        self._slice_start = time.perf_counter()
        if self.listener is not None:
            self.listener.resume(self._slice_start)

    def start(self) -> None:
        self._running = False
        self._mark()
        self._running = True
        self._work = 0.0
        self.raw_work = 0.0

    def stop(self) -> float:
        """Close the last slice and return the corrected work time; the
        uncorrected time is left in ``raw_work``."""
        self._mark()
        self._running = False
        return self._work


if __name__ == "__main__":
    _build_heap()
    samples = []
    for _ in range(3000):
        t0 = time.perf_counter()
        ref_loop()
        samples.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(samples, n=4)
    print(f"ref_loop: median {med:.6f} s, quartiles {q1:.6f}-{q3:.6f} s "
          f"over {len(samples)} calls")
