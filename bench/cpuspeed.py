"""CPU speed on a shared host: pick the fastest CPU, and scale timings to a reference speed.

On a shared virtual machine the vCPUs do not run at one speed.  At any
moment one of them may run a fixed Python loop 1.5-1.7x slower than
another, because other tenants share the host, and which one is slow
changes every few seconds.  Over minutes the whole machine drifts between
faster and slower stretches.  Two tools keep the benchmark's timings
steady against this:

* :func:`fastest` probes each CPU of the process's affinity set with a
  short fixed loop, pins the process to the quickest one for the duration
  of a ``with`` block, and restores the affinity set afterwards.  Child
  processes started inside the block inherit the pin.  Where affinity
  cannot be read or set, or only one CPU is allowed, the block runs
  unpinned.
* :func:`to_reference_s` scales a timing by the probe measured on the same
  CPU right before and after it, to the seconds it would take on a CPU
  that runs the probe in :data:`REFERENCE_PROBE_S`.  The probe calls no
  gaussgeom code, so a change to the program moves the scaled time exactly
  as much as the raw one, while a slower stretch of the host moves both the
  probe and the timing and mostly cancels.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

PROBE_LOOPS = 10_000
PROBE_REPEATS = 5
# The probe's time on the reference CPU; about what a quiet 2 GHz Xeon vCPU takes.
REFERENCE_PROBE_S = 1e-3


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on, or [] where that cannot be read."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def probe_s() -> float:
    """Fastest of a few timings of one fixed interpreter loop (about 1 ms)."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += (i * 0.5) ** 0.5
        best = min(best, time.perf_counter() - start)
    return best


def to_reference_s(seconds: float, probe: float) -> float:
    """``seconds`` measured where the probe took ``probe`` s, scaled to the reference CPU."""
    return seconds * REFERENCE_PROBE_S / probe


@contextmanager
def fastest(cpus: list[int]):
    """Pin to the CPU of ``cpus`` with the quickest probe; yield it (None if unpinned)."""
    if len(cpus) < 2:
        yield None
        return
    try:
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = probe_s()
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best})
    except OSError:
        _restore(cpus)
        yield None
        return
    try:
        yield best
    finally:
        _restore(cpus)


def _restore(cpus: list[int]) -> None:
    try:
        os.sched_setaffinity(0, set(cpus))
    except OSError:
        pass
