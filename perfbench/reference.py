"""Host speed reference: a fixed pure-Python loop timed while a command runs.

The benchmark's host is shared: the same command can take 1.5x longer
for seconds or minutes at a time while a neighbour loads the machine,
and a fixed loop slows by the same factor. So every timed call runs
under a Sampler, which times reference_loop once before the call, every
SAMPLE_PERIOD_S of the calling process's CPU time during it (from a
SIGPROF handler, so on the same CPU and interleaved with the program's
own work), and once after. ``scaled`` turns a call's wall seconds into
reference seconds: the seconds it would have taken with the loop at
NOMINAL_LOOP_S, the loop's typical time on the host this was tuned on
(a 2-vCPU Xeon VM).

Subprocesses run CHILD_ENTRY, which runs the rankability command under a
Sampler and reports the loop's median time as the last stderr line.
This module imports only the standard library.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

SAMPLE_PERIOD_S = 0.02
NOMINAL_LOOP_S = 1.4e-4
MARK = "perfbench-reference-loop-s"

_W = [[float((i * 7 + j * 3) % 5) for j in range(24)] for i in range(24)]


def reference_loop() -> float:
    """Fixed interpreter work: float arithmetic over nested lists."""
    s = 0.0
    for _ in range(6):
        for i in range(24):
            row = _W[i]
            for j in range(i + 1, 24):
                s += row[j] - _W[j][i]
    return s


class Sampler:
    """Times reference_loop before, during and after a ``with`` block."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()

    def median(self) -> float:
        return statistics.median(self.samples)


def scaled(wall_s: float, loop_s: float) -> float:
    """Wall seconds expressed at the nominal reference loop speed."""
    return wall_s * NOMINAL_LOOP_S / loop_s


def report(sampler: Sampler) -> None:
    sys.stderr.write(f"\n{MARK} {sampler.median()!r}\n")


def reported(stderr: str) -> float:
    """The loop median a CHILD_ENTRY process reported on its stderr."""
    mark, _, value = stderr.rstrip("\n").rpartition("\n")[2].partition(" ")
    if mark != MARK:
        raise ValueError("the child reported no reference loop time")
    return float(value)


# The rankability console script's entry point, run under a Sampler.
CHILD_ENTRY = """\
import sys
from perfbench.reference import Sampler, report
with Sampler() as sampler:
    from rankability.cli import main
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
report(sampler)
sys.exit(code)
"""

# A fresh interpreter importing the package, for the set-up time.
IMPORT_ENTRY = """\
from perfbench.reference import Sampler, report
with Sampler() as sampler:
    import rankability
report(sampler)
"""
