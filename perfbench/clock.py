"""Op times at a fixed reference speed of the machine.

On a shared host the same pure-Python loop runs at levels about 1.6x
apart, switching within milliseconds and drifting for minutes as other
tenants come and go, and CPU time slows with it.  A wall-clock time then
measures the neighbours as much as the program: the op times of ten 36 s
runs of one workload spread by 25 % to 30 % (IQR over median).

So an op is timed in the CPU time of the thread that runs it, which
leaves out time spent preempted, and scaled by the speed the machine ran
at during it.  (Process CPU time would not do: with a profiling timer
armed, Linux advances it only at scheduler ticks, 4 ms apart.  The
package runs in one thread here; work moved to other threads would not
be counted, so a run's text output also prints process CPU time.)

While a ``SpeedClock`` is open, a profiling timer fires every
``INTERVAL_S`` of CPU time and its handler runs ``reference``, a fixed
loop of dict operations that is not part of the package, and records the
loop's CPU time.  The machine's speed at that moment is ``NOMINAL_NS``
over that time.  An op's time at reference speed is its CPU time, less
the samples taken inside it, times the mean speed of those samples (the
sampling is uniform in CPU time, so that mean weights each moment by the
CPU time spent in it).  One sample is a noisy reading, so an op that
holds fewer than ``WINDOW`` samples takes the mean of the last ``WINDOW``
samples, half a second of CPU time.

``NOMINAL_NS`` is about the loop's mean time in the handler on the 2-core
x86-64 container (Python 3.11) the benchmark was built on, so a time at
reference speed reads close to the wall time there.  A program change
that makes an op do more or less work moves the scaled time in
proportion, as it moves the CPU time.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time, thread_time_ns

INTERVAL_S = 0.01
WINDOW = 50
NOMINAL_NS = 70_000


def reference() -> dict[int, int]:
    """The fixed loop whose speed stands for the machine's."""
    d: dict[int, int] = {}
    for i in range(400):
        d[i & 63] = d.get(i & 63, 0) + i
    return d


class SpeedClock:
    """Samples the machine's speed while open; times spans of CPU time."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.sample_s: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = thread_time_ns()
        reference()
        took = max(thread_time_ns() - start, 1)
        self.speeds.append(NOMINAL_NS / took)
        self.sample_s.append(took / 1e9)

    def mark(self) -> tuple[float, int]:
        return thread_time(), len(self.speeds)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(CPU seconds, seconds at reference speed) since ``mark``."""
        cpu = thread_time() - mark[0]
        n = len(self.speeds)
        own = max(cpu - sum(self.sample_s[mark[1]:n]), 0.0)
        speeds = self.speeds[max(min(mark[1], n - WINDOW), 0):n]
        return own, own * statistics.fmean(speeds) if speeds else own
