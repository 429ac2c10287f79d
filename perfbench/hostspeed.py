"""Host speed probes, to report times at a fixed nominal host speed.

On a shared host, other tenants slow this process by up to about 1.7x
for stretches from seconds to longer than a benchmark run.  A fixed
probe kernel that uses no qig code slows by about the same factor, so a
measured time is scaled by ``NOMINAL_PROBE_S`` over the mean probe time
while it was measured.  The result is the time the work takes on a host
where the probe takes ``NOMINAL_PROBE_S``, about its time on a quiet
2-core x86_64 VM.  A change to qig cannot change the probe's time, so it
moves a scaled time as it moves the raw time on a quiet host.
"""

import signal
import time

import numpy as np

NOMINAL_PROBE_S = 2.5e-4
SAMPLE_INTERVAL_S = 0.05


def probe_kernel():
    """A fixed bit of small-array numpy and Python work, like qig's per-call work."""
    a = np.linspace(0.1, 1.0, 8)
    total = 0.0
    for _ in range(60):
        a = np.sqrt(a * a + 0.5) / 1.1
        total += float(a.sum()) + sum(i * i for i in range(20))
    return total


def probe(repeats=3):
    """Mean time of ``repeats`` runs of the probe kernel."""
    start = time.perf_counter()
    for _ in range(repeats):
        probe_kernel()
    return (time.perf_counter() - start) / repeats


class Sampler:
    """Probes the host every ``SAMPLE_INTERVAL_S`` while a long pass runs.

    A timer signal runs :func:`probe_kernel` in the main thread, between
    two bytecodes of whatever runs, and records (start, duration).  The
    probes' time lands inside the pass; callers remove it.
    """

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        probe_kernel()
        self.samples.append((start, time.perf_counter() - start))
