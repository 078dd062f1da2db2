"""Machine-speed probe: reference seconds on a shared, drifting machine.

The benchmark machine is a few vCPUs of a shared host. Its speed drifts by
tens of percent from one second to the next and over minutes, and wall and
CPU time move together, so the slow phases are not waiting: every
instruction runs slower. Left as they are, the times of two runs of the same
code differ by as much as a real change would.

The probe times a fixed calibration kernel (a dict loop and three small
SVDs, about 1 ms) from a SIGALRM handler every INTERVAL_S seconds, so
samples are taken inside long qlocc calls as well as between them. The
kernel never touches qlocc. A time measured over an interval is then
reported in reference seconds:

    reference seconds = measured seconds * REF_KERNEL_S / mean kernel time in the interval

so a run on a slow phase and one on a fast phase read alike, while a change
in qlocc's own work moves the figure as it moves the measured time. Single
jobs are scaled as in `pass_scales`. The probe's own time is left out of
every interval: `clock()` and `cpu()` stop while the handler runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter, process_time

import numpy as np

INTERVAL_S = 0.02
# a job is scaled by the samples taken while it ran and this long either side
JOB_PAD_S = 0.5
# about the kernel's mean sample time inside runs of the four workloads on the
# machine that measured baseline.json (2-vCPU Intel Xeon, Python 3.11, numpy
# 2.4 on OpenBLAS at 1 thread), so reference seconds come out close to the
# seconds measured there
REF_KERNEL_S = 0.0012

_A = np.random.default_rng(0).normal(size=(24, 24))


def kernel() -> None:
    d: dict[int, int] = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i * i
    for _ in range(3):
        np.linalg.svd(_A)


class SpeedProbe:
    """Samples the kernel on a timer while active (use as a context manager)."""

    def __init__(self):
        self.samples: list[float] = []
        self.starts: list[float] = []  # perf_counter() at each sample's start
        self.spent = 0.0  # wall seconds inside the handler
        self.spent_cpu = 0.0  # CPU seconds inside the handler
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        t0, c0 = perf_counter(), process_time()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.samples.append(t1 - t0)
        self.spent_cpu += process_time() - c0
        self.spent += perf_counter() - t0

    def __enter__(self) -> SpeedProbe:
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def clock(self) -> float:
        """Wall seconds not spent in the probe."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample landed between the two reads
                return now - spent

    def cpu(self, cpu_seconds) -> float:
        """cpu_seconds() minus the probe's CPU time."""
        while True:
            spent = self.spent_cpu
            now = cpu_seconds()
            if spent == self.spent_cpu:
                return now - spent

    def scale(self, since: int) -> float:
        """Reference seconds per measured second over the samples taken
        since index `since`; samples the kernel once now if there are none."""
        taken = self.samples[since:]
        if not taken:
            t0 = perf_counter()
            kernel()
            taken = [perf_counter() - t0]
        return REF_KERNEL_S * len(taken) / sum(taken)

    def pass_scales(self, since: int, spans) -> tuple[float, list[float]]:
        """Scales for a pass whose samples start at index `since` and for each
        of its jobs, given as perf_counter() intervals. A job's scale is the
        pass's times the median sample of the pass over the median sample
        taken while the job ran or within JOB_PAD_S of it: the job is
        corrected for how fast the machine ran around it relative to the
        whole pass. Medians, not means, for jobs: a stall that hit a sample
        near a short job did not hit the job, and a stall inside the job
        already shows in its latency."""
        k = self.scale(since)
        if len(self.samples) <= since:
            return k, [k] * len(spans)
        typical = statistics.median(self.samples[since:])
        jobs = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(self.starts, t0 - JOB_PAD_S)
            hi = bisect.bisect_right(self.starts, t1 + JOB_PAD_S)
            jobs.append(k * typical / statistics.median(self.samples[lo:hi]) if lo < hi else k)
        return k, jobs
