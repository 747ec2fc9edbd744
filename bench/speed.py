"""Host speed sampling, so that times from a shared machine can be compared.

The reference machine is a VM whose CPU throughput drifts by a third or more
over minutes, as other tenants load the host.  A pass's wall time follows
that drift, so raw times from two runs minutes apart differ by more than any
useful regression bound.  While a run measures, a SIGALRM handler therefore
times a fixed Python loop every PERIOD_S seconds of wall time, in thread CPU
time so that waiting for a CPU is not counted.  The mean probe time over an
interval, relative to PROBE_REFERENCE_S, is the host's slowness during that
interval; a time divided by it is expressed at the reference machine's
nominal speed.  The probe costs about 0.7% of a pass.
"""

import signal
import time

PERIOD_S = 0.02

# Mean probe time on the reference machine (2-vCPU Intel Xeon VM at 2.1 GHz,
# Python 3.11.7).  It only fixes the unit of normalized times.
PROBE_REFERENCE_S = 140e-6

_TABLE = [3, 1, 4, 1, 5, 9, 2, 6] * 8


def _probe():
    # List indexing, comparisons and small-int arithmetic, the mix of
    # oakit's search kernel and of most of its audits.
    s = 0
    for i in range(2000):
        c = _TABLE[i & 63]
        s += c if c < i else i
    return s


class SpeedProbe:
    """Context manager that samples the probe time while it is active.

    Only the main thread of this process is sampled; forked children do not
    inherit the interval timer.
    """

    def __init__(self):
        self.samples = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.thread_time()
        _probe()
        self.samples.append(time.thread_time() - start)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples)

    def scale(self, since):
        """Factor that turns a time measured since `mark()` into reference time.

        Falls back to every sample so far when the interval holds none.
        """
        window = self.samples[since:] or self.samples
        return PROBE_REFERENCE_S * len(window) / sum(window)
