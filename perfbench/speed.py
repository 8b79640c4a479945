"""Machine-speed probe: timed end-to-end figures are scaled to one reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over minutes, and the program's CPU time drifts with it, so neither
wall nor CPU time repeats between runs. ``SpeedProbe`` measures that drift in
the same process and the same time window as the workload: a real-time timer
interrupts the run every ``PERIOD`` seconds, and its handler times one call of
``probe``, a fixed piece of work in the workloads' mix (a frozen miniature of
the package's hot paths). The probe uses numpy and scipy only, never
``thinfilm``, so a change to the package cannot move it.

``elapsed`` subtracts the probe's own time from a measured interval and
scales the remainder by ``REFERENCE_S`` over the mean time of the probes that
fired inside it (the latest probe before its end when none did). A scaled
figure reads as seconds on a machine where one probe takes ``REFERENCE_S``;
a change to the program moves it as it moves the raw time. Over 24 runs of
``resolvent_scan`` the median raw time spread by 22% (quartile distance over
median) and the scaled time by 3.4%. A probe of tight pure-Python loops did
worse: scaled by it, the workload still read about 8% slower in the host's
slow spells than in its fast ones.

The handler runs in the main thread between bytecodes, so the workloads must
run in that thread (the sweep's default of one worker does).
"""

import signal
import statistics
import time

import numpy as np
import scipy.linalg

PERIOD = 0.2
# median probe time on the two-vCPU Xeon (2.0 GHz) the benchmark was defined on
REFERENCE_S = 0.012


def _fd_weights(nodes, x0, m):
    """Fornberg's recursion, a fixed copy of the one the stencils use."""
    n = len(nodes)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def probe(reps=3):
    """A fixed amount of work in the workloads' mix; returns a number so nothing is skipped.

    Stencil weights by Fornberg's recursion, 7-point stencils applied on a
    1025-node grid, a band filled element by element from Python, a banded
    LAPACK solve and a small pseudo-inverse.
    """
    n = 1025
    s = np.linspace(-12.0, 4.0, n)
    center = np.arange(-3.0, 4.0)
    one_sided = np.arange(7.0)
    acc = 0.0
    for _ in range(reps):
        for m in (1, 2, 3, 4):
            w = _fd_weights(center, 0.0, m)
            for i in range(3):
                w = w + _fd_weights(one_sided, float(i), m)
            u = np.exp(-np.exp(s)) * s
            d = np.zeros(n)
            for k in range(7):
                d[3:-3] += w[k] * u[k:n - 6 + k]
            acc += float(d[100])
        ab = np.zeros((7, n))
        w = _fd_weights(center, 0.0, 4)
        for i in range(300):
            for k in range(7):
                ab[k, i] = w[k] + (1.0 if k == 3 else 0.0)
        ab[3, 300:] = 2.0
        x = scipy.linalg.solve_banded((3, 3), ab, 0.01 * s + 1.0)
        basis = np.stack([np.exp(k * s[:6]) for k in (1, 2, 3)], axis=1)
        acc += float(x[5]) + float(np.linalg.pinv(basis)[0, 0])
    return acc


class SpeedProbe:
    """Context manager that times ``probe`` every ``PERIOD`` seconds while it is open.

    A disabled probe never fires, and its scaled times are the raw ones.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.times = []
        self.total = 0.0
        self._busy = False
        self._previous = None

    def _fire(self, signum=None, frame=None):
        if self._busy:  # a slow probe outlasted the period; skip, never nest
            return
        self._busy = True
        try:
            start = time.perf_counter()
            probe()
            elapsed = time.perf_counter() - start
            self.times.append(elapsed)
            self.total += elapsed
        finally:
            self._busy = False

    def __enter__(self):
        if self.enabled:
            probe()  # warm-up, not counted
            self._fire()  # so that every interval has a latest probe
            self._previous = signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """The start of an interval, for ``elapsed``."""
        return time.perf_counter(), self.total, len(self.times)

    def elapsed(self, mark):
        """(raw, scaled) seconds since ``mark``, both without the probe's own time."""
        start, total, count = mark
        raw = time.perf_counter() - start - (self.total - total)
        if not self.enabled:
            return raw, raw
        inside = self.times[count:]
        speed = statistics.fmean(inside) if inside else self.times[-1]
        return raw, raw * REFERENCE_S / speed

    def summary(self):
        if not self.enabled:
            return "off (figures are raw seconds)"
        return (f"{len(self.times)} probes, mean {1e3 * statistics.fmean(self.times):.3f} ms, "
                f"median {1e3 * statistics.median(self.times):.3f} ms, "
                f"reference {1e3 * REFERENCE_S:g} ms")
