"""Host-speed-corrected time.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within minutes, with no steal time reported, so the raw seconds of one
run say as much about the host as about symcap.  SpeedClock samples the
host speed while the program runs: a timer interrupts the process every
SAMPLE_EVERY_S seconds and times a fixed calibration kernel: five steps of
scipy's L-BFGS-B on a 1024-variable objective over 256 x 4 arrays, the
same mix of interpreter, numpy and Fortran work as symcap's solvers, but no
symcap code.  Its time is kept out of the program's time.

An interval of program time is then reported in reference seconds, the
integral over the interval of

    REFERENCE_KERNEL_S / kernel_s(t)

where kernel_s(t) interpolates the sampled kernel times linearly.  On a
host that runs the kernel in REFERENCE_KERNEL_S, reference seconds are
plain seconds.  A change to symcap moves the program's seconds and leaves
the kernel's alone, so the integral keeps every change to the program and
drops the host's drift.  That drift is not smooth: on the 2-vCPU VMs the
benchmark was built on, the host's speed flips between two levels about
1.6x apart every second or two, so the samples are dense and the speed is
integrated rather than averaged.  Of the kernels tried (this one, numpy on
small arrays, matrix-vector products, numpy scalar calls, an interpreter
loop, and sums of these), this one tracked all four workloads about best:
over blocks of 5 to 15 s of one workload's fixed work, it cut the spread
(Q3 - Q1) / median of their times from 0.12-0.27 to 0.02-0.04.
"""

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.optimize import minimize

# about the kernel's seconds on a 2-vCPU x86_64 VM of 2026, where it took
# 1.1 to 2.4 ms with the host's load
REFERENCE_KERNEL_S = 0.002
SAMPLE_EVERY_S = 0.1

_W0 = np.random.default_rng(0).standard_normal(1024)


def _objective(w):
    x = w.reshape(256, 4)
    r = np.roll(x, 1, axis=0) - x
    s = np.einsum("ij,ij->i", x, x) - 1.0
    grad = 2.0 * (np.roll(r, -1, axis=0) - r) + s[:, None] * x
    return float(np.sum(r * r) + 0.25 * np.sum(s * s)), grad.ravel()


def kernel() -> float:
    """Fixed work of a few milliseconds; returns its seconds."""
    t0 = perf_counter()
    minimize(_objective, _W0, jac=True, method="L-BFGS-B",
             options={"maxiter": 5, "maxcor": 20})
    return perf_counter() - t0


class SpeedClock:
    """Program time (kernel time excluded) and host-speed samples."""

    def __init__(self):
        self.at = []        # program time of each sample
        self.kernel_s = []  # its kernel seconds
        self._stolen = 0.0

    def now(self) -> float:
        return perf_counter() - self._stolen

    def sample(self, *_) -> None:
        t0 = perf_counter()
        at = t0 - self._stolen
        sec = kernel()
        self.at.append(at)
        self.kernel_s.append(sec)
        self._stolen += perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Sample every SAMPLE_EVERY_S seconds inside the block, and once at
        each end."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def reference_s(self, start: float, end: float) -> float:
        """The program seconds from start to end, in reference seconds."""
        at = np.asarray(self.at)
        inside = at[(at > start) & (at < end)]
        t = np.concatenate(([start], inside, [end]))
        speed = np.interp(t, at, REFERENCE_KERNEL_S / np.asarray(self.kernel_s))
        return float(np.sum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t)))

    def reference_scale(self, start: float, end: float) -> float:
        """Reference seconds per program second over [start, end]."""
        return self.reference_s(start, end) / (end - start)
