"""Reference kernel that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other work, and the
speed it gets swings by tens of percent within seconds.  A timing in
seconds then says as much about the host as about dqap_lab.  So, while
a repetition runs, a timer interrupts it every PERIOD_S seconds of wall
time and the handler runs one short sample of this kernel.  The run
reports, beside the raw seconds, the repetition's time rescaled to a
fixed reference speed:

    norm = (wall - time in samples) * nominal_s / mean(sample seconds)

The mean, not the median: a stretch in which the host stalls the
process slows the samples taken in it as much as the workload, so both
carry it and it cancels.

The kernel does the kind of work dqap_lab does, in plain numpy and
without importing it, so no change to the package can move it: a
Python loop of 2x2 rotations over the bonds of an L x L/2 complex
orbital matrix, a dense energy product, and the eigenvalues, Cholesky
factor and a solve of an L/2 x L/2 Gram matrix.
`L` is chosen per workload to match the arrays its layers handle, so
the kernel meets the same mix of interpreter overhead and array work.
Python runs the handler between bytecodes of the main thread, so it
never splits a numpy call, and the interrupted code resumes unchanged.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05  # wall time between two kernel samples


class Reference:
    """Kernel at chain length `L`; one sample is `100 // L` rounds (about 1.5 ms).

    `nominal_s` is the mean sample time on the machine the bounds were
    fixed on, so normalized times read as seconds there.  It is only a
    scale: ratios between commits do not depend on it.

    Use it as a context manager around the timed code; `normalize` then
    rescales that code's wall time.
    """

    def __init__(self, L: int, nominal_s: float):
        rng = np.random.default_rng(12345)
        self.L = L
        n = max(1, L // 2)
        q, _ = np.linalg.qr(rng.standard_normal((L, n)) + 1j * rng.standard_normal((L, n)))
        self.orb0 = q
        h = np.zeros((L, L))
        idx = np.arange(L)
        h[idx, (idx + 1) % L] = h[(idx + 1) % L, idx] = -1.0
        self.h = h
        self.angles = rng.uniform(0.0, 0.3, L)
        self.rounds = max(1, 100 // L)
        self.nominal_s = nominal_s
        self.samples: list[float] = []  # seconds per sample in the last window
        self.spent = 0.0  # seconds the last window spent in the handler

    def _once(self) -> float:
        t0 = time.perf_counter()
        orb = self.orb0.copy()
        energy = 0.0
        for _ in range(self.rounds):
            for parity in (0, 1):
                for a in range(parity, self.L - 1, 2):
                    c, s = np.cos(self.angles[a]), np.sin(self.angles[a])
                    ra, rb = orb[a].copy(), orb[a + 1]
                    orb[a] = c * ra - 1j * s * rb
                    orb[a + 1] = c * rb - 1j * s * ra
            horb = self.h @ orb
            energy += float(np.real(np.vdot(orb, horb)))
            gram = orb.conj().T @ horb
            gram = 0.5 * (gram + gram.conj().T) + self.L * np.eye(len(gram))
            energy += float(np.linalg.eigvalsh(gram)[0])
            np.linalg.solve(np.linalg.cholesky(gram), np.ones(len(gram)))
        if not np.isfinite(energy):
            raise RuntimeError("reference kernel diverged")
        return time.perf_counter() - t0

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self._once())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a window shorter than PERIOD_S: sample after it
            self.samples.append(self._once())
        return False

    def normalize(self, wall_s: float) -> float:
        """`wall_s` of the last window, less its samples, at nominal speed."""
        return (wall_s - self.spent) * self.nominal_s / statistics.fmean(self.samples)
