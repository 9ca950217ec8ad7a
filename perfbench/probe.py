"""Host-speed probe: corrects an operation's time for how fast the shared
host ran this process while the operation ran.

On the 2-core KVM virtual machine (Xeon, 2.1 GHz) where the benchmark was
defined, a fixed kernel alternates between about 4.3 and 6.5 ms on
2-second windows as other work on the host comes and goes, the two cores
independently, and single gate operations spread 15% over repeats.  CPU time spreads as much, and the VM
exposes no hardware counter to count instructions instead.  So while an
operation runs, a SIGALRM handler times a small fixed kernel of the kind
the program spends its time in (5x5 complex matrix products driven from
Python) every ``INTERVAL_S``.  It runs the kernel once untimed first, so
that the kernel's own code is warm whatever the operation was doing.  The
operation's time minus the probe's own time, scaled by ``REFERENCE_S`` over
the mean probe time, is its time at a fixed reference speed.  On repeats of
the open-system z gate this cut the spread (coefficient of variation) from
14.6% to 2.6%.  The probe takes about 1.5% of an operation's time, which is
subtracted.

The correction assumes the program slows with the host as the kernel does.
Some of the operation's state still leaks into the kernel: it reads about
10% slower during the sweeps than during ``validate``.  A change that moves
an operation to very different code (large BLAS calls, say) can shift its
corrected time by that much; every run also reports raw seconds.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# Typical probe time on the machine where the benchmark was defined, so
# corrected times read about as raw times did there.
REFERENCE_S = 1.3e-4
_ITERATIONS = 40
_MATRIX = np.random.default_rng(0).normal(size=(5, 5)) * 0.1 + 0j


def _kernel() -> None:
    x = np.zeros((5, 5), dtype=complex)
    for _ in range(_ITERATIONS):
        x = _MATRIX @ x + _MATRIX


class Probe:
    """Samples the probe kernel before, during and after one timed block."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        begin = perf_counter()
        _kernel()
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self._spent += end - begin

    def start(self) -> None:
        """One sample now, then one every INTERVAL_S until ``stop``."""
        self.samples = []
        self._sample()
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, elapsed: float) -> float:
        """Stop sampling; returns ``elapsed``, the raw time of the block
        between ``start`` and ``stop``, less the probe's time inside it and
        corrected to the reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = self._spent
        self._sample()
        return (elapsed - inside) * REFERENCE_S / statistics.fmean(self.samples)
