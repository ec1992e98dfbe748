"""A fixed kernel timed back to back between the benchmark's timed calls.

The CPU this benchmark shares with other tenants changes speed by 2x from
one second to the next and drifts over minutes: on a 2-vCPU VM, the median
raw wall time of the same runs moved by more than 25% from one set of runs
to the next.  The gated times are therefore wall times normalized by this
probe.  Just before and just after each timed call, outside its timed
window, the probe times a fixed kernel; the call's wall time is divided by
the mean of the two samples:

    normalized = wall * PROBE_UNIT_S / mean(sample before, sample after)

A sample is the mean time of back-to-back kernel runs that follow
``WARM_RUNS`` untimed ones, with the garbage collector off, so it reads the
kernel with warm caches and not the state the program left behind.  It
takes at least ``REPEATS`` runs, and at least ``SHARE`` times the length of
the timed call next to it, so the samples follow the host over about a
fifth of the measured time whatever the call's length.  No signal handler
or second thread runs during the program.  The kernel uses no hmfem code
and mimics the program's mix: a per-element Python loop over small numpy
arrays and a small sparse LU solve.

``PROBE_UNIT_S`` sets the unit: a normalized second is the time a call takes
on a host where one kernel run takes ``PROBE_UNIT_S``.  It is a round figure
near the kernel's time on the host the benchmark was written on, so the
normalized times read close to seconds there; it scales every normalized
figure alike and changes no ratio or spread.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PROBE_UNIT_S = 5e-4
WARM_RUNS = 3
REPEATS = 10
SHARE = 0.10
_ELEMENTS = 48
_GRID = 8


class Probe:
    def __init__(self):
        m = _GRID
        ring = sp.diags([-1.0, -1.0], [-1, 1], shape=(m, m))
        eye = sp.eye(m)
        self._A = (4.2 * sp.eye(m * m) - sp.kron(eye, ring) - sp.kron(ring, eye)).tocsc()
        self._b = np.ones(m * m)
        self._grads = np.linspace(-1.0, 1.0, _ELEMENTS * 6).reshape(_ELEMENTS, 3, 2)
        self._dofs = (np.arange(_ELEMENTS * 3) * 7 % (m * m)).reshape(_ELEMENTS, 3)
        self._U = np.linspace(0.0, 1.0, m * m)
        self._last = 0.0  # wall seconds of the last normalized call

    def _kernel(self) -> None:
        vals = np.empty((_ELEMENTS, 3))
        for e in range(_ELEMENTS):
            g = self._grads[e]
            ux, uy = self._U[self._dofs[e]] @ g
            vals[e] = ux * g[:, 1] - uy * g[:, 0]
        spla.splu(self._A).solve(self._b)

    def _sample(self, seconds: float) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(WARM_RUNS):
                self._kernel()
            times = []
            until = time.perf_counter() + seconds
            while len(times) < REPEATS or time.perf_counter() < until:
                t0 = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.fmean(times)

    def before(self) -> float:
        """The sample before a call, as long as SHARE of the previous call."""
        return self._sample(SHARE * self._last)

    def normalize(self, wall: float, before: float) -> float:
        """Normalized seconds of a call of ``wall`` seconds that followed ``before``."""
        after = self._sample(SHARE * wall)
        self._last = wall
        return wall * PROBE_UNIT_S / ((before + after) / 2)
