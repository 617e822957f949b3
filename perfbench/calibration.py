"""Host-speed calibration for the benchmark's times.

On a shared host the speed of one process drifts by 15-60% over seconds to
minutes (other tenants on the same core, clock changes), far more than a
regression bound, and a second core does not see the same drift. So the
host speed is sampled on the benchmark's own core, with a fixed kernel of
the solver's kind of work (small-array numpy calls behind Python calls: an
Euler LLF flux, a Softplus transform, a three-way minimum; no pampa code,
so a change to the program cannot move it).

A measured repeat is cut into stretches by kernel samples: one before it,
one after it and, inside `run.advance`, one between residual calls once a
stretch has lasted INTERVAL_S. The samples are excluded from every timing.
Each stretch is scaled by REFERENCE_S / (mean of its two bracketing
samples), so reported times are seconds of a host that runs the kernel in
REFERENCE_S. The raw times and every kernel sample stay in the run record.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.01  # kernel time on the reference host (Xeon, 2 vCPUs, numpy 2.4)
INTERVAL_S = 0.25
_REPS = 80

_rng = np.random.default_rng(0)
_STATE = np.stack([1.0 + _rng.random(806), _rng.random(806) - 0.5,
                   3.0 + _rng.random(806)], axis=-1)


def _step(U):
    rho = U[:, 0]
    v = U[:, 1] / rho
    p = 0.4 * (U[:, 2] - 0.5 * U[:, 1] ** 2 / rho)
    if np.any(p <= 0.0):
        raise ValueError("calibration state left the domain")
    c = np.sqrt(1.4 * np.maximum(p, 0.0) / rho)
    s = np.abs(v) + c
    lam = np.maximum(s[:-1], s[1:])
    F = np.stack([U[:, 1], U[:, 1] * v + p, v * (U[:, 2] + p)], axis=-1)
    G = 0.5 * (F[:-1] + F[1:]) - 0.5 * lam[:, None] * (U[1:] - U[:-1])
    q = np.log(np.expm1(rho))
    w = np.where(q > 30.0, q, np.log1p(np.exp(q)))
    d = np.minimum(np.minimum(np.abs(G[:-2]), np.abs(G[1:-1])), np.abs(G[2:]))
    return float(np.sum(d)) + float(np.sum(w))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _step(_STATE)
    return time.perf_counter() - t0


class HostSpeed:
    """Cuts measured repeats into kernel-bracketed stretches."""

    def __init__(self):
        kernel_seconds()  # warm-up, not a sample
        self.kernel_s: list[float] = []  # every sample of the run
        self.paused_s = 0.0  # total time spent sampling

    def _sample(self):
        t0 = time.perf_counter()
        self._kernels.append(kernel_seconds())
        self._t = time.perf_counter()
        self.paused_s += self._t - t0

    def begin(self):
        self._stretches: list[float] = []
        self._kernels: list[float] = []
        self._sample()

    def tick(self):
        """Between two calls of the program: sample if the stretch is long."""
        now = time.perf_counter()
        if now - self._t >= INTERVAL_S:
            self._stretches.append(now - self._t)
            self._sample()

    def end(self) -> float:
        """Close the repeat; return the factor from raw to reference-host time."""
        self._stretches.append(time.perf_counter() - self._t)
        self._sample()
        self.kernel_s += self._kernels
        k = self._kernels
        scaled = sum(s * REFERENCE_S / (0.5 * (k0 + k1))
                     for s, k0, k1 in zip(self._stretches, k, k[1:]))
        return scaled / sum(self._stretches)
