"""Calibration kernels: fixed work that shares no code with qw3.

The benchmark divides each job's time by a kernel's time measured right
before and after it, and each set-up probe's time by the small-matrix
kernel's time measured in the probe right after it. Other tenants of a shared
machine slow a kernel about as much as they slow work of the same character.
On a 2-core VM the wall time of identical preset jobs drifted by 23%
(quartile distance over median) across a nine-minute stretch, while job time
over the matching kernel's time drifted by 4%. The match matters: over the
same stretch, preset jobs over the batched kernel drifted by 8%, and dynamics
jobs over the small-matrix kernel by 12% against 4% over the batched one.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(16, 3, 3)) + 1j * _RNG.normal(size=(16, 3, 3))
_COINS = _RNG.normal(size=(3000, 3, 3)) + 1j * _RNG.normal(size=(3000, 3, 3))
_STATE = _RNG.normal(size=(3000, 3)) + 1j * _RNG.normal(size=(3000, 3))


def calibrate_small() -> float:
    """Seconds for 1500 interpreted 3x3 complex products: the character of
    the spectral workloads and of set-up, many short interpreted steps."""
    mats = list(_SMALL)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(1500):
        b = mats[i & 15] @ mats[(i + 1) & 15]
        acc += abs(b[0, 0] + b[1, 1]) + float(np.abs(b).max())
    return time.perf_counter() - t0


def calibrate_batched() -> float:
    """Seconds for 60 batched 3x3 complex products over 3000 sites: the
    character of the simulator's step."""
    b = _STATE
    t0 = time.perf_counter()
    for _ in range(60):
        b = np.einsum("xij,xj->xi", _COINS, b) * (1.0 / 3.0)
    return time.perf_counter() - t0


# the kernel each workload kind's jobs are divided by
CALIBRATION = {"spectrum": calibrate_small, "simulation": calibrate_batched}
