"""A fixed calibration unit that tracks how fast this machine runs right now.

On a shared host the same pass can run up to twice as slow for seconds to
minutes at a time, in CPU time as well as wall time, so a median over one
run measures the host's state as much as the program.  The unit below does
the kinds of work the package does (numpy kernels at its array sizes, tiny
dense solves, an interpreted loop) in code the package does not own, so a
change to the package cannot move it.  A pass runs it between its command
calls and rescales each call's time by ``REFERENCE_S`` over the unit's time
around that call: the result is the time the call would take on this
machine when the unit takes ``REFERENCE_S``.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# One unit on the 2-vCPU Xeon the benchmark was defined on, in its fast
# state (the tenth percentile of 400 units over ten runs).
REFERENCE_S = 0.0165
REPEATS = 3

_rng = np.random.default_rng(20021256)
_X = _rng.standard_normal((880, 2))
_W = _rng.standard_normal((2, 8))
_V = _rng.standard_normal((2, 8))
_Y = _rng.integers(0, 2, 880)
_M = _rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
_B = _rng.standard_normal(4)


def _unit() -> float:
    total = 0.0
    for _ in range(75):
        H = _X @ _W
        F = np.maximum(H, 0.0) @ _V.T
        margins = 1.0 - F[np.arange(880), _Y][:, None] + F
        active = margins > 0.0
        coef = active.sum(axis=1)[:, None] * _V[_Y, :] - active @ _V
        total += float((_X.T @ (coef * (H > 0.0))).sum())
    for _ in range(750):
        total += float(np.linalg.solve(_M, _B)[0])
    count = 0
    for i in range(75_000):
        count += i % 7
    return total + count


def unit_seconds() -> float:
    """The fastest of a few runs of the unit, so one interruption does not
    count as a slow host."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _unit()
        best = min(best, perf_counter() - t0)
    return best
