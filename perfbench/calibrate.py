"""Machine-speed calibration for the benchmark's timings.

The shared 2-core machines this benchmark is tuned on change speed by up
to 20% over tens of seconds, with no steal time visible in the guest: the
same fit measured in 5-second windows took 148 to 255 ms. Timing a fixed
kernel next to every op measures that speed. Over the same windows the
ratio of op time to kernel time varied 5% where the op time varied 20%.

Every time the benchmark reports in seconds is therefore scaled to the
nominal speed: raw seconds times ``NOMINAL_S`` over the kernel's time
measured beside it. On a machine running at the nominal speed the scaled
and raw times agree; the run prints both.
"""

import time

import numpy as np

# The kernel's time on an unloaded machine of the kind named in README.md.
# Only a scale: changing it rescales every reported time alike.
NOMINAL_S = 0.005
ROUNDS = 100

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(60, 60))
_GRAM = _M @ _M.T / 60.0 + np.eye(60)
_RHS = _rng.normal(size=60)


def kernel_seconds():
    """Time one run of a fixed kernel shaped like the package's work:
    small dense solves and products driven from a Python loop."""
    start = time.perf_counter()
    b = _RHS.copy()
    acc = 0
    for _ in range(ROUNDS):
        x = np.linalg.solve(_GRAM, b)
        b = _GRAM @ x * 0.5 + 1.0
        acc += sum(i * i for i in range(300))
    return time.perf_counter() - start


def scale(times, cals):
    """Times at nominal speed. ``cals`` holds one kernel time before the
    first interval and one after each; an interval is scaled by the mean
    of the two kernel times around it."""
    return [t * 2.0 * NOMINAL_S / (a + b)
            for t, a, b in zip(times, cals, cals[1:])]
