"""What the benchmark records about the machine, and how fast it runs now.

On a shared virtual machine the speed of the same code changes by up to
a factor of two, as neighbours load the host's cores and caches: the host
switches between fast and slow states within a second, in shares that
drift over minutes. CPU time slows as much as wall time, so this is not
steal time. To keep that out of the timing metrics, the benchmark times a
fixed loop (``SpeedProbe``) between runs. The loop is a mix of interpreter
work, small numpy ufuncs and a small matrix product, like an optimizer
step, and it runs no salsa_opt code, so changes to the program cannot
move it. A time ``t`` measured while
the probe takes ``k`` seconds is reported as ``t * REFERENCE_PROBE_S / k``:
its length on a machine where the probe takes ``REFERENCE_PROBE_S``.

Set-up is a fresh process that spends most of its time importing, and the
probe tracks that poorly: each launch's time also jitters by about 15% on
its own. So each set-up launch is paired with a launch of a fixed import
(``REFERENCE_LAUNCH``) just before it, and scaled by that one instead.
The reference import runs no salsa_opt code either.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import time

import bootstrap

# Probe time on the reference machine: about the median on a 2-vCPU VM with
# Python 3.11 and numpy 2.4. Only ratios to it matter.
REFERENCE_PROBE_S = 400e-6

# The launch that set-up times are scaled by, and its launch-to-ready time
# on the same reference machine (scipy 1.17).
REFERENCE_LAUNCH = ("import numpy, scipy.stats, time; "
                    "print(repr(time.monotonic()))")
REFERENCE_LAUNCH_S = 1.2


class SpeedProbe:
    """A fixed loop whose run time tracks the machine's current speed."""

    def __init__(self):
        import numpy as np
        self._x = np.linspace(0.0, 1.0, 64)
        self._m = np.ones((16, 16)) / 16
        self._np = np

    def __call__(self) -> float:
        """Run the loop once; return its duration in seconds."""
        np, x, m = self._np, self._x, self._m
        start = time.perf_counter()
        acc = 0.0
        for i in range(60):
            y = np.tanh(x * 0.5)
            z = m @ m[0]
            acc += float(y @ y) + float(z.sum())
            acc += len({"i": i, "acc": acc})
        return time.perf_counter() - start


def to_reference(seconds: list[float], before_s: list[float],
                 after_s: list[float]) -> list[float]:
    """Each of ``seconds`` scaled to reference speed.

    ``before_s[i]`` and ``after_s[i]`` are the probe times taken right
    before and right after ``seconds[i]``; their geometric mean is the
    machine's speed during it. The host switches between fast and slow
    states within a second, so the nearest probes track it best.
    """
    return [t * REFERENCE_PROBE_S / math.sqrt(b * a)
            for t, b, a in zip(seconds, before_s, after_s)]


def time_to_ready(args: list[str]) -> float:
    """Seconds from launching ``python3 *args`` until the child prints its
    ``time.monotonic()`` reading as the last word of its output.

    CLOCK_MONOTONIC is shared by all processes on the machine; the child's
    exit is left out.
    """
    launched = time.monotonic()
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - launched


def reference_launch() -> float:
    """Launch-to-ready seconds of a fresh interpreter that imports numpy
    and scipy.stats, the import-bound work that dominates set-up."""
    return time_to_ready(["-c", REFERENCE_LAUNCH])


def launch_to_reference(seconds: list[float],
                        reference_s: list[float]) -> list[float]:
    """Each of ``seconds`` scaled to reference speed by the reference
    launch timed just before it."""
    return [t * REFERENCE_LAUNCH_S / r for t, r in zip(seconds, reference_s)]


def machine_info(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {v: os.environ[v] for v in bootstrap.THREAD_VARS},
    }
