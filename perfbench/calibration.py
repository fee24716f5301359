"""The calibration unit: how fast the box runs a fixed piece of work.

The runner measures it in its own process, which never imports
fracmim, while it holds the worker stopped (SIGSTOP), on the CPU the
worker's main thread last ran on.  The runner stops the worker on its
own fixed clock, so neither the timing nor the number of samples
depends on what fracmim does, and while the worker is stopped none of
its threads (the BLAS threads included) run beside the calibration.
"""

import cmath
import os
import time
from pathlib import Path

import numpy as np


def work() -> None:
    """About a millisecond of the mix fracmim's hot loops are made of.

    Complex arithmetic in the interpreter, small numpy updates, and
    decimal formatting and parsing.
    """
    z = 0j
    for k in range(1000):
        z += cmath.exp(complex(1e-3 * k, 1.0))
    a = np.ones(80)
    for _ in range(100):
        a = a * 0.999 + 1e-3
    text = ",".join(f"{0.1 * k:.17g}" for k in range(200))
    sum(float(cell) for cell in text.split(","))


def window(seconds: float) -> list[float]:
    """Run ``work`` back to back for ``seconds``; the mean time of one run per tenth of the window."""
    work()
    work()
    out = []
    for _ in range(10):
        n, start = 0, time.perf_counter()
        while True:
            work()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds / 10:
                break
        out.append(elapsed / n)
    return out


def stopped_cpu(pid: int) -> int | None:
    """The CPU a process last ran on, once it shows as stopped; None if it does not."""
    for _ in range(1000):
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            return None
        if fields[0] in ("T", "t"):
            return int(fields[36])  # field 39 of proc(5), "processor"
        if fields[0] in ("Z", "X"):
            return None
        time.sleep(1e-5)
    return None


def window_beside(pid: int, seconds: float) -> list[float]:
    """``window`` on the CPU that the stopped process ``pid`` last ran on."""
    cpu = stopped_cpu(pid)
    if cpu is None:
        return window(seconds)
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return window(seconds)
    finally:
        os.sched_setaffinity(0, old)
