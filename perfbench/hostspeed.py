"""Host-speed reference: a fixed kernel timed next to every measured operation.

A shared 2-vCPU VM runs in a fast mode and in modes up to 1.8x slower,
for spans from under a second to minutes, so a whole run can fall in a
slow phase.  Raw wall times then spread past any useful bound (the
fastest encdec call of a 45 s run spread 0.30 over ten seeds).  The slow
modes slow this kernel and the engine alike, if not by quite the same
factor: over twelve 8 s windows in which the median call time ranged over
36% (lstm) and 35% (encdec), the median ratio of a call to the kernel
timed next to it ranged over 7% and 17%.

So `kernel` runs between any two measured operations, and each
operation's time is rescaled by REF_S over the mean kernel time around
it (`Clock`).  The result reads as the operation's time on a host that
runs the kernel in REF_S seconds.  The kernel is a small int64 GEMV, a table
gather and a clip in a Python loop, the same mix as an integer LSTM step.
It uses no engine code, so a change to the engine cannot move it, and its
working set (about 160 KB) stays small beside the engine's tables.

Changing the kernel or REF_S rescales every timed metric: it is a
benchmark change of its own, with a fresh baseline.
"""

import statistics
import time

import numpy as np

# The kernel's time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) in the
# host's fast mode.
REF_S = 2.0e-3
# kernel runs on each side of an operation that set its host speed
WINDOW = 8

_rng = np.random.default_rng(0)
_W = _rng.integers(-127, 128, size=(256, 64)).astype(np.int64)
_TABLE = _rng.integers(-30000, 30000, size=4096).astype(np.int64)
_X0 = _rng.integers(-127, 128, size=64).astype(np.int64)


def kernel(steps: int = 100) -> int:
    x, acc = _X0, 0
    for _ in range(steps):
        z = _TABLE[(_W @ x) & 0xFFF]
        x = np.clip(z[:64] >> 8, -127, 127)
        acc += int(x[0])
    return acc


def kernel_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Runs the kernel between operations and rescales their times.

    Kernel runs and operations alternate, K op K op K ..., and each
    operation is stored with the index of the kernel run right after it.
    Host speed flips between modes within milliseconds as well as over
    minutes, so a single 3 ms kernel run lands in one mode while a longer
    operation averages over both.  An operation is therefore rescaled by
    the mean of the WINDOW kernel runs on each side of it.
    """

    def __init__(self):
        kernel()  # warm up
        self.kernels = [kernel_s()]

    def tick(self) -> int:
        """Run the kernel after an operation; return the run's index."""
        self.kernels.append(kernel_s())
        return len(self.kernels) - 1

    def scale(self, samples) -> list:
        """(seconds, tick) samples, in seconds at the reference host speed."""
        return [
            seconds * REF_S / statistics.fmean(self.kernels[max(0, i - WINDOW) : i + WINDOW])
            for seconds, i in samples
        ]
