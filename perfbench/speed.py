"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same request can take twice as long from one second
to the next.  A fixed kernel that does not use wrearr, interpreter-bound
like the library (a Python loop over short lists of floats), runs before
every request.  It needs nothing beyond the standard library, so it can also
time the machine before numpy loads.  Each request's time is then rescaled to the reference speed, the
speed at which the kernel takes ``REFERENCE_S``:

    reference time = measured time * REFERENCE_S / local kernel time

where the local kernel time is the median of the kernel runs nearest the
request.  The rescaled time moves with the library's cost and hardly with
the machine's momentary speed.
"""

import statistics
import time

REFERENCE_S = 2e-3
KERNEL_STEPS = 1200
WINDOW = 2
BURST = 25

_START = [[(i * 7 + j * 3) % 11 / 11.0 for j in range(8)] for i in range(8)]


def kernel_seconds():
    """Time one run of the calibration kernel."""
    t0 = time.perf_counter()
    y = [row[:] for row in _START]
    acc = 0.0
    for i in range(KERNEL_STEPS):
        column = y[i % 8]
        acc += sum(v * v for v in column)
        y[(i + 1) % 8] = [0.5 * (a + b) for a, b in zip(column, y[(i + 1) % 8])]
    return time.perf_counter() - t0


def factors(kernel_times, count):
    """Rescaling factor for each of ``count`` requests.

    ``kernel_times`` has one entry before each request and one after the
    last, so request ``i`` lies between entries ``i`` and ``i + 1``.
    """
    return [
        REFERENCE_S / statistics.median(kernel_times[max(0, i - WINDOW) : i + WINDOW + 2])
        for i in range(count)
    ]


def factor_now():
    """Rescaling factor from a burst of kernel runs."""
    return REFERENCE_S / statistics.median(kernel_seconds() for _ in range(BURST))
