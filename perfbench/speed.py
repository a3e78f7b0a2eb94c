"""Reference-speed scaling of measured times.

On a shared virtual machine the CPU speed can change by 1.7x for seconds to
minutes at a time.  On the 2-vCPU Xeon virtual machine the benchmark was
built on (CPython 3.11.7), raw gpnorm timings of one fixed job varied by 30 %
between 5 s windows, while their ratio to the time of ``kernel`` measured
next to them varied by 1.5 %.  So every time the benchmark reports is the
measured wall time scaled by ``REFERENCE_MS / k``, where ``k`` is the time
of ``kernel`` measured next to it: the time the same work takes on a CPU
that runs ``kernel`` in ``REFERENCE_MS``.  ``kernel`` does not call gpnorm,
so a change to gpnorm moves the scaled times as it moves raw ones.
"""

from __future__ import annotations

import statistics
import time

# Time of ``kernel`` on the reference CPU (the fast state of the machine
# above).  It only sets the scale of the reported times.
REFERENCE_MS = 2.5


def kernel() -> int:
    """Fixed pure-Python work in gpnorm's style: small tuples, sorting,
    dict and set traffic."""
    counts: dict = {}
    seen = set()
    x = 12345
    for i in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 97, (x >> 8) % 13)
        word = tuple(sorted((key, (i % 7, x % 5), ((x >> 3) % 11, i % 3))))
        counts[key] = counts.get(key, 0) + len(word)
        seen.add(word)
    return len(seen)


def kernel_ms(repeats: int = 1) -> float:
    """Median time of ``repeats`` runs of ``kernel``, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)
