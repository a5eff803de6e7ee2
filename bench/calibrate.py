"""Host-speed reference for the benchmark's timings.

The shared host the benchmark was built on runs in two states about
1.7x apart in speed, switching every few seconds to minutes with other
tenants' load, so raw wall times of identical runs differ by more than
any useful regression bound.  The time of a fixed piece of interpreter
work that does not touch decid follows those states closely (decid's
ops took 29-31 reference times in both).  So the benchmark samples the
reference before and after every op and reports each op's time scaled
by ``REFERENCE_S`` over the mean of those two samples: the time the op
takes on this host in its faster state.  Raw times are printed too.
Set-up time is not scaled: importing follows the states less closely.
"""

import statistics
import time

# Median of host_sample() on the host in its faster state.
REFERENCE_S = 0.00021

_NEXT = {i: ((i * 7 + 1) % 64, (i * 13 + 5) % 64, (i * 29 + 3) % 64)
         for i in range(64)}


def reference_seconds() -> float:
    """Time a depth-first walk with dict and tuple-key bookkeeping, the
    kind of work decid's engines do."""
    start = time.perf_counter()
    seen = {}
    for root in range(8):
        stack = [root]
        while stack:
            node = stack.pop()
            key = (root, node)
            if key not in seen:
                seen[key] = len(seen)
                stack.extend(_NEXT[node])
    return time.perf_counter() - start


def host_sample() -> float:
    """The reference's time now: median of three runs."""
    return statistics.median(reference_seconds() for _ in range(3))


def scaled(seconds, before, after) -> float:
    """``seconds`` measured between host samples ``before`` and
    ``after``, expressed at the reference host speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
