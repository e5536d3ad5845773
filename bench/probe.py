"""Host-speed probe: a fixed piece of work timed before every scenario.

The benchmark runs on a few cores of a shared host whose speed drifts
by 20 to 40 % over minutes as other tenants load it, which moves every
wall time it takes.  The probe is the same work every time and does
not touch berglab: two small dense SVDs, a pass over a 1M-element
array and a pure-Python loop, roughly the instruction mix of the
workloads.
A probe runs before every scenario of every measured pass, outside
the timed calls.  Scaling a run's median pass time by the median of
all its probes cancels much of the host's drift between runs and
keeps every change in the program's own time: in two sets of ten runs
per workload on 2 vCPUs, the quartile spread of ``pass_s`` fell from
7-24 % in wall time to 2-7 %.  The second SVD cut that spread on two
of the three workloads in the same runs; steady dense work keeps the
probe's own noise small.  Scaling each pass, or each scenario, by the
probes next to it was tried too; single probes are noisier, and those
spreads were wider.  Launch times of fresh interpreters do not track
the probe (correlation about 0.2 between run medians), so ``setup_s``
stays in wall seconds.

``REFERENCE_S`` is the probe's time on that host in a quiet period.
It only sets the scale: scaled times read as seconds on that host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe seconds that set the scale of scaled times
REFERENCE_S = 0.041

_RNG = np.random.default_rng(20251017)
_MATRICES = [_RNG.standard_normal((n, n)) for n in (256, 384)]
_VALUES = _RNG.random(1_000_000)


def _work() -> float:
    sigma = sum(np.linalg.svd(m, compute_uv=False)[-1] for m in _MATRICES)
    total = float(np.sum(np.abs(_VALUES * 1.5 + 0.5) ** 2))
    acc = 0
    for i in range(100_000):
        acc += i * i
    return sigma + total + acc


def probe() -> float:
    """Wall seconds of one run of the fixed probe work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor that turns wall seconds measured among ``probes`` into
    seconds at the reference host speed."""
    return REFERENCE_S / statistics.median(probes)
