"""How fast the shared host runs right now, from a fixed computation outside twobox.

On the 2-core virtual machine this benchmark was tuned on, other tenants' load
slows every computation by up to 1.6-2x, in stretches that last from seconds
to several minutes, and the two cores slow down independently of each other.
Two runs of the same code a minute apart could differ by half. The slowdown
is uniform enough that a fixed computation slows by the same factor as
twobox's operations: over five minutes of ``pigeonhole-n``, with the host
switching phases, a fixed numpy computation's time just before each operation
correlated at 0.75-0.85 with the operation's latency.

So the benchmark runs ``probe_ms`` between timed operations, outside their
timers, and reports each time scaled by ``REFERENCE_MS / probe``, with the
mean of the probes read just before and just after it: the time the
operation would have taken on a host where the probe takes ``REFERENCE_MS``.
Every process of a run is pinned to one CPU, so the probe reads the core the
operations run on. The probe calls no twobox code, so a change to twobox
moves the scaled times exactly as much as the raw ones.
"""

import statistics
import time

import numpy as np

REFERENCE_MS = 2.5  # about the probe's time on the tuning machine; fixed for good
REPS = 3  # back-to-back runs of the probe; their median is the reading

_MATRIX = np.random.default_rng(0).standard_normal((96, 96)) + 0j
_EYE = np.eye(8)


def _kernel():
    """Interpreted integer arithmetic, then Kronecker and dense complex products.

    The workloads spend their time in both kinds of work: ``files-n3`` and
    the import-bound ``cli`` mostly in the interpreter, ``pigeonhole-n`` in
    numpy. The two halves take about the same time, so the probe follows the
    host's slowdown of either.
    """
    total = 0
    for k in range(12000):
        total += k * k % 7
    m = _MATRIX
    for _ in range(4):
        m = np.kron(m[:12, :12], _EYE) @ _MATRIX
    return total, m


def probe_ms():
    """The median of ``REPS`` timed runs of the fixed computation, in ms."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def scaled(ms, probe):
    """``ms`` measured when the probe read ``probe``, at the reference speed."""
    return ms * REFERENCE_MS / probe
