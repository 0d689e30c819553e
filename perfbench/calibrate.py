"""Host-speed calibration: a fixed probe timed between iterations.

The shared machines this benchmark runs on change speed by up to 1.6x
within a minute, in CPU time as well as in wall time: the cores run slower,
the process is not descheduled.  Medians within one run cannot remove a
slow phase that lasts longer than the run.  So the runner times this probe
before and after every iteration and multiplies the iteration's times by
``(REFERENCE_S / probe seconds) ** host_sensitivity``: the time the same
work takes on a host where the probe takes ``REFERENCE_S``.  A workload's
``host_sensitivity`` is how strongly its time follows the probe, fitted on
paired timings (see ``workloads.py``); 1 means in proportion.

The probe touches no library code, so a change to the library never moves
it.  It mixes, in about equal parts, the kinds of work the workloads spend their
time in: pure-Python breadth-first search over lists (the list kernels),
numpy gathers and scatter-minimums over a ``(16, 2048)`` label matrix (the
batched frontier kernels), and a tight integer loop (scoring).
"""

import random
import statistics
import time

import numpy as np

#: Seconds of one probe pass at the reference speed: a round figure near the
#: median pass on a 2-CPU machine with python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 0.010
#: Passes per probe; the probe is their median.
PASSES = 9

_N = 2048
_ROWS = 16
_rng = random.Random(0)
_ADJACENCY = [[_rng.randrange(_N) for _ in range(4)] for _ in range(_N)]
_HEADS = np.array([v for out in _ADJACENCY for v in out], dtype=np.int64)
_TAILS = np.repeat(np.arange(_N, dtype=np.int64), 4)
_LENGTHS = np.array([_rng.randint(2, 9) for _ in range(4 * _N)], dtype=np.int64)
_OFFSETS = np.arange(_ROWS, dtype=np.int64)[:, None] * _N


def _bfs(source: int) -> int:
    """Sum of hop distances from ``source`` over the fixed list graph."""
    hops = [-1] * _N
    hops[source] = 0
    frontier = [source]
    total = 0
    depth = 0
    while frontier:
        depth += 1
        following = []
        for u in frontier:
            for v in _ADJACENCY[u]:
                if hops[v] < 0:
                    hops[v] = depth
                    total += depth
                    following.append(v)
        frontier = following
    return total


def _relax() -> int:
    """Two rounds of batched relaxation over the fixed edge arrays."""
    dist = np.full((_ROWS, _N), 1 << 40, dtype=np.int64)
    dist[np.arange(_ROWS), np.arange(_ROWS)] = 0
    flat = dist.reshape(-1)
    for _ in range(2):
        previous = dist.copy()
        candidates = dist[:, _TAILS] + _LENGTHS
        np.minimum.at(flat, (_OFFSETS + _HEADS).ravel(), candidates.ravel())
        (dist < previous).any(axis=0)
    return int(dist[:, : _ROWS].sum())


def _arithmetic() -> int:
    """A tight interpreter loop of integer arithmetic."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    return total


def one_pass() -> float:
    started = time.perf_counter()
    for source in range(8):
        _bfs(source)
    _relax()
    _arithmetic()
    return time.perf_counter() - started


def probe(passes: int = PASSES) -> float:
    """Median seconds of ``passes`` probe passes."""
    return statistics.median(one_pass() for _ in range(passes))

