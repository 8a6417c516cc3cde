"""Reference kernel: how fast this machine runs jet-style code right now.

The benchmark host is shared.  Its speed for branelab-like code drifts by
up to 1.7x over minutes, so raw wall times of the same code spread by
15-35% across 30-second runs.  The kernel below never calls branelab, so a
change to branelab cannot change its time.  It has two parts, one per kind
of work the workloads do: a frozen Cauchy product of two tensor jets on
slice-sized grids (Python loops issuing many small ``np.einsum`` calls),
and a contraction streaming arrays larger than one core's L2 cache (the
large coefficient arrays of high-order jets on 2-d grids).  Timing it
between operations and scaling the operations' wall time by
``REFERENCE_S / kernel time`` expresses a pass in seconds at one fixed
machine speed.  On 30-second windows of one long run this cut the spread
of the pass time from 35% to 6% (phase-space) and from 15% to 7%
(curved-high-order).
"""
from __future__ import annotations

import time
from itertools import product

import numpy as np

# nominal kernel time on an idle host: sets the scale of the normalized
# seconds
REFERENCE_S = 0.02

_ORDER = 3
_INDICES = sorted((a for a in product(range(_ORDER + 1), repeat=2) if sum(a) <= _ORDER),
                  key=lambda a: (sum(a), a))
_POSITION = {a: i for i, a in enumerate(_INDICES)}
_TRIPLES = [(i, j, _POSITION[(a[0] + b[0], a[1] + b[1])])
            for i, a in enumerate(_INDICES) for j, b in enumerate(_INDICES)
            if sum(a) + sum(b) <= _ORDER]
_RNG = np.random.default_rng(0)
# one slice-sized and one patch-sized grid, as in the workloads
_OPERANDS = [([_RNG.random((4, 4, n)) for _ in _INDICES],
              [_RNG.random((4, n)) for _ in _INDICES]) for n in (128, 1024)]
# 8 MiB and 2 MiB: together larger than L2, smaller than the shared L3
_STREAM = (_RNG.random((4, 4, 1 << 16)), _RNG.random((4, 1 << 16)))


def _cauchy(a, b):
    out = [0.0] * len(_INDICES)
    for i, j, k in _TRIPLES:
        out[k] = out[k] + np.einsum("ab...,b...->a...", a[i], b[j])
    return out


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    for a, b in _OPERANDS:
        for _ in range(10):
            _cauchy(a, b)
    for _ in range(6):
        np.einsum("ab...,b...->a...", *_STREAM)
    return time.perf_counter() - start
