"""Host-speed probe: a fixed reference kernel timed between benchmark jobs.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same job can take up to twice as long for minutes at a time, and process
CPU time drifts with wall time, so neither averages out within one run.
``probe()`` times a fixed kernel that calls no ``magnonchain`` code and
mixes the kinds of work the workloads spend their time in: a pure-Python
loop, many small numpy calls, a small LAPACK ``eigh``, a sparse complex
matvec and a streaming copy past the L2 cache.  It runs just before each
timed job and after the last one, outside the timed region, for longer
next to longer jobs (``reps_for``).  A job's time at reference speed is
its measured time times ``REFERENCE_S`` over the mean of the probes on
either side of it.

Over ten runs per workload on a 2-core Xeon VM, this cut the spread of
the per-run median pass time (interquartile distance over median) from
17.5% to 5.9% on chain-analysis, 8.8% to 6.2% on xy-quench and 13.3% to
9.1% on ising-quench.  Jobs of a few seconds that are memory-bound
(Krylov at N = 13, 15) follow the probe less closely than the short,
Python-heavy ones.

The fresh-interpreter starts behind ``setup_s`` (process start, reading
and unmarshalling modules) do not follow this probe; they follow a fresh
interpreter that imports only numpy (``SPAWN_CODE``), which every
``magnonchain`` import includes.  Each start is scaled by such reference
starts on either side of it, to ``SPAWN_REFERENCE_S``: over 2 minutes of
alternating starts, the spread of medians of five went from 25.9%
measured to 3.2% scaled.

The kernel's buffers (about 15 MB) are allocated once at import and count
toward the run's peak resident memory, on every commit alike.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

#: Median ``probe()`` time on the machine the baselines were recorded on
#: (2-core Intel Xeon VM, numpy 2.4.6, scipy 1.17.1, one BLAS thread), so
#: that normalised times read in seconds of that machine.  A change of
#: this constant rescales every normalised time alike.
REFERENCE_S = 0.0276

#: Reference fresh-interpreter start and its median seconds on the same
#: machine (the code is run with ``python3 -c``).
SPAWN_CODE = "import numpy"
SPAWN_REFERENCE_S = 0.115

_rng = np.random.default_rng(20140717)
_SMALL = _rng.standard_normal(50)
_SYM = _rng.standard_normal((160, 160))
_SYM = _SYM + _SYM.T
_SPARSE = sp.csr_matrix((_rng.standard_normal(20 << 14),                  # 20 per row
                         _rng.integers(0, 1 << 14, 20 << 14),
                         np.arange(0, (20 << 14) + 1, 20)), shape=(1 << 14, 1 << 14))
_VEC = _rng.standard_normal(1 << 14) + 0j
_STREAM_SRC = np.ones(1 << 20)                  # 8 MB
_STREAM_DST = np.empty_like(_STREAM_SRC)


def _python_loop() -> float:
    table, s = {}, 0.0
    for i in range(40000):
        s += i * 0.5
        table[i & 255] = s
    return s


def _small_numpy() -> float:
    s = 0.0
    for _ in range(3000):
        s += float(np.dot(_SMALL, _SMALL))
    return s


def _lapack() -> None:
    np.linalg.eigh(_SYM)


def _sparse() -> None:
    for _ in range(5):
        _SPARSE @ _VEC


def _stream() -> None:
    for _ in range(2):
        np.copyto(_STREAM_DST, _STREAM_SRC)


PARTS = {"python": _python_loop, "numpy": _small_numpy, "lapack": _lapack,
         "sparse": _sparse, "stream": _stream}


def probe(reps: int = 1) -> dict[str, float]:
    """Mean seconds per run of each part of the kernel over ``reps`` runs now."""
    total = dict.fromkeys(PARTS, 0.0)
    for _ in range(reps):
        for name, part in PARTS.items():
            t0 = time.perf_counter()
            part()
            total[name] += time.perf_counter() - t0
    return {name: t / reps for name, t in total.items()}


def reps_for(*job_seconds: float) -> int:
    """Kernel passes for a probe next to jobs of these lengths: one per
    second of the longest, from 1 to 6, so a long job's speed is not
    judged from a few milliseconds of probing (about 2.5% of its time)."""
    return min(6, max(1, round(max(job_seconds, default=1.0))))


def normalised(seconds: float, before: float, after: float,
               reference: float = REFERENCE_S) -> float:
    """``seconds`` measured between probes taking ``before`` and ``after``
    seconds, at the speed where a probe takes ``reference`` seconds."""
    return seconds * reference / (0.5 * (before + after))
