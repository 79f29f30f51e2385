"""Host-speed probe: rescale a measured time to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 1.6x within seconds, whatever the program does.  A fixed probe whose
cost does not depend on the program is timed every ``INTERVAL`` seconds while
the program runs, from a SIGALRM handler in the same thread.  A time ``t``
measured alongside it is reported as

    t * sum(REFERENCE[k]) / sum(median probe time of kind k)

that is, in seconds on a host where the probes take their ``REFERENCE``
time.  The probes' own time is not part of ``t``: ``Sampler.spent`` is
subtracted by the caller.

Two probe kinds: ``py`` is interpreter work (a bytecode loop), ``np`` is
small NumPy calls (an 8x8 solve and a 256-element sort), the two kinds of
work the program's hot loops do.  Together they track both the d = 1 and
the d = 2 workloads better than either alone.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.025  # seconds between probes

# Seconds per probe on a quiet 2-vCPU x86-64 VM (Python 3.11, NumPy 2): the
# scale of the reported times, not a tuning knob.  Changing it changes every
# reported time by the same factor.
REFERENCE = {"py": 170e-6, "np": 190e-6}


def _py_probe() -> int:
    s = 0
    for i in range(3000):
        s += i * i
    return s


_np_state = {}


def _np_probe() -> None:
    if not _np_state:
        import numpy as np

        rng = np.random.default_rng(0)
        _np_state.update(np=np, a=rng.standard_normal((8, 8)) + 8.0 * np.eye(8), v=rng.standard_normal(256))
    np, a, v = _np_state["np"], _np_state["a"], _np_state["v"]
    for _ in range(25):
        np.linalg.solve(a, v[:8])
        np.sort(v)


PROBES = {"py": _py_probe, "np": _np_probe}


class Sampler:
    """Times the probes ``kinds`` in turn, every ``INTERVAL`` s, inside ``with``.

    ``kinds=("py",)`` needs no NumPy, for timing the program's import.
    """

    def __init__(self, kinds=("py", "np")):
        self.kinds = tuple(kinds)
        self.records: list[tuple] = []  # (start, kind, seconds) per probe
        self.spent = 0.0  # seconds spent in probes
        self._next = 0

    def _tick(self, signum, frame):
        started = time.perf_counter()
        kind = self.kinds[self._next % len(self.kinds)]
        self._next += 1
        PROBES[kind]()
        took = time.perf_counter() - started
        self.records.append((started, kind, took))
        self.spent += took

    def __enter__(self):
        for kind in self.kinds:  # one untimed call each, so the first sample is warm
            PROBES[kind]()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def spent_between(self, start: float, end: float) -> float:
        """Seconds spent in probes that started within [start, end)."""
        return sum(took for t, _, took in self.records if start <= t < end)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Factor from measured seconds to reference seconds over [start, end).

        A window with fewer than three probes of a kind uses every probe.
        """
        samples = {k: [took for t, kind, took in self.records if kind == k and start <= t < end]
                   for k in self.kinds}
        if any(len(v) < 3 for v in samples.values()):
            samples = {k: [took for _, kind, took in self.records if kind == k] for k in self.kinds}
        if any(len(v) < 3 for v in samples.values()):
            # too short to have been sampled: one direct reading per kind
            for kind in self.kinds:
                started = time.perf_counter()
                PROBES[kind]()
                samples[kind].append(time.perf_counter() - started)
        measured = sum(statistics.median(samples[k]) for k in self.kinds)
        return sum(REFERENCE[k] for k in self.kinds) / measured
