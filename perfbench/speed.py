"""Host-speed probe that rescales wall times to a fixed reference speed.

On a shared host the speed of one core drifts by up to 2x over a few
seconds, and CPU time drifts with wall time, so the drift is host speed
and not scheduling.  Every reported time is therefore the measured wall
time multiplied by ``REFERENCE_PROBE_S / probe``, where ``probe`` is the
mean wall time of a fixed pure-Python loop run just before and just after
the timed work.  A reported second is a second on a host where the probe
takes ``REFERENCE_PROBE_S``; a change to the program does not touch the
probe, so it moves the rescaled time by the same share as the wall time.
"""

from __future__ import annotations

import time

REFERENCE_PROBE_S = 0.030
PROBE_ROUNDS = 120000
PROBE_EVERY_S = 0.5


def probe_seconds() -> float:
    """Wall time of a fixed loop of tuple, set and dict traffic."""
    start = time.perf_counter()
    seen = set()
    counts: dict = {}
    for i in range(PROBE_ROUNDS):
        key = (i % 251, i % 7)
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def scale_between(before: float, after: float) -> float:
    """Factor taking wall seconds measured between two probes to reference seconds."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


class HostSpeed:
    """Probes at most every `PROBE_EVERY_S` and scales the records in between.

    `track(record)` queues a dict; when a probe runs, every queued record
    gets ``record["scale"]`` from the probes on either side of it.  Call
    `flush()` after the last record.
    """

    def __init__(self):
        self.probes = [probe_seconds()]
        self._last_at = time.perf_counter()
        self._pending: list = []

    def track(self, record: dict) -> None:
        self._pending.append(record)
        if time.perf_counter() - self._last_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        before = self.probes[-1]
        after = probe_seconds()
        self.probes.append(after)
        self._last_at = time.perf_counter()
        scale = scale_between(before, after)
        for record in self._pending:
            record["scale"] = scale
        self._pending = []
