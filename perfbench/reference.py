"""A fixed workload that times how fast the host runs right now.

Each repetition does the two kinds of work the simulator's host time
goes to.  Interpreted Python: a binary heap of timestamped events,
string-keyed dictionaries, small objects with slots and float
arithmetic.  Bulk work in C: shifting a long list (as a capped log
does) and JSON-encoding a large body.  It uses no code from ``src/``,
so a change to the program cannot change what it measures.  ``run.py``
and ``workloads.py`` interleave repetitions with the measured phases and
scale every time metric by the host speed they show (see ``speed_scale``
in ``run.py``).
"""

import gc
import heapq
import json
import time
from typing import List


#: A list as long as the service's capped response log, shifted by one
#: at a time, and a body of the size of a season's hourly rollup listing.
_SHIFTED = [None] * 200_000
_BODY = [{"id": f"urn:AgriParcel:ref:{i}", "value": i * 0.5,
          "attrs": {"a": [1.5, 2.5, i], "b": "text" * 3}} for i in range(2000)]


class Reading:
    __slots__ = ("entity", "attr", "value", "at")

    def __init__(self, entity: str, attr: str, value: float, at: float) -> None:
        self.entity = entity
        self.attr = attr
        self.value = value
        self.at = at


def repetition() -> int:
    """One fixed unit of work, both kinds; returns a checksum."""
    queue = []
    state = {}
    seq = 0
    seed = 12345
    for i in range(6000):
        seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(queue, (seed / 0x7FFFFFFF * 3600.0, seq, i % 36))
        seq += 1
    total = 0
    while queue:
        at, _, cell = heapq.heappop(queue)
        reading = Reading(f"urn:cell:{cell}", "soilMoisture", at * 0.001 + cell, at)
        key = (reading.entity, reading.attr)
        history = state.get(key)
        if history is None:
            history = state[key] = []
        history.append((reading.at, reading.value))
        if len(history) % 40 == 0:
            body = json.dumps({"id": reading.entity, "value": round(reading.value, 3),
                               "n": len(history)}, sort_keys=True)
            total += len(body)
    for _ in range(30):
        del _SHIFTED[:1]
        _SHIFTED.append(None)
    return total + len(state) + len(json.dumps(_BODY))


def sample(reps: int) -> List[float]:
    """Host seconds of each of ``reps`` repetitions, run with the garbage
    collector off so that the caller's heap does not enter the timing."""
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            started = time.perf_counter()
            repetition()
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return times
