"""Machine-speed gauge for the end-to-end timings.

On a shared machine the CPU speed available to one process drifts by 20% or
more within minutes, so raw wall times of the same command differ that much
from run to run.  The gauge times a fixed, stdlib-only reference task (JSON
encode and decode, sorting, hashing: the same kind of work `apg` does)
before and after every command, and scales the command's wall time by
REFERENCE_S over the mean of the two.  A scaled time reads as the seconds
the command would take on a machine that runs the reference task in
REFERENCE_S.  The task never touches `apg`, so a change to the program
cannot move it.
"""

from __future__ import annotations

import json
import random
import time

# Fixed for good: changing it rescales every end-to-end timing.
REFERENCE_S = 0.1


class Gauge:
    def __init__(self):
        rng = random.Random(0)
        self._doc = {
            f"k{i}": {"label": "V", "value": {"pair": [
                {"ref": f"v{rng.randrange(999)}"},
                {"prim": {"type": "String", "value": "x" * (i % 13)}}]}}
            for i in range(3000)
        }
        self._last = self.reference()

    def reference(self) -> float:
        """Wall time of one run of the reference task."""
        start = time.perf_counter()
        for _ in range(2):
            back = json.loads(json.dumps(self._doc, sort_keys=True))
            keys = sorted(back, key=lambda k: (len(k), k))
            {(k, json.dumps(back[k])) for k in keys}
        return time.perf_counter() - start

    def scale(self, wall: float) -> float:
        """Scale a wall time measured just now to the reference speed."""
        after = self.reference()
        factor = REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        return wall * factor
