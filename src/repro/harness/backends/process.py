"""Process-pool backend: one task per worker dispatch.

The historical ``run_sweep(workers=N)`` behaviour, extracted from
``sweep.py``: a ``multiprocessing`` pool, ``imap_unordered`` with
``chunksize=1`` so a free worker always steals the next pending task
(no pre-assigned chunks to convoy behind), and a store write per
finished task.  Pending tasks are submitted **longest-expected-first**
(:func:`~repro.harness.backends.schedule.longest_first`) using the
wall times recorded in the store's manifest, so a straggler label
starts early instead of serializing the tail of the sweep — pure
reordering, payloads stay byte-identical.  ``mp_context`` selects
the start method — callers that create pools from a multithreaded
process (the campaign runner's figure threads) must pass ``"spawn"``.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, Optional, Tuple

from ..sweep import SweepTask, execute_task
from .base import Backend, Pending, ProgressCb, emit, task_stats
from .schedule import longest_first
from .serial import SerialBackend


def _pool_entry(item: Tuple[str, SweepTask]
                ) -> Tuple[str, Dict[str, object], float]:
    key, task = item
    t0 = time.perf_counter()
    payload = execute_task(task)
    return key, payload, time.perf_counter() - t0


class ProcessBackend(Backend):
    """Fan tasks out over a ``multiprocessing`` pool."""

    name = "process"

    def __init__(self, workers: int = 1,
                 mp_context: Optional[str] = None) -> None:
        self.workers = max(1, int(workers))
        self.mp_context = mp_context

    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Dict[str, object]]:
        pending = list(pending)
        if self.workers <= 1 or len(pending) <= 1:
            return SerialBackend().run(pending, store, progress_cb)
        payloads: Dict[str, Dict[str, object]] = {}
        ordered = longest_first(pending, store)
        ctx = multiprocessing.get_context(self.mp_context)
        n = min(self.workers, len(ordered))
        with ctx.Pool(processes=n) as pool:
            done = pool.imap_unordered(_pool_entry, ordered, chunksize=1)
            for key, payload, wall in done:
                payloads[key] = payload
                emit(store, key, payload, progress_cb,
                     stats=task_stats(payload, wall))
        return payloads
