"""Serial backend: every task in-process, in submission order.

The debugging baseline — no pool, no pickling, tracebacks point
straight at the failing task — and the reference implementation the
equivalence suite measures the process backend against.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..sweep import execute_task
from .base import Backend, Pending, ProgressCb, emit, task_stats


class SerialBackend(Backend):
    """Execute pending tasks one by one in the calling process."""

    name = "serial"

    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Dict[str, object]]:
        payloads: Dict[str, Dict[str, object]] = {}
        for key, task in pending:
            t0 = time.perf_counter()
            payload = execute_task(task)
            wall = time.perf_counter() - t0
            payloads[key] = payload
            emit(store, key, payload, progress_cb,
                 stats=task_stats(payload, wall))
        return payloads
