"""The execution-backend protocol: *how* pending sweep tasks run.

:func:`~repro.harness.sweep.run_sweep` decides *what* runs (grid
expansion, dedup, cache lookups); a :class:`Backend` decides how the
cache misses execute — in-process or across a worker pool.

The contract every implementation must honour:

- **Artifact equivalence.**  A backend only orchestrates; the payload
  for a task comes from :func:`~repro.harness.sweep.execute_task` and
  must be byte-identical no matter which backend ran it.  Backend
  choice is therefore *not* part of the content key, and stores
  written by different backends (or different hosts) merge safely.
- **Completeness.**  ``run`` returns a payload for every pending key
  and persists every payload into ``store`` (when one is given)
  before returning.
- **No ordering promises.**  Callers must not rely on completion
  order; determinism comes from per-task seeding, not scheduling.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Sequence, Tuple

#: one pending unit of work: ``(content key, task)``
Pending = Sequence[Tuple[str, "SweepTask"]]  # noqa: F821 (doc alias)

#: optional per-task completion callback: ``cb(key, payload)``
ProgressCb = Callable[[str, Dict[str, object]], None]


class Backend(ABC):
    """One way of executing a sweep's pending tasks."""

    #: registry name (``--backend <name>`` / ``REPRO_BACKEND``)
    name: str = "?"

    #: processes the pending tasks run on (pool backends override it)
    workers: int = 1

    @abstractmethod
    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Dict[str, object]]:
        """Execute every ``(key, task)`` pair; persist into ``store``
        (a :class:`~repro.harness.sweep.ResultStore`, may be ``None``)
        and return ``key -> payload``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def task_stats(payload: Dict[str, object],
               wall_s: float) -> Dict[str, object]:
    """Execution accounting for one finished task.

    ``bytes`` is the canonical-JSON size of the payload — the same
    serialization the store round-trips — so backends agree on it
    regardless of how the artifact is later framed on disk.
    """
    return {
        "wall_s": wall_s,
        "bytes": len(json.dumps(payload, sort_keys=True).encode()),
    }


def emit(store, key: str, payload: Dict[str, object],
         progress_cb: Optional[ProgressCb],
         stats: Optional[Dict[str, object]] = None) -> None:
    """Shared per-task completion path: persist, then notify.

    ``stats`` (from :func:`task_stats`) is forwarded to the store's
    manifest accounting; it never touches the payload, so backend
    byte-identity is unaffected.  Passed positionally-absent when
    ``None`` so stores that predate the ``stats`` kwarg still work.
    """
    if store is not None:
        if stats is not None:
            store.put(key, payload, stats=stats)
        else:
            store.put(key, payload)
    if progress_cb is not None:
        progress_cb(key, payload)
