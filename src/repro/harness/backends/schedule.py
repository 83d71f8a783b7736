"""Wall-time-driven task ordering for the process pool and the planner.

The store's manifest entries carry per-task execution accounting
(``wall_s``, recorded by every backend through
:func:`~repro.harness.backends.base.task_stats`).  When a sweep
re-runs against a warm store — larger scale, more seeds, a few
invalidated artifacts — that history predicts which *labels* are
expensive, and dispatching longest-expected-first (LPT) stops one
straggler label from serializing the tail of the sweep behind a
work-stealing pool.

Guarantees the backends rely on:

- **Pure reordering.**  ``longest_first`` returns a permutation of
  ``pending`` — never drops, duplicates, or rewrites a task — so the
  byte-identity contract of the equivalence suite is untouched.
- **Stable.**  Ties (and the no-history case) preserve the caller's
  original order, keeping runs reproducible.
- **Fail-soft.**  Any store error, a store without a manifest, or a
  manifest without timings degrades to the original order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Pending


def task_label(task) -> str:
    """The task's display label — the join key against the manifest
    accounting.  :class:`~repro.harness.sweep.SweepTask` spells it as
    a method; duck-typed fakes may use a plain attribute."""
    label = getattr(task, "label", "")
    if callable(label):
        try:
            label = label()
        except Exception:
            label = ""
    return str(label)


def wall_time_history(store) -> Dict[str, Tuple[float, int]]:
    """``label -> (mean wall seconds, observation count)`` from the
    store's manifest accounting.  Empty when nothing was ever timed."""
    if store is None:
        return {}
    try:
        manifest = store.manifest()
    except Exception:
        return {}
    totals: Dict[str, List[float]] = {}
    for entry in manifest.values():
        if not isinstance(entry, dict):
            continue
        wall = entry.get("wall_s")
        if isinstance(wall, bool) or not isinstance(wall, (int, float)):
            continue
        totals.setdefault(str(entry.get("label", "")), []).append(
            float(wall))
    return {label: (sum(vals) / len(vals), len(vals))
            for label, vals in totals.items()}


def default_expectation(history: Dict[str, Tuple[float, int]]) -> float:
    """What an *unseen* label is expected to cost: the observation-
    weighted mean of the recorded wall times (total wall over total
    observations).  An unweighted mean of per-label means would let a
    single once-seen outlier label pull every unseen task's estimate —
    and so its dispatch position — arbitrarily far from the workload's
    typical cost."""
    obs = sum(n for _mean, n in history.values())
    if not obs:
        return 0.0
    return sum(mean * n for mean, n in history.values()) / obs


def longest_first(pending: Pending, store) -> List[Tuple[str, object]]:
    """Order ``pending`` longest-expected-first by recorded wall time.

    Tasks whose label has history get its mean wall time; unseen
    labels get the observation-weighted overall mean (neutral: what a
    typical recorded task cost); with no history at all the original
    order comes back unchanged.
    """
    pending = list(pending)
    history = wall_time_history(store)
    if not history or len(pending) <= 1:
        return pending
    default = default_expectation(history)

    def expected(item) -> float:
        entry = history.get(task_label(item[1]))
        return entry[0] if entry is not None else default

    # sorted() is stable: equal expectations keep submission order
    return sorted(pending, key=expected, reverse=True)
