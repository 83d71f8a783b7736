"""Shared helpers for the figure benchmarks.

``bench_figures.py`` regenerates every table/figure of the paper by
executing its :class:`repro.scenarios.FigureSpec` through the sweep
harness: :func:`bench_figure` runs the registered matrix (parallel
workers via ``REPRO_BENCH_WORKERS``, execution backend via
``REPRO_BACKEND`` — serial / process, cached artifacts via
``REPRO_BENCH_CACHE=1``),
:func:`bench_report` prints the figure's paper-vs-measured table (also
written to ``benchmarks/results/<fig_id>.txt``), and
``FigureResult.check()`` asserts the paper's *shape* claims — orderings
and rough factors, not absolute numbers (see DESIGN.md).

Run ``REPRO_BENCH_SCALE=full pytest benchmarks/ --benchmark-only`` for
larger, closer-to-paper runs.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Optional, Sequence

from repro.harness import format_table
from repro.harness.campaign import shared_store
from repro.harness.store import open_store
from repro.harness.sweep import ResultStore, SweepResults, SweepTask, \
    run_sweep
from repro.scenarios import FigureResult, get_figure, run_figure
# one vocabulary for benches and specs: re-export, don't re-implement
from repro.scenarios._shared import (  # noqa: F401  (re-exports)
    ALL_LBS,
    CORE_LBS,
    msg,
    scaled_topo,
    small_topo,
    task as sweep_task,
)

__all__ = [
    "ALL_LBS", "CORE_LBS", "RESULTS_DIR", "bench_figure", "bench_report",
    "bench_workers", "msg", "report", "run_matrix",
    "scaled_topo", "small_topo", "sweep_task",
]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(name: str, title: str, headers: Sequence[str],
           rows: Iterable[Sequence[object]],
           notes: Sequence[str] = ()) -> None:
    """Print the figure's table and persist it under benchmarks/results."""
    table = format_table(title, headers, rows)
    body = table + ("\n" + "\n".join(notes) if notes else "") + "\n"
    print("\n" + body)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(body)


def bench_workers() -> int:
    """Worker processes for benchmark matrices (``REPRO_BENCH_WORKERS``,
    default serial so pytest-benchmark timings stay comparable)."""
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


# NOTE: benchmarks select their execution backend through the same
# ``$REPRO_BACKEND`` resolution every run_sweep/run_figure call
# performs (repro.harness.backends.resolve_backend) — there is
# deliberately no local helper, so the resolution rule lives in
# exactly one place.


def _store(name: str) -> Optional[ResultStore]:
    if os.environ.get("REPRO_BENCH_CACHE"):
        try:
            return open_store(os.path.join(RESULTS_DIR, "sweeps", name))
        except ValueError as exc:
            # malformed $REPRO_STORE: fail like the CLI does, not with
            # a traceback from inside a benchmark run
            raise SystemExit(f"benchmarks: {exc}")
    return None


def _figure_store() -> Optional[ResultStore]:
    """Registered figures cache into the campaign's shared store, so
    bench runs and `repro figures run --all` dedup against the same
    content-keyed artifacts.  (Single-figure `repro figures run <id>`
    deliberately keeps per-figure store subdirs: its `--prune`
    keep-set would otherwise delete other figures' artifacts.)"""
    if os.environ.get("REPRO_BENCH_CACHE"):
        try:
            return shared_store(os.path.join(RESULTS_DIR, "sweeps"))
        except ValueError as exc:
            raise SystemExit(f"benchmarks: {exc}")
    return None


def bench_figure(fig_id: str,
                 workers: Optional[int] = None) -> FigureResult:
    """Execute a registered figure's matrix through the sweep harness."""
    return run_figure(get_figure(fig_id),
                      workers=bench_workers() if workers is None
                      else workers,
                      store=_figure_store())


def bench_report(result: FigureResult) -> None:
    """Print + persist a figure's declared table."""
    headers, rows, notes = result.table_doc()
    report(result.spec.fig_id, result.spec.title, headers, rows, notes)


def run_matrix(name: str, tasks: Mapping[object, SweepTask],
               workers: Optional[int] = None) -> dict:
    """Route a hand-built scenario matrix through the sweep harness.

    ``tasks`` maps the caller's own keys to sweep tasks; the result maps
    the same keys to :class:`~repro.harness.sweep.TaskResult`.  The
    registry path (:func:`bench_figure`) supersedes this for registered
    figures; it remains for ad-hoc matrices and the smoke tests.
    """
    results: SweepResults = run_sweep(
        list(tasks.values()),
        workers=bench_workers() if workers is None else workers,
        store=_store(name))
    return {key: results[task] for key, task in tasks.items()}
