"""Campaign runner: every registered figure through one shared store.

``repro figures run --all`` reproduces the whole paper in one command.
This module is the engine behind it:

1. :func:`select_figures` filters the registry catalogue
   (``--only/--skip/--tag``) into an ordered campaign plan.
2. :func:`run_campaign` executes each :class:`FigureSpec` through the
   existing sweep harness against **one shared cross-figure**
   :class:`~repro.harness.store.ColumnarStore`.  Task artifacts are
   content-keyed, so figures that share scenarios (e.g. a common
   baseline sweep) simulate once and hit the cache everywhere else —
   and an interrupted campaign resumes where it stopped.
3. Figure-level parallelism (``figure_jobs`` threads) layers over the
   per-figure ``multiprocessing`` pool (``workers``): total worker
   processes approach ``figure_jobs * workers``, so keep the product
   near the core count.  Threaded campaigns start their per-figure
   pools with the ``spawn`` method — forking from a multithreaded
   process can inherit held locks into the children.
4. Execution is **fail-soft**: a figure whose matrix fails to build or
   whose simulation crashes becomes an ``error`` outcome with the
   traceback captured; the campaign always runs every selected figure.

Each outcome carries a fidelity *status* derived from the spec's
paper-shape checks:

- ``pass``  — the shape assertions hold,
- ``fail``  — the assertions diverge from the paper's claim,
- ``warn``  — no check declared (or checks disabled): numbers are
  measured but unverified,
- ``error`` — the figure did not execute.

:mod:`repro.report` turns a :class:`CampaignResult` into
``REPRODUCTION.md`` + ``campaign.json``.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..scenarios import FigureResult, FigureSpec, figure_ids, get_figure
from ..scenarios.registry import run_figure
from .backends import resolve_backend
from .store import open_store
from .sweep import ResultStore

#: subdirectory (under a ``--results-dir``) holding the shared
#: cross-figure artifact store — one flat content-keyed namespace
CAMPAIGN_STORE_DIR = "campaign"

#: every outcome status, in report order
STATUSES = ("pass", "warn", "fail", "error")


def shared_store(results_dir: str, *, fresh: bool = False) -> ResultStore:
    """The campaign's shared cross-figure store under ``results_dir``.

    One flat namespace for every figure: content keys already encode
    the full task identity (parameters + schema + simulator hash), so
    a shared namespace is safe and is what makes cross-figure dedup
    work.  ``fresh`` re-runs every task but still persists the
    results.
    """
    return open_store(os.path.join(results_dir, CAMPAIGN_STORE_DIR),
                      fresh=fresh)


def select_figures(only: Sequence[str] = (), skip: Sequence[str] = (),
                   tags: Sequence[str] = ()) -> List[FigureSpec]:
    """The campaign plan: registry order, filtered.

    ``only`` restricts to the given ids (and validates them), ``skip``
    removes ids, ``tags`` keeps specs carrying *any* of the given tags.
    With no filters the plan is the whole catalogue.
    """
    known = figure_ids()
    for fig_id in list(only) + list(skip):
        get_figure(fig_id)  # raises the helpful KeyError on typos
    selected = [fid for fid in known if not only or fid in set(only)]
    selected = [fid for fid in selected if fid not in set(skip)]
    if tags:
        want = set(tags)
        selected = [fid for fid in selected
                    if want & set(get_figure(fid).tags)]
    return [get_figure(fid) for fid in selected]


@dataclass
class FigureOutcome:
    """One figure's campaign result: measured numbers or a captured
    failure, plus the fidelity verdict."""

    spec: FigureSpec
    status: str                      # pass | warn | fail | error
    result: Optional[FigureResult] = None
    error: str = ""                  # divergence message / traceback
    wall_s: float = 0.0

    @property
    def fig_id(self) -> str:
        return self.spec.fig_id

    @property
    def n_tasks(self) -> int:
        return len(self.result.sweep) if self.result is not None else 0

    @property
    def executed(self) -> int:
        return self.result.sweep.executed if self.result is not None \
            else 0

    @property
    def cached(self) -> int:
        return self.result.sweep.cached if self.result is not None else 0

    def badge(self) -> str:
        return f"[{self.status.upper()}]"


class CampaignResult:
    """Every outcome of one ``--all`` run, in registry order."""

    def __init__(self, outcomes: Sequence[FigureOutcome], *,
                 wall_s: float, store: Optional[ResultStore] = None,
                 pruned: Sequence[str] = (),
                 backend: str = "serial") -> None:
        self.outcomes = list(outcomes)
        self.wall_s = wall_s
        self.store = store
        self.pruned = list(pruned)
        #: resolved execution-backend name, recorded in the report's
        #: provenance header
        self.backend = backend

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, fig_id: str) -> FigureOutcome:
        for outcome in self.outcomes:
            if outcome.fig_id == fig_id:
                return outcome
        raise KeyError(fig_id)

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            out[outcome.status] += 1
        return out

    @property
    def tasks(self) -> int:
        return sum(o.n_tasks for o in self.outcomes)

    @property
    def executed(self) -> int:
        return sum(o.executed for o in self.outcomes)

    @property
    def cached(self) -> int:
        return sum(o.cached for o in self.outcomes)

    def ok(self, strict: bool = False) -> bool:
        """No figure crashed; with ``strict`` also no shape divergence."""
        counts = self.counts()
        if counts["error"]:
            return False
        return not (strict and counts["fail"])


def _run_one(spec: FigureSpec, *, workers: int,
             store: Optional[ResultStore], check: bool,
             mp_context: Optional[str] = None,
             backend=None) -> FigureOutcome:
    """Execute one figure fail-soft and judge its fidelity."""
    start = time.monotonic()
    try:
        result = run_figure(spec, workers=workers, store=store,
                            mp_context=mp_context, backend=backend)
    except Exception:
        return FigureOutcome(spec, "error",
                             error=traceback.format_exc(limit=8),
                             wall_s=time.monotonic() - start)
    wall_s = time.monotonic() - start
    if not check or spec.check is None:
        return FigureOutcome(spec, "warn", result=result, wall_s=wall_s)
    try:
        result.check()
    except AssertionError as exc:
        detail = str(exc) or "shape assertion failed"
        return FigureOutcome(spec, "fail", result=result, error=detail,
                             wall_s=wall_s)
    except Exception:
        return FigureOutcome(spec, "error", result=result,
                             error=traceback.format_exc(limit=8),
                             wall_s=wall_s)
    return FigureOutcome(spec, "pass", result=result, wall_s=wall_s)


def run_campaign(specs: Iterable[FigureSpec], *, workers: int = 1,
                 figure_jobs: int = 1,
                 store: Optional[ResultStore] = None, check: bool = True,
                 prune_stale: bool = False,
                 progress: bool = False,
                 backend=None) -> CampaignResult:
    """Run ``specs`` through the sweep harness, fail-soft, and return
    every outcome.

    ``store`` is shared across figures (see :func:`shared_store`);
    ``figure_jobs > 1`` runs that many figures concurrently in threads,
    each with its own ``workers``-process sweep pool.  ``backend``
    selects the per-figure execution backend (name, instance, or
    ``None`` for ``$REPRO_BACKEND`` / worker-count default) and is
    recorded on the result for report provenance.  With
    ``prune_stale`` the store drops artifacts whose recorded simulator
    hash (or schema) no longer matches the current source tree after
    the campaign finishes.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty campaign: no figures selected")
    start = time.monotonic()
    print_lock = threading.Lock()
    done = [0]
    # forking a process pool from a multithreaded parent can inherit
    # held locks into the children (and is deprecated on 3.12+), so
    # figure-level threads force the spawn start method for the
    # per-figure pools
    threaded = figure_jobs > 1 and len(specs) > 1
    mp_context = "spawn" if threaded and workers > 1 else None
    backend_name = resolve_backend(backend, workers=workers,
                                   mp_context=mp_context).name

    def job(spec: FigureSpec) -> FigureOutcome:
        outcome = _run_one(spec, workers=workers, store=store,
                           check=check, mp_context=mp_context,
                           backend=backend)
        if progress:
            with print_lock:
                done[0] += 1
                print(f"[{done[0]}/{len(specs)}] {outcome.badge():7s} "
                      f"{spec.fig_id}: {outcome.n_tasks} tasks "
                      f"({outcome.executed} executed, {outcome.cached} "
                      f"cached) in {outcome.wall_s:.1f}s")
        return outcome

    # pool.map keeps outcomes in plan order regardless of completion
    if threaded:
        with ThreadPoolExecutor(max_workers=figure_jobs) as pool:
            outcomes = list(pool.map(job, specs))
    else:
        outcomes = [job(spec) for spec in specs]

    pruned: List[str] = []
    if store is not None:
        if prune_stale:
            pruned = store.prune()
            if progress and pruned:
                print(f"pruned {len(pruned)} stale artifact(s) from "
                      f"{store.root}")
        # read-repair pass: reconcile the manifest with the artifacts
        # the (possibly concurrent) figure runs just wrote, and persist
        # the repaired index
        store.repair_manifest()
        if progress:
            from ..report.provenance import store_throughput
            thr = store_throughput(store)
            if thr["tasks_timed"]:
                print(f"store accounting: {thr['tasks_timed']} timed "
                      f"task(s), {thr['task_wall_s']:.1f}s task wall "
                      f"({thr['tasks_per_s']:.1f} tasks/s), "
                      f"{thr['task_bytes']:,} payload bytes")
    return CampaignResult(outcomes, wall_s=time.monotonic() - start,
                          store=store, pruned=pruned,
                          backend=backend_name)
