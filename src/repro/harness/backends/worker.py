"""Shard worker: run one shard manifest and report heartbeats.

The execution leaf of ``repro orchestrate``: the orchestrator plans
shard manifests and fans them out to worker processes, each of which
runs this module (``python -m repro.harness.backends.worker``) against
one manifest.  This module owns the manifest format — the planner
builds manifests through :func:`shard_manifest` and the worker is
their only reader.  A worker

1. validates the manifest (kind and schema, simulator-version match,
   grid re-expansion at the recorded scale),
2. executes the shard's pending tasks through a normal execution
   backend into a local store tagged with the shard's identity, and
3. writes a small JSON *heartbeat* file on an interval **and** on
   every task completion, so the orchestrator can tell a slow worker
   from a dead one and render live progress without touching the
   store.

Exit codes are part of the protocol: ``0`` success,
:data:`EXIT_FATAL` (3) for validation failures that a retry can never
fix (bad manifest, simulator drift, grid drift — the orchestrator
must abort, not reassign), anything else is a retryable crash.

Heartbeat writes are atomic (temp file + ``os.replace``) so the
orchestrator never reads a torn heartbeat.  ``REPRO_WORKER_THROTTLE_S``
sleeps that many seconds after each executed task — a failure-drill
hook so tests (and operators rehearsing dead-worker recovery) can hold
a shard mid-flight long enough to kill it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence

from ..sweep import SCHEMA_VERSION, SweepTask, simulator_version, task_key

#: exit code for validation failures a retry cannot fix
EXIT_FATAL = 3

#: bump when the shard manifest layout changes
SHARD_SCHEMA = 1

#: manifest marker so arbitrary JSON cannot be fed to a worker
SHARD_KIND = "repro-shard"

#: failure-drill hook: seconds to sleep after each executed task
THROTTLE_ENV = "REPRO_WORKER_THROTTLE_S"


@contextlib.contextmanager
def scoped_env(**pairs: Optional[str]) -> Iterator[None]:
    """Set environment variables for the duration of a ``with`` block.

    Every named variable is restored on exit — to its previous value,
    or removed if it did not exist (a plain ``monkeypatch``-style
    save/restore; ``None`` removes the variable for the scope).  The
    worker and ``repro orchestrate`` run code that reads
    ``REPRO_BENCH_SCALE`` / ``REPRO_SHARD`` from the environment; this
    keeps that contract while guaranteeing a later in-process run (a
    test, or an orchestrator driving shards) cannot inherit a stale
    shard identity or scale.
    """
    saved = {name: os.environ.get(name) for name in pairs}
    try:
        for name, value in pairs.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# ----------------------------------------------------------------------
# the shard manifest
# ----------------------------------------------------------------------
def shard_manifest(index: int, n_shards: int, figures: Sequence[str],
                   keys: Sequence[str], *, scale: str,
                   expected_s: float) -> Dict[str, object]:
    """One shard's manifest: the keys it runs plus the grid identity.

    ``figures`` is the resolved figure-id selection (recorded so the
    worker re-expands exactly the planner's grid, immune to later
    registry/tag drift) and ``scale`` the bench scale it was expanded
    at; ``sim`` pins the simulator source the keys were computed for.
    ``expected_s`` is the planner's wall-time estimate for the shard.
    """
    return {
        "schema": SHARD_SCHEMA,
        "kind": SHARD_KIND,
        "shard": index,
        "n_shards": n_shards,
        "sim": simulator_version(),
        "artifact_schema": SCHEMA_VERSION,
        "scale": scale,
        "figures": list(figures),
        "keys": list(keys),
        "expected_s": round(expected_s, 6),
    }


def write_shard_plan(out_dir: str,
                     manifests: Sequence[Dict[str, object]]) -> List[str]:
    """Persist ``manifests`` as ``shard-<i>.json`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for manifest in manifests:
        path = os.path.join(out_dir, f"shard-{manifest['shard']}.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def load_shard_manifest(path: str) -> Dict[str, object]:
    """Read and validate one shard manifest."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read shard manifest {path}: {exc}")
    if not isinstance(manifest, dict) or \
            manifest.get("kind") != SHARD_KIND:
        raise ValueError(f"{path} is not a repro shard manifest")
    if manifest.get("schema") != SHARD_SCHEMA:
        raise ValueError(
            f"{path}: shard schema {manifest.get('schema')!r} "
            f"unsupported (expected {SHARD_SCHEMA})")
    return manifest


def shard_origin(manifest: Dict[str, object]) -> str:
    """The shard identity recorded in store manifests / provenance."""
    return f"shard-{manifest['shard']}/{manifest['n_shards']}"


def expand_figures(figures: Sequence[str]) -> Dict[str, SweepTask]:
    """``key -> task`` for a figure-id selection (deduplicated)."""
    from ...scenarios import get_figure

    by_key: Dict[str, SweepTask] = {}
    for fig_id in figures:
        spec = get_figure(fig_id)
        for task in spec.build().values():
            by_key.setdefault(task_key(task), task)
    return by_key


def tasks_for_manifest(manifest: Dict[str, object],
                       by_key: Dict[str, SweepTask]) -> List[SweepTask]:
    """Resolve a manifest's keys against a re-expanded grid.

    Raises :class:`ValueError` when any planned key is missing — the
    grid drifted (code or scale changed) since the plan, and running
    anyway would produce artifacts the merge can never match.
    """
    missing = [key for key in manifest["keys"] if key not in by_key]
    if missing:
        raise ValueError(
            f"{len(missing)} planned task(s) missing from the "
            f"re-expanded grid (first: {missing[0]}); the figure "
            f"matrices changed since the plan — re-plan")
    return [by_key[key] for key in manifest["keys"]]


# ----------------------------------------------------------------------
# heartbeats and the worker
# ----------------------------------------------------------------------
class Heartbeat:
    """Atomic liveness + progress file, written by a daemon thread.

    The thread proves the *process* is alive even while a single long
    task simulates; the per-task bumps keep the progress numbers
    fresh.  All writes go through one lock, and ``close()`` writes a
    final frame so a cleanly-exited worker leaves ``done == total``
    behind.
    """

    def __init__(self, path: Optional[str], shard: int, n_shards: int,
                 total: int, interval_s: float = 1.0) -> None:
        self.path = path
        self.shard = shard
        self.n_shards = n_shards
        self.total = total
        self.done = 0
        self.interval_s = max(0.05, float(interval_s))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _write(self) -> None:
        if self.path is None:
            return
        doc = {
            "pid": os.getpid(),
            "shard": self.shard,
            "n_shards": self.n_shards,
            "done": self.done,
            "total": self.total,
            "ts": time.time(),
        }
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, self.path)
        except OSError:
            # a worker must never die because its heartbeat file is
            # unwritable; the orchestrator's deadline treats silence
            # as death and retries the shard
            pass

    def start(self) -> "Heartbeat":
        if self.path is None:
            return self
        with self._lock:
            self._write()

        def beat() -> None:
            while not self._stop.wait(self.interval_s):
                with self._lock:
                    self._write()

        self._thread = threading.Thread(target=beat, daemon=True)
        self._thread.start()
        return self

    def bump(self, n: int = 1) -> None:
        with self._lock:
            self.done += n
            self._write()

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s * 4)
            self._thread = None
        with self._lock:
            self._write()


def read_heartbeat(path: str) -> Optional[Dict[str, object]]:
    """The latest heartbeat document, or ``None`` when missing/torn."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def run_shard_worker(manifest_path: str, store_dir: str, *,
                     workers: int = 1, backend: Optional[str] = None,
                     heartbeat_path: Optional[str] = None,
                     heartbeat_interval_s: float = 1.0,
                     out=None) -> int:
    """Execute one shard manifest; returns the process exit code.

    The library form of the ``__main__`` entrypoint so the orchestrator
    (and tests) can run a shard in-process.  Environment exports
    (``REPRO_BENCH_SCALE``, ``REPRO_SHARD``) are scoped to this call.
    """
    from ..store import open_store
    from . import resolve_backend

    out = out if out is not None else sys.stdout

    def say(message: str) -> None:
        print(message, file=out, flush=True)

    try:
        manifest = load_shard_manifest(manifest_path)
    except ValueError as exc:
        say(f"worker: {exc}")
        return EXIT_FATAL

    with scoped_env(REPRO_BENCH_SCALE=str(manifest["scale"]),
                    REPRO_SHARD=(f"{manifest['shard']}/"
                                 f"{manifest['n_shards']}")):
        if simulator_version() != manifest["sim"]:
            say(f"worker: simulator {simulator_version()} does not "
                f"match the plan's {manifest['sim']}; re-plan")
            return EXIT_FATAL
        try:
            tasks = tasks_for_manifest(
                manifest, expand_figures(manifest["figures"]))
        except (KeyError, ValueError) as exc:
            say(f"worker: {exc}")
            return EXIT_FATAL
        store = open_store(store_dir, origin=shard_origin(manifest))
        os.makedirs(store.root, exist_ok=True)

        # the cache check mirrors run_sweep: a retried shard re-opens
        # the same store, so tasks the killed attempt already finished
        # are served from disk and a worker death costs only the
        # unfinished remainder of its shard
        pending: List = []
        cached = 0
        for task in tasks:
            key = task_key(task)
            if store.get(key) is not None:
                cached += 1
            else:
                pending.append((key, task))
        beat = Heartbeat(heartbeat_path, int(manifest["shard"]),
                         int(manifest["n_shards"]), len(tasks),
                         interval_s=heartbeat_interval_s).start()
        if cached:
            beat.bump(cached)

        throttle = 0.0
        raw = os.environ.get(THROTTLE_ENV, "")
        if raw:
            try:
                throttle = max(0.0, float(raw))
            except ValueError:
                throttle = 0.0

        def on_task(_key: str, _payload: Dict[str, object]) -> None:
            beat.bump()
            if throttle:
                time.sleep(throttle)

        try:
            executor = resolve_backend(backend, workers=workers)
            if pending:
                executor.run(pending, store, progress_cb=on_task)
        except Exception as exc:
            say(f"worker: shard {shard_origin(manifest)} crashed: "
                f"{type(exc).__name__}: {exc}")
            import traceback
            traceback.print_exc(file=out)
            return 1
        finally:
            beat.close()
        say(f"worker: {shard_origin(manifest)} done — {len(tasks)} "
            f"task(s) ({len(pending)} executed, {cached} cached) -> "
            f"{store.root}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="run one shard manifest with heartbeats "
                    "(orchestrator execution leaf)")
    parser.add_argument("manifest", help="shard-<i>.json manifest")
    parser.add_argument("--store", required=True,
                        help="local artifact-store directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="in-worker sweep processes (1 = serial)")
    parser.add_argument("--backend", default=None,
                        help="execution backend for this shard")
    parser.add_argument("--heartbeat", default=None,
                        help="heartbeat JSON path (atomic writes)")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="seconds between liveness beats")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return run_shard_worker(
        args.manifest, args.store, workers=args.workers,
        backend=args.backend, heartbeat_path=args.heartbeat,
        heartbeat_interval_s=args.heartbeat_interval)


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())
