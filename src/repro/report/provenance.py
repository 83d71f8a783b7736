"""The environment/provenance header of every reproduction artifact.

A reproduction claim is only auditable if the report says exactly what
produced it: which source revision, which simulator content hash, at
what scale, on which interpreter.  Everything here is collected without
third-party dependencies; fields that cannot be determined degrade to
``"unknown"`` instead of failing the report.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Dict, Optional

from ..harness.backends import BACKEND_ENV
from ..harness.scale import current_scale
from ..harness.sweep import SCHEMA_VERSION, simulator_version


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def collect_provenance(backend: Optional[str] = None
                       ) -> Dict[str, object]:
    """Everything the report header states about this run's origin.

    ``backend`` is the resolved execution-backend name the campaign
    actually ran with; when absent the default resolution
    (``$REPRO_BACKEND`` → ``serial``) is recorded.  ``shard`` carries
    the shard identity an orchestrate worker exports via
    ``$REPRO_SHARD`` — empty for whole-campaign (unsharded) runs.
    """
    sha = _git("rev-parse", "--short", "HEAD") or "unknown"
    dirty = bool(_git("status", "--porcelain")) if sha != "unknown" \
        else False
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      time.gmtime()),
        "git_sha": sha + ("-dirty" if dirty else ""),
        "simulator_version": simulator_version(),
        "schema_version": SCHEMA_VERSION,
        "scale": current_scale().name,
        # recorded, not resolved: provenance must degrade (report the
        # configured name verbatim), never fail the report
        "backend": backend or os.environ.get(BACKEND_ENV) or "serial",
        "shard": os.environ.get("REPRO_SHARD", ""),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def store_throughput(store) -> Dict[str, object]:
    """Recorded execution accounting for ``store``, report-safe.

    Folds the per-task wall times and payload sizes that execution
    backends record on the store's manifest entries into a throughput
    summary (``tasks_per_s`` is aggregate compute throughput: timed
    tasks over summed task wall — not wall-clock, which parallel
    backends compress).  Stores without timed entries — legacy
    manifests, ``--no-cache`` runs — degrade to zeros rather than
    failing the report.
    """
    empty = {"tasks_timed": 0, "task_wall_s": 0.0, "task_bytes": 0,
             "tasks_per_s": 0.0}
    if store is None:
        return empty
    try:
        manifest = store.manifest()
    except Exception:  # report-safe: accounting must never fail a run
        return empty
    wall = 0.0
    nbytes = 0
    timed = 0
    for entry in manifest.values():
        if not isinstance(entry, dict):
            continue
        w = entry.get("wall_s")
        if isinstance(w, (int, float)) and not isinstance(w, bool):
            wall += float(w)
            timed += 1
        b = entry.get("bytes")
        if isinstance(b, (int, float)) and not isinstance(b, bool):
            nbytes += int(b)
    return {
        "tasks_timed": timed,
        "task_wall_s": round(wall, 6),
        "task_bytes": nbytes,
        "tasks_per_s": round(timed / wall, 2) if wall > 0 else 0.0,
    }
