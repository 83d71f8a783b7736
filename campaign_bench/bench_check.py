"""Output checks: every task against the pinned reference.

A finished cell or a model task must reproduce its pinned content
digest exactly.  A DNF cell (flows left incomplete at the horizon)
must stay DNF with the same ``flows_completed``; its counters may
change, so a change that ends dead runs early still passes.  Seeds
other than the default have no reference; their cells are checked for
``flows_completed <= flows_total`` and for agreement between passes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def task_id(fig_id: str, key) -> str:
    """A cell's stable id: ``<fig_id>|<repr(key)>``."""
    return f"{fig_id}|{key!r}"


def cell_summary(result) -> Dict[str, object]:
    """What the reference pins about one TaskResult."""
    doc = {"label": result.task.label(), "seed": result.task.seed,
           "metrics": result.metrics, "extra": result.extra,
           "series": result.series}
    metrics = result.metrics
    total = metrics.get("flows_total")
    done = metrics.get("flows_completed")
    return {
        "label": doc["label"],
        "digest": hashlib.sha256(canonical(doc).encode()).hexdigest(),
        "dnf": total is not None and done is not None and done < total,
        "flows_completed": done,
        "flows_total": total,
    }


def campaign_cells(campaign, expected: Dict[str, List[str]]
                   ) -> Dict[str, Optional[Dict[str, object]]]:
    """Task id -> cell summary for every expected task (``None`` when
    the figure raised before producing it)."""
    cells: Dict[str, Optional[Dict[str, object]]] = {}
    for outcome in campaign:
        ids = expected[outcome.fig_id]
        if outcome.result is None:
            cells.update(dict.fromkeys(ids))
            continue
        for key in outcome.result.keys():
            cells[task_id(outcome.fig_id, key)] = \
                cell_summary(outcome.result[key])
    return cells


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> Dict[str, Dict[str, object]]:
    with open(reference_path(workload)) as fh:
        return json.load(fh)["tasks"]


def pin_reference(workload: str,
                  cells: Dict[str, Optional[Dict[str, object]]]) -> str:
    if any(cell is None for cell in cells.values()):
        raise RuntimeError("refusing to pin a pass with failed tasks")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = reference_path(workload)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "tasks": cells}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return path


def cell_ok(cell: Optional[Dict[str, object]],
            ref: Optional[Dict[str, object]]) -> bool:
    """One task's verdict (``ref`` is ``None`` off the default seed)."""
    if cell is None:
        return False
    total, done = cell["flows_total"], cell["flows_completed"]
    if total is not None and not 0 <= done <= total:
        return False
    if ref is None:
        return True
    if ref["dnf"]:
        return bool(cell["dnf"]) and done == ref["flows_completed"]
    return cell["digest"] == ref["digest"]


def failed_ids(cells: Dict[str, Optional[Dict[str, object]]],
               expected: Iterable[str],
               reference: Optional[Dict[str, Dict[str, object]]]
               ) -> List[str]:
    """Expected tasks that are missing, raised or mismatched."""
    bad = []
    for tid in expected:
        ref = None
        if reference is not None:
            ref = reference.get(tid)
            if ref is None:
                bad.append(tid)
                continue
        if not cell_ok(cells.get(tid), ref):
            bad.append(tid)
    return bad


def same_content(a: Dict[str, Optional[Dict[str, object]]],
                 b: Dict[str, Optional[Dict[str, object]]]) -> List[str]:
    """Task ids whose cells differ between two passes."""
    return sorted(k for k in set(a) | set(b)
                  if a.get(k) is None or b.get(k) is None
                  or a[k]["digest"] != b[k]["digest"])
