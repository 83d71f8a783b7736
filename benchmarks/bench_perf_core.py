"""Core perf micro-benchmarks — the simulator's hot-path speed.

Unlike the per-figure benchmarks this one measures the *simulator
itself*: the scenarios of :mod:`repro.harness.perf` (full-stack
spray / incast+trim / RTO-under-failure packet runs, the
scheduler-only event-chain, timer-storm and sparse-timer workloads,
and the campaign-store workloads).  The table
reports throughput and, when a committed ``perf.json`` is present,
the drift against it — informational here; the hard gate is
``repro perf trend perf.json <fresh>`` in CI.

``REPRO_BENCH_SCALE`` picks the operating point: ``smoke`` runs at
scale 1 (seconds, CI wiring check), ``quick`` at the committed record's
scale, ``full`` at 4x that.
"""

from __future__ import annotations

import os

from _common import report
from repro.harness.perf import (
    QUICK_SCALE,
    diff_perf,
    load_record,
    run_perf,
    scenario_names,
)

_SCALES = {"smoke": 1, "quick": QUICK_SCALE, "full": 4 * QUICK_SCALE}

PERF_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "perf.json")


def _scale() -> int:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    try:
        return _SCALES[name]
    except KeyError:
        raise SystemExit(f"REPRO_BENCH_SCALE must be one of "
                         f"{sorted(_SCALES)}, got {name!r}") from None


def test_perf_core(benchmark):
    scale = _scale()
    record = benchmark.pedantic(lambda: run_perf(scale=scale, repeats=1),
                                rounds=1, iterations=1)
    rows = []
    for name in scenario_names():
        sc = record["scenarios"][name]
        if sc["kind"] == "network":
            rate = f"{sc['pkts_per_s']:,.0f} pkts/s"
        else:
            rate = f"{sc['units_per_s']:,.0f} units/s"
        rows.append((name, sc["kind"], rate, f"{sc['wall_s']:.3f}s"))
    notes = []
    if os.path.exists(PERF_JSON):
        committed = load_record(PERF_JSON)
        diff = diff_perf(committed, record)
        if diff.mismatches and committed.get("scale") == scale:
            # deterministic counters are simulation outputs: drift here
            # means the simulator changed behind the committed record
            raise AssertionError("perf counters drifted from perf.json:\n"
                                 + "\n".join(diff.mismatches))
        notes.extend(f"note: {line}" for line in
                     diff.regressions + diff.improvements)
    report("perf_core", f"simulator core perf (scale {scale})",
           ("scenario", "kind", "throughput", "wall"), rows, notes)
