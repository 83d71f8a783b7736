"""Core perf micro-benchmarks and the ``perf.json`` trend gate.

The simulator's speed is tracked like its fidelity: a committed
``perf.json`` record sits beside ``campaign.json``, and ``repro perf
trend`` diffs a fresh capture against it.  Two kinds of scenario:

- **network** — full-stack packet runs (spray, incast + trimming, RTO
  under a cable failure): every layer of the hot path from
  ``Engine.run`` through ``EgressPort`` and the switches to the
  transport's ACK/EV handling.  Metric: simulated packets per second.
- **engine** — scheduler-only workloads (event chains, RTO-style timer
  rearm storms) that isolate the time-wheel and the recycled-shell
  :class:`~repro.sim.engine.Timer` from the packet pipeline.  Metric:
  driver units (events / simulated packets) per second.
- **store** — campaign-store workloads on a synthetic model campaign
  (populate, cold ``open``+``manifest()``, shard-style merge) that
  track the :class:`~repro.harness.store.ColumnarStore` v3 fast path.
  Metric: tasks per second; each record also carries informational
  v2-vs-v3 comparison fields (``open_speedup_vs_v2``,
  ``bytes_ratio``) measured in the same process — informational
  because segment size depends on the host's zlib, not just the
  simulator.

The gate has two tiers.  The *deterministic* fields of a scenario
(packet/event counts, completed flows, simulated time) are pure
simulation outputs — identical on any machine — so any drift there
means the simulator's behaviour changed and is reported as a hard
mismatch.  The *throughput* fields are wall-clock and machine-dependent,
so they get a relative tolerance band and are warn-only unless
``--strict``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Engine, Timer
from ..sim.network import Network, NetworkConfig
from ..sim.topology import TopologyParams
from ..sim.units import us_to_ps
from .store import ColumnarStore
from .sweep import SCHEMA_VERSION, simulator_version

SCHEMA = "repro/perf/v1"

#: committed capture scale ("quick"); CI smoke runs use scale=1
QUICK_SCALE = 8

#: fields that must be identical between two records captured from the
#: same simulator (they are simulation outputs, not measurements)
DETERMINISTIC_FIELDS = ("pkts", "events", "flows_completed", "sim_time_us",
                        "units")
#: wall-clock fields: machine-dependent, tolerance-banded
THROUGHPUT_FIELDS = ("pkts_per_s", "events_per_s", "units_per_s")


# ----------------------------------------------------------------------
# network scenarios (full stack; metric = simulated packets / second)
# ----------------------------------------------------------------------
def _net_core_spray(scale: int) -> Network:
    topo = TopologyParams(n_hosts=16, hosts_per_t0=8, link_gbps=200.0)
    net = Network(NetworkConfig(topo=topo, lb="reps", seed=1))
    for s in range(16):
        net.add_flow(s, (s + 8) % 16, 256 * 1024 * scale)
    return net


def _net_incast_trim(scale: int) -> Network:
    topo = TopologyParams(n_hosts=16, hosts_per_t0=8, link_gbps=200.0,
                          trim_enabled=True)
    net = Network(NetworkConfig(topo=topo, lb="ops", seed=2,
                                ack_coalesce=4))
    for s in range(1, 16):
        net.add_flow(s, 0, 64 * 1024 * scale)
    return net


def _net_rto_failure(scale: int) -> Network:
    topo = TopologyParams(n_hosts=16, hosts_per_t0=8, link_gbps=200.0)
    net = Network(NetworkConfig(topo=topo, lb="reps", seed=3,
                                routing_update_delay_us=500.0))
    net.failures.fail_cable(net.tree.t0_uplink_cables()[0],
                            at_ps=us_to_ps(20.0))
    for s in range(16):
        net.add_flow(s, (s + 8) % 16, 128 * 1024 * scale)
    return net


def _run_network(builder: Callable[[int], Network], scale: int) -> dict:
    net = builder(scale)
    t0 = time.perf_counter()
    m = net.run(max_us=500_000.0)
    wall = time.perf_counter() - t0
    return {
        "kind": "network",
        "pkts": m.pkts_sent,
        "events": m.events,
        "flows_completed": m.flows_completed,
        "sim_time_us": m.sim_time_us,
        "wall_s": round(wall, 4),
        "pkts_per_s": round(m.pkts_sent / wall, 1),
        "events_per_s": round(m.events / wall, 1),
    }


# ----------------------------------------------------------------------
# engine scenarios (scheduler only; metric = driver units / second)
# ----------------------------------------------------------------------
def _run_event_chain(scale: int) -> dict:
    """64 staggered self-scheduling event chains: raw push/pop rate."""
    n_units = 37_500 * scale
    eng = Engine()
    remaining = [n_units]

    def hop() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            eng.at(eng.now + 81_920, hop)

    for i in range(64):
        eng.at(i * 1_280, hop)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return {
        "kind": "engine",
        "events": eng.events_executed,
        "units": n_units,
        "wall_s": round(wall, 4),
        "units_per_s": round(n_units / wall, 1),
    }


def _run_timer_storm(scale: int) -> dict:
    """The Timer traffic a transport generates at line rate, isolated
    from the packet pipeline: per received data packet the receiver
    re-arms its delayed-ACK flush timer; every 4th packet flushes
    (cancel) and the returning ACK pushes the sender's RTO timer
    forward.  This is the load the recycled-shell Timer exists for —
    the seed implementation pushed a heap entry per rearm and drained
    every stale shell as a no-op event."""
    n_units = 25_000 * scale
    n_flows = 512
    eng = Engine()
    rto = [Timer(eng, lambda: None) for _ in range(n_flows)]
    flush = [Timer(eng, lambda: None) for _ in range(n_flows)]
    done = [0]

    def pkt_arrival(i: int) -> None:
        done[0] += 1
        f = i % n_flows
        if (i // n_flows) & 3 == 3:
            flush[f].cancel()                      # coalesced ACK sent
            rto[f].arm_at(eng.now + 500_000_000)   # ACK rearms sender RTO
        else:
            flush[f].arm_after(4_000_000)          # delayed-ACK rearm
        if done[0] < n_units:
            eng.at(eng.now + 1_600, pkt_arrival, i + 1)

    eng.at(0, pkt_arrival, 0)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return {
        "kind": "engine",
        "events": eng.events_executed,
        "units": n_units,
        "wall_s": round(wall, 4),
        "units_per_s": round(n_units / wall, 1),
    }


# ----------------------------------------------------------------------
# store scenarios (campaign store; metric = tasks / second)
# ----------------------------------------------------------------------
#: tasks per unit of store-scenario scale (scale 8 -> 50k tasks, the
#: ISSUE's measurement point; CI smoke uses scale 1 -> 6250)
_STORE_TASKS_PER_SCALE = 6_250

#: put_many chunk size — the store's own compaction block size
_STORE_CHUNK = 512


def _store_records(n: int) -> Tuple[List[Tuple[str, dict]],
                                    Dict[str, dict]]:
    """A deterministic synthetic model campaign of ``n`` artifacts.

    Shaped like the PR 5 benchmark's model campaign: a label matrix of
    figures x lb policies x workloads (the repeated strings the v3
    dictionary encoder targets), scalar metric results, and a
    time-series section on every 8th artifact (the lazy-decode path).
    Seeded ``random.Random`` keeps the bytes identical across runs, so
    ``units`` is gate-exact while sizes stay comparable run to run.
    """
    rng = random.Random(0x5EED5)
    lbs = ("reps", "reps_cc", "ops", "ecmp", "flowlet", "mprdma")
    workloads = ("tornado", "permutation", "incast", "mixed", "model")
    records: List[Tuple[str, dict]] = []
    stats: Dict[str, dict] = {}
    for i in range(n):
        lb = lbs[i % len(lbs)]
        wl = workloads[(i // len(lbs)) % len(workloads)]
        fig = f"fig{(i // 40) % 24:02d}"
        label = f"{fig}/{lb} {wl}/16384KiB 8h"
        seed = i % 10
        # the metrics block mirrors a real execute_task artifact: a
        # per-flow FCT list (ps-grid values, 5 exact decimals), full-
        # precision goodput floats, event/packet counters, and the
        # many usually-zero drop/retransmit counters
        n_flows = 8
        makespan = round(rng.uniform(300.0, 5000.0), 5)
        # flows in a synchronized pattern finish together: per-flow
        # FCTs sit within a few us of the makespan, per-flow goodputs
        # within ~1% of each other (the balanced-fabric case the
        # paper's load balancer exists to produce)
        fcts = sorted(round(makespan - rng.uniform(0.0, 4.0), 5)
                      for _ in range(n_flows))
        fcts[-1] = makespan
        goodput_base = rng.uniform(5.0, 380.0)
        goodputs = [goodput_base * rng.uniform(0.99, 1.01)
                    for _ in range(n_flows)]
        failure_run = (i % 16 == 5)
        payload: dict = {
            "schema": SCHEMA_VERSION,
            "sim": "perfbench0",
            "key": hashlib.sha256(f"short/{i}".encode()).hexdigest()[:24],
            "task": {"label": label, "seed": seed, "kind": "bench",
                     "lb": lb, "workload": wl, "mib": 16.0},
            "metrics": {
                "fct_us": fcts,
                "flows_total": n_flows,
                "flows_completed": n_flows,
                "makespan_us": makespan,
                "sim_time_us": makespan,
                "drops_overflow": rng.randrange(40) if failure_run else 0,
                "drops_link_down": rng.randrange(9) if failure_run else 0,
                "drops_ber": 0,
                "trims": rng.randrange(2000) if failure_run else 0,
                "ecn_marks": rng.randrange(5_000),
                "pkts_sent": rng.randrange(30_000, 2_000_000),
                "retransmissions": rng.randrange(30) if failure_run else 0,
                "timeouts": 0,
                "events": rng.randrange(400_000, 30_000_000),
                "max_fct_us": makespan,
                "avg_fct_us": round(sum(fcts) / n_flows, 5),
                "p50_fct_us": fcts[n_flows // 2],
                "p99_fct_us": makespan,
                "total_drops": 0,
                "goodput_gbps": goodputs,
                "avg_goodput_gbps": sum(goodputs) / n_flows,
            },
            "extra": {
                "steady_queue_kb": round(rng.uniform(0.0, 600.0), 1),
                "util_spread_gbps": rng.uniform(0.0, 90.0),
                "kmin_kb": round(rng.uniform(10.0, 100.0), 3),
            },
        }
        if i % 8 == 0:
            # windowed probes are *correlated* walks, not white noise
            # — goodput ramps, queues drain — which is what the v3
            # delta-varint array packing exploits
            g = rng.uniform(50.0, 350.0)
            q = rng.randrange(1 << 16)
            goodput, queue = [], []
            for _ in range(64):
                g = min(400.0, max(0.0, g + rng.uniform(-20.0, 20.0)))
                q = max(0, q + rng.randrange(-4096, 4096))
                goodput.append(round(g, 3))
                queue.append(q)
            payload["series"] = {
                "goodput_series": goodput,
                "queue_series": queue,
                "t_us": [50 * j for j in range(64)],
            }
        key = hashlib.sha256(
            f"perf-store/{label}/{seed}/{i}".encode()).hexdigest()
        records.append((key, payload))
        stats[key] = {"wall_s": round(rng.uniform(0.01, 2.0), 6),
                      "bytes": rng.randrange(200, 20_000)}
    return records, stats


def _store_populate(root: str, records, stats,
                    segment_format: int) -> float:
    """Write ``records`` in ``put_many`` chunks of compaction-block
    size; returns the wall seconds spent."""
    t0 = time.perf_counter()
    st = ColumnarStore(root, segment_format=segment_format)
    for i in range(0, len(records), _STORE_CHUNK):
        chunk = records[i:i + _STORE_CHUNK]
        st.put_many(chunk,
                    stats={k: stats[k] for k, _ in chunk})
    return time.perf_counter() - t0


def _seg_bytes(root: str) -> int:
    return os.path.getsize(os.path.join(root, "store.seg"))


def _run_store_populate(scale: int) -> dict:
    """Chunked ``put_many`` of the synthetic campaign, v3 vs v2."""
    n = _STORE_TASKS_PER_SCALE * scale
    records, stats = _store_records(n)
    with tempfile.TemporaryDirectory(prefix="repro-perf-store-") as tmp:
        wall = _store_populate(os.path.join(tmp, "v3"), records, stats, 3)
        v2_wall = _store_populate(os.path.join(tmp, "v2"), records,
                                  stats, 2)
        nbytes = _seg_bytes(os.path.join(tmp, "v3"))
        v2_bytes = _seg_bytes(os.path.join(tmp, "v2"))
    return {
        "kind": "store",
        "units": n,
        "wall_s": round(wall, 4),
        "units_per_s": round(n / wall, 1),
        "v2_wall_s": round(v2_wall, 4),
        "bytes": nbytes,
        "v2_bytes": v2_bytes,
        "bytes_ratio": round(nbytes / v2_bytes, 4),
    }


def _run_store_cold_read(scale: int) -> dict:
    """Cold ``open`` + ``manifest()`` — the every-campaign-start cost
    the v3 meta-only frame scan exists for."""
    n = _STORE_TASKS_PER_SCALE * scale
    records, stats = _store_records(n)
    with tempfile.TemporaryDirectory(prefix="repro-perf-store-") as tmp:
        v3_root = os.path.join(tmp, "v3")
        v2_root = os.path.join(tmp, "v2")
        _store_populate(v3_root, records, stats, 3)
        _store_populate(v2_root, records, stats, 2)

        t0 = time.perf_counter()
        st = ColumnarStore(v3_root)
        manifest = st.manifest()
        wall = time.perf_counter() - t0
        assert len(manifest) == n

        t0 = time.perf_counter()
        st2 = ColumnarStore(v2_root)
        manifest2 = st2.manifest()
        v2_wall = time.perf_counter() - t0
        assert len(manifest2) == n
    return {
        "kind": "store",
        "units": n,
        "wall_s": round(wall, 4),
        "units_per_s": round(n / wall, 1),
        "v2_wall_s": round(v2_wall, 4),
        "open_speedup_vs_v2": round(v2_wall / wall, 2) if wall else 0.0,
    }


def _run_store_merge(scale: int) -> dict:
    """Two half-campaign shard stores folded into one (the merge
    ``repro orchestrate`` runs as each shard lands)."""
    n = _STORE_TASKS_PER_SCALE * scale
    records, stats = _store_records(n)
    half = n // 2
    with tempfile.TemporaryDirectory(prefix="repro-perf-store-") as tmp:
        a_root = os.path.join(tmp, "a")
        b_root = os.path.join(tmp, "b")
        _store_populate(a_root, records[:half], stats, 3)
        _store_populate(b_root, records[half:], stats, 3)
        t0 = time.perf_counter()
        dest = ColumnarStore(os.path.join(tmp, "merged"))
        dest.merge_from(ColumnarStore(a_root))
        dest.merge_from(ColumnarStore(b_root))
        wall = time.perf_counter() - t0
        assert len(dest.manifest()) == n
    return {
        "kind": "store",
        "units": n,
        "wall_s": round(wall, 4),
        "units_per_s": round(n / wall, 1),
    }


#: name -> runner(scale) for every perf scenario
SCENARIOS: Dict[str, Callable[[int], dict]] = {
    "core_spray": lambda scale: _run_network(_net_core_spray, scale),
    "incast_trim": lambda scale: _run_network(_net_incast_trim, scale),
    "rto_failure": lambda scale: _run_network(_net_rto_failure, scale),
    "engine_chain": _run_event_chain,
    "engine_timer_storm": _run_timer_storm,
    "store_populate": _run_store_populate,
    "store_cold_read": _run_store_cold_read,
    "store_merge": _run_store_merge,
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def run_scenario(name: str, scale: int = QUICK_SCALE,
                 repeats: int = 3) -> dict:
    """Run one scenario ``repeats`` times; keep the fastest wall."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown perf scenario {name!r}; "
                       f"known: {scenario_names()}") from None
    best: Optional[dict] = None
    for _ in range(max(1, repeats)):
        rec = runner(scale)
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    assert best is not None
    return best


def run_perf(scale: int = QUICK_SCALE, repeats: int = 3,
             names: Optional[List[str]] = None) -> dict:
    """Capture a full perf record for the current simulator."""
    record = {
        "schema": SCHEMA,
        "sim": simulator_version(),
        "scale": scale,
        "repeats": repeats,
        "scenarios": {},
    }
    for name in (names or scenario_names()):
        record["scenarios"][name] = run_scenario(name, scale, repeats)
    return record


def load_record(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} record")
    return doc


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
@dataclass
class PerfDiff:
    """Outcome of diffing a fresh capture against the committed record."""

    mismatches: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.regressions


def diff_perf(old: dict, new: dict, tol: float = 0.25) -> PerfDiff:
    """Compare two perf records.

    Deterministic counters must match exactly (same simulator in, same
    simulation out); throughputs may drift by ``tol`` relative before
    counting as a regression.
    """
    diff = PerfDiff()
    if old.get("scale") != new.get("scale"):
        diff.notes.append(
            f"scale differs (old={old.get('scale')} "
            f"new={new.get('scale')}): deterministic counters not "
            f"comparable, gating throughput only")
    old_sc = old.get("scenarios", {})
    new_sc = new.get("scenarios", {})
    for name in old_sc:
        if name not in new_sc:
            diff.mismatches.append(f"{name}: missing from new record")
            continue
        o, n = old_sc[name], new_sc[name]
        if old.get("scale") == new.get("scale"):
            for key in DETERMINISTIC_FIELDS:
                if key in o and o.get(key) != n.get(key):
                    diff.mismatches.append(
                        f"{name}.{key}: {o.get(key)} -> {n.get(key)} "
                        f"(deterministic field; simulator behaviour "
                        f"changed)")
        for key in THROUGHPUT_FIELDS:
            if key not in o or key not in n:
                continue
            ov, nv = float(o[key]), float(n[key])
            if ov <= 0:
                continue
            rel = (nv - ov) / ov
            line = f"{name}.{key}: {ov:,.0f} -> {nv:,.0f} ({rel:+.1%})"
            if rel < -tol:
                diff.regressions.append(line)
            elif rel > tol:
                diff.improvements.append(line)
    for name in new_sc:
        if name not in old_sc:
            diff.notes.append(f"{name}: new scenario (no baseline)")
    return diff


def render_record(record: dict) -> str:
    lines = [f"perf record (sim {record.get('sim', '?')}, "
             f"scale {record.get('scale', '?')}, best of "
             f"{record.get('repeats', '?')})"]
    for name, sc in record.get("scenarios", {}).items():
        if sc.get("kind") == "network":
            lines.append(
                f"  {name:<20} {sc['pkts_per_s']:>12,.0f} pkts/s "
                f"{sc['events_per_s']:>14,.0f} ev/s "
                f"(wall {sc['wall_s']:.3f}s)")
        elif sc.get("kind") == "store":
            extra = ""
            if "open_speedup_vs_v2" in sc:
                extra += f", x{sc['open_speedup_vs_v2']:.2f} vs v2"
            if "bytes_ratio" in sc:
                extra += (f", {sc['bytes_ratio']:.2f}x v2 size "
                          f"({sc['bytes']:,}B)")
            lines.append(
                f"  {name:<20} {sc['units_per_s']:>12,.0f} tasks/s "
                f"(wall {sc['wall_s']:.3f}s{extra})")
        else:
            lines.append(
                f"  {name:<20} {sc['units_per_s']:>12,.0f} units/s "
                f"({sc['events']:,} events, wall {sc['wall_s']:.3f}s)")
    baseline = record.get("baseline")
    if baseline:
        lines.append(f"  baseline: {baseline.get('ref', 'unnamed')}")
        for name, sp in (record.get("speedup") or {}).items():
            lines.append(f"    {name:<18} x{sp:.2f} vs baseline")
    return "\n".join(lines)


def render_diff(diff: PerfDiff, tol: float) -> str:
    lines = []
    for line in diff.mismatches:
        lines.append(f"[MISMATCH] {line}")
    for line in diff.regressions:
        lines.append(f"[SLOWER]   {line} (tol {tol:.0%})")
    for line in diff.improvements:
        lines.append(f"[FASTER]   {line}")
    for line in diff.notes:
        lines.append(f"[NOTE]     {line}")
    if diff.clean:
        lines.append(f"perf trend: clean "
                     f"(throughput within {tol:.0%}, counters exact)")
    return "\n".join(lines)
