"""Policy-conformance suite: the contract every registered LB must pass.

"Add a policy" means "pass this file".  Each test parametrizes over the
**full** LB registry (``repro.lb.available()``), so a newly registered
policy — and previously under-tested ones like ``bitmap`` and
``mprdma`` — is held to the same invariants automatically:

1. **Packet conservation / no silent drops** — on a lossless fabric
   every flow completes, every receiver sees every byte exactly once,
   and no drop/retransmission counter moves.
2. **Bounded reordering where promised** —
   :data:`repro.lb.ORDERING_PROMISE_FOR_LB` policies deliver in the
   order their construction guarantees (per-flow FIFO for single-path
   policies, per-stripe FIFO for Sprinklers), verified against the
   actual arrival stream under cross-ToR contention.
3. **Determinism / byte-identical artifacts** — the same tasks produce
   byte-identical stored artifacts on both execution backends
   (serial, process).
4. **Failure-schedule survival** — declarative cable and ToR-uplink
   :class:`~repro.harness.sweep.FailureSpec` schedules (the Fig. 7 /
   Fig. 22 shapes) never leave a policy unable to finish its flows.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.lb import (
    ORDERING_PROMISE_FOR_LB,
    REPLICATION_FOR_LB,
    available,
)
from repro.harness.backends import ProcessBackend, SerialBackend
from repro.harness.sweep import (
    FailureSpec,
    ResultStore,
    WorkloadSpec,
    execute_task,
    make_task,
    run_sweep,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams

POLICIES = available()

#: 8 hosts / 2 ToRs: the smallest fabric with real multipath
TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
MSG_BYTES = 48 * 1024  # below the RepFlow threshold: replication active


def _pairs(n_hosts: int, hosts_per_t0: int):
    """Cross-ToR permutation: host i -> its mirror on the other ToR."""
    return [(i, (i + hosts_per_t0) % n_hosts) for i in range(n_hosts)]


def _run_traced(lb: str, *, seed: int = 5, rto_us: float = 1000.0):
    """Run a cross-ToR permutation; record data arrivals per flow."""
    topo = TopologyParams(n_hosts=TOPO["n_hosts"],
                          hosts_per_t0=TOPO["hosts_per_t0"])
    net = Network(NetworkConfig(topo=topo, lb=lb, seed=seed,
                                rto_us=rto_us))
    arrivals = {}  # flow_id -> [(seq, ev)] in arrival order
    for host in net.tree.hosts:
        inner = host.dispatch

        def dispatch(pkt, _inner=inner):
            if not (pkt.is_ack or pkt.is_nack or pkt.trimmed):
                arrivals.setdefault(pkt.flow_id, []).append(
                    (pkt.seq, pkt.ev))
            _inner(pkt)
        host.dispatch = dispatch
    for src, dst in _pairs(topo.n_hosts, topo.hosts_per_t0):
        net.add_flow(src, dst, MSG_BYTES)
    metrics = net.run(max_us=100_000.0)
    return net, metrics, arrivals


class TestConservation:
    """Invariant 1: lossless runs conserve every packet, loudly."""

    @pytest.mark.parametrize("lb", POLICIES)
    def test_no_silent_drops(self, lb):
        net, metrics, arrivals = _run_traced(lb)
        assert metrics.flows_completed == metrics.flows_total, \
            f"{lb}: {metrics.flows_completed}/{metrics.flows_total} done"
        assert metrics.total_drops == 0, \
            f"{lb}: dropped {metrics.total_drops} on a lossless run"
        assert metrics.retransmissions == 0 and metrics.timeouts == 0, \
            f"{lb}: spurious loss recovery on a lossless run"
        replicated = lb in REPLICATION_FOR_LB
        for flow_id, rec in net.flows.items():
            if replicated:
                # the losing copy is cancelled mid-flight; only the
                # winning copy's receiver must have the full message
                continue
            assert len(rec.receiver.received) == rec.sender.n_pkts, \
                f"{lb}: flow {flow_id} delivered incompletely"
            assert rec.receiver.bytes_received == rec.sender.size_bytes
            # dedup counter never fired: each packet arrived once
            assert len(arrivals[flow_id]) == rec.sender.n_pkts, \
                f"{lb}: flow {flow_id} saw duplicate/extra arrivals"

    @pytest.mark.parametrize("lb", sorted(REPLICATION_FOR_LB))
    def test_replicated_winner_is_complete(self, lb):
        net, metrics, _ = _run_traced(lb)
        primaries = {fid: rec for fid, rec in net.flows.items()
                     if rec.replica_of is None}
        by_primary = {fid: [rec] for fid, rec in primaries.items()}
        for rec in net.flows.values():
            if rec.replica_of is not None:
                by_primary[rec.replica_of].append(rec)
        for fid, copies in by_primary.items():
            assert len(copies) == REPLICATION_FOR_LB[lb].copies
            assert any(r.receiver.complete for r in copies), \
                f"{lb}: logical flow {fid} has no completely received copy"
            assert copies[0].sender.fct_ps() is not None


class TestOrdering:
    """Invariant 2: policies keep the delivery order they promise."""

    @pytest.mark.parametrize(
        "lb", sorted(ORDERING_PROMISE_FOR_LB))
    def test_ordering_promise_held(self, lb):
        promise = ORDERING_PROMISE_FOR_LB[lb]
        _, metrics, arrivals = _run_traced(lb)
        assert metrics.retransmissions == 0  # order claim needs lossless
        for flow_id, events in arrivals.items():
            if promise == "flow_fifo":
                seqs = [seq for seq, _ in events]
                assert seqs == sorted(seqs), \
                    f"{lb}: flow {flow_id} reordered ({promise})"
            elif promise == "stripe_fifo":
                by_ev = {}
                for seq, ev in events:
                    by_ev.setdefault(ev, []).append(seq)
                for ev, seqs in by_ev.items():
                    assert seqs == sorted(seqs), \
                        f"{lb}: flow {flow_id} EV {ev} reordered " \
                        f"within a stripe"
            else:  # pragma: no cover - registry typo guard
                pytest.fail(f"unknown ordering promise {promise!r}")

    def test_every_promise_names_a_registered_policy(self):
        assert set(ORDERING_PROMISE_FOR_LB) <= set(POLICIES)
        assert set(REPLICATION_FOR_LB) <= set(POLICIES)


class TestBackendDeterminism:
    """Invariant 3: byte-identical artifacts on every backend."""

    BACKENDS = [ProcessBackend(workers=2)]
    IDS = ["process"]

    @staticmethod
    def _grid(lb):
        workload = WorkloadSpec(kind="synthetic", pattern="permutation",
                                msg_bytes=MSG_BYTES)
        return [make_task(lb, TOPO, workload, seed=seed,
                          max_us=100_000.0) for seed in (3, 11)]

    @staticmethod
    def _snapshot(store):
        out = {}
        for key in store.keys():
            with open(os.path.join(store.root, f"{key}.json")) as fh:
                out[key] = fh.read()
        return out

    @pytest.mark.parametrize("lb", POLICIES)
    def test_all_backends_byte_identical(self, lb, tmp_path):
        grid = self._grid(lb)
        ref_store = ResultStore(str(tmp_path / "serial"))
        run_sweep(grid, store=ref_store, backend=SerialBackend())
        reference = self._snapshot(ref_store)
        assert len(reference) == len(grid)
        for backend, name in zip(self.BACKENDS, self.IDS):
            store = ResultStore(str(tmp_path / name))
            run_sweep(grid, store=store, backend=backend)
            assert self._snapshot(store) == reference, \
                f"{lb}: {name} backend artifacts diverge from serial"

    @pytest.mark.parametrize("lb", POLICIES)
    def test_fixed_seed_reruns_identical(self, lb):
        grid = self._grid(lb)
        a = [json.dumps(execute_task(t), sort_keys=True) for t in grid]
        b = [json.dumps(execute_task(t), sort_keys=True) for t in grid]
        assert a == b


#: the Fig. 7-shaped transient cable schedule and the Fig. 22-shaped
#: incremental ToR-uplink die-off, both declarative (content-keyable)
FAILURE_SCHEDULES = {
    "cable_schedule": FailureSpec.make(
        "fail_cable_schedule",
        events=((0, 20.0, 300.0), (1, 150.0, 300.0))),
    "tor_uplinks": FailureSpec.make(
        "fail_tor_uplinks", tor=0, keep=1, at_us=30.0, stagger_us=80.0),
}


class TestFailureSurvival:
    """Invariant 4: declared failure schedules are always survivable."""

    @pytest.mark.parametrize("lb", POLICIES)
    @pytest.mark.parametrize("schedule", sorted(FAILURE_SCHEDULES))
    def test_flows_complete_under_schedule(self, lb, schedule):
        workload = WorkloadSpec(kind="synthetic", pattern="permutation",
                                msg_bytes=MSG_BYTES)
        task = make_task(lb, TOPO, workload, seed=9,
                         failure=FAILURE_SCHEDULES[schedule],
                         max_us=20_000.0)
        payload = execute_task(task)
        metrics = payload["metrics"]
        assert metrics["flows_completed"] == metrics["flows_total"], \
            (f"{lb} did not survive the {schedule} schedule: "
             f"{metrics['flows_completed']}/{metrics['flows_total']} "
             f"flows completed")
