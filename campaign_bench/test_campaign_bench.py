"""The benchmark's own tests: its contract file, tracer and checks.

Run from the repository root with ``PYTHONPATH=src python -m pytest
campaign_bench``.  The traced run here uses three cheap figures, not a
benchmark workload, so the file stays fast.
"""

import importlib.util
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import bench_check  # noqa: E402
import bench_clock  # noqa: E402
from bench_trace import LayerTracer, leftover_wrappers  # noqa: E402
from bench_workloads import WORKLOADS, Workload, derive_seed  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "campaign_bench_run", os.path.join(HERE, "run.py"))
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    for name in [n for n in os.environ
                 if n.startswith("REPRO_") and n != "REPRO_BENCH_SCALE"]:
        monkeypatch.delenv(name)
    monkeypatch.setattr(bench_run, "WORK_ROOT", str(tmp_path))
    return tmp_path


def test_contract_names_units_and_bounds(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["campaign_bench"]
    assert contract["command"] == ["python3", "campaign_bench/run.py"]
    assert 1 <= contract["run_seconds"] <= 60
    names = []
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert UNIT.match(m["unit"]), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])


def test_contract_matches_code(contract):
    assert {w["name"]: w["why"] for w in contract["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == \
        bench_run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == \
        bench_run.LAYER_UNITS


def test_references_cover_each_workload(smoke):
    for workload in WORKLOADS.values():
        ids = [bench_check.task_id(spec.fig_id, key)
               for spec in workload.specs() for key in spec.build()]
        assert len(ids) == len(set(ids))
        assert set(bench_check.load_reference(workload.name)) == set(ids)


def test_reseeding_keeps_dedup_structure(smoke):
    assert derive_seed(5, 3) == derive_seed(5, 3)
    assert derive_seed(5, 3) != derive_seed(6, 3)
    assert derive_seed(5, 3) != derive_seed(5, 4)
    spec = WORKLOADS["failover_pinned"].specs(seed=9)[0]
    seeds = {task.seed for task in spec.build().values()}
    assert seeds == {derive_seed(9, 7)}


def _cell(done, total, digest="d"):
    return {"label": "x", "digest": digest, "dnf": done < total,
            "flows_completed": done, "flows_total": total}


def test_cell_checks():
    ok = _cell(16, 16)
    dnf = _cell(3, 16)
    assert bench_check.cell_ok(ok, ok)
    assert not bench_check.cell_ok(_cell(16, 16, "other"), ok)
    # a DNF cell may change its counters but must stay DNF at the same
    # completed-flow count
    assert bench_check.cell_ok(_cell(3, 16, "other"), dnf)
    assert not bench_check.cell_ok(_cell(4, 16), dnf)
    assert not bench_check.cell_ok(ok, dnf)
    assert not bench_check.cell_ok(None, ok)
    assert not bench_check.cell_ok(_cell(17, 16), None)
    assert bench_check.failed_ids({"a": ok}, ["a", "b"], None) == ["b"]
    assert bench_check.failed_ids({"a": ok}, ["a"], {}) == ["a"]


def test_tracer_restores_every_attribute(smoke):
    from repro.sim.engine import Engine
    from repro.sim.port import EgressPort

    before_run = Engine.__dict__["run"]
    tracer = LayerTracer()
    tracer.install()
    saved = tracer.patched()
    try:
        assert Engine.__dict__["run"] is not before_run
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.patched() == []
    assert leftover_wrappers() == []
    assert all(vars(owner)[attr] is original
               for owner, attr, original in saved)
    assert Engine.__dict__["run"] is before_run
    assert "__wrapped__" not in vars(EgressPort.__dict__["enqueue"])
    owners = {getattr(o, "__name__", "") for o, _, _ in saved}
    assert {"Engine", "EgressPort", "Switch", "FlowSender", "FlowReceiver",
            "Scenario", "ResultStore", "ColumnarStore",
            "repro.harness.backends.serial",
            "repro.models.imbalance"} <= owners


def test_traced_run_emits_every_layer_metric(smoke, contract):
    mini = Workload("mini", "", ("fig04", "fig12_failures", "fig18"))
    bench = bench_run.Bench(mini, seed=3)
    try:
        metrics = bench_run.per_layer(bench)
    finally:
        bench.close()
    assert not bench.problems
    assert bench.failed == 0 and bench.attempted == 2 * 10
    assert set(metrics) == {m["name"] for m in contract["per_layer"]}
    for name in ("sim.engine.events", "sim.engine.self_s",
                 "sim.port.enqueue_calls", "sim.switch.receive_calls",
                 "sim.transport.on_ack_calls", "lb.next_entropy_calls",
                 "harness.store.puts", "harness.sweep.tasks_cached",
                 "scenarios.registry.build_s", "report.render_s"):
        assert metrics[name] > 0, name
    ledger = os.path.join(bench_run.WORK_ROOT, "ledger-mini-seed3.jsonl")
    with open(ledger) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 10
    assert {r["figure"] for r in records} == set(mini.figures)


def test_scaled_timer_subtracts_kernel_and_restores_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with bench_clock.ScaledTimer(period_s=0.01) as timer:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(timer.samples) >= 2
    # the busy loop ran for 0.2 s of host time, kernel runs included
    assert 0 < timer.raw_s < 0.2
    assert timer.raw_s + sum(timer.samples) >= 0.19
    assert timer.scaled_s > 0


def test_speed_factor_is_a_trimmed_mean():
    ref = bench_clock.KERNEL_REF_S
    assert bench_clock.speed_factor([ref] * 5) == pytest.approx(1.0)
    assert bench_clock.speed_factor([2 * ref] * 5) == pytest.approx(0.5)
    # one outlier in ten is trimmed away
    assert bench_clock.speed_factor([ref] * 9 + [ref / 100]) == \
        pytest.approx(1.0)
