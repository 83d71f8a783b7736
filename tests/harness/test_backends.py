"""Execution backends: equivalence, resolution, store merging.

The acceptance bar for the backend layer: **every backend produces
byte-identical artifacts for the same grid**, so backend choice can
never invalidate a store and shard stores merge losslessly.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.backends import (
    BACKEND_ENV,
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    backend_names,
    make_backend,
    resolve_backend,
)
from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    WorkloadSpec,
    execute_task,
    make_model_task,
    make_task,
    run_sweep,
    task_key,
)

TINY_TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
TINY_WORKLOAD = WorkloadSpec(kind="synthetic", pattern="permutation",
                             msg_bytes=128 * 1024)


def mixed_grid():
    """Two real simulations + three analytic models: every executor
    path (sim, model) under every backend, still fast."""
    tasks = [make_task(lb, TINY_TOPO, TINY_WORKLOAD, seed=1,
                       max_us=2_000_000.0) for lb in ("ops", "reps")]
    tasks += [make_model_task("footprint", seed=1, buffer_size=b)
              for b in (1, 4, 8)]
    return tasks


def canon(doc) -> str:
    """The byte-identity yardstick: canonical JSON serialization."""
    return json.dumps(doc, sort_keys=True)


def store_snapshot(store: ColumnarStore):
    """Canonical payload bytes by key (the manifest is
    timing-dependent)."""
    return {key: canon(store.get(key)) for key in store.keys()}


class TestResolution:
    def test_default_is_serial_then_process(self):
        assert resolve_backend(None, workers=1).name == "serial"
        assert resolve_backend(None, workers=4).name == "process"

    def test_env_var_wins_over_worker_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        backend = resolve_backend(None, workers=1)
        assert backend.name == "process"
        backend = resolve_backend(None, workers=4)
        assert backend.name == "process"
        assert backend.workers == 4
        monkeypatch.setenv(BACKEND_ENV, "serial")
        backend = resolve_backend(None, workers=4)
        assert backend.name == "serial"
        # serial runs in-process whatever the caller asked for
        assert backend.workers == 1

    def test_name_and_instance_pass_through(self):
        assert resolve_backend("process").name == "process"
        ready = SerialBackend()
        assert resolve_backend(ready) is ready

    def test_required_mp_context_applied_to_ready_instance(self):
        """Regression (code review): the threaded campaign runner
        forces spawn for fork safety; a ready pool-owning instance
        must not silently keep fork."""
        ready = ProcessBackend(workers=2)
        resolved = resolve_backend(ready, mp_context="spawn")
        assert resolved.mp_context == "spawn"
        assert ready.mp_context is None  # caller's object untouched
        # an instance that chose a context keeps it
        chosen = ProcessBackend(workers=2, mp_context="fork")
        assert resolve_backend(chosen, mp_context="spawn") is chosen
        # pool-less backends have no mp_context and pass through
        serial = SerialBackend()
        assert resolve_backend(serial, mp_context="spawn") is serial

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")
        with pytest.raises(ValueError, match="process"):
            resolve_backend("quantum")

    def test_registry_is_complete(self):
        assert backend_names() == ["process", "serial"]
        for name, cls in BACKENDS.items():
            assert cls.name == name

    @pytest.mark.parametrize("name", ["batched", "shard"])
    def test_removed_backends_are_unknown(self, name, monkeypatch):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(name)
        monkeypatch.setenv(BACKEND_ENV, name)
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(None, workers=2)

    @pytest.mark.parametrize("module", ["batched", "shard"])
    def test_removed_backend_modules_are_gone(self, module):
        import importlib
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.harness.backends.{module}")


class TestProcessFallback:
    @pytest.mark.parametrize("workers,n_tasks", [(1, 3), (4, 1)],
                             ids=["one-worker", "one-task"])
    def test_runs_inline_through_the_serial_backend(
            self, workers, n_tasks, tmp_path, monkeypatch):
        """Nothing to fan out: the process backend hands the batch to
        :class:`SerialBackend` instead of starting a pool."""
        calls = []
        real = SerialBackend.run

        def spy(self, pending, store=None, progress_cb=None):
            calls.append(len(pending))
            return real(self, pending, store, progress_cb)

        monkeypatch.setattr(SerialBackend, "run", spy)
        tasks = [make_model_task("footprint", seed=1, buffer_size=b)
                 for b in (1, 2, 4)][:n_tasks]
        store = ColumnarStore(str(tmp_path / "s"))
        payloads = ProcessBackend(workers=workers).run(
            [(task_key(t), t) for t in tasks], store)
        assert calls == [n_tasks]
        assert sorted(payloads) == sorted(store.keys())


class TestEquivalence:
    """Serial and pooled process runs of one grid yield identical
    key -> payload mappings and identical aggregate tables."""

    BACKENDS = [SerialBackend(), ProcessBackend(workers=2)]
    IDS = ["serial", "process"]

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        store = ColumnarStore(str(tmp_path_factory.mktemp("ref")))
        results = run_sweep(mixed_grid(), store=store,
                            backend=SerialBackend())
        return store, results

    @pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
    def test_identical_artifacts_and_aggregates(self, backend, tmp_path,
                                                reference):
        ref_store, ref_results = reference
        store = ColumnarStore(str(tmp_path))
        results = run_sweep(mixed_grid(), store=store, backend=backend)
        assert results.executed == len(mixed_grid())
        # byte-identical artifacts under identical content keys
        assert store_snapshot(store) == store_snapshot(ref_store)
        assert store.verify()["ok"]
        # identical task_key -> payload mappings
        assert {r.key: (r.metrics, r.extra) for r in results} == \
            {r.key: (r.metrics, r.extra) for r in ref_results}
        # identical aggregate tables (sim tasks aggregate the fct
        # metric; model tasks report through `extra` instead)
        from repro.harness.sweep import SweepResults

        def sim_table(res):
            sim_only = [r for r in res if r.task.lb != "model"]
            return SweepResults(sim_only).table("max_fct_us")

        assert sim_table(results) == sim_table(ref_results)

    @pytest.mark.parametrize("backend", BACKENDS[1:], ids=IDS[1:])
    def test_cache_hits_after_any_backend(self, backend, tmp_path):
        store = ColumnarStore(str(tmp_path))
        run_sweep(mixed_grid(), store=store, backend=backend)
        again = run_sweep(mixed_grid(),
                          store=ColumnarStore(str(tmp_path)),
                          backend=SerialBackend())
        assert again.executed == 0
        assert again.cached == len(mixed_grid())

    def test_reads_equal_executed_payloads(self, reference):
        """Stored payloads read back canonically identical to what the
        executor returned: the store adds nothing and loses nothing."""
        ref_store, _results = reference
        assert store_snapshot(ref_store) == {
            task_key(t): canon(execute_task(t)) for t in mixed_grid()}


class TestAdaptiveScheduling:
    """Longest-expected-first dispatch is live on the process pool
    once the store carries wall-time history — and stays
    byte-identical to the serial reference."""

    BACKENDS = TestEquivalence.BACKENDS
    IDS = TestEquivalence.IDS

    @staticmethod
    def second_wave():
        """Same labels as ``mixed_grid`` at fresh seeds: the warm
        store's history applies, the keys still need executing."""
        tasks = [make_task(lb, TINY_TOPO, TINY_WORKLOAD, seed=2,
                           max_us=2_000_000.0) for lb in ("ops", "reps")]
        tasks += [make_model_task("footprint", seed=2, buffer_size=b)
                  for b in (1, 4, 8)]
        return tasks

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        """A store whose manifest carries recorded wall times."""
        store = ColumnarStore(str(tmp_path_factory.mktemp("warm")))
        run_sweep(mixed_grid(), store=store, backend=SerialBackend())
        return store

    def test_execution_accounting_rides_the_manifest(self, warm):
        entries = [warm.manifest()[task_key(t)] for t in mixed_grid()]
        for entry in entries:
            assert entry["wall_s"] >= 0
            assert entry["bytes"] > 0
        # accounting stays out of the payloads (byte-identity!)
        for task in mixed_grid():
            assert "wall_s" not in warm.get(task_key(task))

    def test_scheduler_reorders_from_recorded_history(self, warm):
        from repro.harness.backends.schedule import (
            default_expectation, longest_first, task_label,
            wall_time_history)
        history = wall_time_history(warm)
        by_label = {label: mean for label, (mean, _n) in history.items()}
        sims = [task_label(t) for t in mixed_grid() if t.lb != "model"]
        assert all(label in by_label for label in sims)
        pending = [(task_key(t), t) for t in self.second_wave()]
        ordered = longest_first(pending, warm)
        assert sorted(ordered) == sorted(pending)  # pure reordering
        walls = [by_label.get(task_label(t), default_expectation(history))
                 for _, t in ordered]
        assert walls == sorted(walls, reverse=True)

    @pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
    def test_warm_history_keeps_byte_identity(self, backend, tmp_path,
                                              warm):
        import shutil
        root = str(tmp_path / "store")
        shutil.copytree(warm.root, root)
        store = ColumnarStore(root)
        results = run_sweep(self.second_wave(), store=store,
                            backend=backend)
        assert results.executed == len(self.second_wave())
        snapshot = {r.key: json.dumps(store.get(r.key), sort_keys=True)
                    for r in results}
        # the serial run against the same warm history is the oracle
        ref_root = str(tmp_path / "ref")
        shutil.copytree(warm.root, ref_root)
        ref_store = ColumnarStore(ref_root)
        run_sweep(self.second_wave(), store=ref_store,
                  backend=SerialBackend())
        assert snapshot == {
            key: json.dumps(ref_store.get(key), sort_keys=True)
            for key in snapshot}


class TestPutMany:
    def test_put_many_matches_sequential_puts(self, tmp_path):
        tasks = [make_model_task("footprint", seed=1, buffer_size=b)
                 for b in (1, 2)]
        a = ColumnarStore(str(tmp_path / "a"))
        b = ColumnarStore(str(tmp_path / "b"))
        from repro.harness.sweep import execute_task
        pairs = [(task_key(t), execute_task(t)) for t in tasks]
        for key, payload in pairs:
            a.put(key, payload)
        b.put_many(pairs)
        assert store_snapshot(a) == store_snapshot(b)
        am, bm = a.manifest(), b.manifest()
        assert sorted(am) == sorted(bm)
        for key in am:
            assert {k: v for k, v in am[key].items()
                    if k != "written_at"} == \
                {k: v for k, v in bm[key].items() if k != "written_at"}


class TestStoreMerge:
    def tasks(self):
        return [make_model_task("footprint", seed=1, buffer_size=b)
                for b in (1, 2, 4)]

    def test_merge_unions_and_preserves_origin(self, tmp_path):
        t1, t2, t3 = self.tasks()
        a = ColumnarStore(str(tmp_path / "a"), origin="shard-0/2")
        b = ColumnarStore(str(tmp_path / "b"), origin="shard-1/2")
        run_sweep([t1, t2], store=a)
        run_sweep([t3], store=b)
        dest = ColumnarStore(str(tmp_path / "merged"))
        merged = dest.merge_from(a) + dest.merge_from(b)
        assert sorted(merged) == sorted(set(a.keys()) | set(b.keys()))
        manifest = dest.manifest()
        origins = {manifest[k].get("origin") for k in a.keys()}
        assert origins == {"shard-0/2"}
        assert manifest[task_key(t3)]["origin"] == "shard-1/2"

    def test_merge_is_idempotent(self, tmp_path):
        a = ColumnarStore(str(tmp_path / "a"))
        run_sweep(self.tasks(), store=a)
        dest = ColumnarStore(str(tmp_path / "merged"))
        assert len(dest.merge_from(a)) == 3
        assert dest.merge_from(a) == []
        assert len(dest) == 3

    def test_merged_store_serves_cache_hits(self, tmp_path):
        tasks = self.tasks()
        a = ColumnarStore(str(tmp_path / "a"))
        run_sweep(tasks, store=a)
        dest = ColumnarStore(str(tmp_path / "merged"))
        dest.merge_from(a)
        results = run_sweep(tasks, store=dest)
        assert results.executed == 0 and results.cached == 3

    def test_columnar_merge_is_idempotent(self, tmp_path):
        a = ColumnarStore(str(tmp_path / "a"), origin="shard-0/1")
        run_sweep(self.tasks(), store=a)
        dest = ColumnarStore(str(tmp_path / "merged"))
        assert sorted(dest.merge_from(a)) == sorted(a.keys())
        assert dest.merge_from(a) == []
        assert len(dest) == 3
        assert {e["origin"] for e in dest.manifest().values()} == \
            {"shard-0/1"}

    def test_merging_an_empty_store_is_a_noop(self, tmp_path):
        dest = ColumnarStore(str(tmp_path / "merged"))
        run_sweep(self.tasks()[:1], store=dest)
        empty = ColumnarStore(str(tmp_path / "empty"))
        assert dest.merge_from(empty) == []
        assert len(dest) == 1

    def test_stale_schema_artifacts_stay_behind(self, tmp_path):
        a = ColumnarStore(str(tmp_path / "a"))
        run_sweep(self.tasks()[:1], store=a)
        a.put("feedface", {"schema": 0})
        dest = ColumnarStore(str(tmp_path / "merged"))
        merged = dest.merge_from(a)
        assert len(merged) == 1
        assert "feedface" not in dest.keys()
