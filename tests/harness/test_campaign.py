"""Campaign runner: selection, fail-soft isolation, dedup, pruning."""

from __future__ import annotations

import os

import pytest

from repro.harness.campaign import (
    CampaignResult,
    FigureOutcome,
    run_campaign,
    select_figures,
    shared_store,
)
from repro.harness.sweep import ResultStore, SCHEMA_VERSION
from repro.scenarios import figure_ids

from helpers import stub_registry, stub_spec


class TestSelectFigures:
    def test_default_is_whole_catalogue_in_order(self):
        specs = select_figures()
        assert [s.fig_id for s in specs] == figure_ids()

    def test_only_and_skip(self):
        specs = select_figures(only=("fig07", "table1", "fig24"),
                               skip=("fig24",))
        assert [s.fig_id for s in specs] == ["fig07", "table1"]

    def test_tag_filter_matches_any(self):
        specs = select_figures(tags=("model",))
        assert specs
        assert all("model" in s.tags for s in specs)
        ids = {s.fig_id for s in specs}
        assert {"fig14", "fig17", "fig18", "fig20", "fig24",
                "table1"} <= ids

    def test_filters_compose(self):
        specs = select_figures(tags=("failures",), skip=("fig09",))
        ids = [s.fig_id for s in specs]
        assert "fig07" in ids and "fig09" not in ids

    def test_unknown_id_raises_helpful_error(self):
        with pytest.raises(KeyError, match="figures list"):
            select_figures(only=("fig99",))
        with pytest.raises(KeyError, match="figures list"):
            select_figures(skip=("not_a_fig",))


class TestRunCampaign:
    def test_all_outcomes_in_plan_order(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        assert [o.fig_id for o in campaign] == \
            ["stub_a", "stub_b", "stub_c"]
        assert campaign.counts() == \
            {"pass": 2, "warn": 1, "fail": 0, "error": 0}
        assert campaign.ok() and campaign.ok(strict=True)
        assert campaign["stub_c"].status == "warn"

    def test_backend_recorded_for_provenance(self, tmp_path,
                                             monkeypatch):
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        assert campaign.backend == "serial"
        campaign = run_campaign(stub_registry(), store=store,
                                backend="process")
        assert campaign.backend == "process"
        monkeypatch.setenv("REPRO_BACKEND", "process")
        campaign = run_campaign(stub_registry(), store=store)
        assert campaign.backend == "process"

    def test_backend_instance_runs_figures(self, tmp_path):
        from repro.harness.backends import ProcessBackend
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store,
                                backend=ProcessBackend())
        assert campaign.ok()
        assert campaign.backend == "process"
        assert campaign.executed > 0

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="empty campaign"):
            run_campaign([])

    def test_cross_figure_dedup_through_shared_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        # stub_b shares the buffer=8 task with stub_a: one cache hit
        assert campaign["stub_a"].executed == 2
        assert campaign["stub_b"].cached == 1
        assert campaign["stub_b"].executed == 1
        # 4 distinct tasks on disk for 5 requested cells
        assert campaign.tasks == 5
        assert len(store) == 4

    def test_rerun_is_fully_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        again = run_campaign(stub_registry(), store=store)
        assert again.executed == 0
        assert again.cached == again.tasks == 5

    def test_failure_isolation_build_crash(self, tmp_path):
        def boom():
            raise RuntimeError("matrix exploded")
        specs = stub_registry() + [stub_spec("stub_bad", build=boom)]
        campaign = run_campaign(specs, store=ResultStore(str(tmp_path)))
        assert campaign["stub_bad"].status == "error"
        assert "matrix exploded" in campaign["stub_bad"].error
        # the broken spec did not abort the campaign
        assert campaign["stub_a"].status == "pass"
        assert campaign["stub_c"].status == "warn"
        assert not campaign.ok()

    def test_shape_divergence_is_fail_not_error(self, tmp_path):
        def check_bad(result):
            assert result.value(1) > result.value(8), "shape off"
        specs = [stub_spec("stub_div", check=check_bad)] \
            + stub_registry()
        campaign = run_campaign(specs, store=ResultStore(str(tmp_path)))
        outcome = campaign["stub_div"]
        assert outcome.status == "fail"
        assert "shape off" in outcome.error
        assert outcome.result is not None  # numbers still reported
        assert campaign.ok() and not campaign.ok(strict=True)

    def test_checks_disabled_means_warn(self, tmp_path):
        campaign = run_campaign(stub_registry(),
                                store=ResultStore(str(tmp_path)),
                                check=False)
        assert {o.status for o in campaign} == {"warn"}

    def test_figure_jobs_parallel_matches_serial(self, tmp_path):
        serial = run_campaign(
            stub_registry(), store=ResultStore(str(tmp_path / "a")))
        threaded = run_campaign(
            stub_registry(), store=ResultStore(str(tmp_path / "b")),
            figure_jobs=3)
        assert [o.fig_id for o in threaded] == \
            [o.fig_id for o in serial]
        assert [o.status for o in threaded] == \
            [o.status for o in serial]
        for a, b in zip(serial, threaded):
            if a.result is not None:
                assert a.result.values() == b.result.values()

    def test_threaded_campaign_with_process_pools_uses_spawn(
            self, tmp_path):
        """figure_jobs>1 + workers>1 must not fork from threads; the
        spawn-context pools still produce identical results."""
        campaign = run_campaign(
            stub_registry(), store=ResultStore(str(tmp_path)),
            figure_jobs=2, workers=2)
        assert campaign.counts() == \
            {"pass": 2, "warn": 1, "fail": 0, "error": 0}
        baseline = run_campaign(stub_registry())
        for a, b in zip(campaign, baseline):
            if b.result is not None:
                assert a.result.values() == b.result.values()

    def test_no_store_still_runs(self):
        campaign = run_campaign(stub_registry())
        assert campaign.ok()
        assert campaign.cached == 0


class TestPruneStale:
    def stale_payload(self):
        return {"schema": SCHEMA_VERSION, "sim": "0" * 16,
                "task": {"label": "ghost", "seed": 1},
                "metrics": {}, "extra": {}}

    def test_prune_stale_drops_old_simulator_artifacts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("feedfacefeedfacefeedface", self.stale_payload())
        campaign = run_campaign(stub_registry(), store=store,
                                prune_stale=True)
        assert "feedfacefeedfacefeedface" in campaign.pruned
        assert not os.path.exists(
            os.path.join(str(tmp_path), "feedfacefeedfacefeedface.json"))
        # fresh artifacts survive and the manifest was read-repaired
        manifest = store.manifest()
        assert "feedfacefeedfacefeedface" not in manifest
        assert len(manifest) == len(store.keys()) == 4

    def test_without_flag_stale_artifacts_survive(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("feedfacefeedfacefeedface", self.stale_payload())
        campaign = run_campaign(stub_registry(), store=store)
        assert campaign.pruned == []
        assert "feedfacefeedfacefeedface" in store.keys()

    def test_manifest_read_repair_after_index_loss(self, tmp_path):
        """A campaign over a store whose manifest vanished re-indexes
        every artifact and persists the repaired index to disk."""
        import json
        store = ResultStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        manifest_path = os.path.join(str(tmp_path), ResultStore.MANIFEST)
        os.remove(manifest_path)
        campaign = run_campaign(stub_registry(), store=store,
                                prune_stale=True)
        assert campaign.cached == 5  # artifacts still hit
        # the repaired index was written back, not just built in memory
        with open(manifest_path) as fh:
            on_disk = json.load(fh)
        assert set(on_disk) == set(store.keys())


class TestStoreConcurrency:
    def test_same_process_threads_share_a_store_safely(self, tmp_path):
        """Figure threads in one process write the same manifest; the
        per-thread temp names must never collide on os.replace."""
        from concurrent.futures import ThreadPoolExecutor
        store = ResultStore(str(tmp_path))
        payload = {"schema": SCHEMA_VERSION, "sim": "x" * 16,
                   "task": {"label": "t", "seed": 1},
                   "metrics": {}, "extra": {}}

        def put(i):
            store.put(f"key{i:04d}", dict(payload))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(put, range(64)))
        assert len(store.keys()) == 64
        # read-repair reconciles any manifest entries lost to the
        # read-merge-write race between threads
        assert set(store.repair_manifest()) == set(store.keys())

    def test_fresh_store_prune_keeps_disk_artifacts(self, tmp_path):
        """A cache-policy override (`--fresh`) must not make prune()
        believe every artifact is stale and wipe the store."""
        class FreshStore(ResultStore):
            def get(self, key):
                return None
        store = ResultStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        fresh = FreshStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=fresh,
                                prune_stale=True)
        assert campaign.executed == 5  # --fresh: everything re-ran
        assert campaign.pruned == []   # ...but nothing was deleted
        assert len(store.keys()) == 4


class TestSharedStore:
    def test_shared_store_location(self, tmp_path):
        store = shared_store(str(tmp_path))
        assert store.root == os.path.join(str(tmp_path), "campaign")

    def test_outcome_accessors_on_error(self):
        spec = stub_spec("stub_x")
        outcome = FigureOutcome(spec, "error", error="tb")
        assert outcome.n_tasks == outcome.executed == outcome.cached == 0
        assert outcome.badge() == "[ERROR]"

    def test_campaign_result_getitem_unknown(self):
        campaign = CampaignResult([], wall_s=0.0)
        with pytest.raises(KeyError):
            campaign["nope"]
