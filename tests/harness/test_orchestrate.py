"""The elastic campaign orchestrator (ISSUE 10 tentpole).

Unit level: balanced LPT planning, the worker's scoped environment
and heartbeat protocol, and the SSH runner's command construction.
Orchestrator level: fake runners drive the retry / fatal-abort /
retry-exhaustion / heartbeat-timeout paths without spawning a single
subprocess.  The real-subprocess chaos drill (SIGKILL a live worker
mid-shard, campaign still matches single-host output) lives in
``tests/test_cli.py::TestOrchestrate``.
"""

import io
import json
import os

import pytest

from repro.harness.backends.worker import (
    EXIT_FATAL,
    SHARD_KIND,
    SHARD_SCHEMA,
    Heartbeat,
    expand_figures,
    load_shard_manifest,
    read_heartbeat,
    run_shard_worker,
    scoped_env,
    shard_manifest,
    shard_origin,
    tasks_for_manifest,
    write_shard_plan,
)
from repro.harness.campaign import select_figures
from repro.harness.sweep import task_key
from repro.harness.orchestrate import (
    LocalGroupRunner,
    Orchestrator,
    SSHRunner,
    WorkerHandle,
    WorkerRunner,
    balanced_partition,
    plan_campaign_shards,
)

SELECTION = ("table1", "fig24")  # 7 cheap model tasks at smoke scale


class TestBalancedPartition:
    def test_equal_weights_reduce_to_round_robin(self):
        """No wall-time history plans round-robin over the sorted keys,
        whatever the input order — including more shards than keys,
        which leaves the surplus bins empty."""
        keys = [f"k{i:02d}" for i in range(11)]
        weighted = [(k, 0.0) for k in reversed(keys)]
        for n in (3, 4, 13):
            assert balanced_partition(weighted, n) == \
                [sorted(keys)[i::n] for i in range(n)]

    def test_lpt_balances_skewed_weights(self):
        weighted = [("a", 10.0), ("b", 9.0), ("c", 1.0), ("d", 1.0),
                    ("e", 1.0)]
        bins = balanced_partition(weighted, 2)
        assert bins == [["a", "d"], ["b", "c", "e"]]
        loads = [sum(dict(weighted)[k] for k in b) for b in bins]
        assert max(loads) - min(loads) <= 1.0

    def test_deterministic_and_input_order_free(self):
        weighted = [("x", 3.0), ("a", 3.0), ("m", 1.0), ("b", 2.0)]
        first = balanced_partition(weighted, 2)
        assert balanced_partition(list(reversed(weighted)), 2) == first

    def test_partition_is_a_partition(self):
        weighted = [(f"k{i}", float(i % 4)) for i in range(23)]
        bins = balanced_partition(weighted, 5)
        flat = sorted(k for b in bins for k in b)
        assert flat == sorted(k for k, _w in weighted)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match=">= 1"):
            balanced_partition([("a", 1.0)], 0)

    def test_bins_keep_heaviest_first_order(self):
        """A bin lists its keys in assignment order, which is the order
        the worker executes: the heaviest task starts first."""
        weighted = [("c", 1.0), ("a", 5.0), ("b", 3.0), ("d", 3.0)]
        assert balanced_partition(weighted, 1) == [["a", "b", "d", "c"]]


class TestScopedEnv:
    def test_sets_and_restores(self):
        os.environ.pop("REPRO_TEST_SCOPED", None)
        with scoped_env(REPRO_TEST_SCOPED="x"):
            assert os.environ["REPRO_TEST_SCOPED"] == "x"
        assert "REPRO_TEST_SCOPED" not in os.environ

    def test_restores_previous_value_even_on_error(self):
        os.environ["REPRO_TEST_SCOPED"] = "before"
        try:
            with pytest.raises(RuntimeError):
                with scoped_env(REPRO_TEST_SCOPED="during"):
                    assert os.environ["REPRO_TEST_SCOPED"] == "during"
                    raise RuntimeError("boom")
            assert os.environ["REPRO_TEST_SCOPED"] == "before"
        finally:
            os.environ.pop("REPRO_TEST_SCOPED", None)

    def test_none_removes_for_the_scope(self):
        os.environ["REPRO_TEST_SCOPED"] = "here"
        try:
            with scoped_env(REPRO_TEST_SCOPED=None):
                assert "REPRO_TEST_SCOPED" not in os.environ
            assert os.environ["REPRO_TEST_SCOPED"] == "here"
        finally:
            os.environ.pop("REPRO_TEST_SCOPED", None)


class TestHeartbeat:
    def test_write_bump_read(self, tmp_path):
        path = str(tmp_path / "hb.json")
        beat = Heartbeat(path, shard=1, n_shards=4, total=5,
                         interval_s=60.0).start()
        try:
            doc = read_heartbeat(path)
            assert doc["shard"] == 1 and doc["n_shards"] == 4
            assert doc["done"] == 0 and doc["total"] == 5
            assert doc["pid"] == os.getpid()
            beat.bump(3)
            assert read_heartbeat(path)["done"] == 3
        finally:
            beat.close()
        assert read_heartbeat(path)["done"] == 3

    def test_missing_and_torn_reads_are_none(self, tmp_path):
        assert read_heartbeat(str(tmp_path / "ghost.json")) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"pid": 1, "done"')
        assert read_heartbeat(str(torn)) is None

    def test_none_path_is_a_noop(self):
        beat = Heartbeat(None, 0, 1, 1).start()
        beat.bump()
        beat.close()


def _manifest_doc(keys=None):
    """A valid one-shard manifest over ``table1`` at smoke scale."""
    with scoped_env(REPRO_BENCH_SCALE="smoke"):
        if keys is None:
            keys = sorted(expand_figures(["table1"]))
        return shard_manifest(0, 1, ["table1"], keys, scale="smoke",
                              expected_s=0.0)


#: manifest mutations a worker must refuse before running anything:
#: ``(id, doc -> doc, expected message)``
_BAD_MANIFESTS = [
    ("simulator-drift", lambda doc: {**doc, "sim": "0" * 16}, "re-plan"),
    ("not-a-manifest", lambda doc: {"keys": doc["keys"]},
     "not a repro shard manifest"),
    ("unsupported-schema", lambda doc: {**doc, "schema": 99},
     "unsupported"),
    ("grid-drift", lambda doc: {**doc, "keys": doc["keys"] + ["f" * 16]},
     "missing from the re-expanded grid"),
    ("unknown-figure", lambda doc: {**doc, "figures": ["fig99"]},
     "unknown figure"),
]


class TestWorkerValidation:
    def test_unreadable_manifest_is_fatal(self, tmp_path):
        out = io.StringIO()
        rc = run_shard_worker(str(tmp_path / "nope.json"),
                              str(tmp_path / "s"), out=out)
        assert rc == EXIT_FATAL
        assert "cannot read" in out.getvalue()

    @pytest.mark.parametrize("mutate,message",
                             [case[1:] for case in _BAD_MANIFESTS],
                             ids=[case[0] for case in _BAD_MANIFESTS])
    def test_invalid_manifest_is_fatal(self, tmp_path, mutate, message):
        path = tmp_path / "shard-0.json"
        path.write_text(json.dumps(mutate(_manifest_doc())))
        out = io.StringIO()
        rc = run_shard_worker(str(path), str(tmp_path / "s"), out=out)
        assert rc == EXIT_FATAL
        assert message in out.getvalue()
        # refused before anything ran: no store, no leaked identity
        assert not (tmp_path / "s").exists()
        assert "REPRO_SHARD" not in os.environ

    def test_run_scopes_shard_identity(self, tmp_path, monkeypatch):
        """The worker exports the manifest's scale and shard identity
        only for the run: the store records the origin, and the
        caller's previous values come back afterwards."""
        from repro.harness.store import open_store
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        monkeypatch.setenv("REPRO_SHARD", "9/9")
        path = tmp_path / "shard-0.json"
        path.write_text(json.dumps(_manifest_doc()))
        rc = run_shard_worker(str(path), str(tmp_path / "s"),
                              out=io.StringIO())
        assert rc == 0
        manifest = open_store(str(tmp_path / "s")).manifest()
        assert len(manifest) == 5
        assert {e["origin"] for e in manifest.values()} == {"shard-0/1"}
        assert os.environ["REPRO_BENCH_SCALE"] == "full"
        assert os.environ["REPRO_SHARD"] == "9/9"


class TestWorkerRun:
    def write(self, tmp_path):
        path = tmp_path / "shard-0.json"
        path.write_text(json.dumps(_manifest_doc()))
        return str(path)

    def test_rerun_serves_every_task_from_the_store(self, tmp_path):
        path = self.write(tmp_path)
        assert run_shard_worker(path, str(tmp_path / "s"),
                                out=io.StringIO()) == 0
        out = io.StringIO()
        assert run_shard_worker(path, str(tmp_path / "s"), out=out) == 0
        assert "5 task(s) (0 executed, 5 cached)" in out.getvalue()

    def test_heartbeat_reaches_the_shard_total(self, tmp_path):
        beat = str(tmp_path / "hb.json")
        rc = run_shard_worker(self.write(tmp_path), str(tmp_path / "s"),
                              heartbeat_path=beat, out=io.StringIO())
        assert rc == 0
        doc = read_heartbeat(beat)
        assert doc["shard"] == 0 and doc["n_shards"] == 1
        assert doc["done"] == doc["total"] == 5

    def test_crashing_executor_is_retryable_not_fatal(self, tmp_path,
                                                      monkeypatch):
        """An exception mid-shard exits 1 (the orchestrator retries
        it), not ``EXIT_FATAL``, and names the shard and the cause."""
        from repro.harness.backends import SerialBackend

        def boom(self, pending, store=None, progress_cb=None):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(SerialBackend, "run", boom)
        out = io.StringIO()
        rc = run_shard_worker(self.write(tmp_path), str(tmp_path / "s"),
                              out=out)
        assert rc == 1
        assert "shard-0/1 crashed" in out.getvalue()
        assert "disk on fire" in out.getvalue()
        assert "REPRO_SHARD" not in os.environ

    def test_main_runs_a_manifest_from_argv(self, tmp_path, capsys):
        from repro.harness.backends.worker import main
        from repro.harness.store import open_store
        rc = main([self.write(tmp_path), "--store", str(tmp_path / "s"),
                   "--backend", "serial"])
        assert rc == 0
        assert "shard-0/1 done" in capsys.readouterr().out
        assert len(open_store(str(tmp_path / "s")).manifest()) == 5


class TestShardManifest:
    def test_origin_names_index_and_count(self):
        assert shard_origin({"shard": 2, "n_shards": 5}) == "shard-2/5"

    def test_expected_seconds_are_rounded(self):
        doc = shard_manifest(0, 1, ["table1"], ["aa"], scale="smoke",
                             expected_s=1.23456789)
        assert doc["expected_s"] == 1.234568

    def test_load_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a repro shard"):
            load_shard_manifest(str(path))

    def test_plan_files_are_named_by_shard_index(self, tmp_path):
        docs = [shard_manifest(i, 4, ["table1"], [f"k{i}"],
                               scale="smoke", expected_s=0.0)
                for i in (3, 1)]
        paths = write_shard_plan(str(tmp_path / "plan"), docs)
        assert [os.path.basename(p) for p in paths] == \
            ["shard-3.json", "shard-1.json"]
        assert load_shard_manifest(paths[0])["keys"] == ["k3"]

    def test_tasks_follow_manifest_key_order(self, smoke_env):
        by_key = expand_figures(["table1"])
        keys = sorted(by_key, reverse=True)
        tasks = tasks_for_manifest(_manifest_doc(keys), by_key)
        assert [task_key(t) for t in tasks] == keys

    def test_expansion_deduplicates_repeated_figures(self, smoke_env):
        once = expand_figures(["table1"])
        assert expand_figures(["table1", "table1"]) == once
        assert len(once) == 5

    def test_expansion_rejects_unknown_figure(self):
        with pytest.raises(KeyError, match="figures list"):
            expand_figures(["fig99"])


class _BrokenSpec:
    """A figure whose matrix cannot build."""

    fig_id = "broken"

    def build(self):
        raise RuntimeError("bad matrix")


class TestShardPlan:
    def test_manifests_record_grid_identity(self, tmp_path, smoke_env):
        from repro.harness.sweep import SCHEMA_VERSION, simulator_version
        specs = select_figures(only=["table1"])
        manifests, _total = plan_campaign_shards(specs, 2)
        assert [m["shard"] for m in manifests] == [0, 1]
        for m in manifests:
            assert m["kind"] == SHARD_KIND
            assert m["schema"] == SHARD_SCHEMA
            assert m["n_shards"] == 2
            assert m["sim"] == simulator_version()
            assert m["artifact_schema"] == SCHEMA_VERSION
            assert m["scale"] == "smoke"
            assert m["figures"] == ["table1"]
        assert sorted(manifests[0]["keys"] + manifests[1]["keys"]) == \
            sorted(expand_figures(["table1"]))
        # what the planner writes is what a worker reads back
        paths = write_shard_plan(str(tmp_path / "plan"), manifests)
        assert [load_shard_manifest(p) for p in paths] == manifests

    def test_empty_bins_are_not_planned(self, smoke_env):
        """More shards than tasks plans one manifest per task."""
        specs = select_figures(only=["table1"])
        manifests, _total = plan_campaign_shards(specs, 13)
        assert len(manifests) == 5
        assert all(len(m["keys"]) == 1 for m in manifests)

    def test_plan_is_deterministic(self, tmp_path, smoke_env):
        specs = select_figures(only=list(SELECTION))
        first = write_shard_plan(
            str(tmp_path / "a"), plan_campaign_shards(specs, 2)[0])
        again = write_shard_plan(
            str(tmp_path / "b"), plan_campaign_shards(specs, 2)[0])
        assert [open(p).read() for p in first] == \
            [open(p).read() for p in again]

    def test_unbuildable_figure_is_skipped_with_a_warning(self,
                                                          smoke_env):
        warnings = []
        specs = [_BrokenSpec()] + select_figures(only=["table1"])
        manifests, _total = plan_campaign_shards(specs, 2,
                                                 warn=warnings.append)
        assert warnings == ["skipping broken: matrix failed to build "
                            "(bad matrix)"]
        assert all(m["figures"] == ["table1"] for m in manifests)
        assert sum(len(m["keys"]) for m in manifests) == 5

    def test_history_weighs_the_plan(self, tmp_path, smoke_env):
        """With recorded wall times every shard carries an estimate,
        and the estimates add up to the returned total."""
        from repro.harness.store import open_store
        from repro.harness.sweep import run_sweep
        specs = select_figures(only=list(SELECTION))
        cold, cold_total = plan_campaign_shards(specs, 2)
        assert cold_total == 0.0
        assert all(m["expected_s"] == 0.0 for m in cold)
        store = open_store(str(tmp_path / "history"))
        run_sweep(list(expand_figures(list(SELECTION)).values()),
                  store=store)
        warm, total = plan_campaign_shards(specs, 2, history_store=store)
        assert total > 0.0
        assert all(m["expected_s"] > 0.0 for m in warm)
        assert sum(m["expected_s"] for m in warm) == \
            pytest.approx(total, abs=1e-5)


class TestSSHRunner:
    def shard(self, tmp_path):
        from repro.harness.orchestrate import ShardRun
        return ShardRun(index=3, manifest_path="/shared/plan/s3.json",
                        store_dir="/shared/stores/s3",
                        heartbeat_path="/shared/hb/s3.json",
                        total=2, expected_s=1.0, origin="shard-3/4")

    def test_command_wraps_the_worker_invocation(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        runner = SSHRunner(["hostA", "hostB"], python="python3",
                           pythonpath="/shared/src")
        argv = runner.command_for(self.shard(tmp_path), slot=1)
        assert argv[0] == "ssh"
        assert "BatchMode=yes" in argv
        assert "hostB" in argv  # slot 1 -> second host
        remote = argv[-1]
        assert "PYTHONPATH=/shared/src" in remote
        assert "REPRO_BENCH_SCALE=smoke" in remote
        assert "-m repro.harness.backends.worker" in remote
        assert "/shared/plan/s3.json" in remote
        assert "--heartbeat /shared/hb/s3.json" in remote

    def test_slots_follow_hosts_and_repeats_count(self):
        assert SSHRunner(["h1", "h1", "h2"]).slots() == 3
        with pytest.raises(ValueError, match="at least one host"):
            SSHRunner([])

    def test_local_runner_builds_worker_module_command(self, tmp_path):
        argv = LocalGroupRunner(python="pyX").command_for(
            self.shard(tmp_path), workers=2, backend="serial")
        assert argv[:3] == ["pyX", "-m",
                            "repro.harness.backends.worker"]
        assert "--workers" in argv and "2" in argv
        assert "--backend" in argv and "serial" in argv


# ----------------------------------------------------------------------
# orchestrator event loop, driven by fake runners
# ----------------------------------------------------------------------
class _Handle(WorkerHandle):
    def __init__(self, rc, name="fake:0"):
        self.rc = rc
        self.name = name
        self.killed = False

    def poll(self):
        return self.rc

    def kill(self):
        self.killed = True


class _FakeRunner(WorkerRunner):
    """Consumes a scripted behavior per launch: ``ok`` runs the shard
    in-process (real worker, real store), ``crash``/``fatal`` return
    the exit code without running, ``hang`` never exits."""

    name = "fake"

    def __init__(self, behaviors):
        self.behaviors = list(behaviors)
        self.launches = []
        self.handles = []

    def launch(self, shard, slot, *, workers, backend, log_path):
        behavior = self.behaviors.pop(0) if self.behaviors else "ok"
        self.launches.append((shard.index, behavior))
        with open(log_path, "w") as fh:
            fh.write(f"{behavior} shard {shard.index}\n")
        if behavior == "ok":
            rc = run_shard_worker(
                shard.manifest_path, shard.store_dir,
                heartbeat_path=shard.heartbeat_path,
                out=io.StringIO())
            handle = _Handle(rc, f"fake:{slot}")
        elif behavior == "crash":
            handle = _Handle(1, f"fake:{slot}")
        elif behavior == "fatal":
            handle = _Handle(EXIT_FATAL, f"fake:{slot}")
        else:
            handle = _Handle(None, f"fake:{slot}")
        self.handles.append(handle)
        return handle


@pytest.fixture()
def smoke_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")


def _orchestrator(tmp_path, runner, **kwargs):
    kwargs.setdefault("fan_out", 1)
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("max_retries", 1)
    kwargs.setdefault("poll_interval_s", 0.01)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    kwargs.setdefault("report_path", str(tmp_path / "R.md"))
    kwargs.setdefault("json_path", str(tmp_path / "c.json"))
    kwargs.setdefault("html_path", str(tmp_path / "status.html"))
    return Orchestrator(select_figures(only=list(SELECTION)),
                        results_dir=str(tmp_path / "results"),
                        runner=runner, **kwargs)


class TestOrchestratorLoop:
    def test_clean_run_merges_and_reports(self, tmp_path, smoke_env):
        runner = _FakeRunner(["ok", "ok"])
        result = _orchestrator(tmp_path, runner).run()
        assert result.ok()
        assert result.retries == 0
        assert [s.status for s in result.shards] == ["merged", "merged"]
        assert sum(s.merged_keys for s in result.shards) == 7
        doc = json.loads((tmp_path / "c.json").read_text())
        assert {f["status"] for f in doc["figures"]} == {"pass"}
        page = (tmp_path / "status.html").read_text()
        assert "complete" in page and "http-equiv" not in page

    def test_merge_reads_columnar_shards_under_json_policy(
            self, tmp_path, smoke_env, monkeypatch):
        """Shard stores written in the columnar format still merge
        into a campaign store opened under ``$REPRO_STORE=json``."""
        class _ColumnarWorkers(_FakeRunner):
            def launch(self, shard, slot, **kwargs):
                with scoped_env(REPRO_STORE=None):
                    return super().launch(shard, slot, **kwargs)

        monkeypatch.setenv("REPRO_STORE", "json")
        result = _orchestrator(tmp_path,
                               _ColumnarWorkers(["ok", "ok"])).run()
        assert result.ok()
        assert sum(s.merged_keys for s in result.shards) == 7
        assert result.campaign.executed == 0

    def test_crash_retries_and_recovers(self, tmp_path, smoke_env):
        runner = _FakeRunner(["crash", "ok", "ok"])
        result = _orchestrator(tmp_path, runner).run()
        assert result.ok()
        assert result.retries == 1
        # the crashed shard relaunched after the queue drained
        crashed = runner.launches[0][0]
        assert runner.launches[-1] == (crashed, "ok")
        assert result.shards[crashed].attempts == 2

    def test_fatal_aborts_everything(self, tmp_path, smoke_env):
        runner = _FakeRunner(["fatal"])
        result = _orchestrator(tmp_path, runner).run()
        assert not result.ok()
        assert result.aborted
        assert result.campaign is None
        statuses = sorted(s.status for s in result.shards)
        assert statuses == ["aborted", "failed"]
        # the fatal shard was never retried
        assert len(runner.launches) == 1
        page = (tmp_path / "status.html").read_text()
        assert "failed" in page

    def test_retry_exhaustion_fails_the_shard(self, tmp_path,
                                              smoke_env):
        runner = _FakeRunner(["crash", "crash", "crash", "crash"])
        result = _orchestrator(tmp_path, runner).run()
        assert not result.ok()
        failed = [s for s in result.shards if s.status == "failed"]
        assert failed and failed[0].attempts == 2  # 1 + max_retries
        assert "exit 1" in failed[0].error

    def test_heartbeat_silence_kills_and_retries(self, tmp_path,
                                                 smoke_env):
        runner = _FakeRunner(["hang", "ok", "ok"])
        result = _orchestrator(tmp_path, runner,
                               heartbeat_timeout_s=0.05).run()
        assert result.ok()
        assert result.retries == 1
        assert runner.handles[0].killed
        assert any("no heartbeat" in e for e in result.events)

    def test_chaos_without_live_worker_never_fires_on_fakes(
            self, tmp_path, smoke_env):
        """Fake 'ok' workers exit before the poll loop ever sees them
        alive, so a requested chaos kill cannot fire — the result
        records the shortfall instead of pretending."""
        runner = _FakeRunner(["ok", "ok"])
        result = _orchestrator(tmp_path, runner, chaos_kills=1).run()
        assert result.chaos_requested == 1
        assert result.chaos_killed == 0

    def test_retry_reuses_the_shard_store(self, tmp_path, smoke_env):
        """The elastic-cost contract: a second attempt serves finished
        tasks from the first attempt's store."""
        class _HalfThenOk(_FakeRunner):
            def launch(self, shard, slot, **kwargs):
                if not self.launches:
                    # attempt 1: really run the shard, then report a
                    # crash anyway (worker died after finishing)
                    run_shard_worker(shard.manifest_path,
                                     shard.store_dir,
                                     out=io.StringIO())
                    self.launches.append((shard.index, "crash"))
                    handle = _Handle(1, "fake:0")
                    self.handles.append(handle)
                    return handle
                return super().launch(shard, slot, **kwargs)

        runner = _HalfThenOk([])
        result = _orchestrator(tmp_path, runner, n_shards=1).run()
        assert result.ok()
        assert result.retries == 1
        # attempt 2 wrote nothing new: every artifact was cached
        shard = result.shards[0]
        assert shard.attempts == 2
        assert shard.merged_keys == 7

    def test_empty_selection_is_an_error(self, tmp_path, smoke_env):
        with pytest.raises(ValueError, match="empty campaign"):
            Orchestrator([], results_dir=str(tmp_path / "r"))

    def test_unbuildable_selection_is_an_error(self, tmp_path,
                                               smoke_env):
        runner = _FakeRunner([])
        orch = Orchestrator([_BrokenSpec()],
                            results_dir=str(tmp_path / "r"),
                            runner=runner)
        with pytest.raises(ValueError, match="planned no tasks"):
            orch.run()
        assert runner.launches == []
        assert any("skipping broken" in e for e in orch.events)

    def test_merged_store_records_each_shard_origin(self, tmp_path,
                                                    smoke_env):
        orch = _orchestrator(tmp_path, _FakeRunner(["ok", "ok"]))
        assert orch.run().ok()
        manifest = orch.store.manifest()
        assert len(manifest) == 7
        assert {e["origin"] for e in manifest.values()} == \
            {"shard-0/2", "shard-1/2"}

    def test_rerun_merges_nothing_new(self, tmp_path, smoke_env):
        assert _orchestrator(tmp_path, _FakeRunner([])).run().ok()
        result = _orchestrator(tmp_path, _FakeRunner([])).run()
        assert result.ok()
        assert [s.merged_keys for s in result.shards] == [0, 0]
        assert result.campaign.executed == 0

    def test_more_shards_than_tasks_merges_everything(self, tmp_path,
                                                      smoke_env):
        result = _orchestrator(tmp_path, _FakeRunner([]),
                               n_shards=16).run()
        assert result.ok()
        assert len(result.shards) == 7
        assert sum(s.merged_keys for s in result.shards) == 7
