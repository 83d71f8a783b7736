"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _clean_harness_env():
    """CLI paths (``--scale``, ``orchestrate``) export harness env vars
    for their worker trees; start every test without them and scrub
    whatever the test exported afterwards (monkeypatch.delenv cannot:
    it only undoes changes it made itself, not the CLI's)."""
    import os
    keys = ("REPRO_BENCH_SCALE", "REPRO_SHARD", "REPRO_BACKEND")
    saved = {key: os.environ.pop(key, None) for key in keys}
    yield
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestRun:
    def test_basic_run(self, capsys):
        code, out = run_cli(
            capsys, "run", "--lb", "reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25", "--seed", "2")
        assert code == 0
        assert "reps:" in out
        assert "flows 8/8" in out

    def test_tornado_pattern(self, capsys):
        code, out = run_cli(
            capsys, "run", "--pattern", "tornado", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25")
        assert code == 0

    def test_incast_pattern(self, capsys):
        code, out = run_cli(
            capsys, "run", "--pattern", "incast", "--fan-in", "4",
            "--hosts", "8", "--hosts-per-t0", "4", "--mib", "0.25")
        assert code == 0

    def test_failure_injection_flags(self, capsys):
        code, out = run_cli(
            capsys, "run", "--lb", "reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.5",
            "--fail-uplink", "0", "--fail-at", "10", "--fail-for", "100")
        assert code == 0

    def test_degrade_flags(self, capsys):
        code, out = run_cli(
            capsys, "run", "--lb", "reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25",
            "--degrade-uplink", "0", "--degrade-gbps", "200")
        assert code == 0

    def test_unfinished_run_fails(self, capsys):
        # permanent blackhole of every uplink + tiny time budget
        code, out = run_cli(
            capsys, "run", "--lb", "ecmp", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "4",
            "--max-us", "50")
        assert code == 1


class TestCompare:
    def test_compare_table(self, capsys):
        code, out = run_cli(
            capsys, "compare", "--lbs", "ops,reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25")
        assert code == 0
        assert "ops" in out and "reps" in out
        assert "max_fct_us" in out


class TestSweep:
    def sweep(self, capsys, tmp_path, *extra):
        return run_cli(
            capsys, "sweep", "--lbs", "ops,reps", "--pattern", "tornado",
            "--hosts", "8", "--hosts-per-t0", "4", "--mib", "0.125",
            "--seeds", "1,2", "--results-dir", str(tmp_path), *extra)

    def test_aggregated_table(self, capsys, tmp_path):
        code, out = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "max_fct_us" in out
        assert "2 executed" not in out  # 4 tasks: 2 lbs x 2 seeds
        assert "4 executed, 0 from cache" in out

    def test_rerun_hits_cache(self, capsys, tmp_path):
        self.sweep(capsys, tmp_path)
        code, out = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "0 executed, 4 from cache" in out

    def test_fresh_ignores_cache(self, capsys, tmp_path):
        self.sweep(capsys, tmp_path)
        code, out = self.sweep(capsys, tmp_path, "--fresh")
        assert code == 0
        assert "4 executed, 0 from cache" in out

    def test_workers_flag(self, capsys, tmp_path):
        code, out = self.sweep(capsys, tmp_path, "--workers", "2")
        assert code == 0
        assert "2 worker(s)" in out
        assert "[process backend]" in out

    def test_backend_flag(self, capsys, tmp_path):
        code, out = self.sweep(capsys, tmp_path, "--backend", "process")
        assert code == 0
        assert "[process backend]" in out

    def test_serial_backend_reports_one_worker(self, capsys, tmp_path):
        """The progress line names the executor's real worker count:
        ``--workers 4`` on the serial backend still runs in-process."""
        code, out = self.sweep(capsys, tmp_path, "--workers", "4",
                               "--backend", "serial")
        assert code == 0
        assert "to run on 1 worker(s) [serial backend]" in out

    @pytest.mark.parametrize("extra,expected", [
        ((), "4 to run on 3 worker(s)"),
        (("--lbs", "reps", "--seeds", "1"), "1 to run on 1 worker(s)"),
    ], ids=["four-tasks", "one-task"])
    def test_process_backend_reports_its_workers(self, capsys, tmp_path,
                                                 extra, expected):
        """A pool starts at most one worker per pending task, and a
        single pending task runs inline."""
        code, out = self.sweep(capsys, tmp_path, "--workers", "3",
                               "--backend", "process", *extra)
        assert code == 0
        assert f"{expected} [process backend]" in out

    def test_removed_backend_name_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            self.sweep(capsys, tmp_path, "--backend", "batched")
        assert "invalid choice: 'batched'" in capsys.readouterr().err

    def test_backend_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        code, out = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "[process backend]" in out

    def test_unknown_backend_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            self.sweep(capsys, tmp_path, "--backend", "quantum")

    def test_bad_backend_env_fails_cleanly(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(SystemExit, match="not a known backend"):
            self.sweep(capsys, tmp_path)

    def test_root_seed_spawning(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--lbs", "reps", "--pattern", "tornado",
            "--hosts", "8", "--hosts-per-t0", "4", "--mib", "0.125",
            "--root-seed", "9", "--n-seeds", "3",
            "--results-dir", str(tmp_path))
        assert code == 0
        assert "3 to run" in out


class TestFigures:
    def test_list_enumerates_registry(self, capsys):
        from repro.scenarios import figure_ids
        code, out = run_cli(capsys, "figures", "list")
        assert code == 0
        for fig_id in figure_ids():
            assert fig_id in out

    def test_run_model_figure(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "run", "table1",
            "--results-dir", str(tmp_path))
        assert code == 0
        assert "buffer_elems" in out
        assert "5 executed, 0 from cache" in out
        assert "[OK ] table1" in out

    def test_run_hits_cache_on_rerun(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "0 executed, 5 from cache" in out

    def test_fresh_ignores_cache(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--fresh", "--results-dir", str(tmp_path))
        assert code == 0
        assert "5 executed, 0 from cache" in out

    def test_prune_drops_stale_artifacts(self, capsys, tmp_path):
        from repro.harness.store import open_store
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        root = str(tmp_path / "table1")
        open_store(root).put("feedface", {"schema": 0})
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--prune", "--results-dir", str(tmp_path))
        assert code == 0
        assert "pruned 1 stale artifact(s)" in out
        assert "feedface" not in open_store(root).keys()

    def test_no_cache_runs_without_store(self, capsys, tmp_path):
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert not list(tmp_path.iterdir())

    def test_failed_check_sets_exit_code(self, capsys, tmp_path,
                                         monkeypatch):
        from repro.scenarios import registry

        def boom(result):
            raise AssertionError("shape off")
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "check": boom}))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 1
        assert "[DIVERGES] table1" in out

    def test_no_check_skips_assertions(self, capsys, tmp_path,
                                       monkeypatch):
        from repro.scenarios import registry

        def boom(result):
            raise AssertionError("shape off")
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "check": boom}))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-check", "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 0

    def test_unknown_figure_id_fails_before_any_run(self, capsys,
                                                    tmp_path):
        """Ids resolve up front: a typo in the last id must not cost a
        full run of the earlier figures (and exits cleanly)."""
        with pytest.raises(SystemExit, match="figures list"):
            run_cli(capsys, "figures", "run", "table1", "fig99",
                    "--results-dir", str(tmp_path))
        assert not (tmp_path / "table1").exists()

    def test_workers_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "2")
        code, out = run_cli(capsys, "figures", "run", "fig24",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "2 worker(s)" in out

    def test_malformed_workers_env_leaves_other_commands_alone(
            self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "lots")
        code, out = run_cli(capsys, "footprint")
        assert code == 0


class TestFiguresCampaign:
    """`figures run --all`: campaign mode over the model figures
    (cheap) with report/record emission."""

    def campaign(self, capsys, tmp_path, *extra):
        return run_cli(
            capsys, "figures", "run", "--only", "table1,fig24",
            "--results-dir", str(tmp_path / "store"),
            "--report", str(tmp_path / "REPRODUCTION.md"),
            "--json", str(tmp_path / "campaign.json"), *extra)

    def test_campaign_emits_report_and_record(self, capsys, tmp_path):
        import json
        code, out = self.campaign(capsys, tmp_path)
        assert code == 0
        assert "campaign done" in out
        text = (tmp_path / "REPRODUCTION.md").read_text()
        assert "## table1 — Table 1 `[PASS]`" in text
        assert "## fig24 — Fig. 24 `[PASS]`" in text
        assert "## Provenance" in text
        doc = json.loads((tmp_path / "campaign.json").read_text())
        assert doc["summary"]["figures"] == 2
        assert {f["fig_id"] for f in doc["figures"]} == \
            {"table1", "fig24"}

    def test_campaign_rerun_hits_shared_store(self, capsys, tmp_path):
        self.campaign(capsys, tmp_path)
        code, out = self.campaign(capsys, tmp_path)
        assert code == 0
        assert "7 tasks (0 executed, 7 cached)" in out

    def test_ids_act_as_only_filter_with_all(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "run", "table1", "--all",
            "--results-dir", str(tmp_path / "store"),
            "--report", str(tmp_path / "R.md"),
            "--json", str(tmp_path / "c.json"))
        assert code == 0
        assert "campaign: 1 figure(s)" in out

    def test_tag_filter_composes_with_only(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "run", "--tag", "analytic",
            "--only", "table1",
            "--results-dir", str(tmp_path / "store"),
            "--report", str(tmp_path / "R.md"),
            "--json", str(tmp_path / "c.json"))
        assert code == 0
        assert "campaign: 1 figure(s)" in out

    def test_empty_selection_fails_cleanly(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="selected no figures"):
            run_cli(capsys, "figures", "run", "--tag", "analytic",
                    "--skip", "fig14,fig17,fig18,fig20,fig24,table1",
                    "--results-dir", str(tmp_path))

    def test_unknown_filter_id_fails_cleanly(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="figures list"):
            run_cli(capsys, "figures", "run", "--only", "fig99",
                    "--results-dir", str(tmp_path))

    def test_run_without_ids_or_all_fails(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="--all"):
            run_cli(capsys, "figures", "run",
                    "--results-dir", str(tmp_path))

    def test_divergence_is_soft_unless_strict(self, capsys, tmp_path,
                                              monkeypatch):
        from repro.scenarios import registry

        def boom(result):
            raise AssertionError("shape off")
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "check": boom}))
        code, _out = self.campaign(capsys, tmp_path)
        assert code == 0  # fail badge, but the campaign completed
        text = (tmp_path / "REPRODUCTION.md").read_text()
        assert "`[FAIL]`" in text
        assert "shape off" in text
        code, _out = self.campaign(capsys, tmp_path, "--strict")
        assert code == 1

    def test_campaign_only_flags_rejected_in_single_mode(
            self, capsys, tmp_path):
        for flags in (["--strict"], ["--prune-stale"],
                      ["--figure-jobs", "2"],
                      ["--report", str(tmp_path / "R.md")]):
            with pytest.raises(SystemExit, match="campaign mode"):
                run_cli(capsys, "figures", "run", "table1",
                        "--results-dir", str(tmp_path), *flags)

    def test_prune_stale_needs_a_store(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="drop --no-cache"):
            run_cli(capsys, "figures", "run", "--only", "table1",
                    "--no-cache", "--prune-stale",
                    "--results-dir", str(tmp_path))

    def test_prune_rejected_in_campaign_mode(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="prune-stale"):
            run_cli(capsys, "figures", "run", "--only", "table1",
                    "--prune", "--results-dir", str(tmp_path))

    def test_prune_stale_flag(self, capsys, tmp_path):
        from repro.harness.store import open_store
        self.campaign(capsys, tmp_path)
        root = str(tmp_path / "store" / "campaign")
        open_store(root).put("feedface", {
            "schema": 2, "sim": "0" * 16, "metrics": {},
            "task": {"label": "ghost", "seed": 1}})
        code, _out = self.campaign(capsys, tmp_path, "--prune-stale")
        assert code == 0
        assert "feedface" not in open_store(root).keys()

    def test_scale_flag_sets_bench_scale(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        code, _out = self.campaign(capsys, tmp_path, "--scale", "smoke")
        assert code == 0
        text = (tmp_path / "REPRODUCTION.md").read_text()
        assert "| bench scale | `smoke` |" in text


class TestOrchestrate:
    """`repro orchestrate`: the elastic campaign, end-to-end with real
    subprocess workers."""

    SELECTION = "table1,fig24"

    def test_chaos_kill_recovers_and_matches_single_host(
            self, capsys, tmp_path, monkeypatch):
        """The ISSUE 10 acceptance drill: SIGKILL one worker mid-shard;
        the campaign completes via retry, its record matches a
        single-host run, and the orchestrator's environment is
        untouched afterwards."""
        import json
        import os

        # hold workers mid-shard long enough for the drill to fire
        monkeypatch.setenv("REPRO_WORKER_THROTTLE_S", "0.4")
        code, out = run_cli(
            capsys, "orchestrate", "--scale", "smoke",
            "--only", self.SELECTION, "--fan-out", "2",
            "--chaos-kill", "1", "--heartbeat-timeout", "60",
            "--results-dir", str(tmp_path / "orch"),
            "--work-dir", str(tmp_path / "work"),
            "--report", str(tmp_path / "R-orch.md"),
            "--json", str(tmp_path / "c-orch.json"),
            "--html", str(tmp_path / "status.html"))
        assert code == 0
        assert "1 chaos kill(s)" in out
        assert "1 retry" in out
        assert "4 merged" in out
        # a killed worker costs only its shard's remainder — the final
        # render executes nothing
        assert "7 tasks (0 executed, 7 cached)" in out
        # the acceptance contract: nothing leaked into this process
        assert "REPRO_SHARD" not in os.environ
        assert "REPRO_BENCH_SCALE" not in os.environ
        page = (tmp_path / "status.html").read_text()
        assert "complete" in page
        monkeypatch.delenv("REPRO_WORKER_THROTTLE_S")
        code, _ = run_cli(
            capsys, "figures", "run", "--only", self.SELECTION,
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "single"),
            "--report", str(tmp_path / "R-single.md"),
            "--json", str(tmp_path / "c-single.json"))
        assert code == 0
        orch = json.loads((tmp_path / "c-orch.json").read_text())
        single = json.loads((tmp_path / "c-single.json").read_text())
        assert [f["table"] for f in orch["figures"]] == \
            [f["table"] for f in single["figures"]]
        assert [f["status"] for f in orch["figures"]] == \
            [f["status"] for f in single["figures"]]

    def test_rerun_is_fully_cached(self, capsys, tmp_path):
        """Shards of a warm campaign store execute nothing."""
        for _ in range(2):
            code, out = run_cli(
                capsys, "orchestrate", "--scale", "smoke",
                "--only", "table1", "--fan-out", "2",
                "--results-dir", str(tmp_path / "orch"),
                "--work-dir", str(tmp_path / "work"),
                "--report", str(tmp_path / "R.md"),
                "--json", str(tmp_path / "c.json"))
            assert code == 0
        assert "5 tasks (0 executed, 5 cached)" in out
        # the second plan ran against a warm store: the balancer had
        # wall-time history to weigh shards with
        assert "warm wall-time history" in out

    def test_rejects_empty_selection(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="selected no figures"):
            run_cli(capsys, "orchestrate", "--only", "table1",
                    "--skip", "table1",
                    "--results-dir", str(tmp_path / "r"))

    def test_rejects_unknown_figure(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="figures list"):
            run_cli(capsys, "orchestrate", "--only", "fig99",
                    "--results-dir", str(tmp_path / "r"))
        assert not (tmp_path / "r").exists()

    def test_ssh_runner_needs_hosts(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="needs --ssh-hosts"):
            run_cli(capsys, "orchestrate", "--runner", "ssh",
                    "--results-dir", str(tmp_path / "r"))

    def test_ssh_hosts_require_ssh_runner(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="only applies"):
            run_cli(capsys, "orchestrate", "--ssh-hosts", "h1",
                    "--results-dir", str(tmp_path / "r"))


class TestStore:
    """`repro store compact | inspect | verify`."""

    def campaign_store(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "figures", "run", "--only", "table1",
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "results"),
            "--report", str(tmp_path / "R.md"),
            "--json", str(tmp_path / "c.json"))
        assert code == 0
        return str(tmp_path / "results" / "campaign")

    def test_inspect_and_verify_columnar_store(self, capsys, tmp_path):
        root = self.campaign_store(capsys, tmp_path)
        code, out = run_cli(capsys, "store", "inspect", root)
        assert code == 0
        assert "segment records" in out
        code, out = run_cli(capsys, "store", "verify", root)
        assert code == 0
        assert "store verify: OK" in out

    def test_compact_keeps_a_campaign_cached(self, capsys, tmp_path):
        """Compact, then a re-run of the same campaign is fully
        cached."""
        root = self.campaign_store(capsys, tmp_path)
        code, out = run_cli(capsys, "store", "compact", root)
        assert code == 0
        assert "record(s) in 1 block(s)" in out
        code, out = run_cli(
            capsys, "figures", "run", "--only", "table1",
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "results"),
            "--report", str(tmp_path / "R2.md"),
            "--json", str(tmp_path / "c2.json"))
        assert code == 0
        assert "(0 executed" in out

    def test_verify_flags_corruption(self, capsys, tmp_path):
        import os
        root = self.campaign_store(capsys, tmp_path)
        seg = os.path.join(root, "store.seg")
        with open(seg, "r+b") as fh:
            fh.seek(os.path.getsize(seg) - 4)
            fh.write(b"\xff\xff\xff\xff")
        code, out = run_cli(capsys, "store", "verify", root)
        assert code == 1
        assert "store verify: FAILED" in out

    def pre_v3_store(self, tmp_path) -> str:
        from helpers import V2_SEGMENT
        (tmp_path / "store.seg").write_bytes(V2_SEGMENT)
        return str(tmp_path)

    def test_verify_names_a_pre_v3_segment(self, capsys, tmp_path):
        code, out = run_cli(capsys, "store", "verify",
                            self.pre_v3_store(tmp_path))
        assert code == 1
        assert "segment format 2 is not readable" in out
        assert "bad frame magic" not in out
        assert "store verify: FAILED" in out

    def test_inspect_flags_a_pre_v3_segment(self, capsys, tmp_path):
        code, out = run_cli(capsys, "store", "inspect",
                            self.pre_v3_store(tmp_path))
        assert code == 0
        assert "[TORN]" in out

    def test_stale_store_env_is_ignored(self, capsys, tmp_path,
                                        monkeypatch):
        """A ``$REPRO_STORE`` value left in the environment no longer
        selects or refuses anything: the sweep writes the segment."""
        import os
        monkeypatch.setenv("REPRO_STORE", "parquet")
        code, out = run_cli(capsys, "sweep", "--lbs", "reps",
                            "--pattern", "tornado", "--mib", "0.25",
                            "--hosts", "8", "--hosts-per-t0", "4",
                            "--seeds", "1", "--name", "x",
                            "--results-dir", str(tmp_path))
        assert code == 0
        root = tmp_path / "x"
        assert (root / "store.seg").is_file()
        assert [n for n in os.listdir(root) if n.endswith(".json")] \
            in ([], ["manifest.json"])
        code, out = run_cli(capsys, "store", "verify", str(root))
        assert code == 0

    def test_store_commands_reject_missing_dir(self, capsys, tmp_path):
        for command in ("compact", "inspect", "verify"):
            with pytest.raises(SystemExit, match="store directory"):
                run_cli(capsys, "store", command,
                        str(tmp_path / "ghost"))

    @pytest.mark.parametrize("command", ["compact", "inspect", "verify"])
    def test_plain_directory_is_refused_untouched(self, capsys, tmp_path,
                                                  command):
        """A directory without a segment file is not a store: every
        verb exits non-zero and writes nothing into it."""
        import os
        (tmp_path / "notes.txt").write_text("not a store\n")
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(SystemExit, match="not a store directory"):
            run_cli(capsys, "store", command, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == before


class TestFiguresTrend:
    def records(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "--only", "table1",
                "--results-dir", str(tmp_path / "store"),
                "--report", str(tmp_path / "R.md"),
                "--json", str(tmp_path / "old.json"))
        return tmp_path / "old.json"

    def test_identical_records_pass_strict(self, capsys, tmp_path):
        old = self.records(capsys, tmp_path)
        code, out = run_cli(capsys, "figures", "trend", str(old),
                            str(old), "--strict")
        assert code == 0
        assert "no figure changed" in out

    def test_strict_fails_on_badge_regression(self, capsys, tmp_path):
        import json
        old = self.records(capsys, tmp_path)
        doc = json.loads(old.read_text())
        doc["figures"][0]["status"] = "error"
        new = tmp_path / "new.json"
        new.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "figures", "trend", str(old),
                            str(new))
        assert code == 0  # informational without --strict
        assert "[REGRESSION]" in out
        code, out = run_cli(capsys, "figures", "trend", str(old),
                            str(new), "--strict")
        assert code == 1

    def test_tolerance_gates_metric_drift(self, capsys, tmp_path):
        import json
        old = self.records(capsys, tmp_path)
        doc = json.loads(old.read_text())
        row = doc["figures"][0]["table"]["rows"][0]
        row[1] = round(row[1] * 1.05, 2)  # 5% drift
        new = tmp_path / "new.json"
        new.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "figures", "trend", str(old),
                          str(new), "--strict")
        assert code == 1
        code, _ = run_cli(capsys, "figures", "trend", str(old),
                          str(new), "--strict", "--tol", "0.10")
        assert code == 0

    def test_rejects_non_record_input(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit, match="not a campaign.json"):
            run_cli(capsys, "figures", "trend", str(bogus), str(bogus))


class TestDocs:
    def test_generate_then_check_clean(self, capsys, tmp_path):
        code, out = run_cli(capsys, "docs", "figures",
                            "--out", str(tmp_path))
        assert code == 0
        from repro.scenarios import REGISTRY
        assert f"wrote {len(REGISTRY) + 1} page(s)" in out
        code, out = run_cli(capsys, "docs", "figures",
                            "--out", str(tmp_path), "--check")
        assert code == 0
        assert "matches the registry" in out

    def test_check_flags_drift(self, capsys, tmp_path):
        run_cli(capsys, "docs", "figures", "--out", str(tmp_path))
        (tmp_path / "fig07.md").write_text("hand edited\n")
        code, out = run_cli(capsys, "docs", "figures",
                            "--out", str(tmp_path), "--check")
        assert code == 1
        assert "[DRIFT]" in out and "fig07.md: stale" in out


class TestFootprint:
    def test_table1_defaults(self, capsys):
        code, out = run_cli(capsys, "footprint")
        assert code == 0
        assert "193 bits" in out
        assert "25 bytes" in out

    def test_single_element(self, capsys):
        code, out = run_cli(capsys, "footprint", "--buffer", "1")
        assert code == 0
        assert "74 bits" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_pattern(self):
        with pytest.raises(SystemExit):
            main(["run", "--pattern", "gather"])

    def test_rejects_removed_shard_verb(self, capsys):
        """Multi-host runs go through `orchestrate --runner ssh`."""
        with pytest.raises(SystemExit):
            main(["shard", "plan"])
        assert "invalid choice: 'shard'" in capsys.readouterr().err
