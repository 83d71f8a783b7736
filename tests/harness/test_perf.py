"""Perf micro-benchmark harness and the ``perf.json`` trend gate."""

from __future__ import annotations

import json

import pytest

from repro.harness.perf import (
    DETERMINISTIC_FIELDS,
    SCENARIOS,
    SCHEMA,
    diff_perf,
    load_record,
    render_diff,
    render_record,
    run_perf,
    run_scenario,
    scenario_names,
)


def _record(**overrides):
    base = {
        "schema": SCHEMA,
        "sim": "deadbeefdeadbeef",
        "scale": 1,
        "repeats": 1,
        "scenarios": {
            "core_spray": {
                "kind": "network", "pkts": 100, "events": 1000,
                "flows_completed": 4, "sim_time_us": 12.5,
                "wall_s": 0.1, "pkts_per_s": 1000.0,
                "events_per_s": 10000.0,
            },
            "engine_chain": {
                "kind": "engine", "events": 500, "units": 500,
                "wall_s": 0.05, "units_per_s": 10000.0,
            },
        },
    }
    base.update(overrides)
    return base


def _mutated(path, value):
    rec = _record()
    rec = json.loads(json.dumps(rec))  # deep copy
    node = rec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return rec


class TestRunPerf:
    def test_smoke_capture_has_all_scenarios(self):
        record = run_perf(scale=1, repeats=1)
        assert record["schema"] == SCHEMA
        assert set(record["scenarios"]) == set(scenario_names())
        for sc in record["scenarios"].values():
            assert sc["wall_s"] > 0
            assert sc["kind"] in ("network", "engine", "store")

    def test_network_scenarios_complete_their_flows(self):
        for name in ("core_spray", "incast_trim", "rto_failure"):
            sc = run_scenario(name, scale=1, repeats=1)
            assert sc["flows_completed"] > 0, name
            assert sc["pkts"] > 0, name

    def test_capture_is_deterministic_across_runs(self):
        a = run_perf(scale=1, repeats=1)
        b = run_perf(scale=1, repeats=1)
        for name in scenario_names():
            for key in DETERMINISTIC_FIELDS:
                if key in a["scenarios"][name]:
                    assert a["scenarios"][name][key] == \
                        b["scenarios"][name][key], (name, key)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown perf scenario"):
            run_scenario("nope", scale=1)


class TestDiffPerf:
    def test_identical_records_are_clean(self):
        diff = diff_perf(_record(), _record())
        assert diff.clean
        assert not diff.improvements

    def test_deterministic_drift_is_a_mismatch(self):
        new = _mutated(("scenarios", "core_spray", "pkts"), 101)
        diff = diff_perf(_record(), new)
        assert not diff.clean
        assert any("core_spray.pkts" in m for m in diff.mismatches)

    def test_throughput_within_band_is_clean(self):
        new = _mutated(("scenarios", "core_spray", "pkts_per_s"), 900.0)
        assert diff_perf(_record(), new, tol=0.25).clean

    def test_throughput_below_band_is_a_regression(self):
        new = _mutated(("scenarios", "core_spray", "pkts_per_s"), 500.0)
        diff = diff_perf(_record(), new, tol=0.25)
        assert not diff.clean
        assert any("pkts_per_s" in r for r in diff.regressions)

    def test_throughput_above_band_is_an_improvement(self):
        new = _mutated(("scenarios", "engine_chain", "units_per_s"),
                       20000.0)
        diff = diff_perf(_record(), new, tol=0.25)
        assert diff.clean  # faster is never a failure
        assert diff.improvements

    def test_missing_scenario_is_a_mismatch(self):
        new = _record()
        del new["scenarios"]["engine_chain"]
        diff = diff_perf(_record(), new)
        assert any("engine_chain" in m for m in diff.mismatches)

    def test_scale_mismatch_skips_deterministic_gate(self):
        new = _mutated(("scenarios", "core_spray", "pkts"), 9999)
        new["scale"] = 2
        diff = diff_perf(_record(), new)
        assert diff.clean  # counters not comparable across scales
        assert any("scale differs" in n for n in diff.notes)

    def test_render_paths(self):
        rec = _record()
        rec["baseline"] = {"ref": "seed", "scenarios": {}}
        rec["speedup"] = {"core_spray": 1.32}
        text = render_record(rec)
        assert "core_spray" in text and "x1.32" in text
        diff = diff_perf(
            _record(), _mutated(("scenarios", "core_spray", "pkts"), 1))
        assert "[MISMATCH]" in render_diff(diff, 0.25)


class TestLoadRecord:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "perf.json"
        path.write_text(json.dumps(_record()))
        assert load_record(str(path))["scale"] == 1

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError, match="not a"):
            load_record(str(path))


class TestPerfCli:
    def _run(self, capsys, *argv):
        from repro.cli import main
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_perf_run_writes_record(self, capsys, tmp_path):
        out_path = tmp_path / "perf.json"
        code, out = self._run(capsys, "perf", "run", "--scale", "1",
                              "--repeats", "1", "--only", "engine_chain",
                              "--json", str(out_path))
        assert code == 0
        assert "engine_chain" in out
        assert load_record(str(out_path))["scale"] == 1

    def test_perf_run_rejects_unknown_scenario_before_running(
            self, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(SCENARIOS, "engine_chain",
                            lambda scale: ran.append(scale))
        with pytest.raises(SystemExit) as exc:
            self._run(capsys, "perf", "run", "--scale", "1", "--repeats",
                      "1", "--only", "engine_chain,nope")
        msg = str(exc.value.code)
        assert "nope" in msg and "engine_sparse" in msg
        assert ran == []  # nothing ran before the bad name was caught

    @pytest.mark.parametrize("flag", ["--repeats", "--scale"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_perf_run_rejects_non_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            self._run(capsys, "perf", "run", "--only", "engine_chain",
                      flag, value)
        assert f"{flag} must be >= 1" in str(exc.value.code)

    def test_trend_clean_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "perf.json"
        path.write_text(json.dumps(_record()))
        code, out = self._run(capsys, "perf", "trend", str(path),
                              str(path), "--strict")
        assert code == 0
        assert "clean" in out

    def test_trend_mismatch_warns_without_strict(self, capsys, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(_record()))
        new.write_text(json.dumps(
            _mutated(("scenarios", "core_spray", "events"), 7)))
        code, out = self._run(capsys, "perf", "trend", str(old), str(new))
        assert code == 0  # warn-only by default
        assert "[MISMATCH]" in out

    def test_trend_mismatch_fails_strict(self, capsys, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(_record()))
        new.write_text(json.dumps(
            _mutated(("scenarios", "core_spray", "events"), 7)))
        code, _ = self._run(capsys, "perf", "trend", str(old), str(new),
                            "--strict")
        assert code == 1

    def test_trend_regression_fails_strict(self, capsys, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(_record()))
        new.write_text(json.dumps(
            _mutated(("scenarios", "engine_chain", "units_per_s"),
                     100.0)))
        code, out = self._run(capsys, "perf", "trend", str(old),
                              str(new), "--strict")
        assert code == 1
        assert "[SLOWER]" in out
