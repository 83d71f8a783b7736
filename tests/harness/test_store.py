"""Segment store: codec round-trips, recovery, maintenance.

The acceptance bar: **byte-identical reads** — for any JSON-typed
payload, ``put``/``put_many``/``get``/``merge_from``/``compact``
round-trip to the canonically identical document — plus idempotent
merges and index-rebuild recovery after a torn final block.
The round-trip tests are property-based over a seeded-random payload
generator, so every run explores the same few hundred arbitrary
payload shapes deterministically.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.harness.store import (
    FILE_MAGIC_V3,
    ColumnarStore,
    decode_frame_v3,
    encode_frame_v3,
    open_store,
)
from repro.harness.sweep import (
    SCHEMA_VERSION,
    execute_task,
    make_model_task,
    run_sweep,
    simulator_version,
)


def canon(doc) -> str:
    """The byte-identity yardstick: canonical JSON serialization."""
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# seeded-random payload generator (deterministic "arbitrary" payloads)
# ----------------------------------------------------------------------
def rand_scalar(rng: random.Random):
    pick = rng.randrange(8)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randint(-10**6, 10**6)
    if pick == 3:  # beyond 64-bit: must survive via the JSON remainder
        return rng.choice([-1, 1]) * rng.randint(1 << 63, 1 << 80)
    if pick == 4:
        return rng.uniform(-1e9, 1e9)
    if pick == 5:  # edge floats incl. non-finite (JSON-remainder path)
        return rng.choice([0.0, -0.0, 1e-300, -1e308,
                           float("inf"), float("-inf")])
    if pick == 6:
        return f"s{rng.randrange(1000)}"
    return {"nested": [rng.randrange(10), "x", None]}


def rand_array(rng: random.Random):
    def elem():
        r = rng.random()
        if r < 0.1:  # un-packable element: whole array stays JSON
            return rng.randint(1 << 63, 1 << 70)
        if r < 0.55:
            return rng.randint(-1000, 1000)
        return rng.uniform(-1e6, 1e6)
    return [elem() for _ in range(rng.randrange(1, 40))]


def rand_payload(rng: random.Random, i: int) -> dict:
    doc = {"schema": SCHEMA_VERSION, "sim": "a" * 16,
           "key": f"key{i:05d}", "task": {"label": f"t{i}", "seed": i}}
    for sect in ("metrics", "extra", "series", "oddball"):
        if rng.random() < 0.85:
            doc[sect] = {
                f"f{j}": rand_array(rng) if rng.random() < 0.4
                else rand_scalar(rng)
                for j in range(rng.randrange(7))}
    if rng.random() < 0.25:
        doc["top_scalar"] = rand_scalar(rng)
    return doc


def rand_batch(seed: int, n: int):
    rng = random.Random(seed)
    return [(f"key{i:05d}", rand_payload(rng, i)) for i in range(n)]


def roundtrip(records, entries=None):
    """Encode ``records`` as one frame and decode it back."""
    return decode_frame_v3(encode_frame_v3(records, entries)[0])


class TestBlockCodec:
    @pytest.mark.parametrize("seed", [1, 7, 42, 2026])
    def test_roundtrip_is_canonically_identical(self, seed):
        batch = rand_batch(seed, 50)
        decoded, entries = roundtrip(batch)
        assert [k for k, _ in decoded] == [k for k, _ in batch]
        for (_, original), (_, back) in zip(batch, decoded):
            assert canon(original) == canon(back)
        assert entries == [None] * len(batch)

    def test_int_float_distinction_survives(self):
        payload = {"metrics": {"i": 3, "f": 3.0, "nz": -0.0},
                   "series": {"mixed": [1, 2.0, -3, 0.5]}}
        (_, back), = roundtrip([("k", payload)])[0]
        assert canon(payload) == canon(back)
        assert isinstance(back["metrics"]["i"], int)
        assert isinstance(back["metrics"]["f"], float)
        assert [type(v) for v in back["series"]["mixed"]] == \
            [int, float, int, float]

    def test_entries_travel_with_records(self):
        batch = rand_batch(3, 4)
        entries = [{"label": f"l{i}", "origin": "shard-1/2"} if i % 2
                   else None for i in range(4)]
        _, back = roundtrip(batch, entries)
        assert back == entries


class TestRoundTrip:
    def test_put_get_is_byte_identical(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        batch = rand_batch(11, 60)
        for key, payload in batch[:30]:
            store.put(key, payload)
        store.put_many(batch[30:])
        for key, payload in batch:
            assert canon(store.get(key)) == canon(payload)

    def test_reopen_rebuilds_index_from_segment(self, tmp_path):
        batch = rand_batch(13, 40)
        ColumnarStore(str(tmp_path)).put_many(batch)
        reopened = ColumnarStore(str(tmp_path))
        assert reopened.keys() == sorted(k for k, _ in batch)
        for key, payload in batch:
            assert canon(reopened.get(key)) == canon(payload)

    def test_get_returns_an_isolated_copy(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        payload = {"schema": SCHEMA_VERSION, "metrics": {"a": 1},
                   "extra": {}}
        store.put("k", payload)
        store.get("k")["metrics"]["a"] = 999
        assert store.get("k")["metrics"]["a"] == 1

    def test_merge_is_idempotent_and_identical(self, tmp_path):
        batch = rand_batch(17, 25)
        src = ColumnarStore(str(tmp_path / "src"))
        src.put_many(batch)
        dest = ColumnarStore(str(tmp_path / "dest"))
        assert sorted(dest.merge_from(src)) == sorted(k for k, _ in batch)
        assert dest.merge_from(src) == []
        for key, payload in batch:
            assert canon(dest.get(key)) == canon(payload)

    def test_merge_chain_round_trips(self, tmp_path):
        """Two stores merged into a third, the third merged into a
        fresh fourth and back into one source: every hop copies only
        what the destination lacks and every read stays identical."""
        batch = rand_batch(19, 10)
        first = ColumnarStore(str(tmp_path / "a"))
        first.put_many(batch[:5])
        second = ColumnarStore(str(tmp_path / "b"))
        second.put_many(batch[5:])
        merged = ColumnarStore(str(tmp_path / "m"))
        assert len(merged.merge_from(first)) == 5
        assert len(merged.merge_from(second)) == 5
        copy = ColumnarStore(str(tmp_path / "copy"))
        assert len(copy.merge_from(merged)) == 10
        assert sorted(first.merge_from(merged)) == \
            sorted(k for k, _ in batch[5:])
        for store in (copy, first):
            assert store.keys() == sorted(k for k, _ in batch)
            for key, payload in batch:
                assert canon(store.get(key)) == canon(payload)
            assert store.verify()["ok"]

    def test_compact_preserves_reads(self, tmp_path):
        batch = rand_batch(23, 50)
        store = ColumnarStore(str(tmp_path))
        for key, payload in batch:  # one frame per record
            store.put(key, payload)
        stats = store.compact()
        assert stats["records_written"] == 50
        assert stats["after"]["blocks"] == 1
        reopened = ColumnarStore(str(tmp_path))
        for key, payload in batch:
            assert canon(reopened.get(key)) == canon(payload)
        assert reopened.verify()["ok"]


class TestForeignFiles:
    """The segment is the only thing a store reads: per-artifact
    ``<key>.json`` files left by the retired JSON store, or any other
    file in the directory, are never served and never touched."""

    def seed_leftovers(self, tmp_path, n=4):
        batch = rand_batch(29, n)
        for key, payload in batch:
            with open(os.path.join(str(tmp_path), f"{key}.json"),
                      "w") as fh:
                json.dump(payload, fh)
        return batch

    def listing(self, tmp_path):
        return {name: (tmp_path / name).read_bytes()
                for name in os.listdir(str(tmp_path))
                if name.endswith(".json") and name != "manifest.json"}

    def test_stray_json_artifact_is_not_served(self, tmp_path):
        batch = self.seed_leftovers(tmp_path)
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == [] and len(store) == 0
        for key, _payload in batch:
            assert store.get(key) is None
        assert store.manifest() == {}

    def test_stray_json_does_not_shadow_a_record(self, tmp_path):
        batch = self.seed_leftovers(tmp_path, n=1)
        key = batch[0][0]
        record = rand_payload(random.Random(31), 31)
        ColumnarStore(str(tmp_path)).put(key, record)
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == [key]
        assert canon(store.get(key)) == canon(record)

    def test_compact_leaves_foreign_files_untouched(self, tmp_path):
        self.seed_leftovers(tmp_path)
        before = self.listing(tmp_path)
        records = rand_batch(37, 6)
        store = ColumnarStore(str(tmp_path))
        store.put_many(records)
        stats = store.compact()
        assert stats["records_written"] == len(records)
        assert self.listing(tmp_path) == before
        assert ColumnarStore(str(tmp_path)).keys() == \
            sorted(k for k, _ in records)

    def test_prune_leaves_foreign_files_untouched(self, tmp_path):
        self.seed_leftovers(tmp_path)
        before = self.listing(tmp_path)
        records = rand_batch(41, 6)
        store = ColumnarStore(str(tmp_path))
        store.put_many(records)
        keep = sorted(k for k, _ in records)[:2]
        assert len(store.prune(keep=keep)) == 4
        assert self.listing(tmp_path) == before
        assert ColumnarStore(str(tmp_path)).keys() == keep

    def test_legacy_artifacts_are_recomputed(self, tmp_path):
        """A sweep over a directory holding only JSON-store artifacts
        of its own tasks executes every task and caches it in the
        segment."""
        tasks = [make_model_task("footprint", seed=1, buffer_size=b)
                 for b in (1, 4)]
        reference = run_sweep(tasks, store=ColumnarStore(
            str(tmp_path / "reference")))
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for result in reference:
            (legacy / f"{result.key}.json").write_text(
                canon(execute_task(result.task)))
        store = ColumnarStore(str(legacy))
        again = run_sweep(tasks, store=store)
        assert again.executed == 2 and again.cached == 0
        assert (legacy / ColumnarStore.SEGMENT).is_file()
        assert ColumnarStore(str(legacy)).keys() == \
            sorted(r.key for r in reference)


class TestRecovery:
    def two_frame_store(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        first, second = rand_batch(37, 6)[:3], rand_batch(41, 6)[3:]
        store.put_many(first)
        size_after_first = os.path.getsize(
            os.path.join(str(tmp_path), ColumnarStore.SEGMENT))
        store.put_many(second)
        size_full = os.path.getsize(
            os.path.join(str(tmp_path), ColumnarStore.SEGMENT))
        return store, first, second, size_after_first, size_full

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_truncated_final_block_recovers(self, tmp_path, seed):
        """Index rebuild after a crash mid-append: everything before
        the torn block survives, verify flags the tail, and the next
        append truncates it away (property over random cut points)."""
        _store, first, second, s1, s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        cut = random.Random(seed).randrange(s1 + 1, s2)
        with open(seg, "r+b") as fh:
            fh.truncate(cut)
        reopened = ColumnarStore(str(tmp_path))
        assert reopened.keys() == sorted(k for k, _ in first)
        for key, payload in first:
            assert canon(reopened.get(key)) == canon(payload)
        report = reopened.verify()
        assert not report["ok"] and report["truncated_tail_bytes"] > 0
        # the next write heals the file
        heal_key, heal_payload = rand_batch(43, 1)[0]
        reopened.put(heal_key, heal_payload)
        healed = ColumnarStore(str(tmp_path))
        assert healed.verify()["ok"]
        assert canon(healed.get(heal_key)) == canon(heal_payload)

    def test_corrupt_crc_detected(self, tmp_path):
        _store, first, _second, s1, _s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "r+b") as fh:  # flip a byte inside frame 2
            fh.seek(s1 + 20)
            byte = fh.read(1)
            fh.seek(s1 + 20)
            fh.write(bytes([byte[0] ^ 0xFF]))
        reopened = ColumnarStore(str(tmp_path))
        # scan stops at the corrupt frame; frame 1 still serves
        assert set(reopened.keys()) == {k for k, _ in first}
        assert not reopened.verify()["ok"]
        # the statistics surface must not hide the corruption
        assert reopened.stats()["tail_dirty"]

    def test_torn_file_header_heals_on_next_write(self, tmp_path):
        """Regression (code review): a crash during the very first
        append can leave a partial file magic; the next write must
        truncate to offset 0 and re-create the header, not append
        valid-but-unreachable frames after the garbage."""
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg, "wb") as fh:
            fh.write(b"REP")  # torn mid-magic
        store = ColumnarStore(str(tmp_path))
        key, payload = rand_batch(53, 1)[0]
        store.put(key, payload)
        reopened = ColumnarStore(str(tmp_path))
        assert canon(reopened.get(key)) == canon(payload)
        assert reopened.verify()["ok"]

    def test_mid_file_magic_marker_is_skipped(self, tmp_path):
        """Regression (code review): two processes racing the first
        append can each prepend the file magic; a mid-file magic must
        read as an 8-byte skip, not brick every later frame."""
        batch = rand_batch(59, 2)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg, "wb") as fh:  # the raced interleaving
            for record in batch:
                fh.write(FILE_MAGIC_V3 +
                         encode_frame_v3([record], [None])[0])
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == sorted(k for k, _ in batch)
        for key, payload in batch:
            assert canon(store.get(key)) == canon(payload)
        assert store.verify()["ok"]

    def test_stale_tail_flag_does_not_truncate_external_heal(
            self, tmp_path):
        """Regression (code review): A sees a torn tail; B heals it
        and appends; A's next write must re-validate instead of
        truncating B's committed frames on the stale flag."""
        _store, first, _second, s1, _s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "r+b") as fh:
            fh.truncate(s1 + 5)  # torn second frame
        a = ColumnarStore(str(tmp_path))
        assert a.keys() == sorted(k for k, _ in first)  # tail flagged
        healer_payload = dict(rand_payload(random.Random(61), 61),
                              key="healer-key")
        b = ColumnarStore(str(tmp_path))
        b.put("healer-key", healer_payload)  # B truncates + appends
        a_payload = dict(rand_payload(random.Random(67), 67),
                         key="writer-key")
        a.put("writer-key", a_payload)  # must NOT destroy B's record
        final = ColumnarStore(str(tmp_path))
        assert canon(final.get("healer-key")) == canon(healer_payload)
        assert canon(final.get("writer-key")) == canon(a_payload)
        assert final.verify()["ok"]

    def test_stale_tail_survives_external_compact_rewrite(
            self, tmp_path):
        """Regression (code review): compact can *replace* the segment
        with a larger file (another writer appended first), so a reader
        whose scan offset predates the rewrite lands mid-frame; its
        next write must re-validate from offset 0, not truncate the
        compacted file at the stale offset."""
        _store, first, _second, s1, _s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "r+b") as fh:
            fh.truncate(s1 + 5)  # torn second frame
        a = ColumnarStore(str(tmp_path))
        assert sorted(a.keys()) > []  # a has scanned: tail flagged
        # b heals the tail, appends, and compacts to a larger file
        extra_batch = [(f"extra{i:03d}",
                        dict(payload, key=f"extra{i:03d}"))
                       for i, (_k, payload)
                       in enumerate(rand_batch(73, 8))]
        b = ColumnarStore(str(tmp_path))
        b.put_many(extra_batch)
        b.compact()
        assert os.path.getsize(seg) > s1 + 5  # the rewrite grew it
        a_payload = dict(rand_payload(random.Random(79), 79),
                         key="post-key")
        a.put("post-key", a_payload)
        final = ColumnarStore(str(tmp_path))
        for key, _payload in first:
            assert final.get(key) is not None  # compacted records live
        for key, payload in extra_batch:
            assert canon(final._read_raw(key)) == canon(payload)
        assert canon(final.get("post-key")) == canon(a_payload)
        assert final.verify()["ok"]

    def test_block_cache_is_bounded(self, tmp_path):
        """Regression (code review): the decoded-payload cache is an
        LRU, not the whole store resident forever."""
        from repro.harness.store import BLOCK_CACHE_BLOCKS
        store = ColumnarStore(str(tmp_path))
        batch = rand_batch(71, BLOCK_CACHE_BLOCKS + 20)
        for key, payload in batch:  # one block per record
            store.put(key, payload)
        assert len(store._blocks) <= BLOCK_CACHE_BLOCKS
        reopened = ColumnarStore(str(tmp_path))
        for key, payload in batch:  # evicted blocks re-load from disk
            assert canon(reopened.get(key)) == canon(payload)
        assert len(reopened._blocks) <= BLOCK_CACHE_BLOCKS

    def test_non_segment_file_is_tolerated(self, tmp_path):
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg, "wb") as fh:
            fh.write(b"this is not a segment file at all")
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == []
        assert not store.verify()["ok"]


class TestMaintenance:
    def test_duplicate_records_latest_wins(self, tmp_path):
        store = ColumnarStore(str(tmp_path), fresh=True)
        old = {"schema": SCHEMA_VERSION, "metrics": {"v": 1}, "extra": {}}
        new = {"schema": SCHEMA_VERSION, "metrics": {"v": 2}, "extra": {}}
        store.put("k", old)
        store.put("k", new)
        assert store._read("k")["metrics"]["v"] == 2
        report = store.verify()
        assert report["duplicate_records"] == 1
        store.compact()
        assert store.verify()["duplicate_records"] == 0
        assert store._read("k")["metrics"]["v"] == 2

    def test_fresh_store_misses_but_persists(self, tmp_path):
        store = ColumnarStore(str(tmp_path), fresh=True)
        payload = {"schema": SCHEMA_VERSION, "metrics": {}, "extra": {}}
        store.put("k", payload)
        assert store.get("k") is None
        assert ColumnarStore(str(tmp_path)).get("k") is not None

    def test_prune_keep_set_rewrites_segment(self, tmp_path):
        batch = rand_batch(47, 10)
        store = ColumnarStore(str(tmp_path))
        store.put_many(batch)
        keep = sorted(k for k, _ in batch)[:4]
        removed = store.prune(keep=keep)
        assert sorted(removed) == sorted(k for k, _ in batch
                                         if k not in keep)
        reopened = ColumnarStore(str(tmp_path))
        assert reopened.keys() == keep
        assert reopened.verify()["ok"]

    def test_prune_stale_sim_and_schema(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        live = {"schema": SCHEMA_VERSION, "sim": simulator_version(),
                "metrics": {}, "extra": {}}
        stale_sim = {"schema": SCHEMA_VERSION, "sim": "0" * 16,
                     "metrics": {}, "extra": {}}
        stale_schema = {"schema": 1, "sim": simulator_version(),
                        "metrics": {}, "extra": {}}
        store.put_many([("live", live), ("oldsim", stale_sim),
                        ("oldschema", stale_schema)])
        assert sorted(store.prune()) == ["oldschema", "oldsim"]
        assert ColumnarStore(str(tmp_path)).keys() == ["live"]

    def test_prune_drops_orphaned_manifest_entries(self, tmp_path):
        """Regression: read-repair synthesizes entries for artifacts
        missing from the index, but an entry whose artifact vanished
        used to survive prune() unless something else was removed in
        the same call."""
        store = ColumnarStore(str(tmp_path))
        live = {"schema": SCHEMA_VERSION, "sim": simulator_version(),
                "metrics": {}, "extra": {}}
        store.put("live", live)
        store.repair_manifest()
        # orphan an entry by hand: the artifact is gone, the entry stays
        manifest = store._read_index()
        manifest["ghost"] = {"label": "gone", "seed": 1,
                             "schema": SCHEMA_VERSION,
                             "sim": simulator_version(),
                             "written_at": 0.0}
        store._write_json(os.path.join(str(tmp_path), store.MANIFEST),
                          manifest)
        assert store.prune() == []          # nothing stale on disk...
        assert "ghost" not in store._read_index()  # ...orphan dropped
        assert "live" in store._read_index()

    def test_manifest_read_repairs_missing_entries(self, tmp_path):
        """The reverse direction: an artifact ``manifest.json`` never
        heard of still gets its entry on read (pinned here beside its
        counterpart)."""
        store = ColumnarStore(str(tmp_path))
        store.put("k", {"schema": SCHEMA_VERSION,
                        "sim": simulator_version(),
                        "task": {"label": "l", "seed": 3},
                        "metrics": {}, "extra": {}})
        os.remove(os.path.join(str(tmp_path), store.MANIFEST)) \
            if os.path.exists(os.path.join(str(tmp_path),
                                           store.MANIFEST)) else None
        manifest = store.manifest()
        assert manifest["k"]["label"] == "l"
        assert manifest["k"]["seed"] == 3


class TestOpenStore:
    def test_default_is_columnar(self, tmp_path):
        assert isinstance(open_store(str(tmp_path)), ColumnarStore)

    @pytest.mark.parametrize("value", ["json", "v2", "parquet"])
    def test_stale_store_env_is_ignored(self, tmp_path, monkeypatch,
                                        value):
        """``$REPRO_STORE`` no longer selects anything: a value left in
        an old environment neither fails nor changes the format."""
        monkeypatch.setenv("REPRO_STORE", value)
        store = open_store(str(tmp_path))
        assert type(store) is ColumnarStore
        store.put("k", {"schema": SCHEMA_VERSION, "metrics": {},
                        "extra": {}})
        assert os.listdir(str(tmp_path)) == [ColumnarStore.SEGMENT]

    def test_kwargs_pass_through(self, tmp_path):
        store = open_store(str(tmp_path), origin="shard-1/4", fresh=True)
        assert store.origin == "shard-1/4" and store.fresh


class TestSweepOnStore:
    def tasks(self):
        return [make_model_task("footprint", seed=1, buffer_size=b)
                for b in (1, 4, 8)]

    def test_run_sweep_persists_and_caches(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        first = run_sweep(self.tasks(), store=store)
        assert first.executed == 3
        again = run_sweep(self.tasks(), store=ColumnarStore(str(tmp_path)))
        assert again.executed == 0 and again.cached == 3
        assert {r.key: canon((r.metrics, r.extra)) for r in first} == \
            {r.key: canon((r.metrics, r.extra)) for r in again}

    def test_payloads_match_executor_output(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        results = run_sweep(self.tasks(), store=store)
        assert store.keys() == sorted(r.key for r in results)
        for result in results:
            assert canon(store.get(result.key)) == \
                canon(execute_task(result.task))
