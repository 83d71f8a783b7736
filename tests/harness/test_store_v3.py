"""Store v3: codec properties, mmap, locking, scheduling.

The acceptance bar: the v3 segment format round-trips canonically
byte-identical payloads (dictionary sentinels, ``-0.0``, scaled
decimals and full-precision floats included), decodes only frame
metas on a cold open, heals torn tails, refuses (and then replaces)
segments of older formats instead of misreading them, remaps its mmap
view across appends, holds an advisory lock on appends (with a
lockless fallback), and the wall-time-driven scheduler stays a pure,
stable, fail-soft reordering.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import struct

import pytest

from repro.harness.backends.schedule import (
    longest_first,
    wall_time_history,
)
import repro.harness.store as store_mod
from repro.harness.store import (
    FILE_MAGIC_V3,
    LOCK_ENV,
    MMAP_ENV,
    ColumnarStore,
    _compress_v3,
    _decompress_v3,
    _dict_pack,
    _dict_unpack,
    _hex_key_blob,
    _meta_keys,
    _pack_array_v3,
    _read_uvarint,
    _unpack_array_v3,
    _unzigzag,
    _uvarint,
    _zigzag,
    decode_frame_v3,
    encode_frame_v3,
)
from repro.harness.sweep import SCHEMA_VERSION

from helpers import V2_SEGMENT


def canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def batch(n: int, start: int = 0):
    """Deterministic payloads exercising every v3 column encoding."""
    out = []
    for i in range(start, start + n):
        key = f"{i:024x}"
        out.append((key, {
            "schema": SCHEMA_VERSION, "sim": "b" * 16, "key": key,
            "task": {"label": f"fig/{'reps' if i % 2 else 'ops'}",
                     "seed": i},
            "metrics": {
                "makespan_us": 1000.0 + i,        # scaled decimal
                "flows": 8, "drops": 0,            # varint ints
                "good_gbps": 1.0 / (i + 3),        # full-precision
                "fcts": [100.25 + j for j in range(6)],   # scaled arr
                "pkts": [i * 10 + j for j in range(6)],   # int arr
                "raw": [1.0 / (j + i + 2) for j in range(6)],  # split
            },
        }))
    return out


# ----------------------------------------------------------------------
# codec properties
# ----------------------------------------------------------------------
class TestV3Codec:
    @pytest.mark.parametrize("seed", [3, 11, 2026])
    def test_frame_roundtrip_is_canonical(self, seed):
        rng = random.Random(seed)
        records = batch(40)
        rng.shuffle(records)
        entries = [{"label": p["task"]["label"], "wall_s": 0.25,
                    "bytes": 10} for _, p in records]
        frame, _info = encode_frame_v3(records, entries)
        back, back_entries = decode_frame_v3(frame)
        assert [k for k, _ in back] == [k for k, _ in records]
        for (_, orig), (_, dec) in zip(records, back):
            assert canon(orig) == canon(dec)
        assert back_entries == entries

    def test_dict_sentinels_escape_adversarial_strings(self):
        # payload strings colliding with the \x00r/\x00e sentinels
        # must survive the dictionary substitution byte-identically
        evil = ["\x00r", "\x00e", "\x00r0", "\x00e\x00r", "plain",
                "plain", "plain"]
        payload = {"key": "f" * 24, "metrics": {"names": evil,
                                                "alias": "plain"}}
        frame, _ = encode_frame_v3([("f" * 24, payload)])
        (_, back), = decode_frame_v3(frame)[0]
        assert canon(back) == canon(payload)

    def test_dict_pack_unpack_inverse(self):
        table = ["alpha", "beta"]
        index = {name: i for i, name in enumerate(table)}
        doc = {"a": "alpha", "b": ["beta", "gamma", "\x00r"],
               "c": {"d": "alpha"}}
        packed = _dict_pack(doc, index)
        assert _dict_unpack(packed, table) == doc

    def test_negative_zero_is_preserved(self):
        payload = {"key": "e" * 24,
                   "metrics": {"z": -0.0, "arr": [-0.0, 1.5, 2.5],
                               "mix": [0.0, -0.0]}}
        frame, _ = encode_frame_v3([("e" * 24, payload)])
        (_, back), = decode_frame_v3(frame)[0]
        assert canon(back) == canon(payload)  # "-0.0" stays "-0.0"

    @pytest.mark.parametrize("seed", [5, 17])
    def test_array_codec_roundtrip(self, seed):
        rng = random.Random(seed)
        cases = [
            [rng.randint(-10**9, 10**9) for _ in range(50)],
            [round(rng.uniform(0, 5000), 5) for _ in range(50)],
            [rng.uniform(-1e9, 1e9) for _ in range(50)],
            [rng.choice([1, 2.5, -7, 0.125]) for _ in range(30)],
            [], [0], [-0.25],
        ]
        for elems in cases:
            buf = bytearray()
            _pack_array_v3(buf, elems)
            back, off = _unpack_array_v3(bytes(buf), 0)
            assert off == len(buf)
            assert canon(back) == canon(elems)

    def test_uvarint_and_zigzag_roundtrip(self):
        rng = random.Random(29)
        values = [0, 1, 127, 128, 2**32, 2**63 - 1] + \
            [rng.randint(0, 2**62) for _ in range(200)]
        buf = bytearray()
        for v in values:
            _uvarint(buf, v)
        off = 0
        for v in values:
            got, off = _read_uvarint(bytes(buf), off)
            assert got == v
        assert off == len(buf)
        for v in [0, 1, -1, 2**40, -(2**40)]:
            assert _unzigzag(_zigzag(v)) == v

    def test_hex_key_blob_roundtrip_and_rejection(self):
        keys = [f"{i:024x}" for i in range(32)]
        klen, blob = _hex_key_blob(keys)
        assert klen == 24 and len(blob) == 32 * 12
        import base64
        meta = {"kx": [klen, base64.b64encode(blob).decode()], "t": []}
        assert _meta_keys(len(keys), meta) == keys
        assert _hex_key_blob(["not-hex!"]) is None
        assert _hex_key_blob(["ab", "abcd"]) is None  # ragged lengths
        assert _hex_key_blob(["AB" * 12]) is None     # not canonical

    def test_adaptive_compression_is_self_describing(self):
        for raw in (b"", b"x", b"abc" * 5000, os.urandom(256)):
            assert _decompress_v3(_compress_v3(raw)) == raw


# ----------------------------------------------------------------------
# mmap view lifecycle
# ----------------------------------------------------------------------
class TestMmapView:
    def test_view_remaps_after_append(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        store.put_many(batch(8))
        assert store.get(f"{0:024x}") is not None
        first_len = store._view_len
        store.put_many(batch(8, start=8))
        assert store.get(f"{12:024x}") is not None
        if store._view is not None:  # mmap platform
            assert store._view_len > first_len > 0

    def test_disabled_mmap_reads_same_bytes(self, tmp_path,
                                            monkeypatch):
        root = str(tmp_path)
        ColumnarStore(root).put_many(batch(10))
        warm = {k: canon(ColumnarStore(root).get(k))
                for k, _ in batch(10)}
        monkeypatch.setenv(MMAP_ENV, "0")
        cold = ColumnarStore(root)
        assert cold._view is None or cold._view_len == 0
        for key, payload in batch(10):
            assert canon(cold.get(key)) == warm[key] == canon(payload)


# ----------------------------------------------------------------------
# cold opens, torn tails and older segment formats
# ----------------------------------------------------------------------
class TestColdOpen:
    def test_cold_manifest_decodes_meta_sections_only(self, tmp_path,
                                                      monkeypatch):
        """A cold open + ``manifest()`` decompresses exactly one meta
        section per frame — no body or array section."""
        root = str(tmp_path)
        frames = 5
        store = ColumnarStore(root)
        for k in range(frames):  # every frame carries array columns
            store.put_many(batch(4, start=4 * k))
        calls = []
        real = store_mod._decompress_v3

        def counting(buf):
            calls.append(len(buf))
            return real(buf)
        monkeypatch.setattr(store_mod, "_decompress_v3", counting)
        manifest = ColumnarStore(root).manifest()
        assert len(manifest) == 4 * frames
        assert len(calls) == frames


class TestTornTailAndOldFormats:
    def test_v3_torn_tail_self_heals(self, tmp_path):
        root = str(tmp_path)
        store = ColumnarStore(root)
        store.put_many(batch(6))
        store.put_many(batch(6, start=6))          # second frame
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        size = os.path.getsize(seg)
        with open(seg, "r+b") as fh:               # tear frame two
            fh.truncate(size - 11)
        torn = ColumnarStore(root)
        assert len(torn) == 6                      # prefix still served
        assert canon(torn.get(f"{3:024x}")) == canon(batch(6)[3][1])
        torn.put(f"{99:024x}", dict(batch(1)[0][1], key=f"{99:024x}"))
        healed = ColumnarStore(root)
        assert len(healed) == 7
        assert healed.verify()["ok"]

    def test_pre_v3_segment_is_refused_then_replaced(self, tmp_path):
        root = str(tmp_path)
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        store = self.pre_v3_store(tmp_path)
        assert store.keys() == [] and store.get("ab" * 12) is None
        report = store.verify()
        assert not report["ok"]
        assert any("segment format 2" in e for e in report["errors"])
        assert not any("bad frame magic" in e for e in report["errors"])
        key, payload = batch(1)[0]
        store.put(key, payload)                    # replaces the file
        with open(seg, "rb") as fh:
            assert fh.read(len(FILE_MAGIC_V3)) == FILE_MAGIC_V3
        reopened = ColumnarStore(root)
        assert reopened.keys() == [key]
        assert canon(reopened.get(key)) == canon(payload)
        assert reopened.verify()["ok"]

    def pre_v3_store(self, tmp_path) -> ColumnarStore:
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(os.path.join(str(tmp_path), ColumnarStore.SEGMENT),
                  "wb") as fh:
            fh.write(V2_SEGMENT)
        return ColumnarStore(str(tmp_path))

    def test_pre_v3_segment_stats_flag_the_tail(self, tmp_path):
        stats = self.pre_v3_store(tmp_path).stats()
        assert stats["keys"] == 0 and stats["records"] == 0
        assert stats["tail_dirty"]
        assert stats["bytes"] == len(V2_SEGMENT)

    def test_pre_v3_segment_compacts_to_an_empty_v3_segment(
            self, tmp_path):
        stats = self.pre_v3_store(tmp_path).compact()
        assert stats["records_written"] == 0
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "rb") as fh:
            assert fh.read() == FILE_MAGIC_V3
        reopened = ColumnarStore(str(tmp_path))
        assert reopened.keys() == [] and reopened.verify()["ok"]

    def test_merging_a_pre_v3_store_copies_nothing(self, tmp_path):
        source = self.pre_v3_store(tmp_path / "old")
        dest = ColumnarStore(str(tmp_path / "dest"))
        dest.put_many(batch(2))
        assert dest.merge_from(source) == []
        assert len(ColumnarStore(str(tmp_path / "dest"))) == 2


# ----------------------------------------------------------------------
# advisory locking
# ----------------------------------------------------------------------
def _locked_append(args):
    root, i = args
    store = ColumnarStore(root)
    key = f"{i:024x}"
    store.put(key, {"schema": SCHEMA_VERSION, "sim": "b" * 16,
                    "key": key, "task": {"label": "lk"}, "i": i})
    return key


class TestAppendLocking:
    def test_concurrent_appends_all_survive(self, tmp_path):
        root = str(tmp_path)
        ColumnarStore(root).put_many(batch(2))
        with multiprocessing.Pool(4) as pool:
            keys = pool.map(_locked_append,
                            [(root, 100 + i) for i in range(12)])
        store = ColumnarStore(root)
        assert store.verify()["ok"]
        for key in keys:
            assert store.get(key)["i"] == int(key, 16)

    def test_lockless_fallback_still_appends(self, tmp_path,
                                             monkeypatch):
        import repro.harness.store as store_mod
        monkeypatch.setattr(store_mod, "fcntl", None)
        store = ColumnarStore(str(tmp_path))
        store.put_many(batch(4))
        assert len(ColumnarStore(str(tmp_path))) == 4

    def test_lock_env_disables_flock(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LOCK_ENV, "0")
        store = ColumnarStore(str(tmp_path))
        store.put_many(batch(4))
        assert not store._flock(0)                 # env wins
        assert len(ColumnarStore(str(tmp_path))) == 4


# ----------------------------------------------------------------------
# wall-time-driven scheduling
# ----------------------------------------------------------------------
class _FakeTask:
    def __init__(self, label):
        self.label = label


class _FakeStore:
    def __init__(self, entries):
        self._entries = entries

    def manifest(self):
        return self._entries


class _BrokenStore:
    def manifest(self):
        raise RuntimeError("no manifest for you")


def _pending(*labels):
    return [(f"k{i}", _FakeTask(label))
            for i, label in enumerate(labels)]


class TestSchedule:
    STORE = _FakeStore({
        "a1": {"label": "slow", "wall_s": 9.0},
        "a2": {"label": "slow", "wall_s": 11.0},
        "b1": {"label": "fast", "wall_s": 1.0},
        "c1": {"label": "untimed"},
    })

    def test_mean_wall_per_label(self):
        assert wall_time_history(self.STORE) == \
            {"slow": (10.0, 2), "fast": (1.0, 1)}

    def test_longest_expected_first_and_stable(self):
        pending = _pending("fast", "slow", "fast", "slow")
        ordered = longest_first(pending, self.STORE)
        assert [t.label for _, t in ordered] == \
            ["slow", "slow", "fast", "fast"]
        # stable: ties keep submission order; pure: same multiset
        assert [k for k, _ in ordered] == ["k1", "k3", "k0", "k2"]
        assert sorted(ordered) == sorted(pending)

    def test_unseen_label_gets_overall_mean(self):
        ordered = longest_first(
            _pending("fast", "novel", "slow"), self.STORE)
        # observation-weighted default (9+11+1)/3 = 7.0: novel slots
        # between slow and fast
        assert [t.label for _, t in ordered] == \
            ["slow", "novel", "fast"]

    def test_no_history_and_failures_keep_order(self):
        pending = _pending("b", "a")
        assert longest_first(pending, None) == pending
        assert longest_first(pending, _FakeStore({})) == pending
        assert longest_first(pending, _BrokenStore()) == pending
        assert wall_time_history(_BrokenStore()) == {}
