"""The columnar store at campaign scale: 5k tasks, per-task + chunked.

What the JSON store could never promise: a 5000-task campaign through
the **serial** backend costs 5000 segment appends and *zero* manifest
rewrites (entries ride the frames), and the same payloads written
through **chunked** ``put_many`` calls cost one frame per call.  Both
stores must stay equivalence-suite identical — byte-identical payload
reads for every key — and a re-run must be fully cached.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.backends import SerialBackend
from repro.harness.backends.base import task_stats
from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    execute_task,
    make_model_task,
    run_sweep,
    task_key,
)

N_TASKS = 5000

#: ``put_many`` calls the chunked store is written with
N_CHUNKS = 8


def grid():
    """5k distinct analytic-model tasks (microseconds each): the
    synthetic campaign — store overhead dominates, simulation noise
    does not."""
    return [make_model_task("footprint", seed=i, buffer_size=8)
            for i in range(N_TASKS)]


class CountingStore(ColumnarStore):
    """A v2 store that counts its own I/O."""

    def __init__(self, root: str, **kwargs) -> None:
        super().__init__(root, **kwargs)
        self.frame_appends = 0
        self.manifest_writes = 0

    def _append_frame(self, records, entries):
        self.frame_appends += 1
        super()._append_frame(records, entries)

    def _write_json(self, path, doc):
        if os.path.basename(path) == self.MANIFEST:
            self.manifest_writes += 1
        super()._write_json(path, doc)


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    store = CountingStore(str(tmp_path_factory.mktemp("serial")))
    results = run_sweep(grid(), store=store, backend=SerialBackend())
    return store, results


@pytest.fixture(scope="module")
def chunked_store(tmp_path_factory):
    """The grid's payloads written in ``N_CHUNKS`` ``put_many`` calls."""
    store = CountingStore(str(tmp_path_factory.mktemp("chunked")))
    items = [(task_key(t), execute_task(t)) for t in grid()]
    size = -(-N_TASKS // N_CHUNKS)
    for start in range(0, N_TASKS, size):
        chunk = items[start:start + size]
        store.put_many(chunk, stats={key: task_stats(payload, 0.0)
                                     for key, payload in chunk})
    return store, items


class TestStress5k:
    def test_every_task_lands(self, serial_store, chunked_store):
        _store, results = serial_store
        assert len(results) == N_TASKS
        assert results.executed == N_TASKS
        store, items = chunked_store
        assert len(items) == N_TASKS
        assert len(store.keys()) == N_TASKS

    def test_equivalence_suite_byte_identity(self, serial_store,
                                             chunked_store):
        a, _ = serial_store
        b, _ = chunked_store
        keys = a.keys()
        assert keys == b.keys() and len(keys) == N_TASKS
        for key in keys:
            assert json.dumps(a.get(key), sort_keys=True) == \
                json.dumps(b.get(key), sort_keys=True)

    def test_store_io_counts(self, serial_store, chunked_store):
        serial, _ = serial_store
        chunked, _ = chunked_store
        # serial: one append per task, but NO quadratic manifest churn
        assert serial.frame_appends == N_TASKS
        assert serial.manifest_writes == 0
        # chunked: one frame per put_many call, no manifest writes
        assert chunked.frame_appends == N_CHUNKS
        assert chunked.manifest_writes == 0
        # the on-disk frame structure matches what we counted
        assert chunked.verify()["blocks"] == chunked.frame_appends

    def test_rerun_is_fully_cached(self, chunked_store):
        store, _ = chunked_store
        again = run_sweep(grid(), store=ColumnarStore(store.root),
                          backend=SerialBackend())
        assert again.executed == 0 and again.cached == N_TASKS

    def test_compact_collapses_serial_frames(self, serial_store):
        store, _ = serial_store
        stats = store.compact()
        assert stats["records_written"] == N_TASKS
        # 5000 one-record frames become ceil(5000/512) blocks and the
        # file shrinks (per-frame overhead + better compression)
        assert stats["after"]["blocks"] == -(-N_TASKS // 512)
        assert stats["after"]["bytes"] < stats["before"]["bytes"]
        reopened = ColumnarStore(store.root)
        assert len(reopened.keys()) == N_TASKS
        assert reopened.verify()["ok"]

    def test_manifest_materializes_on_demand(self, chunked_store):
        store, _ = chunked_store
        assert not os.path.exists(os.path.join(store.root,
                                               store.MANIFEST))
        manifest = store.repair_manifest()
        assert len(manifest) == N_TASKS
        assert os.path.exists(os.path.join(store.root, store.MANIFEST))
