"""Concurrent-writer hammers for saved record lists and the record store.

These are the regression tests for the fixed-name ``.tmp`` race: before
the :mod:`repro.util.atomic` helper, every ``save_records`` call staged
its payload at the *same* sibling path (``grid.json.tmp``), so two
concurrent writers clobbered each other's staging file and the loser's
``os.replace`` died with ``FileNotFoundError`` — or worse, published
the other writer's half-written bytes.  With unique ``mkstemp`` staging
the hammer must finish with zero failures and one complete, loadable
payload.

The hammers use real processes (not threads): the bug is a filesystem
race, and process-level parallelism is what a shared store sees in
production (several service processes on one directory).
"""

import json
import multiprocessing

import pytest

from repro.experiments.keys import plan_key
from repro.experiments.runner import GridRecord, plan_grid, run_divisible
from repro.experiments.store import load_records, record_to_dict, save_records
from repro.serve.store import RecordStore

N_PROCS = 8
N_ITERS = 10
#: The one key every hammer process puts: a real cell key.
_KEY = plan_key(plan_grid(["GP-DK"], [200], [4])[0])


def _make_record(seed: int = 3) -> GridRecord:
    metrics = run_divisible("GP-DK", 200, 4, seed=seed)
    return GridRecord(metrics.scheme, 4, 200, metrics)


def _store_writer(path, barrier, failures):
    """One hammer process: save the same payload to ``path`` N times."""
    record = _make_record()
    barrier.wait()
    for _ in range(N_ITERS):
        try:
            save_records([record], path)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.put(f"{type(exc).__name__}: {exc}")


def _record_store_writer(path, barrier, failures):
    """One hammer process: open the same record store, put one key."""
    record = _make_record()
    key = _KEY
    barrier.wait()
    for _ in range(N_ITERS):
        try:
            RecordStore(path).put(key, record)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.put(f"{type(exc).__name__}: {exc}")


def _drain(queue):
    out = []
    while not queue.empty():
        out.append(queue.get())
    return out


def _hammer(target, path):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(N_PROCS)
    failures = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(path, barrier, failures))
        for _ in range(N_PROCS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0, f"hammer process died with {p.exitcode}"
    return _drain(failures)


@pytest.mark.slow
class TestConcurrentSaveRecords:
    def test_parallel_writers_one_path(self, tmp_path):
        """8 processes x 10 saves to one store path: zero failures, and
        the surviving file is one complete, loadable payload.

        Pre-fix this reliably raised ``FileNotFoundError`` from the
        loser's ``os.replace`` on the stolen fixed-name temp file.
        """
        path = tmp_path / "grid.json"
        failures = _hammer(_store_writer, path)
        assert failures == []
        loaded = load_records(path)
        assert len(loaded) == 1
        assert loaded[0].scheme == "GP-DK"
        # No staging debris left behind by 80 writes.
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "grid.json"]
        assert leftovers == []

    def test_survivor_is_valid_json(self, tmp_path):
        path = tmp_path / "grid.json"
        assert _hammer(_store_writer, path) == []
        payload = json.loads(path.read_text())
        assert payload["records"], "survivor payload must be complete"


@pytest.mark.slow
class TestConcurrentStorePut:
    def test_parallel_puts_one_key(self, tmp_path):
        """8 processes racing to create one store and put the same cell
        (the shard directory included): no failures, one complete
        record, no staging debris."""
        root = tmp_path / "cells"
        failures = _hammer(_record_store_writer, root)
        assert failures == []
        store = RecordStore(root)
        key = _KEY
        assert store.keys() == [key]
        assert record_to_dict(store.get(key)) == record_to_dict(_make_record())
        assert [p.name for p in store.path_for(key).parent.iterdir()] == [
            f"{key}.json"
        ]
