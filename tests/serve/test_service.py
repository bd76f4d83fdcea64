"""Service-core tests: cache discipline, identity, backpressure, errors.

The load-bearing assertions here are the acceptance criteria of the
serve layer: an identical re-submission is served from the store with
*zero* recomputation (proven by counters, not by timing), and a record
that came through the service is bit-identical to one computed by a
direct :func:`~repro.experiments.runner.run_grid` call.
"""

import json
import threading

import pytest

from repro.errors import (
    BadRequestError,
    JobNotFoundError,
    QueueFullError,
    RecordNotFoundError,
    RecordStoreError,
)
from repro.experiments.journal import cell_key
from repro.experiments.runner import run_divisible, run_grid, GridRecord
from repro.experiments.store import record_to_dict
from repro.obs.events import read_jsonl_events
from repro.serve import ExperimentService, RecordStore
from repro.serve.queue import Job, JobQueue
from repro.serve.schemas import parse_grid_request, parse_solve_request


@pytest.fixture()
def service(tmp_path):
    svc = ExperimentService(tmp_path / "serve", workers=2, max_pending=8)
    yield svc
    svc.close()


def _solve(scheme="GP-DK", total_work=300, n_pes=4, seed=1):
    return parse_solve_request(
        {"scheme": scheme, "total_work": total_work, "n_pes": n_pes, "seed": seed}
    )


def _grid(schemes=("GP-DK",), works=(200,), pes=(2, 4), base_seed=5):
    return parse_grid_request(
        {
            "schemes": list(schemes),
            "works": list(works),
            "pes": list(pes),
            "base_seed": base_seed,
        }
    )


class TestSolveCaching:
    def test_miss_then_hit(self, service):
        first = service.submit_solve(_solve())
        assert first["cache_hit"] is False
        done = service.wait(first["id"])
        assert done["status"] == "done"
        assert done["computed_cells"] == 1

        second = service.submit_solve(_solve())
        assert second["status"] == "done"
        assert second["cache_hit"] is True
        assert second["cached_cells"] == 1
        assert second["computed_cells"] == 0
        assert second["keys"] == first["keys"]

    def test_cache_counters(self, service):
        service.wait(service.submit_solve(_solve())["id"])
        service.submit_solve(_solve())
        counters = service.metrics()["counters"]
        assert counters["serve.cache{result=miss}"] == 1.0
        assert counters["serve.cache{result=hit}"] == 1.0

    def test_different_seed_is_a_different_cell(self, service):
        service.wait(service.submit_solve(_solve(seed=1))["id"])
        other = service.submit_solve(_solve(seed=2))
        assert other["cache_hit"] is False
        service.wait(other["id"])

    def test_cached_record_is_bit_identical_to_direct_run(self, service):
        """The record served from the store must match a direct
        run_divisible of the same cell, field for field, repr-float
        exact — the determinism contract the cache key stands on."""
        view = service.submit_solve(_solve())
        service.wait(view["id"])
        stored = service.record(view["keys"][0])["record"]

        metrics = run_divisible("GP-DK", 300, 4, seed=1)
        direct = GridRecord(metrics.scheme, 4, 300, metrics)
        assert stored == record_to_dict(direct, traces=False)


class TestGridCaching:
    def test_grid_then_full_hit(self, service):
        first = service.submit_grid(_grid())
        assert first["n_cells"] == 2
        done = service.wait(first["id"])
        assert done["computed_cells"] == 2

        second = service.submit_grid(_grid())
        assert second["status"] == "done"
        assert second["cache_hit"] is True
        assert second["cached_cells"] == 2
        assert second["computed_cells"] == 0

    def test_partial_hit_recomputes_only_missing_cells(self, service):
        service.wait(service.submit_grid(_grid(pes=(2, 4)))["id"])
        bigger = service.submit_grid(_grid(pes=(2, 4, 8)))
        done = service.wait(bigger["id"])
        assert done["cached_cells"] == 2
        assert done["computed_cells"] == 1
        # run_grid's own resume counter is the recompute-free proof:
        # seeded cells were skipped by the journal, not re-run.
        counters = service.metrics()["counters"]
        assert counters["grid.resumed_cells"] == 2.0

    def test_grid_records_identical_to_direct_run_grid(self, service):
        view = service.submit_grid(_grid(schemes=("GP-DK", "nGP-DP")))
        service.wait(view["id"])
        direct = run_grid(["GP-DK", "nGP-DP"], [200], [2, 4], base_seed=5)
        for key, record in zip(view["keys"], direct):
            stored = service.record(key)["record"]
            assert stored == record_to_dict(record, traces=False)

    def test_grid_and_solve_share_the_store(self, service):
        """A grid cell and a solve of the same (scheme, W, P, seed) have
        the same content address, so either one primes the other."""
        grid_view = service.submit_grid(_grid(pes=(4,), base_seed=5))
        service.wait(grid_view["id"])
        from repro.experiments.runner import cell_seed

        seed = cell_seed(5, 0)
        solve_view = service.submit_solve(
            _solve(total_work=200, n_pes=4, seed=seed)
        )
        assert solve_view["cache_hit"] is True
        assert solve_view["keys"] == grid_view["keys"]


class TestJobEvents:
    def test_lifecycle_stream(self, service):
        view = service.submit_solve(_solve())
        service.wait(view["id"])
        text = service.job_events(view["id"])
        events = [json.loads(line) for line in text.strip().splitlines()]
        statuses = [e["status"] for e in events if e["kind"] == "job"]
        assert statuses[0] == "queued"
        assert statuses[-1] == "finished"
        assert "started" in statuses
        # The scheduler's own per-cycle events stream into the same file.
        assert any(e["kind"] != "job" for e in events)

    def test_cache_hit_stream(self, service):
        service.wait(service.submit_solve(_solve())["id"])
        view = service.submit_solve(_solve())
        events = [
            json.loads(line)
            for line in service.job_events(view["id"]).strip().splitlines()
        ]
        assert [e["status"] for e in events] == ["cache-hit", "finished"]

    def test_round_trips_through_typed_reader(self, service, tmp_path):
        view = service.submit_solve(_solve())
        service.wait(view["id"])
        job = service.queue.get(view["id"])
        events = read_jsonl_events(job.events_path)
        assert any(type(e).__name__ == "JobEvent" for e in events)


def test_restarted_service_never_reuses_a_job_directory(tmp_path):
    """Job ids restart with the process, job artifacts do not: a second
    service over the same root used to hand out ``job-000001`` again,
    append to the first incarnation's event stream and reopen its stale
    journal."""
    root = tmp_path / "serve"
    views = []
    for seed in (1, 2):  # two distinct misses, one per incarnation
        svc = ExperimentService(root, workers=1, max_pending=4)
        try:
            view = svc.submit_grid(_grid(base_seed=seed))
            svc.wait(view["id"])
            events = [
                json.loads(line)
                for line in svc.job_events(view["id"]).strip().splitlines()
            ]
        finally:
            svc.close()
        assert [e["status"] for e in events].count("queued") == 1
        assert svc.job(view["id"])["computed_cells"] == 2
        views.append(view)
    assert views[0]["id"] != views[1]["id"]
    assert len(list((root / "jobs").iterdir())) == 2


class TestBackpressure:
    def test_queue_full_raises_typed_429(self, tmp_path):
        queue = JobQueue(workers=1, max_pending=2)
        try:
            release = threading.Event()
            started = threading.Event()

            def block(job):
                started.set()
                release.wait(timeout=30)

            queue.submit(Job(id="a", kind="solve", request={}), block)
            assert started.wait(timeout=10)
            queue.submit(Job(id="b", kind="solve", request={}), block)
            with pytest.raises(QueueFullError) as excinfo:
                queue.submit(Job(id="c", kind="solve", request={}), block)
            assert excinfo.value.status == 429
            # The rejected job was never registered.
            with pytest.raises(JobNotFoundError):
                queue.get("c")
            release.set()
            queue.wait("a")
            queue.wait("b")
        finally:
            queue.shutdown()

    def test_slot_freed_after_completion(self, tmp_path):
        queue = JobQueue(workers=1, max_pending=1)
        try:
            queue.submit(Job(id="a", kind="solve", request={}), lambda job: None)
            queue.wait("a")
            # The finished job released its slot: a new one is admitted.
            queue.submit(Job(id="b", kind="solve", request={}), lambda job: None)
            queue.wait("b")
        finally:
            queue.shutdown()

    def test_rejected_submission_leaves_no_event_file(self, tmp_path):
        svc = ExperimentService(tmp_path / "serve", workers=1, max_pending=1)
        try:
            release = threading.Event()
            original = svc._run_solve
            svc._run_solve = lambda job: release.wait(timeout=30) and None
            first = svc.submit_solve(_solve(seed=50))
            with pytest.raises(QueueFullError):
                svc.submit_solve(_solve(seed=51))
            release.set()
            svc.queue.wait(first["id"])
            job_dirs = sorted(p.name for p in svc.jobs_dir.iterdir())
            events = list(svc.jobs_dir.glob("*/events.jsonl"))
            assert len(events) == 1, (job_dirs, events)
            svc._run_solve = original
        finally:
            svc.close()


class TestFailedJobs:
    def test_failure_is_reported_not_lost(self, service):
        def explode(job):
            raise RuntimeError("scheduler meltdown")

        job = Job(id=service.queue.new_id(), kind="solve", request={})
        service.queue.submit(job, explode)
        done = service.queue.wait(job.id)
        assert done.status == "failed"
        view = done.view()
        assert view["error"] == "scheduler meltdown"
        assert view["error_type"] == "RuntimeError"


class TestTypedReads:
    def test_unknown_job(self, service):
        with pytest.raises(JobNotFoundError) as excinfo:
            service.job("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_record(self, service):
        with pytest.raises(RecordNotFoundError) as excinfo:
            service.record("ab" * 32)
        assert excinfo.value.status == 404

    def test_malformed_record_key_is_refused(self, service):
        with pytest.raises(BadRequestError, match="hex digest"):
            service.record("../../../etc/passwd")


class TestRecordStore:
    def test_put_get_round_trip(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        record = GridRecord("GP-DK", 2, 100, metrics)
        key = cell_key("GP-DK", 100, 2, 0)
        store.put(key, record)
        assert key in store
        assert len(store) == 1
        assert store.keys() == [key]
        loaded = store.get(key)
        assert record_to_dict(loaded, traces=False) == record_to_dict(
            record, traces=False
        )

    def test_miss_returns_none(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        assert store.get("ab" * 32) is None
        assert ("ab" * 32) not in store

    def test_corrupt_payload_is_typed(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        key = cell_key("GP-DK", 100, 2, 0)
        path = store.put(key, GridRecord("GP-DK", 2, 100, metrics))
        path.write_text("{nope")
        with pytest.raises(RecordStoreError, match="not valid JSON"):
            store.get(key)

    def test_key_mismatch_is_typed(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        key = cell_key("GP-DK", 100, 2, 0)
        other = cell_key("GP-DK", 100, 2, 1)
        payload = store.put(key, GridRecord("GP-DK", 2, 100, metrics))
        target = store.path_for(other)
        target.parent.mkdir(exist_ok=True)
        target.write_text(payload.read_text())  # wrong key inside
        with pytest.raises(RecordStoreError, match="not a record payload"):
            store.get(other)

    def test_sharded_layout(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        key = cell_key("GP-DK", 100, 2, 0)
        path = store.put(key, GridRecord("GP-DK", 2, 100, metrics))
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"
