"""Service-core tests: cache discipline, identity, backpressure, errors.

The load-bearing assertions here are the acceptance criteria of the
serve layer: an identical re-submission is served from the store with
*zero* recomputation (proven by counters, not by timing), and a record
that came through the service is bit-identical to one computed by a
direct :func:`~repro.experiments.runner.run_grid` call.
"""

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BadRequestError,
    JobNotFoundError,
    QueueFullError,
    RecordNotFoundError,
    RecordStoreError,
)
from repro.experiments.keys import plan_key
from repro.experiments.runner import plan_grid, run_divisible, run_grid, GridRecord
from repro.experiments.store import record_to_dict
from repro.obs.events import read_jsonl_events
from repro.serve import ExperimentService, RecordStore
from repro.serve import service as service_module
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
        assert stored == record_to_dict(direct)


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
        # cached cells were taken from the store, not re-run.
        counters = service.metrics()["counters"]
        assert counters["grid.resumed_cells"] == 2.0

    def test_grid_records_identical_to_direct_run_grid(self, service):
        view = service.submit_grid(_grid(schemes=("GP-DK", "nGP-DP")))
        service.wait(view["id"])
        direct = run_grid(["GP-DK", "nGP-DP"], [200], [2, 4], base_seed=5)
        for key, record in zip(view["keys"], direct):
            stored = service.record(key)["record"]
            assert stored == record_to_dict(record)

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

    def test_spellings_of_one_scheme_share_the_store(self, service):
        """A request carries the scheme's canonical name, so a ``GP-S0.5``
        solve primes the ``GP-S0.50`` grid cell of the same seed."""
        from repro.experiments.runner import cell_seed

        solve = _solve("GP-S0.5", total_work=200, n_pes=4, seed=cell_seed(5, 0))
        assert solve.scheme == "GP-S0.50"
        service.wait(service.submit_solve(solve)["id"])
        view = service.submit_grid(_grid(schemes=("GP-S0.50",), pes=(4, 8)))
        done = service.wait(view["id"])
        assert (done["cached_cells"], done["computed_cells"]) == (1, 1)
        assert done["keys"][0] == service.submit_solve(solve)["keys"][0]


def _reference_keys(request):
    plans = plan_grid(
        list(request.schemes),
        list(request.works),
        list(request.pes),
        base_seed=request.base_seed,
    )
    return [plan_key(p) for p in plans]


def _memo_counts(service):
    counters = service.metrics()["counters"]
    return (
        counters.get("serve.plan_memo{result=hit}", 0.0),
        counters.get("serve.plan_memo{result=miss}", 0.0),
    )


#: Two spellings of one static scheme: ``make_scheme`` names both
#: ``GP-S0.50``, so their cells share keys.
_SPELLING = {"GP-S0.5": "GP-S0.50", "GP-S0.50": "GP-S0.5"}


class TestPlanMemo:
    def test_memoised_keys_equal_planned_keys(self, tmp_path):
        """Whichever request an entry was planned for, a grid's keys
        are what ``plan_grid`` + ``plan_key`` give — also for the other
        spelling of a scheme, and also once LRU order has been shuffled
        by earlier examples on the same service."""
        svc = ExperimentService(tmp_path / "serve", workers=1, max_pending=4)

        @settings(max_examples=15, deadline=None)
        @given(
            schemes=st.lists(
                st.sampled_from(["GP-S0.5", "GP-S0.50", "nGP-DK", "GP-DP"]),
                min_size=1,
                max_size=3,
            ),
            works=st.lists(st.integers(1, 60), min_size=1, max_size=2),
            pes=st.lists(st.integers(1, 4), min_size=1, max_size=2),
            base_seed=st.integers(0, 3),
        )
        def check(schemes, works, pes, base_seed):
            body = {"schemes": schemes, "works": works, "pes": pes}
            request = parse_grid_request({**body, "base_seed": base_seed})
            other = parse_grid_request(
                {
                    **body,
                    "schemes": [_SPELLING.get(s, s) for s in schemes],
                    "base_seed": base_seed,
                }
            )
            expected = _reference_keys(request)
            assert _reference_keys(other) == expected
            first = svc.submit_grid(request)
            assert first["keys"] == expected
            svc.wait(first["id"], timeout=60)
            for resubmitted in (other, request):
                view = svc.submit_grid(resubmitted)
                assert view["keys"] == expected
                assert view["cache_hit"] is True

        try:
            check()
        finally:
            svc.close()

    def test_membership_stays_live(self, tmp_path):
        """The memo holds keys, never "present": a record deleted under
        a memoised grid is recomputed on the next submission, and one
        another service publishes is a hit on the next."""
        root = tmp_path / "serve"
        svc = ExperimentService(root, workers=1, max_pending=4)
        try:
            request = _grid(schemes=("GP-DK", "nGP-DP"))
            keys = svc.wait(svc.submit_grid(request)["id"], timeout=60)["keys"]
            assert svc.submit_grid(request)["cache_hit"] is True

            svc.store.path_for(keys[2]).unlink()
            view = svc.submit_grid(request)
            assert view["cache_hit"] is False
            done = svc.wait(view["id"], timeout=60)
            assert (done["cached_cells"], done["computed_cells"]) == (3, 1)
            assert keys[2] in svc.store
            # The job's directory holds its event stream and nothing else.
            job_dir = svc.jobs_dir / view["id"]
            assert [p.name for p in job_dir.iterdir()] == ["events.jsonl"]
            assert svc.submit_grid(request)["cache_hit"] is True

            svc.store.path_for(keys[0]).unlink()
            other = ExperimentService(root, workers=1, max_pending=4)
            try:
                published = other.submit_grid(request)
                assert other.wait(published["id"], timeout=60)["computed_cells"] == 1
            finally:
                other.close()
            view = svc.submit_grid(request)
            assert view["cache_hit"] is True
            assert view["cached_cells"] == 4
            # One plan for every submission on ``svc``.
            assert _memo_counts(svc) == (4.0, 1.0)
        finally:
            svc.close()

    def test_budget_bounds_cells_held(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_MEMO_CELLS", 4)
        svc = ExperimentService(tmp_path / "serve", workers=1, max_pending=4)
        try:
            small = [_grid(base_seed=seed) for seed in range(4)]  # 2 cells each
            for request in small:
                svc.wait(svc.submit_grid(request)["id"], timeout=60)
                assert svc._keys.cells <= 4
            assert svc._keys.cells == 4
            # The two most recent grids are held, the older two evicted.
            before = _memo_counts(svc)
            for request in small[2:]:
                svc.submit_grid(request)
            assert _memo_counts(svc) == (before[0] + 2, before[1])
            svc.submit_grid(small[0])
            assert _memo_counts(svc) == (before[0] + 2, before[1] + 1)
            assert svc._keys.cells == 4

            # A grid larger than the whole budget is planned every time
            # and evicts nothing.
            big = _grid(pes=(1, 2, 3, 4, 5))
            svc.wait(svc.submit_grid(big)["id"], timeout=60)
            hits, misses = _memo_counts(svc)
            assert svc.submit_grid(big)["cache_hit"] is True
            assert _memo_counts(svc) == (hits, misses + 1)
            assert svc._keys.cells == 4
            svc.submit_grid(small[0])
            assert _memo_counts(svc) == (hits + 1, misses + 1)
        finally:
            svc.close()

    def test_solve_keys_are_planned_once_within_the_budget(
        self, tmp_path, monkeypatch
    ):
        """A solve's key is hashed on its first submission only, equals
        a fresh one-cell plan's, and takes one key of the shared budget."""
        monkeypatch.setattr(service_module, "MAX_MEMO_CELLS", 3)
        hashed = []
        monkeypatch.setattr(
            service_module,
            "plan_key",
            lambda plan: hashed.append(plan) or plan_key(plan),
        )
        svc = ExperimentService(tmp_path / "serve", workers=1, max_pending=4)
        try:
            request = _solve()
            first = svc.wait(svc.submit_solve(request)["id"], timeout=60)
            again = svc.submit_solve(request)
            assert again["cache_hit"] is True
            assert again["keys"] == first["keys"]
            assert first["keys"] == [plan_key(service_module._solve_plan(request))]
            assert len(hashed) == 1
            assert svc._keys.cells == 1

            svc.wait(svc.submit_grid(_grid())["id"], timeout=60)  # 2 keys
            assert svc._keys.cells == 3
            svc.submit_solve(_solve(seed=2))  # evicts the oldest entry
            assert svc._keys.cells <= 3
            assert svc._keys.get(request) is None
            assert _memo_counts(svc) == (0.0, 1.0)  # counts grids only
        finally:
            svc.close()

    def test_concurrent_puts_keep_the_count(self, monkeypatch):
        """Handler threads share one memo: under a tiny switch interval
        and more threads than cores, the cell count still equals what
        the entries hold and never exceeds the budget."""
        monkeypatch.setattr(service_module, "MAX_MEMO_CELLS", 12)
        memo = service_module._KeyMemo()
        errors = []

        def hammer(worker):
            try:
                for i in range(300):
                    request = _grid(base_seed=(worker * 7 + i) % 23)
                    if memo.get(request) is None:
                        memo.put(request, tuple("k" * 64 for _ in range(1 + i % 5)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert memo.cells == sum(len(keys) for keys in memo._entries.values())
        assert memo.cells <= 12


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
    append to the first incarnation's event stream."""
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


def _store_key(base_seed: int = 0) -> str:
    """A real cell key: the one cell of a GP-DK W=100 P=2 grid."""
    return plan_key(plan_grid(["GP-DK"], [100], [2], base_seed=base_seed)[0])


class TestRecordStore:
    def test_put_get_round_trip(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        record = GridRecord("GP-DK", 2, 100, metrics)
        key = _store_key()
        store.put(key, record)
        assert key in store
        assert len(store) == 1
        assert store.keys() == [key]
        loaded = store.get(key)
        assert record_to_dict(loaded) == record_to_dict(record)

    def test_miss_returns_none(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        assert store.get("ab" * 32) is None
        assert ("ab" * 32) not in store

    def test_corrupt_payload_is_typed(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        key = _store_key()
        path = store.put(key, GridRecord("GP-DK", 2, 100, metrics))
        path.write_text("{nope")
        with pytest.raises(RecordStoreError, match="not valid JSON"):
            store.get(key)

    def test_key_mismatch_is_typed(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        key = _store_key()
        other = _store_key(base_seed=1)
        payload = store.put(key, GridRecord("GP-DK", 2, 100, metrics))
        target = store.path_for(other)
        target.parent.mkdir(exist_ok=True)
        target.write_text(payload.read_text())  # wrong key inside
        with pytest.raises(RecordStoreError, match="not a record payload"):
            store.get(other)

    def test_schema_version_mismatch_is_typed(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        key = _store_key()
        path = store.put(key, GridRecord("GP-DK", 2, 100, metrics))
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "schema_version": 99}))
        with pytest.raises(RecordStoreError, match="schema version 99"):
            store.get(key)

    def test_contains_refuses_malformed_keys(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        for bad in ("../" + "ab" * 31, "AB" * 32, "ab" * 31, 7):
            with pytest.raises(BadRequestError, match="hex digest"):
                bad in store

    def test_directory_at_record_path_is_not_a_record(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        key = "ab" * 32
        store.path_for(key).mkdir(parents=True)
        assert key not in store

    def test_sharded_layout(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        metrics = run_divisible("GP-DK", 100, 2, seed=0)
        key = _store_key()
        path = store.put(key, GridRecord("GP-DK", 2, 100, metrics))
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"
