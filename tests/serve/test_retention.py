"""The hit path touches no disk, and the job registry is bounded.

A whole-job cache hit is the service's cheap path — it is answered
thousands of times a second — so it must neither create
``jobs/<id>.jsonl`` nor stay in memory for ever.  Settled jobs are kept
up to ``MAX_SETTLED_JOBS``; the oldest settled one is then forgotten
together with its event file, and a queued or running job never is.
"""

import json
import sys
import threading

import pytest

from repro.errors import JobNotFoundError
from repro.core.config import make_scheme
from repro.experiments.batched import CellPlan
from repro.experiments.keys import plan_key
from repro.experiments.runner import (
    GridRecord,
    default_init_threshold,
    plan_grid,
    run_divisible,
    run_grid,
)
from repro.serve import ExperimentService
from repro.serve.queue import MAX_SETTLED_JOBS
from repro.serve.schemas import parse_grid_request, parse_solve_request

SOLVE = {"scheme": "GP-DK", "total_work": 300, "n_pes": 4, "seed": 1}
GRID = {"schemes": ["GP-DK", "nGP-DP"], "works": [200], "pes": [2, 4], "base_seed": 5}


def _solve_key(body: dict) -> str:
    """The key of a solve: its one-cell plan, built independently of
    the service (seed verbatim, ``"auto"`` threshold, default cost)."""
    plan = CellPlan(
        0,
        make_scheme(body["scheme"]),
        body["n_pes"],
        body["total_work"],
        body["seed"],
        default_init_threshold(body["scheme"]),
    )
    return plan_key(plan)


@pytest.fixture()
def service(tmp_path):
    svc = ExperimentService(tmp_path / "serve", workers=1, max_pending=4)
    yield svc
    svc.close()


def _prime_solve(service) -> None:
    """Publish SOLVE's record without any job having run."""
    metrics = run_divisible(
        SOLVE["scheme"], SOLVE["total_work"], SOLVE["n_pes"], seed=SOLVE["seed"]
    )
    key = _solve_key(SOLVE)
    service.store.put(
        key, GridRecord(metrics.scheme, SOLVE["n_pes"], SOLVE["total_work"], metrics)
    )


def _statuses(service, job_id):
    lines = service.job_events(job_id).splitlines()
    return [json.loads(line)["status"] for line in lines]


class TestHitTouchesNoDisk:
    def test_solve_hit(self, service):
        _prime_solve(service)
        view = service.submit_solve(parse_solve_request(SOLVE))
        assert view["status"] == "done" and view["cache_hit"] is True
        assert list(service.jobs_dir.iterdir()) == []
        assert service.queue.get(view["id"]).events_path is None
        assert _statuses(service, view["id"]) == ["cache-hit", "finished"]
        counters = service.metrics()["counters"]
        assert counters["serve.cache{result=hit}"] == 1.0
        assert "serve.cache{result=miss}" not in counters

    def test_grid_hit_counts_every_cell(self, service):
        plans = plan_grid(
            GRID["schemes"], GRID["works"], GRID["pes"], base_seed=GRID["base_seed"]
        )
        records = run_grid(
            GRID["schemes"], GRID["works"], GRID["pes"], base_seed=GRID["base_seed"]
        )
        for plan, record in zip(plans, records):
            service.store.put(plan_key(plan), record)
        view = service.submit_grid(parse_grid_request(GRID))
        assert view["cache_hit"] is True and view["cached_cells"] == len(plans)
        assert list(service.jobs_dir.iterdir()) == []
        assert _statuses(service, view["id"]) == ["cache-hit", "finished"]
        assert service.metrics()["counters"]["serve.cache{result=hit}"] == len(plans)

    def test_hit_never_disturbs_a_predecessors_directory(self, tmp_path):
        """A hit takes its id without the exclusive-create proof, so it
        may share a number with an earlier incarnation's job — whose
        event file it must neither write to nor, once evicted, remove."""
        root = tmp_path / "serve"
        first = ExperimentService(root, workers=1)
        try:
            miss = first.wait(first.submit_solve(parse_solve_request(SOLVE))["id"])
        finally:
            first.close()
        artifact = root / "jobs" / f"{miss['id']}.jsonl"
        stream = artifact.read_bytes()
        second = ExperimentService(root, workers=1)
        try:
            hits = [
                second.submit_solve(parse_solve_request(SOLVE))
                for _ in range(MAX_SETTLED_JOBS + 1)
            ]
        finally:
            second.close()
        assert hits[0]["id"] == miss["id"]
        with pytest.raises(JobNotFoundError):
            second.job(hits[0]["id"])
        assert artifact.read_bytes() == stream
        assert sorted(p.name for p in (root / "jobs").iterdir()) == [artifact.name]


class TestRetention:
    def test_registry_is_bounded_and_evicts_oldest_settled_first(self, service):
        _prime_solve(service)
        extra = 5
        ids = [
            service.submit_solve(parse_solve_request(SOLVE))["id"]
            for _ in range(MAX_SETTLED_JOBS + extra)
        ]
        assert len(service.queue._jobs) == MAX_SETTLED_JOBS
        for job_id in ids[:extra]:
            with pytest.raises(JobNotFoundError) as excinfo:
                service.job(job_id)
            assert excinfo.value.status == 404
            with pytest.raises(JobNotFoundError):
                service.job_events(job_id)
        for job_id in (ids[extra], ids[-1]):
            assert service.job(job_id)["status"] == "done"

    def test_evicted_miss_job_takes_its_directory_along(self, service):
        miss = service.wait(service.submit_solve(parse_solve_request(SOLVE))["id"])
        artifact = service.jobs_dir / f"{miss['id']}.jsonl"
        assert list(service.jobs_dir.iterdir()) == [artifact]
        for _ in range(MAX_SETTLED_JOBS - 1):
            service.submit_solve(parse_solve_request(SOLVE))
        assert artifact.is_file()  # the oldest of exactly MAX_SETTLED_JOBS
        service.submit_solve(parse_solve_request(SOLVE))
        assert list(service.jobs_dir.iterdir()) == []
        with pytest.raises(JobNotFoundError):
            service.job(miss["id"])
        assert service.queue._futures == {}

    def test_running_job_is_never_evicted(self, service):
        _prime_solve(service)
        started, release = threading.Event(), threading.Event()
        run_solve = service._run_solve

        def held(job):
            started.set()
            assert release.wait(timeout=30)
            run_solve(job)

        service._run_solve = held
        try:
            running = service.submit_solve(parse_solve_request({**SOLVE, "seed": 2}))
            assert started.wait(timeout=10)
            queued = service.submit_solve(parse_solve_request({**SOLVE, "seed": 3}))
            for _ in range(2 * MAX_SETTLED_JOBS):
                service.submit_solve(parse_solve_request(SOLVE))
            assert service.job(running["id"])["status"] == "running"
            assert service.job(queued["id"])["status"] == "queued"
            assert len(service.queue._jobs) == MAX_SETTLED_JOBS + 2
        finally:
            release.set()
        for view in (running, queued):
            done = service.wait(view["id"], timeout=60)
            assert done["status"] == "done" and done["computed_cells"] == 1
            assert (service.jobs_dir / f"{view['id']}.jsonl").is_file()


def test_concurrent_settling_loses_no_update(service):
    """More submitting threads than cores, a switch interval short
    enough to interleave them inside ``register`` / ``_settle``: the
    registry must end exactly full, every id handed out exactly once,
    every hit counted."""
    _prime_solve(service)
    n_threads, per_thread = 8, 150
    ids, errors = [[] for _ in range(n_threads)], []

    def client(index):
        try:
            for _ in range(per_thread):
                view = service.submit_solve(parse_solve_request(SOLVE))
                assert view["cache_hit"] is True
                ids[index].append(view["id"])
        except BaseException as exc:  # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    handed_out = [job_id for per_client in ids for job_id in per_client]
    total = n_threads * per_thread
    assert len(set(handed_out)) == len(handed_out) == total
    assert len(service.queue._jobs) == len(service.queue._settled) == MAX_SETTLED_JOBS
    assert set(service.queue._jobs) == set(service.queue._settled)
    assert service.metrics()["counters"]["serve.cache{result=hit}"] == total
    assert list(service.jobs_dir.iterdir()) == []
