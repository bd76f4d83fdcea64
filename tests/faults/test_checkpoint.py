"""Checkpoint/resume: bit-identical continuation and corruption refusal."""

import pickle

import pytest

from repro.core.scheduler import Scheduler
from repro.errors import CheckpointCorruptError, ConfigError
from repro.faults import (
    CheckpointConfig,
    FaultPlan,
    PEFailure,
    load_checkpoint,
    resume_run,
)
from repro.faults.checkpoint import MAGIC, load_scheduler
from repro.obs import Observability, RingBufferSink
from repro.problems.fifteen_puzzle import scrambled_fifteen_puzzle
from repro.search.ida_star import ida_star
from repro.search.parallel import SearchWorkload
from repro.simd.machine import SimdMachine
from repro.workmodel.divisible import DivisibleWorkload
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload

N_PES = 16
WORK = 3_000


def _scheduler(workload, *, checkpoint=None, faults=None, **kwargs):
    kwargs.setdefault("init_threshold", 0.85)
    return Scheduler(
        workload,
        SimdMachine(N_PES),
        "GP-DK",
        checkpoint=checkpoint,
        faults=faults,
        **kwargs,
    )


@pytest.mark.parametrize(
    "make_workload",
    [
        lambda: DivisibleWorkload(WORK, N_PES, rng=3),
        lambda: ListStackWorkload(WORK, N_PES, rng=3),
        lambda: StackWorkload(WORK, N_PES, rng=3),
    ],
    ids=["divisible", "stack-list", "stack-arena"],
)
def test_resume_equals_straight_through(tmp_path, make_workload):
    ck = tmp_path / "run.ckpt"
    cfg = CheckpointConfig(ck, every=20)
    straight = _scheduler(make_workload(), checkpoint=cfg).run()
    assert ck.exists()
    # The final checkpoint is from mid-run; resuming it must land on
    # exactly the same metrics and ledger.
    resumed = resume_run(ck)
    assert resumed == straight


def _search_scheduler(*, checkpoint=None, obs=None):
    problem = scrambled_fifteen_puzzle(30, rng=2)
    bound = ida_star(problem).solution_cost + 2
    return Scheduler(
        SearchWorkload(problem, bound, 64), SimdMachine(64), "GP-S0.75",
        init_threshold=0.85, checkpoint=checkpoint, obs=obs,
    )


def test_search_resume_equals_straight_through(tmp_path):
    """A puzzle search checkpointed every 10 cycles resumes to the same
    expansions, next bound, goal depths and metrics as the straight run."""
    ck = tmp_path / "search.ckpt"
    straight = _search_scheduler(checkpoint=CheckpointConfig(ck, every=10))
    straight_metrics = straight.run()
    resumed = load_scheduler(ck)
    assert resumed.machine.n_cycles < straight.machine.n_cycles
    resumed_metrics = resumed.run()

    def outcome(wl):
        return wl.expanded, wl.next_bound, wl.goal_depths

    assert straight.workload.goal_depths
    assert outcome(resumed.workload) == outcome(straight.workload)
    assert resumed_metrics == straight_metrics


def test_resume_with_faults_equals_straight_through(tmp_path):
    ck = tmp_path / "faulty.ckpt"
    plan = FaultPlan(
        failures=(PEFailure(10, 2), PEFailure(30, 7)),
        drop_probability=0.1,
        seed=5,
    )
    cfg = CheckpointConfig(ck, every=15)
    straight = _scheduler(
        StackWorkload(WORK, N_PES, rng=1),
        checkpoint=cfg,
        faults=plan,
        sanitize=True,
    ).run()
    resumed = resume_run(ck)
    assert resumed == straight
    assert resumed.faults == straight.faults


RESUME_CASES = {
    "divisible": lambda **kw: _scheduler(DivisibleWorkload(WORK, N_PES, rng=3), **kw),
    "stack-faults": lambda **kw: _scheduler(
        StackWorkload(WORK, N_PES, rng=1),
        faults=FaultPlan(
            failures=(PEFailure(10, 2), PEFailure(30, 7)),
            drop_probability=0.1,
            seed=5,
        ),
        sanitize=True,
        **kw,
    ),
    "search": _search_scheduler,
}


@pytest.mark.parametrize("case", list(RESUME_CASES))
def test_resumed_run_emits_the_straight_runs_events(tmp_path, case):
    """A resumed run with a fresh sink attached emits exactly the
    straight run's events from the checkpointed cycle on: the event
    stream, not the checkpoint, is the per-cycle record."""
    ck = tmp_path / "run.ckpt"
    straight = RingBufferSink()
    metrics = RESUME_CASES[case](
        checkpoint=CheckpointConfig(ck, every=15),
        obs=Observability(events=straight),
    ).run()
    resumed = load_scheduler(ck)
    cycle = resumed.machine.n_cycles
    assert 0 < cycle < metrics.n_expand
    tail = RingBufferSink()
    resumed.obs = Observability(events=tail)
    assert resumed.run() == metrics
    assert tail.events() == [e for e in straight.events() if e.cycle >= cycle]
    assert tail.events("cycle")[0].cycle == cycle
    if case == "stack-faults":
        assert tail.events("fault")


def test_checkpoint_every_validated():
    with pytest.raises(ConfigError):
        CheckpointConfig("x.ckpt", every=0)


def test_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointCorruptError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    ck = tmp_path / "run.ckpt"
    _scheduler(
        DivisibleWorkload(WORK, N_PES, rng=0),
        checkpoint=CheckpointConfig(ck, every=10),
    ).run()
    raw = ck.read_bytes()
    ck.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(ck)


def test_bitflip_fails_crc(tmp_path):
    ck = tmp_path / "run.ckpt"
    _scheduler(
        DivisibleWorkload(WORK, N_PES, rng=0),
        checkpoint=CheckpointConfig(ck, every=10),
    ).run()
    raw = bytearray(ck.read_bytes())
    raw[-1] ^= 0xFF
    ck.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptError, match="CRC"):
        load_checkpoint(ck)


def test_trailing_bytes_rejected(tmp_path):
    ck = tmp_path / "run.ckpt"
    _scheduler(
        DivisibleWorkload(WORK, N_PES, rng=0),
        checkpoint=CheckpointConfig(ck, every=10),
    ).run()
    ck.write_bytes(ck.read_bytes() + b"\x00" * 3)
    with pytest.raises(CheckpointCorruptError, match="3 trailing bytes"):
        load_checkpoint(ck)


def test_unsupported_version_rejected(tmp_path):
    import struct
    import zlib

    payloads = [
        {"version": 999},
        # v1 kwargs carry the retired charge_collectives keyword: refused
        # as a version mismatch, not a TypeError from Scheduler(...).
        {"version": 1, "kwargs": {"charge_collectives": False}},
        # v2 search workloads carry the retired uint8/int32 planes and
        # the old kernel workspace: refused up front, not mid-run in expand_cycle.
        {"version": 2, "workload": None},
        # v3 carries the retired Trace recorder and trace keyword.
        {"version": 3, "trace_obj": None, "kwargs": {"trace": False}},
        # v4 DFSStack entries carry no heuristic h.
        {"version": 4, "workload": None},
    ]
    for payload in payloads:
        blob = pickle.dumps(payload)
        framed = MAGIC + struct.pack("<IQ", zlib.crc32(blob), len(blob)) + blob
        path = tmp_path / "other.ckpt"
        path.write_bytes(framed)
        with pytest.raises(CheckpointCorruptError, match="version"):
            resume_run(path)


def test_checkpoint_write_is_atomic(tmp_path):
    # The temp file never survives a successful write.
    ck = tmp_path / "run.ckpt"
    _scheduler(
        DivisibleWorkload(WORK, N_PES, rng=0),
        checkpoint=CheckpointConfig(ck, every=10),
    ).run()
    assert ck.exists()
    assert not (tmp_path / "run.ckpt.tmp").exists()
