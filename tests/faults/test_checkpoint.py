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
from repro.faults.checkpoint import MAGIC
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
    straight = _scheduler(make_workload(), checkpoint=cfg, trace=True).run()
    assert ck.exists()
    # The final checkpoint is from mid-run; resuming it must land on
    # exactly the same metrics, ledger, and trace.
    resumed = resume_run(ck)
    assert resumed == straight


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
        trace=True,
    ).run()
    resumed = resume_run(ck)
    assert resumed == straight
    assert resumed.faults == straight.faults


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


def test_unsupported_version_rejected(tmp_path):
    import struct
    import zlib

    blob = pickle.dumps({"version": 999})
    framed = MAGIC + struct.pack("<IQ", zlib.crc32(blob), len(blob)) + blob
    path = tmp_path / "future.ckpt"
    path.write_bytes(framed)
    with pytest.raises(CheckpointCorruptError, match="version"):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path):
    # The temp file never survives a successful write.
    ck = tmp_path / "run.ckpt"
    _scheduler(
        DivisibleWorkload(WORK, N_PES, rng=0),
        checkpoint=CheckpointConfig(ck, every=10),
    ).run()
    assert ck.exists()
    assert not (tmp_path / "run.ckpt.tmp").exists()
