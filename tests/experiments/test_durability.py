"""Durable grids: kill-resume identity and quarantine replay.

The ISSUE 9 gate: a grid interrupted at an arbitrary cell and resumed
from its write-ahead journal must yield records **bit-identical** to the
uninterrupted serial oracle, for all six paper schemes, with the runtime
sanitizer on, under both the per-cell process pool and the sharded
batched executor.  Interruption is exercised two ways: deterministically
(a poison cell quarantines the sweep mid-way) and for real (a separate
process is SIGKILLed mid-sweep and the journal replayed, torn tail and
all).  Recovery *within* one sweep (raise / exit / hang, with and
without a journal, on both pooled executors) is the parametrised suite
in ``test_grid_hardening.py``.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.errors import ConfigError, GridCellError
from repro.experiments.journal import CellJournal
from repro.experiments.runner import RetryPolicy, run_grid
from repro.faults import GridChaos
from repro.obs import MetricsRegistry

SCHEMES = list(PAPER_SCHEMES)  # all six: GP/nGP x S0.90/DP/DK
WORKS = [400]
PES = [8]
SEED = 13

#: Poison immediately (no retries) — the cell fails, the sweep
#: quarantines, and everything completed so far is journaled.
NO_RETRY = RetryPolicy(max_retries=0, base_delay=0.001, max_delay=0.001)
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.002)


def _grid(**kwargs):
    kwargs.setdefault("sanitize", True)
    return run_grid(SCHEMES, WORKS, PES, base_seed=SEED, **kwargs)


@pytest.fixture(scope="module")
def oracle():
    return _grid(executor="serial")


def test_resume_requires_journal():
    with pytest.raises(ConfigError, match="journal"):
        run_grid(SCHEMES[:1], WORKS, PES, resume=True)


def test_journal_records_serial_grid(tmp_path, oracle):
    path = tmp_path / "grid.journal"
    records = _grid(executor="serial", journal=path)
    assert records == oracle
    assert len(CellJournal(path)) == len(oracle)


def test_journal_records_inprocess_batched_grid(tmp_path, oracle):
    """The mega-arena path journals each cell the cycle it finalizes."""
    path = tmp_path / "grid.journal"
    records = _grid(executor="batched", journal=path)
    assert records == oracle
    assert len(CellJournal(path)) == len(oracle)


def test_full_journal_resume_skips_everything(tmp_path, oracle):
    path = tmp_path / "grid.journal"
    _grid(executor="serial", journal=path)
    registry = MetricsRegistry()
    resumed = _grid(
        executor="serial", journal=path, resume=True, registry=registry
    )
    assert resumed == oracle
    snap = registry.snapshot()["counters"]
    assert snap["grid.resumed_cells"] == len(oracle)


class TestQuarantineResumeIdentity:
    """Deterministic interruption: a poison cell quarantines the sweep;
    resuming without the poison completes bit-identically."""

    def test_process_executor(self, tmp_path, oracle):
        path = tmp_path / "grid.journal"
        with pytest.raises(GridCellError) as excinfo:
            _grid(
                executor="process",
                n_jobs=2,
                journal=path,
                retry=NO_RETRY,
                chaos=GridChaos(index=2, kind="raise", attempts=(0,)),
            )
        err = excinfo.value
        # Graceful degradation: all five healthy cells' records survive,
        # both on the exception and durably in the journal.
        assert len(err.completed) == len(oracle) - 1
        assert err.quarantine.indices == (2,)
        assert len(CellJournal(path)) == len(oracle) - 1
        assert str(path) in str(err)  # the resume hint names the journal

        registry = MetricsRegistry()
        resumed = _grid(
            executor="process",
            n_jobs=2,
            journal=path,
            resume=True,
            registry=registry,
        )
        assert resumed == oracle
        snap = registry.snapshot()["counters"]
        assert snap["grid.resumed_cells"] == len(oracle) - 1

    def test_batched_executor_whole_shard_replay(self, tmp_path, oracle):
        path = tmp_path / "grid.journal"
        with pytest.raises(GridCellError) as excinfo:
            _grid(
                executor="batched",
                n_jobs=2,
                journal=path,
                retry=NO_RETRY,
                chaos=GridChaos(index=2, kind="raise", attempts=(0,)),
            )
        err = excinfo.value
        # With no retry budget there is nothing to requeue: the failed
        # shard charges every cell it carried, so its three cells are
        # quarantined together and the healthy shard is journaled whole.
        assert err.quarantine.indices == (0, 1, 2)
        assert len(CellJournal(path)) == len(oracle) - 3

        registry = MetricsRegistry()
        resumed = _grid(
            executor="batched",
            n_jobs=2,
            journal=path,
            resume=True,
            registry=registry,
        )
        assert resumed == oracle
        snap = registry.snapshot()["counters"]
        # Whole-shard journal replay: only the dead shard recomputes.
        assert snap["grid.resumed_cells"] == len(oracle) - 3
        assert snap["grid.executor{path=batched}"] == 1


class TestBatchedHardening:
    """executor="batched" accepts timeout/chaos instead of refusing."""

    def test_hardened_single_process_shard(self, oracle):
        # No n_jobs: hardening still routes through one pooled shard, so
        # an injected exit kills a worker, never the test process.
        records = _grid(
            executor="batched",
            retry=FAST_RETRY,
            chaos=GridChaos(index=3, kind="exit", attempts=(0,)),
        )
        assert records == oracle


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
def test_sigkill_mid_sweep_resume_is_bit_identical(tmp_path):
    """The real crash: a sweep process is SIGKILLed mid-write (no atexit,
    no flush — exactly what the journal's fsync-per-frame is for), then
    the grid resumes from whatever frames landed and must match the
    uninterrupted oracle float-for-float."""
    schemes = ["GP-S0.90", "nGP-DP", "GP-DK"]
    works, pes, seed = [6_000, 12_000], [16], 3
    path = tmp_path / "grid.journal"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.experiments.runner import run_grid\n"
        f"run_grid({schemes!r}, {works!r}, {pes!r}, base_seed={seed}, "
        f"executor='serial', sanitize=True, journal={str(path)!r})\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", script, src],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Kill as soon as at least one cell frame is durable (the header
    # alone is ~100 bytes); fall through if the sweep wins the race.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and proc.poll() is None:
        if path.exists() and path.stat().st_size > 300:
            break
        time.sleep(0.005)
    proc.kill()
    proc.wait()

    journal = CellJournal(path)  # replays, truncating any torn tail
    oracle = run_grid(
        schemes, works, pes, base_seed=seed, executor="serial", sanitize=True
    )
    registry = MetricsRegistry()
    resumed = run_grid(
        schemes,
        works,
        pes,
        base_seed=seed,
        executor="serial",
        sanitize=True,
        journal=path,
        resume=True,
        registry=registry,
    )
    assert resumed == oracle
    snap = registry.snapshot()["counters"]
    assert snap.get("grid.resumed_cells", 0) == len(journal)
