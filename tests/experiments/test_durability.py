"""Durable grids: kill-resume identity and quarantine replay.

The gate: a grid interrupted at an arbitrary cell and rerun on the same
content-addressed record store must yield records **bit-identical** to
the uninterrupted serial oracle, for all six paper schemes, with the
runtime sanitizer on, with every cell its own pool shard and with
multi-cell shards.  Interruption is exercised two ways: deterministically
(a poison cell quarantines the sweep mid-way) and for real (a separate
process is SIGKILLed mid-sweep and the grid rerun on whatever records it
published).  Recovery *within* one sweep (raise / exit / hang, with and
without a store, on both pooled executors) is the parametrised suite in
``test_grid_hardening.py``.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.errors import GridCellError
from repro.experiments.runner import RetryPolicy, run_grid
from repro.experiments.chaos import GridChaos
from repro.obs import MetricsRegistry
from repro.serve.store import RecordStore

SCHEMES = list(PAPER_SCHEMES)  # all six: GP/nGP x S0.90/DP/DK
WORKS = [400]
PES = [8]
SEED = 13

#: Poison immediately (no retries) — the cell fails, the sweep
#: quarantines, and everything completed so far is stored.
NO_RETRY = RetryPolicy(max_retries=0, base_delay=0.001, max_delay=0.001)
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.002)


def _grid(**kwargs):
    kwargs.setdefault("sanitize", True)
    return run_grid(SCHEMES, WORKS, PES, base_seed=SEED, **kwargs)


@pytest.fixture(scope="module")
def oracle():
    return _grid(executor="serial")


def test_store_records_serial_grid(tmp_path, oracle):
    store = RecordStore(tmp_path / "cells")
    records = _grid(executor="serial", store=store)
    assert records == oracle
    assert len(store) == len(oracle)


def test_store_records_inprocess_batched_grid(tmp_path, oracle):
    """The mega-arena path publishes each cell the cycle it finalizes."""
    store = RecordStore(tmp_path / "cells")
    records = _grid(n_jobs=1, store=store)
    assert records == oracle
    assert len(store) == len(oracle)


def test_full_store_resume_skips_everything(tmp_path, oracle):
    store = RecordStore(tmp_path / "cells")
    _grid(executor="serial", store=store)
    registry = MetricsRegistry()
    resumed = _grid(executor="serial", store=store, registry=registry)
    assert resumed == oracle
    snap = registry.snapshot()["counters"]
    assert snap["grid.resumed_cells"] == len(oracle)


class TestQuarantineResumeIdentity:
    """Deterministic interruption: a poison cell quarantines the sweep;
    resuming without the poison completes bit-identically."""

    def test_one_cell_shards(self, tmp_path, oracle):
        """``n_jobs`` = the cell count cuts one shard per cell, so the
        poison cell fails alone even without a retry budget."""
        store = RecordStore(tmp_path / "cells")
        with pytest.raises(GridCellError) as excinfo:
            _grid(
                n_jobs=len(SCHEMES),
                store=store,
                retry=NO_RETRY,
                chaos=GridChaos(index=2, kind="raise", attempts=(0,)),
            )
        err = excinfo.value
        # Graceful degradation: all five healthy cells' records survive,
        # both on the exception and durably in the store.
        assert len(err.completed) == len(oracle) - 1
        assert err.quarantine.indices == (2,)
        assert len(store) == len(oracle) - 1
        assert "same store" in str(err)  # the resume hint

        registry = MetricsRegistry()
        resumed = _grid(
            n_jobs=len(SCHEMES),
            store=store,
            registry=registry,
        )
        assert resumed == oracle
        snap = registry.snapshot()["counters"]
        assert snap["grid.resumed_cells"] == len(oracle) - 1

    def test_batched_executor_whole_shard_replay(self, tmp_path, oracle):
        store = RecordStore(tmp_path / "cells")
        with pytest.raises(GridCellError) as excinfo:
            _grid(
                n_jobs=2,
                store=store,
                retry=NO_RETRY,
                chaos=GridChaos(index=2, kind="raise", attempts=(0,)),
            )
        err = excinfo.value
        # With no retry budget there is nothing to requeue: the failed
        # shard charges every cell it carried, so its three cells are
        # quarantined together and the healthy shard is stored whole.
        assert err.quarantine.indices == (0, 1, 2)
        assert len(store) == len(oracle) - 3

        registry = MetricsRegistry()
        resumed = _grid(
            n_jobs=2,
            store=store,
            registry=registry,
        )
        assert resumed == oracle
        snap = registry.snapshot()["counters"]
        # Whole-shard resume: only the dead shard recomputes.
        assert snap["grid.resumed_cells"] == len(oracle) - 3
        assert snap["grid.executor{path=batched}"] == 1


class TestBatchedHardening:
    """The in-process arena (``n_jobs=1``) accepts timeout/chaos instead
    of refusing."""

    def test_hardened_single_process_shard(self, oracle):
        # n_jobs=1: hardening still routes through one pooled shard, so
        # an injected exit kills a worker, never the test process.
        records = _grid(
            n_jobs=1,
            retry=FAST_RETRY,
            chaos=GridChaos(index=3, kind="exit", attempts=(0,)),
        )
        assert records == oracle


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
def test_sigkill_mid_sweep_resume_is_bit_identical(tmp_path):
    """The real crash: a sweep process is SIGKILLed mid-run (no atexit,
    no flush — exactly what publishing each cell atomically is for),
    then the grid reruns on whatever records landed and must match the
    uninterrupted oracle float-for-float."""
    schemes = ["GP-S0.90", "nGP-DP", "GP-DK"]
    works, pes, seed = [6_000, 12_000], [16], 3
    root = tmp_path / "cells"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.experiments.runner import run_grid\n"
        "from repro.serve.store import RecordStore\n"
        f"run_grid({schemes!r}, {works!r}, {pes!r}, base_seed={seed}, "
        f"executor='serial', sanitize=True, store=RecordStore({str(root)!r}))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", script, src],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Kill as soon as at least one record is published; fall through if
    # the sweep wins the race.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and proc.poll() is None:
        if any(root.glob("??/*.json")):
            break
        time.sleep(0.005)
    proc.kill()
    proc.wait()

    store = RecordStore(root)
    on_disk = len(store)
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
        store=store,
        registry=registry,
    )
    assert resumed == oracle
    snap = registry.snapshot()["counters"]
    assert snap.get("grid.resumed_cells", 0) == on_disk
