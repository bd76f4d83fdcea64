"""run_grid under worker failure: timeout, retry, backoff, and pool loss.

``GridChaos`` deterministically sabotages one cell on chosen attempts,
exercising each failure path; in every recoverable case the final
records must be **identical** to an undisturbed serial grid, because
retries rerun the cell with the same ``cell_seed``.

Both pooled shapes of the batched cells — ``n_jobs=2`` (id ``batched``:
two cost-cut shards) and no ``n_jobs`` (id ``auto``: a hardened grid
below ``POOL_THRESHOLD``, one shard holding every cell) — share one worker
and one retry/quarantine loop, so the recovery suite is parametrised
over the shape instead of being written once per shape.  Store resume
after a quarantine and the real SIGKILL harness live in
``test_durability.py``.
"""

import signal
import warnings

import pytest

from repro.baselines.fess_fegs import fess_scheme
from repro.core.config import PAPER_SCHEMES
from repro.errors import (
    ConfigError,
    ExecutorFallbackWarning,
    GridCellError,
    TimeoutUnenforcedWarning,
)
from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    GridFailure,
    QuarantineReport,
    RetryPolicy,
    run_grid,
)
from repro.experiments.chaos import GridChaos
from repro.obs import MetricsRegistry
from repro.serve.store import RecordStore

#: The four-cell grid of the quarantine tests (two shards of two).
SCHEMES = ["nGP-S0.75", "GP-DP"]
WORKS = [1_500, 3_000]
PES = [16]

#: Fast backoff for chaos tests — same decision structure, tiny sleeps.
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.002)
ONE_RETRY = RetryPolicy(max_retries=1, base_delay=0.001, max_delay=0.002)

#: The pooled shapes: one shard of every cell, or two shards.
POOLED = {"auto": {}, "batched": {"n_jobs": 2}}


def _six(**kwargs):
    """All six Table 1 schemes, one small cell each, sanitizer on."""
    return run_grid(
        list(PAPER_SCHEMES), [400], [8], base_seed=13, sanitize=True, **kwargs
    )


@pytest.fixture(scope="module")
def oracle():
    return _six(executor="serial")


@pytest.mark.parametrize("stored", [False, True], ids=["nostore", "store"])
@pytest.mark.parametrize("kind", ["raise", "exit", "hang"])
@pytest.mark.parametrize("shape", sorted(POOLED))
def test_chaos_recovery_equals_oracle(shape, kind, stored, tmp_path, oracle):
    """One sabotaged attempt — an exception, a hard worker death
    (``BrokenProcessPool`` -> respawn -> requeue) or a hang the watchdog
    has to cut short — and the grid still equals the serial oracle, with
    every cell stored and each stored record equal to the oracle's."""
    if kind == "hang" and not hasattr(signal, "SIGALRM"):
        pytest.skip("watchdog needs SIGALRM")
    store = RecordStore(tmp_path / "cells") if stored else None
    registry = MetricsRegistry()
    records = _six(
        **POOLED[shape],
        timeout=0.3 if kind == "hang" else None,
        retry=FAST_RETRY,
        chaos=GridChaos(index=2, kind=kind, attempts=(0,)),
        store=store,
        registry=registry,
    )
    assert records == oracle
    # Attempts are charged per cell: the failed unit is the shard
    # (0, 1, 2) on "batched" and the one shard of all six cells on
    # "auto"; a dead pool also charges whatever else was still in flight.
    charged = 6 if shape == "auto" else 3
    retries = registry.counter("grid.retries_total").value
    assert retries >= charged if kind == "exit" else retries == charged
    if store is not None:
        assert len(store) == len(oracle)
        assert _six(executor="serial", store=store) == oracle


@pytest.mark.parametrize("shape", sorted(POOLED))
def test_poison_cell_is_quarantined_alone(shape):
    """A failed multi-cell unit is requeued as one-cell units, so with
    budget left the poison cell's shard-mates finish and only it is
    quarantined — from the same loop on both pooled shapes."""
    with pytest.raises(GridCellError) as excinfo:
        run_grid(
            SCHEMES,
            WORKS,
            PES,
            base_seed=7,
            **POOLED[shape],
            retry=ONE_RETRY,
            chaos=GridChaos(index=0, kind="raise", attempts=(0, 1)),
        )
    err = excinfo.value
    assert [(f.index, f.attempts) for f in err.failures] == [(0, 2)]
    assert len(err.completed) == 3
    serial = run_grid(SCHEMES, WORKS, PES, base_seed=7, executor="serial")
    assert list(err.completed) == serial[1:]


def test_persistent_failure_raises_structured_report():
    registry = MetricsRegistry()
    with pytest.raises(GridCellError) as excinfo:
        run_grid(
            SCHEMES,
            WORKS,
            PES,
            base_seed=7,
            n_jobs=2,
            registry=registry,
            retry=ONE_RETRY,
            chaos=GridChaos(index=0, kind="raise", attempts=(0, 1)),
        )
    err = excinfo.value
    assert len(err.failures) == 1
    failure = err.failures[0]
    assert isinstance(failure, GridFailure)
    assert failure.index == 0
    # The report names the cell's coordinates, not just an index.
    assert failure.scheme == "nGP-S0.75"
    assert failure.total_work == WORKS[0]
    assert failure.n_pes == PES[0]
    assert failure.attempts == 2
    assert "nGP-S0.75" in str(err)
    # Graceful degradation: the other three cells' records ride along,
    # and the typed quarantine report mirrors the text.
    assert len(err.completed) == 3
    assert all(r.metrics.total_work == r.total_work for r in err.completed)
    assert isinstance(err.quarantine, QuarantineReport)
    assert err.quarantine.indices == (0,)
    assert err.quarantine.n_cells == 4
    assert err.quarantine.n_completed == 3
    assert err.quarantine.max_retries == 1
    assert registry.counter("grid.quarantined").value == 1


def test_retry_and_timeout_config_validated():
    with pytest.raises(ConfigError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigError):
        run_grid(SCHEMES, WORKS, PES, timeout=0.0)
    with pytest.raises(ConfigError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ConfigError):
        RetryPolicy(base_delay=-0.1)
    # The retry budget has one spelling: retry=RetryPolicy(max_retries=...).
    with pytest.raises(TypeError):
        run_grid(SCHEMES, WORKS, PES, max_retries=1)


def test_serial_executor_rejects_hardening():
    """The in-process oracle arms no watchdog and fires no chaos, so
    asking it to is a typed error that names the way out."""
    with pytest.raises(ConfigError, match="auto"):
        run_grid(SCHEMES[:1], [400], [8], executor="serial", timeout=30.0)
    with pytest.raises(ConfigError, match="auto"):
        run_grid(
            SCHEMES[:1], [400], [8], executor="serial", chaos=GridChaos(index=0)
        )


def test_chaos_validation():
    with pytest.raises(ConfigError):
        GridChaos(index=0, kind="segfault")
    with pytest.raises(ConfigError):
        GridChaos(index=-1)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_replayable(self):
        policy = RetryPolicy(max_retries=3, base_delay=0.05, max_delay=1.0)
        schedule = [policy.delay(1234, a) for a in range(4)]
        # Pure function of (seed, attempt): replaying gives the same floats.
        assert schedule == [policy.delay(1234, a) for a in range(4)]
        # A different cell seed de-synchronizes the jitter.
        assert schedule != [policy.delay(4321, a) for a in range(4)]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=0.2, jitter=0.0)
        assert [policy.delay(0, a) for a in range(4)] == [
            0.05,
            0.1,
            0.2,
            0.2,
        ]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.08, max_delay=1.0, jitter=0.5)
        for attempt in range(3):
            d = policy.delay(99, attempt)
            full = min(1.0, 0.08 * 2**attempt)
            assert full * 0.5 <= d <= full

    def test_round_backoff_is_max_of_requeued_cell_delays(self, monkeypatch):
        """The sleep before a retry round is the max of the pure
        per-cell delays of the cells being requeued — here the whole
        failed shard (0, 2), each at attempt 0: the cost cut pairs the
        two W = 3000 cells and the two W = 1500 cells."""
        slept = []
        monkeypatch.setattr(runner_mod.time, "sleep", slept.append)
        policy = RetryPolicy(max_retries=1, base_delay=0.004, max_delay=0.01)
        run_grid(
            SCHEMES,
            WORKS,
            PES,
            base_seed=7,
            n_jobs=2,
            retry=policy,
            chaos=GridChaos(index=0, kind="raise", attempts=(0,)),
        )
        seeds = [runner_mod.cell_seed(7, index) for index in (0, 2)]
        assert slept == [max(policy.delay(seed, 0) for seed in seeds)]


class TestFallbackVisibility:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="watchdog needs SIGALRM"
    )
    def test_auto_hardening_is_pooled(self):
        """``auto`` + ``timeout``/``chaos`` used to resolve to the serial
        loop, which takes neither: the hang never fired and the gauge
        still read 1.  Now it is one pooled unit, really timed out."""
        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExecutorFallbackWarning)
            records = run_grid(
                ["GP-DK"],
                [400],
                [8],
                timeout=0.2,
                retry=FAST_RETRY,
                chaos=GridChaos(index=0, kind="hang"),
                registry=registry,
            )
        assert records == run_grid(["GP-DK"], [400], [8], executor="serial")
        snap = registry.snapshot()
        assert snap["counters"]["grid.executor{path=batched}"] == 1
        # One retry: proof the hang fired and the watchdog cut it short.
        assert snap["counters"]["grid.retries_total"] == 1
        assert snap["gauges"]["grid.timeout_enforced"] == 1.0

    def test_auto_unbatchable_fallback_warns_with_scheme_name(self):
        registry = MetricsRegistry()
        with pytest.warns(ExecutorFallbackWarning, match="FESS"):
            run_grid([fess_scheme()], [400], [8], registry=registry)
        snap = registry.snapshot()["counters"]
        assert snap["grid.executor_fallback{reason=unbatchable-scheme}"] == 1

    def test_auto_unbatchable_with_n_jobs(self):
        """``auto`` + ``n_jobs`` used to route FESS to the per-cell pool,
        which cannot pickle it (ConfigError); it falls back instead, and
        a timeout that cannot reach those cells is reported as such."""
        registry = MetricsRegistry()
        with pytest.warns(ExecutorFallbackWarning, match="FESS"):
            records = run_grid(
                [fess_scheme(), "GP-DK"],
                [400],
                [8],
                n_jobs=2,
                timeout=30.0,
                registry=registry,
            )
        with pytest.warns(ExecutorFallbackWarning):
            assert records == run_grid([fess_scheme(), "GP-DK"], [400], [8])
        assert registry.snapshot()["gauges"]["grid.timeout_enforced"] == 0.0

    def test_batched_fast_path_does_not_warn(self):
        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExecutorFallbackWarning)
            run_grid(SCHEMES[:1], [400], [8], base_seed=1, registry=registry)
        snap = registry.snapshot()["counters"]
        assert snap["grid.executor{path=batched}"] == 1
        assert not any(k.startswith("grid.executor_fallback") for k in snap)


class TestTimeoutEnforcement:
    def test_posix_timeout_reports_enforced(self):
        registry = MetricsRegistry()
        run_grid(
            SCHEMES[:1], [400], [8], base_seed=1, timeout=30.0, registry=registry
        )
        assert registry.snapshot()["gauges"]["grid.timeout_enforced"] == 1.0

    def test_off_posix_timeout_warns_once_and_flags_metadata(self, monkeypatch):
        monkeypatch.delattr(signal, "SIGALRM")
        monkeypatch.setattr(runner_mod, "_TIMEOUT_WARNING_EMITTED", False)
        registry = MetricsRegistry()
        with pytest.warns(TimeoutUnenforcedWarning, match="SIGALRM"):
            run_grid(
                SCHEMES[:1],
                [400],
                [8],
                base_seed=1,
                timeout=30.0,
                registry=registry,
            )
        assert registry.snapshot()["gauges"]["grid.timeout_enforced"] == 0.0
        # The warning is a one-per-process latch; the metadata is not.
        registry2 = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", TimeoutUnenforcedWarning)
            run_grid(
                SCHEMES[:1],
                [400],
                [8],
                base_seed=1,
                timeout=30.0,
                registry=registry2,
            )
        assert registry2.snapshot()["gauges"]["grid.timeout_enforced"] == 0.0
