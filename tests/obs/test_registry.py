"""Metrics registry: instruments, snapshots, and the ledger-identity check."""

import json

import pytest

from repro.errors import RecordStoreError
from repro.experiments.runner import run_divisible
from repro.obs import (
    MetricsRegistry,
    Observability,
    check_snapshot_identity,
    load_snapshot,
    record_run,
    render_snapshot,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrement(self):
        reg = MetricsRegistry()
        c = reg.counter("nodes")
        c.inc()
        c.inc(41)
        assert reg.counter("nodes").value == 42
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_labels_become_distinct_keys(self):
        reg = MetricsRegistry()
        reg.counter("lb.phases", {"scheme": "GP-DK"}).inc()
        reg.counter("lb.phases", {"scheme": "nGP-DP"}).inc(2)
        snap = reg.snapshot()
        assert snap["counters"]["lb.phases{scheme=GP-DK}"] == 1
        assert snap["counters"]["lb.phases{scheme=nGP-DP}"] == 2

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("eff").set(0.5)
        reg.gauge("eff").set(0.9)
        assert reg.gauge("eff").value == 0.9

    def test_histogram_buckets_cumulative_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("transfers", buckets=(1, 10))
        for v in (0, 1, 5, 100):
            h.observe(v)
        assert h.count == 4
        assert h.bucket_counts == [2, 1, 1]  # <=1, <=10, +Inf
        assert h.mean == pytest.approx(106 / 4)


class TestSnapshotPersistence:
    def test_save_load_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(7)
        path = reg.save_json(tmp_path / "snap.json")
        assert load_snapshot(path) == reg.snapshot()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{not json")
        with pytest.raises(RecordStoreError):
            load_snapshot(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(RecordStoreError, match="schema"):
            load_snapshot(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(RecordStoreError):
            load_snapshot(tmp_path / "absent.json")


class TestRecordRun:
    @pytest.fixture(scope="class")
    def registry(self):
        reg = MetricsRegistry()
        obs = Observability(metrics=reg)
        run_divisible("GP-DK", 5_000, 32, seed=3, obs=obs)
        return reg

    def test_ledger_identity_holds_in_snapshot(self, registry):
        assert check_snapshot_identity(registry.snapshot()) == ["GP-DK"]

    def test_counters_match_run(self, registry):
        snap = registry.snapshot()
        assert snap["counters"]["runs_total"] == 1
        assert snap["counters"]["search.nodes_expanded{scheme=GP-DK}"] == 5_000

    def test_identity_check_catches_tampering(self, registry):
        snap = registry.snapshot()
        snap["gauges"]["ledger.t_calc{scheme=GP-DK}"] += 123.0
        with pytest.raises(RecordStoreError, match="ledger identity"):
            check_snapshot_identity(snap)
        # An old snapshot's recovery line passes at 0 and is refused
        # otherwise: the identity has no term left to carry it.
        snap = registry.snapshot()
        snap["gauges"]["ledger.t_recovery{scheme=GP-DK}"] = 0.0
        assert check_snapshot_identity(snap) == ["GP-DK"]
        snap["gauges"]["ledger.t_recovery{scheme=GP-DK}"] = 0.5
        with pytest.raises(RecordStoreError, match="T_recovery"):
            check_snapshot_identity(snap)

    def test_render_is_deterministic_text(self, registry):
        text = render_snapshot(registry.snapshot())
        assert text == render_snapshot(registry.snapshot())
        assert "runs_total" in text and "ledger.t_par{scheme=GP-DK}" in text


class TestFold:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("nodes").inc(10)
        b.counter("nodes").inc(32)
        b.counter("lb.phases", {"scheme": "GP-DK"}).inc()
        a.fold(b)
        assert a.counter("nodes").value == 42
        assert a.snapshot()["counters"]["lb.phases{scheme=GP-DK}"] == 1

    def test_gauges_take_folded_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("eff").set(0.1)
        b.gauge("eff").set(0.9)
        a.fold(b)
        assert a.gauge("eff").value == 0.9

    def test_histograms_merge_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0, 5):
            a.histogram("transfers", buckets=(1, 10)).observe(v)
        for v in (1, 100):
            b.histogram("transfers", buckets=(1, 10)).observe(v)
        a.fold(b)
        h = a.histogram("transfers", buckets=(1, 10))
        assert h.count == 4
        assert h.bucket_counts == [2, 1, 1]

    def test_bucket_mismatch_is_refused(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("transfers", buckets=(1, 10)).observe(1)
        b._histograms["transfers"] = type(a._histograms["transfers"])(
            "transfers", (2, 20)
        )
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.fold(b)

    def test_fold_empty_is_identity(self):
        a = MetricsRegistry()
        a.counter("nodes").inc(7)
        before = a.snapshot()
        a.fold(MetricsRegistry())
        assert a.snapshot() == before
