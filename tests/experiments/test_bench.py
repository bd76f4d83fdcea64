"""Smoke tests for the ``python -m repro bench`` harness (tiny sizes)."""

import json

import pytest

from repro.experiments.bench import (
    bench_grid,
    bench_kernel_tiers,
    bench_search_full,
    bench_search_kernel,
    compare_bench,
    render_compare,
    run_bench,
    run_search_bench,
)
from repro.kernels.dispatch import available_backends


class TestKernelBench:
    def test_reports_all_variants(self):
        report = bench_kernel_tiers(
            n_pes=32, work_per_pe=40, warm_cycles=16, time_cycles=5
        )
        assert set(report["tiers"]) == set(available_backends())
        for row in report["tiers"].values():
            assert row["nodes_per_s"] > 0
            assert row["ms_per_cycle"] > 0
        assert report["speedup_fused_vs_numpy"] > 0
        assert report["records_identical"] is True


class TestGridBench:
    def test_all_executors_match_serial(self):
        report = bench_grid(n_jobs=2, works=(1_000, 2_000), pes=(16,))
        assert report["cells"] == 4
        assert report["records_identical"] is True
        assert report["serial_s"] > 0
        assert report["batched_s"] > 0
        assert report["process_s"] > 0
        assert report["speedup"] == pytest.approx(
            report["serial_s"] / report["batched_s"]
        )


class TestSearchKernelBench:
    def test_reports_all_backends_and_identity(self):
        report = bench_search_kernel(
            n_pes=32, scramble=30, bound_slack=10, warm_cycles=16, time_cycles=4
        )
        # arena-fused is the fused kernel tier over the same arena.
        assert set(report["backends"]) == {"arena", "arena-fused"}
        for row in report["backends"].values():
            assert row["nodes_per_s"] > 0
        assert report["backends_identical"] is True
        assert report["speedup_fused_vs_arena"] > 0


class TestRunSearchBench:
    def test_writes_json_report(self, tmp_path):
        out = tmp_path / "BENCH_search.json"
        report = run_search_bench(smoke=True, n_pes=32, out=out)
        persisted = json.loads(out.read_text())
        assert persisted["schema"] == 1
        assert persisted["smoke"] is True
        kernel = persisted["search"]["expansion_kernel"]
        assert kernel["backends_identical"] is True
        full = persisted["search"]["full_ida"]
        assert full["serial_parity"] is True
        assert set(full["seconds"]) == {"arena"}
        assert report["search"]["full_ida"]["total_expanded"] == full["total_expanded"]


class TestRunBench:
    def test_writes_json_report(self, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        # search_out must be redirected too: the default would overwrite
        # the repo-root BENCH_search.json with a smoke-sized report.
        report = run_bench(
            smoke=True,
            n_pes=32,
            n_jobs=2,
            out=out,
            search_out=tmp_path / "BENCH_search.json",
        )
        persisted = json.loads(out.read_text())
        assert persisted["schema"] == 1
        assert persisted["smoke"] is True
        assert persisted["host"]["cpu_count"] >= 1
        assert set(persisted["kernels"]) == {"fused"}
        assert (
            persisted["kernels"]["fused"]["speedup_fused_vs_numpy"]
            == report["kernels"]["fused"]["speedup_fused_vs_numpy"]
        )
        assert persisted["kernels"]["fused"]["records_identical"] is True
        assert persisted["grid"]["records_identical"] is True
        assert report["search_report"]["search"]["expansion_kernel"][
            "backends_identical"
        ]
        assert (tmp_path / "BENCH_search.json").exists()

    def test_no_search_skips_search_report(self, tmp_path):
        report = run_bench(
            smoke=True, n_pes=32, n_jobs=2,
            out=tmp_path / "k.json", search_out=None,
        )
        assert "search_report" not in report
        assert not (tmp_path / "BENCH_search.json").exists()


class TestBestOfN:
    def test_repeats_reported(self):
        report = bench_kernel_tiers(
            n_pes=16, work_per_pe=20, warm_cycles=8, time_cycles=4, repeats=2
        )
        assert report["repeats"] == 2
        for row in report["tiers"].values():
            assert row["ms_per_cycle"] > 0

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            bench_kernel_tiers(
                n_pes=16, work_per_pe=20, warm_cycles=8, time_cycles=4, repeats=0
            )

    def test_full_run_repeats_stay_bit_identical(self):
        """Every repeat of the full IDA* run is the same search: the one
        kept for the report still matches serial IDA* node for node."""
        report = bench_search_full(instance="tiny", n_pes=16, repeats=2)
        assert report["repeats"] == 2
        assert report["serial_parity"] is True


def _report(nodes_per_s, seconds):
    return {
        "schema": 1,
        "search": {
            "expansion_kernel": {
                "backends": {"arena": {"nodes_per_s": nodes_per_s}},
            },
            "full_ida": {"seconds": {"arena": seconds}},
        },
    }


class TestCompareBench:
    def test_within_tolerance_passes(self):
        old = _report(100_000.0, 1.0)
        new = _report(95_000.0, 1.04)  # 5% and 4% regressions
        result = compare_bench(old, new, tolerance=0.10)
        assert result["ok"] is True
        assert result["worst_regression"] == pytest.approx(0.05)
        assert len(result["rows"]) == 2

    def test_regression_past_tolerance_fails(self):
        old = _report(100_000.0, 1.0)
        new = _report(80_000.0, 1.0)  # 20% throughput drop
        result = compare_bench(old, new, tolerance=0.10)
        assert result["ok"] is False
        bad = [r for r in result["rows"] if r["regression"]]
        assert len(bad) == 1
        assert bad[0]["section"].endswith("arena.nodes_per_s")
        assert "REGRESSED" in render_compare(result)

    def test_direction_awareness(self):
        """Lower seconds is an improvement, not a regression — and the
        converse for throughput."""
        old = _report(100_000.0, 1.0)
        new = _report(120_000.0, 0.8)  # both strictly better
        result = compare_bench(old, new, tolerance=0.0)
        assert result["ok"] is True
        assert all(not r["regression"] for r in result["rows"])
        assert any(r["improvement"] for r in result["rows"])

    def test_dropped_section_is_not_a_regression(self):
        """Retiring a backend (e.g. list-memo) drops its metrics from the
        new report; that must be reported, not scored as a failure."""
        old = _report(100_000.0, 1.0)
        old["search"]["expansion_kernel"]["backends"]["list-memo"] = {
            "nodes_per_s": 50_000.0
        }
        new = _report(100_000.0, 1.0)
        result = compare_bench(old, new, tolerance=0.10)
        assert result["ok"] is True
        assert any("list-memo" in path for path in result["dropped"])
        assert "dropped in new report" in render_compare(result)

    def test_added_section_listed(self):
        old = _report(100_000.0, 1.0)
        new = _report(100_000.0, 1.0)
        new["search"]["expansion_kernel"]["backends"]["simd"] = {
            "nodes_per_s": 1_000_000.0
        }
        result = compare_bench(old, new)
        assert any("simd" in path for path in result["added"])

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_bench(_report(1.0, 1.0), _report(1.0, 1.0), tolerance=-0.1)

    def test_non_metric_fields_ignored(self):
        """generated_unix / host / schema never compare — cross-machine
        diffs of committed BENCH_*.json files must be noise-free."""
        old = _report(100_000.0, 1.0)
        new = _report(100_000.0, 1.0)
        old["generated_unix"], new["generated_unix"] = 1.0, 9.9e9
        old["host"] = {"cpu_count": 1, "platform": "a", "python": "3.11"}
        new["host"] = {"cpu_count": 64, "platform": "b", "python": "3.12"}
        old["schema"], new["schema"] = 1, 2
        result = compare_bench(old, new, tolerance=0.0)
        assert result["ok"] is True
        assert result["dropped"] == [] and result["added"] == []
        sections = {r["section"] for r in result["rows"]}
        assert not any(
            s.startswith(("generated_unix", "host", "schema")) for s in sections
        )

    def test_ratios_only_ignores_absolute_timings(self):
        """The CI gate mode: absolute wall-clock leaves (host-dependent)
        drop out; only speedup* ratios are scored."""
        old = _report(100_000.0, 1.0)
        new = _report(10_000.0, 50.0)  # 10x slower absolute numbers
        old["search"]["expansion_kernel"]["speedup_arena_vs_list"] = 5.0
        new["search"]["expansion_kernel"]["speedup_arena_vs_list"] = 4.9
        result = compare_bench(old, new, tolerance=0.5, ratios_only=True)
        assert result["ok"] is True
        assert [r["section"] for r in result["rows"]] == [
            "search.expansion_kernel.speedup_arena_vs_list"
        ]

    def test_ratios_only_still_catches_ratio_collapse(self):
        old = _report(100_000.0, 1.0)
        new = _report(100_000.0, 1.0)
        old["search"]["expansion_kernel"]["speedup_arena_vs_list"] = 5.0
        new["search"]["expansion_kernel"]["speedup_arena_vs_list"] = 1.1
        result = compare_bench(old, new, tolerance=0.5, ratios_only=True)
        assert result["ok"] is False

    def test_non_metric_prune_shields_colliding_names(self):
        """Even a metric-named leaf nested under a non-metric subtree
        (e.g. host.seconds) stays out of the comparison."""
        old = _report(100_000.0, 1.0)
        new = _report(100_000.0, 1.0)
        old["host"] = {"seconds": 1.0}
        new["host"] = {"seconds": 50.0}
        result = compare_bench(old, new, tolerance=0.0)
        assert result["ok"] is True
        assert all("host" not in r["section"] for r in result["rows"])
