import json

import pytest

from repro.cli import main


class TestSchemes:
    def test_lists_registry(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "GP-DK" in out and "nGP-DP" in out


class TestRun:
    def test_basic_run(self, capsys):
        assert main(["run", "GP-S0.8", "--work", "5000", "--pes", "32"]) == 0
        out = capsys.readouterr().out
        assert "W=5000" in out and "efficiency=" in out

    def test_lb_multiplier(self, capsys):
        main(["run", "GP-DK", "--work", "5000", "--pes", "32", "--lb-mult", "8"])
        assert "GP-DK" in capsys.readouterr().out

    def test_bad_scheme_raises(self):
        with pytest.raises(ValueError):
            main(["run", "XX-S0.5", "--work", "100", "--pes", "4"])

    def test_fault_and_checkpoint_flags_are_gone(self, capsys):
        """The divisible run has no fault plan, checkpoint or resume, so
        its scheme is a required positional and the old flags are usage
        errors."""
        for argv in (
            ["run", "GP-S0.90", "--faults", "kill=1"],
            ["run", "GP-S0.90", "--checkpoint", "ck.bin"],
            ["run", "--resume", "ck.bin"],
            ["run"],
            ["solve", "puzzle", "--faults", "kill=1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: repro" in capsys.readouterr().err


class TestSolve:
    def test_puzzle(self, capsys):
        assert main(
            ["solve", "puzzle", "--size", "14", "--pes", "8", "--scheme", "GP-S0.75"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal cost=" in out

    def test_queens(self, capsys):
        assert main(["solve", "queens", "--size", "6", "--pes", "4"]) == 0
        assert "solutions=4" in capsys.readouterr().out

    def test_knapsack(self, capsys):
        assert main(["solve", "knapsack", "--size", "14", "--pes", "8"]) == 0
        out = capsys.readouterr().out
        assert "optimum=" in out and "DP check" in out

    def test_tsp(self, capsys):
        assert main(["solve", "tsp", "--size", "8", "--pes", "8"]) == 0
        assert "optimum=" in capsys.readouterr().out

    def test_coloring(self, capsys):
        assert main(["solve", "coloring", "--size", "8", "--pes", "8"]) == 0
        assert "proper colorings" in capsys.readouterr().out

    def test_rejects_unknown_problem(self):
        with pytest.raises(SystemExit):
            main(["solve", "sudoku"])

    @pytest.mark.parametrize("command", ["solve", "grid", "trace"])
    def test_kernel_backend_flag_is_gone(self, command, capsys):
        """Each kernel has one implementation, so there is no tier to
        pick and no storage flag either: both are usage errors."""
        from repro.cli import build_parser

        argv = {
            "solve": ["solve", "puzzle"],
            "grid": ["grid", "g.json", "--works", "100", "--pes", "4"],
            "trace": ["trace"],
        }[command]
        for flag in ("--kernel-backend", "--backend"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*argv, flag, "numpy"])
            assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("scheme", ["nGP-DP", "GP-DK", "GP-S0.75"])
    def test_init_threshold_follows_section_7(self, scheme, capsys):
        """``solve`` seeds the run exactly as the library's
        :func:`default_init_threshold` says."""
        from repro.experiments.runner import default_init_threshold
        from repro.problems.fifteen_puzzle import scrambled_fifteen_puzzle
        from repro.search.parallel import ParallelIDAStar

        assert main(
            ["solve", "puzzle", "--size", "14", "--pes", "8", "--scheme", scheme]
        ) == 0
        out = capsys.readouterr().out
        result = ParallelIDAStar(
            scrambled_fifteen_puzzle(14, rng=0), 8, scheme,
            init_threshold=default_init_threshold(scheme),
        ).run()
        assert f"E={result.metrics.efficiency:.3f}" in out


class TestXo:
    def test_prints_trigger(self, capsys):
        assert main(["xo", "--work", "941852", "--pes", "8192"]) == 0
        out = capsys.readouterr().out
        assert "x_o = 0.81" in out  # the Table 2 value


class TestGridIsoeff:
    def test_grid_then_isoeff(self, tmp_path, capsys):
        store = tmp_path / "grid.json"
        assert main(
            [
                "grid", str(store),
                "--schemes", "GP-S0.85",
                "--works", "5000", "20000", "80000",
                "--pes", "16", "32",
            ]
        ) == 0
        assert store.exists()
        capsys.readouterr()
        assert main(["isoeff", str(store), "--target", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "GP-S0.85" in out

    def test_isoeff_unknown_scheme(self, tmp_path):
        store = tmp_path / "grid.json"
        main(["grid", str(store), "--works", "2000", "--pes", "8"])
        with pytest.raises(ValueError, match="not in store"):
            main(["isoeff", str(store), "--scheme", "nGP-DP"])

    def test_isoeff_unbracketed_target(self, tmp_path, capsys):
        store = tmp_path / "grid.json"
        main(["grid", str(store), "--works", "2000", "--pes", "8"])
        capsys.readouterr()
        assert main(["isoeff", str(store), "--target", "0.999"]) == 0
        assert "not bracketed" in capsys.readouterr().out

    def test_grid_parallel_jobs(self, tmp_path, capsys):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        args = ["--schemes", "GP-S0.75", "--works", "2000", "4000", "--pes", "16"]
        assert main(["grid", str(serial), *args]) == 0
        assert main(["grid", str(parallel), *args, "--jobs", "2"]) == 0
        assert serial.read_text() == parallel.read_text()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_grid_rejects_bad_jobs(self, tmp_path, capsys, jobs):
        """``--jobs 0`` and ``-1`` used to run one worker silently."""
        out = tmp_path / "g.json"
        args = ["--works", "1000", "--pes", "8", "--jobs", jobs]
        assert main(["grid", str(out), *args]) == 2
        assert "n_jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_executor_flag(self, tmp_path, capsys):
        """Every --executor choice, and the in-process arena (--jobs 1),
        writes identical records, and the flag choices mirror
        runner.GRID_EXECUTORS (kept literal in the parser so building it
        stays import-light)."""
        from repro.experiments.runner import GRID_EXECUTORS

        args = ["--schemes", "GP-S0.75", "--works", "1000", "--pes", "8"]
        runs = {
            "serial": ["--executor", "serial"],
            "auto": ["--executor", "auto"],
            "inproc": ["--jobs", "1"],
        }
        paths = {}
        for name, flags in runs.items():
            paths[name] = tmp_path / f"{name}.json"
            assert main(["grid", str(paths[name]), *args, *flags]) == 0
        texts = {p.read_text() for p in paths.values()}
        assert len(texts) == 1
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["grid", "g.json", "--executor", "batched"])
        assert exc.value.code == 2
        grid_sub = next(
            a for a in parser._subparsers._group_actions[0].choices.values()
            if a.prog.endswith(" grid")
        )
        flag = next(
            a for a in grid_sub._actions if "--executor" in a.option_strings
        )
        assert tuple(flag.choices) == GRID_EXECUTORS


class TestBench:
    def test_smoke_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernels.json"
        search_out = tmp_path / "BENCH_search.json"
        # --search-out keeps the test from overwriting the repo-root
        # BENCH_search.json (the committed full-scale report).
        assert main(
            ["bench", "--smoke", "--pes", "32", "--jobs", "2",
             "--out", str(out), "--search-out", str(search_out)]
        ) == 0
        printed = capsys.readouterr().out
        assert "stack expand_cycle kernel" in printed
        assert "record-identical: True" in printed
        assert "search expand_cycle kernel" in printed
        report = json.loads(out.read_text())
        assert report["smoke"] is True
        assert report["kernels"]["stack"]["nodes_per_s"] > 0
        search = json.loads(search_out.read_text())
        assert search["search"]["expansion_kernel"]["nodes_per_s"] > 0
        assert search["search"]["full_ida"]["serial_parity"] is True

    def test_no_search_skips_search_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernels.json"
        assert main(
            ["bench", "--smoke", "--pes", "32", "--jobs", "2",
             "--out", str(out), "--no-search"]
        ) == 0
        printed = capsys.readouterr().out
        assert "search expand_cycle kernel" not in printed
        assert not (tmp_path / "BENCH_search.json").exists()


class TestTableFigure:
    def test_table1(self, capsys):
        assert main(["table", "1", "--scale", "tiny"]) == 0
        assert "GP-DK" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert main(["table", "6"]) == 0
        assert "O(P log P)" in capsys.readouterr().out

    def test_table_out(self, tmp_path, capsys):
        assert main(["table", "6", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table6.txt").exists()

    def test_figure1(self, capsys):
        assert main(["figure", "1", "--scale", "tiny"]) == 0
        assert "R1" in capsys.readouterr().out

    def test_rejects_unknown_table(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestStats:
    def test_run_stats_then_render(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(
            ["run", "GP-DK", "--work", "5000", "--pes", "32", "--stats", str(snap)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "runs_total" in out
        assert "ledger.t_par{scheme=GP-DK}" in out
        assert "ledger identity" in out and "GP-DK" in out

    def test_grid_stats_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(
            [
                "grid", str(tmp_path / "grid.json"),
                "--schemes", "GP-DK", "nGP-S0.90",
                "--works", "2000",
                "--pes", "16",
                "--stats", str(snap),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "grid.cells_total" in out
        assert "holds for 2 scheme(s)" in out

    def test_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_identity_break_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        main(["run", "GP-DK", "--work", "2000", "--pes", "16", "--stats", str(snap)])
        data = json.loads(snap.read_text())
        data["gauges"]["ledger.t_calc{scheme=GP-DK}"] += 99.0
        snap.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["stats", str(snap)]) == 2
        assert "ledger identity" in capsys.readouterr().err
        assert main(["stats", str(snap), "--no-check"]) == 0


class TestTrace:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["trace", "--work", "4000", "--pes", "32", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "expand.stack.arena" in names
        assert "lb.match" in names
        text = capsys.readouterr().out
        assert "chrome trace" in text and "expand.stack.arena" in text

    @pytest.mark.parametrize("scheme", ["nGP-DP", "GP-DK", "GP-S0.75"])
    def test_init_threshold_follows_section_7(self, scheme, tmp_path, capsys):
        """``trace`` seeds the run exactly as the library's
        :func:`default_init_threshold` says."""
        from repro.core.scheduler import Scheduler
        from repro.experiments.runner import default_init_threshold
        from repro.simd.machine import SimdMachine
        from repro.workmodel.stackmodel import StackWorkload

        assert main(
            ["trace", "--work", "4000", "--pes", "32", "--scheme", scheme,
             "--out", str(tmp_path / "trace.json")]
        ) == 0
        out = capsys.readouterr().out
        metrics = Scheduler(
            StackWorkload(4000, 32, rng=0), SimdMachine(32), scheme,
            init_threshold=default_init_threshold(scheme),
        ).run()
        assert f"E={metrics.efficiency:.4f}" in out



class TestServeCommand:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "9999",
                "--store", "s", "--workers", "4", "--max-pending", "8",
            ]
        )
        assert args.command == "serve"
        assert args.port == 9999
        assert args.max_pending == 8

    def test_backend_choices_are_closed(self):
        """There is one HTTP backend, so there is no flag to pick it."""
        from repro.cli import build_parser

        for backend in ("stdlib", "fastapi", "flask"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--backend", backend])
