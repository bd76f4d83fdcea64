"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``schemes`` — list the Table 1 scheme registry.
- ``run`` — one load-balancing run over the divisible workload; supports
  fault injection (``--faults``) and checkpoint/resume (``--checkpoint``,
  ``--resume``).
- ``solve`` — solve a real problem instance (puzzle / queens / knapsack
  / tsp) with parallel search on the simulated machine.
- ``xo`` — the Equation 18 optimal static trigger for a configuration.
- ``table`` / ``figure`` — regenerate a paper table or figure.
- ``bench`` — time the kernel tiers, the real-search kernels and a
  small grid; writes ``BENCH_kernels.json`` and ``BENCH_search.json``
  for the perf trajectory.
- ``stats`` — render a metrics-registry snapshot (written by ``run
  --stats`` / ``grid --stats``) and check the ledger identity
  ``P * T_par == T_calc + T_idle + T_lb + T_recovery`` it must encode.
- ``trace`` — run one profiled stack-model workload and write a
  Chrome-trace / Perfetto ``trace.json`` of the kernel spans.
- ``lint`` — the SIMD-discipline static checks (rules R001-R005).

Every command prints plain text and exits non-zero on bad arguments, so
the CLI scripts cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unstructured tree search on simulated SIMD machines "
        "(Karypis & Kumar, 1992).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list the Table 1 load-balancing schemes")

    run = sub.add_parser("run", help="run a scheme over the divisible workload")
    run.add_argument(
        "scheme", nargs="?", default=None,
        help="scheme spec, e.g. GP-S0.90 or nGP-DK (omit with --resume)",
    )
    run.add_argument("--work", type=int, default=1_000_000, help="W, total nodes")
    run.add_argument("--pes", type=int, default=1024, help="P, processors")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--lb-mult", type=float, default=1.0, help="LB transfer cost multiplier"
    )
    run.add_argument(
        "--init", type=float, default=None,
        help="initial-distribution threshold (default: 0.85 for dynamic triggers)",
    )
    run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-plan spec, e.g. 'kill=2,drop=0.05,seed=1' or "
        "'kill=3:40+7:90,straggle=2,slow=4'",
    )
    run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a checkpoint file here every --checkpoint-every cycles",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=100, metavar="N",
        help="cycles between checkpoint writes (default 100)",
    )
    run.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a checkpointed run instead of starting fresh",
    )
    run.add_argument(
        "--sanitize", action="store_true",
        help="enable the per-cycle runtime sanitizer",
    )
    run.add_argument(
        "--stats", default=None, metavar="PATH",
        help="write a metrics-registry snapshot here (view with 'repro stats')",
    )

    solve = sub.add_parser("solve", help="solve a real problem instance")
    solve.add_argument(
        "problem", choices=["puzzle", "queens", "knapsack", "tsp", "coloring"],
    )
    solve.add_argument("--scheme", default="GP-DK")
    solve.add_argument("--pes", type=int, default=64)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--size", type=int, default=None,
        help="puzzle: scramble length (default 25); queens: board size "
        "(default 8); knapsack: items (default 20); tsp: cities "
        "(default 10); coloring: vertices (default 10, 3 colors)",
    )
    solve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-plan spec (puzzle/queens/coloring only), "
        "e.g. 'kill=1,drop=0.02,seed=3'",
    )
    solve.add_argument(
        # Mirrors kernels.dispatch BACKENDS / DEFAULT_KERNEL_BACKEND; kept
        # literal so building the parser stays import-light (locked by a
        # CLI test).
        "--kernel-backend", default="auto",
        choices=["auto", "numpy", "fused", "jit"],
        help="expand-cycle kernel tier for problems with a vectorized "
        "arena form (the puzzle); accepted and inert for the others.  "
        "'jit' needs numba and degrades to 'fused' without it "
        "(default: auto)",
    )

    xo = sub.add_parser("xo", help="Equation 18 optimal static trigger")
    xo.add_argument("--work", type=float, required=True)
    xo.add_argument("--pes", type=int, required=True)
    xo.add_argument("--u-calc", type=float, default=0.030)
    xo.add_argument("--t-lb", type=float, default=0.013)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=[1, 2, 3, 4, 5, 6])
    table.add_argument("--scale", default="small", choices=["tiny", "small", "paper"])
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--out", default=None, help="directory to save the table")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=[1, 3, 4, 5, 6, 7, 8])
    figure.add_argument("--scale", default="small", choices=["tiny", "small", "paper"])
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--out", default=None, help="directory to save the figure")

    grid = sub.add_parser(
        "grid", help="run a (scheme, W, P) grid and save it as JSON"
    )
    grid.add_argument("out", help="output JSON path")
    grid.add_argument("--schemes", nargs="+", default=["GP-S0.90"])
    grid.add_argument("--works", nargs="+", type=int, required=True)
    grid.add_argument("--pes", nargs="+", type=int, required=True)
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the grid cells (default: serial)",
    )
    grid.add_argument(
        # Mirrors runner.GRID_EXECUTORS; kept literal so building the
        # parser stays import-light (locked by a CLI test).
        "--executor", default="auto",
        choices=["auto", "serial", "process", "batched"],
        help="grid execution strategy: batched packs all cells into one "
        "mega-arena; process is the per-cell pool; auto picks batched "
        "when every cell supports it (default: auto)",
    )
    grid.add_argument(
        "--stats", default=None, metavar="PATH",
        help="write a metrics-registry snapshot here (view with 'repro stats')",
    )
    grid.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead cell journal: each completed cell is durably "
        "recorded here the moment it finishes",
    )
    grid.add_argument(
        "--resume", action="store_true",
        help="skip cells already recorded in --journal (bit-identical to "
        "an uninterrupted run)",
    )
    grid.add_argument(
        "--kernel-backend", default="auto",
        choices=["auto", "numpy", "fused", "jit"],
        help="kernel tier for the batched executor's mega-arena "
        "(serial/process paths ignore it; every tier is "
        "record-identical; default: auto)",
    )

    bench = sub.add_parser(
        "bench",
        help="time the hot kernels; write BENCH_kernels.json + BENCH_search.json",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="few-second CI variant (small machine width, short timings)",
    )
    bench.add_argument(
        "--pes", type=int, default=None,
        help="machine width for the kernel benches (default: 4096, smoke: 256)",
    )
    bench.add_argument(
        "--jobs", type=int, default=4, help="worker processes for the grid bench"
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--out", default=None,
        help="report path (default: BENCH_kernels.json in the cwd)",
    )
    bench.add_argument(
        "--search-out", default=None,
        help="search report path (default: BENCH_search.json in the cwd)",
    )
    bench.add_argument(
        "--no-search", action="store_true",
        help="skip the real-search section (stack-model kernels only)",
    )
    bench.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="diff two bench JSON reports instead of running benches; "
        "exits 1 if any metric regressed past --tolerance",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional regression for --compare (default: 0.10)",
    )
    bench.add_argument(
        "--ratios-only", action="store_true",
        help="--compare only the host-independent speedup* ratios — use "
        "when OLD and NEW were produced on different machines (CI gates "
        "a fresh smoke report against the committed baseline this way)",
    )

    stats = sub.add_parser(
        "stats", help="render a metrics-registry snapshot as a table"
    )
    stats.add_argument("snapshot", help="JSON path written with --stats")
    stats.add_argument(
        "--no-check", action="store_true",
        help="skip the per-scheme ledger-identity check",
    )

    trace = sub.add_parser(
        "trace", help="profile one stack-model run; write Chrome-trace JSON"
    )
    trace.add_argument(
        "--out", default="trace.json",
        help="Chrome-trace output path (default: trace.json; open in "
        "chrome://tracing or ui.perfetto.dev)",
    )
    trace.add_argument("--scheme", default="GP-DK")
    trace.add_argument("--work", type=int, default=50_000, help="W, total nodes")
    trace.add_argument("--pes", type=int, default=256, help="P, processors")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--kernel-backend", default="auto",
        choices=["auto", "numpy", "fused", "jit"],
        help="expand-cycle kernel tier to profile (default: auto)",
    )

    iso = sub.add_parser(
        "isoeff", help="extract an isoefficiency curve from a saved grid"
    )
    iso.add_argument("store", help="JSON path written by 'grid'")
    iso.add_argument("--target", type=float, default=0.7, help="efficiency level")
    iso.add_argument(
        "--scheme", default=None, help="restrict to one scheme (default: all)"
    )

    report = sub.add_parser(
        "report", help="consolidate results/ artifacts into one report"
    )
    report.add_argument("--results", default="results", help="artifacts directory")
    report.add_argument("--out", default=None, help="write the report here")

    lint = sub.add_parser(
        "lint",
        help="SIMD-discipline static checks (R001-R005; --strict adds "
        "the R100-R103 dataflow rules)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    lint.add_argument(
        "--format", dest="fmt", choices=["text", "json", "sarif"],
        default="text",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule subset, e.g. R001,R103 (default: "
        "R001-R005, plus R100-R103 under --strict)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="run the dataflow rule family (R100-R103) too: call-graph "
        "RNG provenance, kernel purity, mask-guarded writes",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="drop findings fingerprinted in this baseline file; only "
        "non-baselined findings fail the run (the ratchet)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline (default .lint-baseline.json) with the "
        "current findings and exit 0",
    )
    lint.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the formatted report here (a text summary still "
        "prints to stdout)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="describe the rules and exit"
    )

    serve = sub.add_parser(
        "serve",
        help="run the content-addressed experiment service (POST /solve, "
        "POST /grid, GET /jobs, GET /records; identical re-submissions "
        "are served from the shared record store)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port; 0 picks a free one (default: 8642)",
    )
    serve.add_argument(
        "--store", default="serve-data",
        help="service root: record store + per-job artifacts (default: "
        "serve-data/)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes computing queued jobs (default: 2)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=32,
        help="queued-plus-running job bound; beyond it submissions get "
        "429 (default: 32)",
    )

    return parser


def _cmd_schemes() -> int:
    from repro.core.config import PAPER_SCHEMES, make_scheme

    print("Table 1 load-balancing schemes (spec -> transfers per LB phase):")
    for spec in PAPER_SCHEMES:
        scheme = make_scheme(spec)
        kind = "multiple" if scheme.multiple_transfers else "single"
        print(f"  {scheme.name:11s} {kind}")
    print("\nstatic thresholds are free: any 'GP-S<x>' or 'nGP-S<x>' works.")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_divisible
    from repro.faults import CheckpointConfig, FaultPlan, resume_run
    from repro.simd.cost import CostModel

    registry = None
    obs = None
    if args.stats:
        from repro.obs import MetricsRegistry, Observability

        registry = MetricsRegistry()
        obs = Observability(metrics=registry)
    checkpoint = (
        CheckpointConfig(args.checkpoint, every=args.checkpoint_every)
        if args.checkpoint
        else None
    )
    if args.resume:
        metrics = resume_run(args.resume, checkpoint=checkpoint)
        if registry is not None:
            # resume_run rebuilds the scheduler itself; fold the finished
            # run into the registry here instead of threading obs through.
            from repro.obs import record_run

            record_run(registry, metrics)
    else:
        if args.scheme is None:
            print(
                "repro run: error: a scheme is required unless --resume is given",
                file=sys.stderr,
            )
            return 2
        faults = (
            FaultPlan.from_spec(args.faults, args.pes) if args.faults else None
        )
        cost = CostModel().with_lb_multiplier(args.lb_mult)
        init = args.init if args.init is not None else "auto"
        metrics = run_divisible(
            args.scheme,
            args.work,
            args.pes,
            cost_model=cost,
            seed=args.seed,
            init_threshold=init,
            faults=faults,
            checkpoint=checkpoint,
            sanitize=args.sanitize,
            obs=obs,
        )
    print(
        f"{metrics.scheme}: W={metrics.total_work}  P={metrics.n_pes}\n"
        f"  Nexpand={metrics.n_expand}  Nlb={metrics.n_lb}  "
        f"transfers={metrics.n_transfers}\n"
        f"  efficiency={metrics.efficiency:.4f}  speedup={metrics.speedup:.1f}"
    )
    _print_fault_report(metrics)
    if registry is not None:
        path = registry.save_json(args.stats)
        print(f"  metrics snapshot written to {path}")
    return 0


def _print_fault_report(metrics: object) -> None:
    report = getattr(metrics, "faults", None)
    if report is None or not report.any_faults:
        return
    inner = getattr(metrics, "ledger", None)
    recovery = f"  T_recovery={inner.t_recovery:.3f}" if inner is not None else ""
    print(
        f"  faults: deaths={report.pe_deaths}  "
        f"quarantined={report.nodes_quarantined}  "
        f"recovered={report.nodes_recovered}  "
        f"dropped={report.transfers_dropped}  "
        f"duplicated={report.transfers_duplicated}{recovery}"
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.kernels.dispatch import jit_note
    from repro.search.branch_and_bound import ParallelDFBB
    from repro.search.parallel import ParallelIDAStar

    faults = None
    if args.faults:
        if args.problem in ("knapsack", "tsp"):
            print(
                "repro solve: error: --faults supports the IDA* problems "
                "(puzzle, queens, coloring) only",
                file=sys.stderr,
            )
            return 2
        from repro.faults import FaultPlan

        faults = FaultPlan.from_spec(args.faults, args.pes)
    if args.kernel_backend == "jit" and jit_note() is not None:
        print(f"note: {jit_note()}")
    init = 0.85 if args.scheme.endswith(("DK", "DP")) else None
    if args.problem == "puzzle":
        from repro.problems.fifteen_puzzle import scrambled_fifteen_puzzle

        puzzle = scrambled_fifteen_puzzle(args.size or 25, rng=args.seed)
        print("instance:", puzzle.tiles)
        result = ParallelIDAStar(
            puzzle, args.pes, args.scheme, init_threshold=init, faults=faults,
            kernel_backend=args.kernel_backend,
        ).run()
        print(
            f"optimal cost={result.solution_cost}  solutions={result.solutions}\n"
            f"W={result.total_expanded}  cycles={result.metrics.n_expand}  "
            f"Nlb={result.metrics.n_lb}  E={result.metrics.efficiency:.3f}"
        )
        _print_fault_report(result.metrics)
    elif args.problem == "queens":
        from repro.problems.nqueens import NQueensProblem

        problem = NQueensProblem(args.size or 8)
        result = ParallelIDAStar(
            problem, args.pes, args.scheme, init_threshold=init, faults=faults,
            kernel_backend=args.kernel_backend,
        ).run()
        print(
            f"{problem.n}-queens: solutions={result.solutions}  "
            f"W={result.total_expanded}  E={result.metrics.efficiency:.3f}"
        )
        _print_fault_report(result.metrics)
    elif args.problem == "knapsack":
        from repro.problems.knapsack import KnapsackProblem

        problem = KnapsackProblem.random(args.size or 20, rng=args.seed)
        result = ParallelDFBB(
            problem, args.pes, args.scheme, init_threshold=init
        ).run()
        print(
            f"knapsack n={problem.n_items} cap={problem.capacity}: "
            f"optimum={result.best_value:.0f} (DP check: {problem.solve_dp()})\n"
            f"W={result.total_expanded}  E={result.metrics.efficiency:.3f}"
        )
    elif args.problem == "tsp":
        from repro.problems.tsp import TSPProblem

        problem = TSPProblem.random_euclidean(args.size or 10, rng=args.seed)
        result = ParallelDFBB(
            problem, args.pes, args.scheme, init_threshold=init
        ).run()
        print(
            f"tsp n={problem.n}: optimum={result.best_value:.4f}\n"
            f"W={result.total_expanded}  E={result.metrics.efficiency:.3f}"
        )
    else:
        from repro.problems.coloring import GraphColoringProblem

        problem = GraphColoringProblem.random(args.size or 10, 3, rng=args.seed)
        result = ParallelIDAStar(
            problem, args.pes, args.scheme, init_threshold=init, faults=faults,
            kernel_backend=args.kernel_backend,
        ).run()
        print(
            f"3-coloring, {problem.n_vertices} vertices: "
            f"{result.solutions} proper colorings\n"
            f"W={result.total_expanded}  E={result.metrics.efficiency:.3f}"
        )
        _print_fault_report(result.metrics)
    return 0


def _cmd_xo(args: argparse.Namespace) -> int:
    from repro.analysis.optimal_trigger import (
        optimal_static_trigger,
        predicted_optimal_efficiency,
    )

    x_o = optimal_static_trigger(
        args.work, args.pes, u_calc=args.u_calc, t_lb=args.t_lb
    )
    e = predicted_optimal_efficiency(
        args.work, args.pes, u_calc=args.u_calc, t_lb=args.t_lb
    )
    print(f"x_o = {x_o:.4f}   predicted peak efficiency = {e:.4f}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import tables

    fn = getattr(tables, f"table{args.number}")
    if args.number == 6:
        result = fn()
    else:
        result = fn(scale=args.scale, seed=args.seed)
    print(result.render())
    if args.out:
        path = result.save(args.out)
        print(f"\nsaved to {path}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    fn = getattr(figures, f"fig{args.number}")
    if args.number in (4, 7):
        result = fn(seed=args.seed)
    elif args.number == 5:
        result = fn()
    else:
        result = fn(scale=args.scale, seed=args.seed)
    print(result.render())
    if args.out:
        path = result.save(args.out)
        print(f"\nsaved to {path}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError, GridCellError
    from repro.experiments.runner import run_grid
    from repro.experiments.store import save_records

    registry = None
    if args.stats:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    try:
        records = run_grid(
            args.schemes, args.works, args.pes, base_seed=args.seed,
            n_jobs=args.jobs, registry=registry, executor=args.executor,
            kernel_backend=args.kernel_backend,
            journal=args.journal, resume=args.resume,
        )
    except ConfigError as exc:
        print(f"repro grid: error: {exc}", file=sys.stderr)
        return 2
    except GridCellError as exc:
        report = exc.quarantine
        print(f"repro grid: error: {exc}", file=sys.stderr)
        if report is not None:
            hint = (
                f" (rerun with --journal {args.journal} --resume to retry "
                "only the quarantined cells)"
                if args.journal
                else ""
            )
            print(
                f"repro grid: quarantined {len(report.failures)} of "
                f"{report.n_cells} cell(s); {report.n_completed} "
                f"completed{hint}",
                file=sys.stderr,
            )
        return 1
    path = save_records(records, args.out)
    print(f"ran {len(records)} cells; saved to {path}")
    if registry is not None:
        stats_path = registry.save_json(args.stats)
        print(f"metrics snapshot written to {stats_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (
        BENCH_PATH,
        BENCH_SEARCH_PATH,
        compare_bench,
        render_bench,
        render_compare,
        render_search_bench,
        run_bench,
    )

    if args.compare is not None:
        old_path, new_path = args.compare
        try:
            old = json.loads(Path(old_path).read_text())
            new = json.loads(Path(new_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read bench report: {exc}", file=sys.stderr)
            return 2
        try:
            result = compare_bench(
                old, new, tolerance=args.tolerance, ratios_only=args.ratios_only
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_compare(result))
        return 0 if result["ok"] else 1

    out = args.out if args.out is not None else BENCH_PATH
    search_out = (
        None
        if args.no_search
        else (args.search_out if args.search_out is not None else BENCH_SEARCH_PATH)
    )
    report = run_bench(
        smoke=args.smoke,
        n_pes=args.pes,
        n_jobs=args.jobs,
        seed=args.seed,
        out=out,
        search_out=search_out,
    )
    print(render_bench(report))
    if search_out is not None:
        print(render_search_bench(report["search_report"]))
        print(f"\nreports written to {out} and {search_out}")
    else:
        print(f"\nreport written to {out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.errors import RecordStoreError
    from repro.obs import check_snapshot_identity, load_snapshot, render_snapshot

    try:
        snapshot = load_snapshot(args.snapshot)
        if not args.no_check:
            schemes = check_snapshot_identity(snapshot)
    except RecordStoreError as exc:
        print(f"repro stats: error: {exc}", file=sys.stderr)
        return 2
    print(render_snapshot(snapshot))
    if not args.no_check:
        if schemes:
            print(
                f"\nledger identity P*T_par == T_calc+T_idle+T_lb+T_recovery "
                f"holds for {len(schemes)} scheme(s): {', '.join(schemes)}"
            )
        else:
            print("\n(no per-scheme ledger lines to check)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.scheduler import Scheduler
    from repro.obs import Profiler, profiled
    from repro.simd.machine import SimdMachine
    from repro.workmodel.stackmodel import StackWorkload

    workload = StackWorkload(
        args.work, args.pes, rng=args.seed, kernel_backend=args.kernel_backend
    )
    machine = SimdMachine(args.pes)
    init = 0.85 if args.scheme.endswith(("DK", "DP", "D_K", "D_P")) else None
    profiler = Profiler()
    with profiled(profiler):
        metrics = Scheduler(
            workload, machine, args.scheme, init_threshold=init
        ).run()
    path = profiler.save_chrome_trace(args.out)
    print(profiler.render_totals())
    print(
        f"\n{metrics.scheme}: W={metrics.total_work}  P={metrics.n_pes}  "
        f"Nexpand={metrics.n_expand}  E={metrics.efficiency:.4f}"
    )
    print(f"chrome trace ({profiler.n_spans} spans) written to {path}")
    return 0


def _cmd_isoeff(args: argparse.Namespace) -> int:
    from repro.analysis.isoefficiency import growth_exponent, isoefficiency_points
    from repro.experiments.store import load_records, to_triples

    records = load_records(args.store)
    schemes = sorted({r.scheme for r in records})
    if args.scheme is not None:
        if args.scheme not in schemes:
            raise ValueError(
                f"scheme {args.scheme!r} not in store (has: {schemes})"
            )
        schemes = [args.scheme]
    for scheme in schemes:
        triples = to_triples([r for r in records if r.scheme == scheme])
        points = isoefficiency_points(triples, args.target)
        if len(points) < 2:
            print(f"{scheme}: target E={args.target} not bracketed by the grid")
            continue
        b = growth_exponent(points)
        print(f"{scheme}: W for E={args.target} grows as (P log P)^{b:.2f}")
        for p, w in points:
            print(f"  P={p:<6d} W={w:,.0f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.consolidate import consolidate_report

    text = consolidate_report(args.results, out_path=args.out)
    if args.out:
        print(f"report written to {args.out}")
        print(text.splitlines()[4])  # the present/total manifest line
    else:
        print(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        Baseline,
        all_rules,
        exit_code,
        load_config,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in all_rules(include_dataflow=True):
            gate = "" if rule.family == "basic" else "  (--strict)"
            print(f"{rule.rule_id}  {rule.title}{gate}")
        return 0
    subset = (
        [token.strip() for token in args.rules.split(",") if token.strip()]
        if args.rules
        else None
    )
    baseline_path = args.baseline
    if args.update_baseline and baseline_path is None:
        baseline_path = ".lint-baseline.json"
    try:
        baseline = (
            Baseline.load(baseline_path)
            if baseline_path and not args.update_baseline
            else None
        )
        result = run_lint(
            args.paths,
            rules=subset,
            strict=args.strict,
            config=load_config(),
            baseline=baseline,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        path = Baseline.from_findings(result.findings).save(baseline_path)
        print(
            f"baseline with {len(result.findings)} finding(s) written to "
            f"{path}"
        )
        return 0
    renderers = {"text": render_text, "json": render_json, "sarif": render_sarif}
    report = renderers[args.fmt](result)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(render_text(result))
        print(f"{args.fmt} report written to {args.out}")
    else:
        print(report)
    return exit_code(result)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ExperimentService, create_server
    from repro.serve.app import serve_forever

    service = ExperimentService(
        args.store, workers=args.workers, max_pending=args.max_pending
    )
    server = create_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"repro serve [stdlib] on http://{host}:{port}")
    print(f"store: {service.store.root}  ({len(service.store)} records)")
    serve_forever(server)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "schemes": lambda: _cmd_schemes(),
        "run": lambda: _cmd_run(args),
        "solve": lambda: _cmd_solve(args),
        "xo": lambda: _cmd_xo(args),
        "table": lambda: _cmd_table(args),
        "figure": lambda: _cmd_figure(args),
        "grid": lambda: _cmd_grid(args),
        "bench": lambda: _cmd_bench(args),
        "stats": lambda: _cmd_stats(args),
        "trace": lambda: _cmd_trace(args),
        "isoeff": lambda: _cmd_isoeff(args),
        "report": lambda: _cmd_report(args),
        "lint": lambda: _cmd_lint(args),
        "serve": lambda: _cmd_serve(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
