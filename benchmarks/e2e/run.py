#!/usr/bin/env python3
"""The repository's end-to-end and per-layer benchmark.

One run measures one workload::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit, checks the program's outputs,
and ends with one JSON line: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs every workload, each in a fresh child process,
and ``--out FILE`` keeps the full report for ``compare.py``.

All times are host time.  Names starting ``sim`` (after the layer
prefix) are simulated statistics and repeat bit-for-bit for one seed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, imports included

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import spec
import stats
import tracing
from spec import base_seed

#: Set-ups per end-to-end run; ``setup_s`` is their median.  Each is a
#: fresh process from launch to ready-to-measure, so one-time costs
#: (imports, caches, server start) are in every one of them.
SETUP_REPS = 3
#: The untimed warm-up pass uses a base seed no timed pass has.
WARMUP_PASS = 999
#: Outside-probe sample size (records put, frames appended, ...).
N_PROBE = 200


def digest(cells: list) -> str:
    blob = json.dumps(cells, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def sim_summary(cells: list[dict]) -> dict:
    """Simulated statistics of the digest cells: exact for one seed, and
    identical across any change that only makes the simulator faster."""
    from repro.experiments.store import record_from_dict

    records = [cell["record"] for cell in cells]
    terms = {
        k: sum(r["ledger"][k] for r in records)
        for k in ("t_calc", "t_idle", "t_lb", "t_recovery")
    }
    total = sum(terms.values())
    return {
        "simd.sim_cycles": float(sum(r["n_expand"] for r in records)),
        "simd.sim_lb_phases": float(sum(r["n_lb"] for r in records)),
        "simd.sim_transfers": float(sum(r["n_transfers"] for r in records)),
        "simd.sim_idle_frac": terms["t_idle"] / total,
        "simd.sim_lb_frac": terms["t_lb"] / total,
        "simd.sim_efficiency": statistics.fmean(
            record_from_dict(r).metrics.efficiency for r in records
        ),
    }


# -- in-process workloads ----------------------------------------------------


def timed_passes(workload, seed: int, seconds: float, min_passes: int, traced: bool):
    """Passes ``k = 0, 1, ...`` until both ``min_passes`` and ``seconds``
    are met.  Returns each pass's time and node count, the raw outputs
    of the first ``min_passes`` passes, and (traced) each pass's span
    self times plus the last pass's profiler."""
    from repro.obs import Profiler, profiled, span

    times, nodes, kept, selfs, profiler = [], [], [], [], None
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_passes or time.perf_counter() < deadline:
        if traced:
            profiler = Profiler()
            with profiled(profiler):
                t0 = time.perf_counter()
                with span(tracing.ROOT_SPAN, cat="harness"):
                    raw = workload.run_pass(base_seed(seed, k))
                times.append(time.perf_counter() - t0)
            if profiler.n_dropped:
                print(
                    f"warning: {profiler.n_dropped} spans dropped; their time "
                    "is charged to their parents",
                    file=sys.stderr,
                )
            selfs.append(tracing.attribute(profiler.spans, times[-1]))
        else:
            t0 = time.perf_counter()
            raw = workload.run_pass(base_seed(seed, k))
            times.append(time.perf_counter() - t0)
        nodes.append(workload.nodes(raw))
        if k < min_passes:
            kept.append(raw)
        k += 1
    return times, nodes, kept, selfs, profiler


def span_layers(selfs: list, nodes_per_pass: float) -> dict:
    """Per-layer self seconds and call counts of one traced pass (the
    median over the traced passes), from the program's own spans and the
    harness spans around its public calls."""

    def med(prefix: str, field: int) -> float:
        return statistics.median(
            sum(v[field] for name, v in per_name.items() if name.startswith(prefix))
            for per_name, _ in selfs
        )

    def per_call_us(prefix: str) -> float:
        calls = med(prefix, 0)
        return med(prefix, 1) / calls * 1e6 if calls else 0.0

    search_calls = med("expand.search.", 0)
    return {
        "experiments.runner.run_grid_self_s": med("harness.run_grid", 1),
        "experiments.batched.plan_s": med("mega.plan", 1),
        "experiments.batched.lb_phase_self_s": med("mega.lb_phase", 1),
        "experiments.batched.lb_phase_calls": med("mega.lb_phase", 0),
        "experiments.batched.expand_self_s": med("mega.expand_cycle", 1),
        "experiments.batched.expand_calls": med("mega.expand_cycle", 0),
        "workmodel.stack_expand_self_s": med("expand.stack.", 1),
        "workmodel.stack_expand_calls": med("expand.stack.", 0),
        "workmodel.stack_expand_us_per_cycle": per_call_us("expand.stack."),
        "search.expand_self_s": med("expand.search.", 1),
        "search.expand_calls": search_calls,
        "search.expand_us_per_cycle": per_call_us("expand.search."),
        "search.nodes_per_expand_call": (
            nodes_per_pass / search_calls if search_calls else 0.0
        ),
        "search.driver_self_s": med("harness.ida_run", 1),
        "core.scheduler_self_s": med("harness.scheduler_run", 1),
        "core.lb_match_self_s": med("lb.match", 1),
        "core.lb_match_calls": med("lb.match", 0),
        "core.lb_transfer_self_s": med("lb.transfer", 1),
        "core.lb_transfer_calls": med("lb.transfer", 0),
        "simd.scan_self_s": med("scan.sum_scan", 1),
        "simd.scan_calls": med("scan.sum_scan", 0),
        "trace.unattributed_frac": statistics.median(u for _, u in selfs),
    }


def setup_in_child(name: str, seed: int) -> float:
    """One more set-up of an in-process workload, in a fresh process."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_in_process(args) -> dict | None:
    import inproc

    workload = inproc.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    workload.run_pass(base_seed(args.seed, WARMUP_PASS))
    setups = [time.perf_counter() - _T0]
    if args.setup_only:
        print(repr(setups[0]))
        return None
    if not (args.trace or args.smoke):
        setups += [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPS - 1)]

    min_passes = 2 if args.smoke else workload.min_passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    times, nodes, kept, _, _ = timed_passes(
        workload, args.seed, seconds, min_passes, False
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = [workload.cells(raw) for raw in kept]
    cells_per_pass = len(passes[0])
    e2e = {
        "setup_s": stats.dist(setups, "s"),
        "pass_p50_s": stats.dist(times, "s"),
        "cells_per_s": stats.dist([cells_per_pass / t for t in times], "1/s"),
        "nodes_per_s": stats.dist([n / t for n, t in zip(nodes, times)], "1/s"),
        "requests_per_s": stats.dist(
            [workload.calls_per_pass / t for t in times], "1/s"
        ),
        # amortised: these workloads resolve cells in batches, or cells
        # whose sizes the seed picks
        "solve_p50_ms": stats.dist([t / cells_per_pass * 1e3 for t in times], "ms"),
        "grid_p50_ms": stats.dist([t * 1e3 for t in times], "ms"),
        "peak_rss_mb": stats.scalar(peak_rss_mb, "MiB"),
    }
    pass_p50_s = e2e["pass_p50_s"]["value"]

    checks, info = workload.checks(args.seed, passes)
    digest_cells = [cell for cells in passes for cell in cells]
    checks.append((
        "every digest record satisfies P*T_par == T_calc+T_idle+T_lb+T_recovery",
        all(inproc.ledger_identity_holds(c["record"]) for c in digest_cells),
    ))

    layers = None
    if args.trace:
        t_times, _, t_kept, selfs, profiler = timed_passes(
            workload, args.seed, seconds, min_passes, True
        )
        checks.append((
            "traced passes return the records of the untraced passes",
            [workload.cells(raw) for raw in t_kept] == passes,
        ))
        trace_path = spec.OUT / f"trace-{args.workload}.json"
        profiler.save_chrome_trace(trace_path)
        layers = span_layers(selfs, statistics.median(nodes))
        layers["trace.overhead_frac"] = statistics.median(t_times) / pass_p50_s - 1
        cycles_per_pass = statistics.median(
            sum(c["record"]["n_expand"] for c in cells) for cells in passes
        )
        layers["core.us_per_sim_cycle"] = pass_p50_s / cycles_per_pass * 1e6
        layers.update(workload.probes(info, pass_p50_s))
        info["chrome_trace"] = str(trace_path.relative_to(spec.REPO))
        if layers["trace.overhead_frac"] > 0.25:
            print(
                "warning: tracing slowed the pass by "
                f"{layers['trace.overhead_frac']:.0%}; read the layer self "
                "times as shares, not as absolute seconds",
                file=sys.stderr,
            )

    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(times) * workload.calls_per_pass + len(checks),
        "failures": [what for what, ok in checks if not ok],
        "digest_cells": digest_cells,
        "measured_s": sum(times),
        "info": {**info, "passes": len(times), "digest_passes": min_passes},
    }


# -- serve workloads ---------------------------------------------------------


def run_served(args) -> dict:
    import served

    workload = served.WORKLOADS[args.workload]()
    reps = 1 if (args.trace or args.smoke) else SETUP_REPS
    setups, server = [], None
    try:
        for _ in range(reps):
            if server is not None:
                server.close()
            t0 = time.perf_counter()
            server = served.Server()
            workload.prime(server, args.seed)
            setups.append(time.perf_counter() - t0)
        seconds = args.seconds / 2 if args.trace else args.seconds
        run = served.measure(workload, server, seconds)
        layers = None
        if args.trace:
            layers = served.layers(
                workload, server, run, N_PROBE // 10 if args.smoke else N_PROBE
            )
        info = {"banner": server.banner, "backend": server.backend, **run["n"]}
    finally:
        if server is not None:
            server.close()
    run["e2e"] = {"setup_s": stats.dist(setups, "s"), **run["e2e"]}
    return {**run, "layers": layers, "info": info}


# -- reporting ---------------------------------------------------------------


def host_info() -> dict:
    import numpy

    spec.OUT.mkdir(parents=True, exist_ok=True)
    fs = subprocess.run(
        ["stat", "-f", "-c", "%T", str(spec.OUT)], capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "out_dir_filesystem": fs.stdout.strip() or "unknown",
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        line = f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}"
        if m.get("n", 1) > 1:
            line += f"   (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})"
        print(line)


def run_workload(args, contract: dict) -> int:
    import inproc

    in_process = args.workload in inproc.WORKLOADS
    result = run_in_process(args) if in_process else run_served(args)
    if result is None:  # --setup-only
        return 0
    cells = result.pop("digest_cells")
    sim = sim_summary(cells)
    layers = result["layers"]
    if layers is not None:
        # a layer off this workload's path spent no time and made no call
        layers = {m["name"]: 0.0 for m in contract["per_layer"]} | layers | sim
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    report = {
        "e2e": result["e2e"],
        "tail": result.get("tail"),
        "layers": layers and {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in layers.items()
        },
        "sim": sim,
        "sim_digest": digest(cells),
        "ops_attempted": result["attempted"],
        "ops_failed": len(result["failures"]),
        "failures": result["failures"],
        "measured_s": result["measured_s"],
        "info": result["info"],
    }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"measured {report['measured_s']:.2f}s  {report['info']}")
    print_metrics("end-to-end (host time)", report["e2e"])
    if report["tail"]:
        print_metrics("tail latency (host time)",
                      {f"solve_p{report['tail']['percentile']}_ms": report["tail"]})
    if report["layers"] is not None:
        print_metrics("per layer (self times: one traced pass)", report["layers"])
    else:
        print_metrics("simulated (exact for this seed)",
                      {k: {"value": v, "unit": ""} for k, v in sim.items()})
    print(f"\n  sim_digest    {report['sim_digest']}")
    print(f"  ops_attempted {report['ops_attempted']}")
    print(f"  ops_failed    {report['ops_failed']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")

    if args.out:
        write_report(args, {args.workload: report})

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    have = report["layers" if args.trace else "e2e"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(have):
        raise SystemExit(
            "benchmark: the metrics measured differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(have))}"
        )
    print(json.dumps({
        "correct": report["ops_failed"] == 0,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": {
            m["name"]: {"value": have[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


def write_report(args, workloads: dict) -> None:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": host_info(),
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n")


def run_all(args, contract: dict) -> int:
    """Every workload, each in its own fresh child process: untraced,
    and with ``--trace`` once more traced (``--smoke``: traced only, a
    traced run measures both halves briefly)."""
    names = spec.workload_names(contract)
    modes = [1] if args.smoke else ([0, 1] if args.trace else [0])
    merged: dict = {}
    spec.OUT.mkdir(parents=True, exist_ok=True)
    for name in names:
        for mode in modes:
            with tempfile.TemporaryDirectory(dir=spec.OUT) as tmp:
                part = Path(tmp) / "report.json"
                cmd = [sys.executable, __file__, "--workload", name, "--seed",
                       str(args.seed), "--seconds", str(args.seconds), "--trace",
                       str(mode), "--out", str(part)]
                subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=True)
                report = json.loads(part.read_text())["workloads"][name]
            if name not in merged:
                merged[name] = report
                continue
            first = merged[name]
            first["layers"] = report["layers"]
            first["info"]["traced_run"] = report["info"]
            first["ops_attempted"] += report["ops_attempted"]
            first["failures"] += report["failures"]
            if report["sim_digest"] != first["sim_digest"]:
                first["failures"].append(
                    "the traced run's sim_digest differs from the untraced run's"
                )
            first["ops_failed"] = len(first["failures"])
    if args.out:
        write_report(args, merged)
    failed = {n: r["failures"] for n, r in merged.items() if r["failures"]}
    print(f"\nbenchmark: {len(merged)} workloads, "
          f"{sum(r['ops_failed'] for r in merged.values())} failed operations")
    for name, failures in failed.items():
        print(f"  {name}: {failures}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help="input seed (0 default; 1 is the hold-out)")
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="also measure the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="2 passes / 3 s per workload, traced: a self-test")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (spec.SRC / "repro").is_dir():
        print(f"benchmark: no program to measure: {spec.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(spec.SRC))
    contract = spec.load_contract()
    names = spec.workload_names(contract)
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.smoke:
        args.seconds, args.trace = 3.0, 1
    elif args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    spec.check_budget(args.seconds, len(names))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # A terminated harness must still stop its server and remove its
    # stores: turn SIGTERM into an exception the finally blocks see.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return run_all(args, contract)
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
