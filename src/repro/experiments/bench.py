"""The ``python -m repro bench`` harness — tracks the perf trajectory.

Times the hot kernels and a small Figure-4-style grid, then writes
``BENCH_kernels.json`` so every PR can compare against the last recorded
numbers:

- **stack kernel** — node-expansion throughput of the stack model's
  ``expand_cycle`` at machine width, measured in a warmed (work-spread)
  state.
- **grid** — a small static-trigger isoefficiency grid (Figure 4's
  shape) executed serially, in one in-process arena and with the
  default ``executor="auto"``, plus a record-identity check between
  the three.

The *search* section (written separately as ``BENCH_search.json``)
covers the real 15-puzzle workload the same way:

- **search expansion kernel** — ``SearchWorkload.expand_cycle``
  throughput from a warmed, machine-wide stack state.
- **full parallel IDA*** — a complete run on a fixed bench instance,
  asserted node for node against serial IDA*.

``python -m repro bench --compare OLD.json NEW.json`` diffs two saved
reports metric by metric (:func:`compare_bench`), prints per-section
speedup deltas, and exits nonzero when any metric regressed past
``--tolerance`` or when the two reports share no metric at all.

All wall-clock numbers are host measurements, so the JSON embeds the
host fingerprint (platform, Python, numpy, CPU count); a grid speedup
only means something relative to ``cpu_count``.

Every timed section runs **best-of-N** (default ``repeats=3``) after an
untimed warmup pass: a single ``perf_counter`` sample is at the mercy
of allocator warmup, frequency scaling and CI noisy neighbours, and the
minimum over repeats is the standard robust estimator of a kernel's
achievable time.  Each repeat rebuilds its state from the same seed, so
all repeats time identical work.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.scheduler import Scheduler
from repro.experiments.runner import run_grid
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload

__all__ = [
    "BENCH_PATH",
    "BENCH_SEARCH_PATH",
    "DEFAULT_REPEATS",
    "bench_stack_kernel",
    "bench_grid",
    "bench_search_kernel",
    "bench_search_full",
    "run_bench",
    "run_search_bench",
    "render_bench",
    "render_search_bench",
    "compare_bench",
    "render_compare",
]

BENCH_PATH = "BENCH_kernels.json"
BENCH_SEARCH_PATH = "BENCH_search.json"

#: Timed repeats per section (best-of-N); one extra untimed warmup pass
#: always precedes them.
DEFAULT_REPEATS = 3


def _check_repeats(repeats: int) -> None:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

def _host_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _time_cycles(workload, time_cycles: int) -> dict:
    """Time up to ``time_cycles`` bare ``expand_cycle`` calls."""
    expanded_before = workload.total_expanded()
    cycles = 0
    t0 = time.perf_counter()
    while cycles < time_cycles and not workload.done():
        workload.expand_cycle()
        cycles += 1
    dt = time.perf_counter() - t0
    nodes = workload.total_expanded() - expanded_before
    return {
        "cycles": cycles,
        "nodes": nodes,
        "nodes_per_s": nodes / dt,
        "ms_per_cycle": dt / max(cycles, 1) * 1e3,
    }


def _best_of(make_workload, time_cycles: int, repeats: int) -> dict:
    """Best-of-``repeats`` cycle timing, each repeat on a fresh
    ``make_workload()``; repeat 0 is an untimed warmup."""
    _check_repeats(repeats)
    best: dict | None = None
    for rep in range(repeats + 1):
        row = _time_cycles(make_workload(), time_cycles)
        if rep and (best is None or row["ms_per_cycle"] < best["ms_per_cycle"]):
            best = row
    assert best is not None
    return best


def bench_stack_kernel(
    *,
    n_pes: int = 4096,
    work_per_pe: int = 400,
    warm_cycles: int = 64,
    time_cycles: int = 60,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Stack-model ``expand_cycle`` throughput at machine width.

    Each repeat rebuilds the same workload (same seed) and spreads it
    with ``warm_cycles`` scheduled ``GP-S0.75`` cycles, so every repeat
    times the same tree state.  Best-of-``repeats`` (repeat 0 untimed
    warmup).
    """
    work = n_pes * work_per_pe

    def make() -> StackWorkload:
        workload = StackWorkload(work, n_pes, rng=seed)
        machine = SimdMachine(n_pes, CostModel())
        Scheduler(workload, machine, "GP-S0.75", max_cycles=warm_cycles).run()
        return workload

    return {
        "n_pes": n_pes,
        "total_work": work,
        "warm_cycles": warm_cycles,
        "time_cycles": time_cycles,
        "repeats": repeats,
        **_best_of(make, time_cycles, repeats),
    }


def bench_grid(
    *,
    n_jobs: int | None = None,
    schemes: tuple[str, ...] = ("GP-S0.90", "nGP-S0.80"),
    works: tuple[int, ...] = (58_866, 190_948, 379_601),
    pes: tuple[int, ...] = (512,),
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """A small Figure-4-style grid: serial vs batched vs auto.

    The defaults take SMALL_SCALE's machine width and its smaller Table 2
    work sizes.  The headline ``speedup`` is the in-process mega-arena
    (the default executor with ``n_jobs=1``, reported as ``batched``)
    against the per-cell serial oracle — it does not need free
    cores, so it must beat 1.0 even on a 1-core CI host.
    ``speedup_auto`` is the default executor with ``n_jobs`` (None:
    it decides whether to pool, see ``POOL_THRESHOLD``), which only
    pools where free cores exist (the host block records ``cpu_count``
    for exactly that reason).  All paths report best-of-``repeats``
    (repeat 0 untimed warmup); the grids themselves are deterministic,
    so every repeat computes the same records.
    """
    _check_repeats(repeats)
    grid_args = (list(schemes), list(works), list(pes))
    timings: dict[str, float | None] = {
        "serial": None, "batched": None, "auto": None,
    }
    records: dict[str, list] = {}

    def time_one(name: str, rep: int, **kwargs) -> None:
        t0 = time.perf_counter()
        records[name] = run_grid(*grid_args, base_seed=seed, **kwargs)
        dt = time.perf_counter() - t0
        best = timings[name]
        if rep and (best is None or dt < best):
            timings[name] = dt

    for rep in range(repeats + 1):
        time_one("serial", rep, executor="serial")
        time_one("batched", rep, n_jobs=1)
        time_one("auto", rep, executor="auto", n_jobs=n_jobs)
    serial_s, batched_s, auto_s = (
        timings["serial"], timings["batched"], timings["auto"],
    )
    assert serial_s is not None and batched_s is not None
    assert auto_s is not None
    return {
        "schemes": list(schemes),
        "works": list(works),
        "pes": list(pes),
        "cells": len(records["serial"]),
        "n_jobs": n_jobs,
        "repeats": repeats,
        "serial_s": serial_s,
        "batched_s": batched_s,
        "auto_s": auto_s,
        "speedup": serial_s / batched_s,
        "speedup_auto": serial_s / auto_s,
        "records_identical": (
            records["serial"] == records["batched"] == records["auto"]
        ),
    }


# -- real-search benches (the BENCH_search.json section) -------------------

def bench_search_kernel(
    *,
    n_pes: int = 1024,
    scramble: int = 44,
    instance_seed: int = 505,
    bound_slack: int = 20,
    warm_cycles: int = 96,
    time_cycles: int = 48,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Throughput of the real-search ``expand_cycle`` at machine width.

    One fixed 15-puzzle instance, one generous cost bound (root ``h``
    plus ``bound_slack``, wide enough that the tree outlives the timing
    window), warmed through the scheduler so the cycle touches ~all PEs.
    Best-of-``repeats`` (repeat 0 untimed warmup); each repeat rebuilds
    the identical warmed state.
    """
    from repro.problems.fifteen_puzzle import scrambled_fifteen_puzzle
    from repro.search.parallel import SearchWorkload

    problem = scrambled_fifteen_puzzle(scramble, rng=instance_seed)
    bound = problem.heuristic(problem.initial_state()) + bound_slack

    def make() -> SearchWorkload:
        workload = SearchWorkload(problem, bound, n_pes)
        machine = SimdMachine(n_pes, CostModel())
        Scheduler(
            workload, machine, "GP-S0.75", init_threshold=0.9, max_cycles=warm_cycles
        ).run()
        return workload

    return {
        "n_pes": n_pes,
        "scramble": scramble,
        "bound": bound,
        "warm_cycles": warm_cycles,
        "time_cycles": time_cycles,
        "repeats": repeats,
        **_best_of(make, time_cycles, repeats),
    }


def bench_search_full(
    *,
    instance: str = "small",
    n_pes: int = 256,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Wall-clock of one complete parallel IDA* run.

    Runs the fixed bench instance to optimality (best-of-``repeats``,
    repeat 0 untimed warmup) and asserts (in-run) that expansions, bounds
    and the optimal cost match serial IDA* node for node.
    """
    from repro.problems.fifteen_puzzle import BENCH_INSTANCES
    from repro.search.ida_star import ida_star
    from repro.search.parallel import ParallelIDAStar

    _check_repeats(repeats)
    problem = BENCH_INSTANCES[instance]
    best: float | None = None
    for rep in range(repeats + 1):
        t0 = time.perf_counter()
        result = ParallelIDAStar(problem, n_pes, "GP-S0.75").run()
        dt = time.perf_counter() - t0
        if rep and (best is None or dt < best):
            best = dt
    assert best is not None
    serial = ida_star(problem)
    serial_parity = (
        result.total_expanded == serial.total_expanded
        and result.bounds == serial.bounds
        and result.solution_cost == serial.solution_cost
    )
    if not serial_parity:
        raise RuntimeError(f"parallel IDA* diverged from serial on {instance!r}")
    return {
        "instance": instance,
        "n_pes": n_pes,
        "repeats": repeats,
        "total_expanded": result.total_expanded,
        "solution_cost": result.solution_cost,
        "bounds": list(result.bounds),
        "seconds": {"arena": best},
        "serial_parity": serial_parity,
    }


def run_search_bench(
    *,
    smoke: bool = False,
    n_pes: int | None = None,
    repeats: int = DEFAULT_REPEATS,
    out: str | Path = BENCH_SEARCH_PATH,
) -> dict:
    """Run the real-search benches and persist ``BENCH_search.json``."""
    if n_pes is None:
        n_pes = 256 if smoke else 1024
    kernel_kwargs = (
        {"bound_slack": 14, "warm_cycles": 48, "time_cycles": 16}
        if smoke
        else {}
    )
    full_kwargs = {"instance": "tiny", "n_pes": 64} if smoke else {}
    report = {
        "schema": 1,
        "generated_unix": time.time(),
        "smoke": smoke,
        "host": _host_info(),
        "search": {
            "expansion_kernel": bench_search_kernel(
                n_pes=n_pes, repeats=repeats, **kernel_kwargs
            ),
            "full_ida": bench_search_full(repeats=repeats, **full_kwargs),
        },
    }
    path = Path(out)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def run_bench(
    *,
    smoke: bool = False,
    n_pes: int | None = None,
    n_jobs: int | None = None,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
    out: str | Path = BENCH_PATH,
    search_out: str | Path | None = BENCH_SEARCH_PATH,
) -> dict:
    """Run every bench; persist ``out`` (kernels) and ``search_out``.

    ``smoke`` shrinks each bench to a few seconds total (CI uses it per
    commit); full mode is the number that the acceptance thresholds and
    the perf trajectory track.  ``search_out=None`` skips the search
    section.
    """
    if n_pes is None:
        n_pes = 256 if smoke else 4096
    kernel_kwargs = (
        {"work_per_pe": 80, "warm_cycles": 32, "time_cycles": 20}
        if smoke
        else {}
    )
    grid_kwargs: dict = {"n_jobs": n_jobs}
    if smoke:
        grid_kwargs.update(works=(2_000, 4_000), pes=(32,))
    report = {
        "schema": 1,
        "generated_unix": time.time(),
        "smoke": smoke,
        "seed": seed,
        "host": _host_info(),
        "kernels": {
            "stack": bench_stack_kernel(
                n_pes=n_pes, seed=seed, repeats=repeats, **kernel_kwargs
            ),
        },
        "grid": bench_grid(seed=seed, repeats=repeats, **grid_kwargs),
    }
    path = Path(out)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if search_out is not None:
        report["search_report"] = run_search_bench(
            smoke=smoke, repeats=repeats, out=search_out
        )
    return report


def render_bench(report: dict) -> str:
    """A terse human summary of one bench report."""
    stack = report["kernels"]["stack"]
    grid = report["grid"]
    lines = [
        f"stack expand_cycle kernel @ P={stack['n_pes']}: "
        f"{stack['nodes_per_s']:,.0f} nodes/s "
        f"({stack['ms_per_cycle']:.3f} ms/cycle)",
        f"grid {grid['cells']} cells, n_jobs={grid['n_jobs']}: "
        f"serial {grid['serial_s']:.2f}s, batched {grid['batched_s']:.2f}s "
        f"({grid['speedup']:.2f}x), auto {grid['auto_s']:.2f}s "
        f"({grid['speedup_auto']:.2f}x on {report['host']['cpu_count']} "
        f"CPUs); record-identical: {grid['records_identical']}",
    ]
    return "\n".join(lines)


def render_search_bench(report: dict) -> str:
    """A terse human summary of one search-bench report."""
    kernel = report["search"]["expansion_kernel"]
    full = report["search"]["full_ida"]
    lines = [
        f"search expand_cycle kernel @ P={kernel['n_pes']}, "
        f"bound={kernel['bound']}: {kernel['nodes_per_s']:,.0f} nodes/s "
        f"({kernel['ms_per_cycle']:.3f} ms/cycle)",
        f"full parallel IDA* ({full['instance']}, P={full['n_pes']}, "
        f"W={full['total_expanded']}): "
        f"{full['seconds']['arena']:.2f}s; "
        f"serial parity: {full['serial_parity']}",
    ]
    return "\n".join(lines)


# -- report comparison (the ``bench --compare`` ratchet) -------------------

#: Leaf metric keys worth diffing, with the direction that is *better*.
#: ``seconds``-style timings appear as ``{"seconds": {"arena": ...}}`` so
#: the parent key carries the semantics; both spellings are listed.
_COMPARE_DIRECTIONS = {
    "nodes_per_s": "higher",
    "ms_per_cycle": "lower",
    "serial_s": "lower",
    "parallel_s": "lower",
    "batched_s": "lower",
    "auto_s": "lower",
    "seconds": "lower",
}

#: Report bookkeeping that must never be compared, even if a nested key
#: happens to collide with a metric name (e.g. a future ``host.seconds``):
#: wall-clock stamps and machine descriptions vary across hosts/runs and
#: would make committed BENCH_*.json diffs noisy.
_NON_METRIC_KEYS = frozenset({"generated_unix", "host", "schema"})


def _metric_direction(path: tuple[str, ...]) -> str | None:
    """Better-direction of the metric at ``path``, or None if not a metric."""
    leaf = path[-1]
    if leaf in _COMPARE_DIRECTIONS:
        return _COMPARE_DIRECTIONS[leaf]
    if leaf.startswith("speedup"):
        return "higher"
    if len(path) >= 2 and path[-2] in _COMPARE_DIRECTIONS:
        return _COMPARE_DIRECTIONS[path[-2]]
    return None


def _metric_leaves(node, path: tuple[str, ...] = ()) -> dict[tuple[str, ...], float]:
    """All comparable numeric leaves of a bench report, keyed by path."""
    out: dict[tuple[str, ...], float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if str(key) in _NON_METRIC_KEYS:
                continue
            out.update(_metric_leaves(value, path + (str(key),)))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        if _metric_direction(path) is not None and path:
            out[path] = float(node)
    return out


def compare_bench(
    old: dict, new: dict, *, tolerance: float = 0.10, ratios_only: bool = False
) -> dict:
    """Diff two bench reports metric by metric.

    Returns ``{"rows": [...], "dropped": [...], "added": [...],
    "worst_regression": float, "tolerance": float, "ok": bool}``.  Each
    row carries the dotted section path, both values, the new/old ratio
    and a ``regression`` fraction — how much *worse* the new value is in
    the metric's bad direction (0.0 when equal or improved).  ``ok`` is
    False when any regression exceeds ``tolerance``, and when no metric
    was compared at all — a gate that compares nothing must not pass.
    Sections present
    in only one report (a retired or new variant) are listed, not
    compared — retiring a backend must not read as a regression.

    ``ratios_only`` restricts the comparison to ``speedup*`` leaves —
    same-host ratios that transfer across machines — so a report
    committed on one host can gate CI runs on another without absolute
    wall-clock noise (this is what the CI bench gate uses).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    old_leaves = _metric_leaves(old)
    new_leaves = _metric_leaves(new)
    if ratios_only:
        old_leaves = {
            p: v for p, v in old_leaves.items() if p[-1].startswith("speedup")
        }
        new_leaves = {
            p: v for p, v in new_leaves.items() if p[-1].startswith("speedup")
        }
    rows: list[dict] = []
    for path in sorted(old_leaves.keys() & new_leaves.keys()):
        before, after = old_leaves[path], new_leaves[path]
        direction = _metric_direction(path)
        if before <= 0:
            continue
        ratio = after / before
        if direction == "higher":
            regression = max(0.0, 1.0 - ratio)
            improvement = max(0.0, ratio - 1.0)
        else:
            regression = max(0.0, ratio - 1.0)
            improvement = max(0.0, 1.0 - ratio)
        rows.append(
            {
                "section": ".".join(path),
                "old": before,
                "new": after,
                "ratio": ratio,
                "direction": direction,
                "regression": regression,
                "improvement": improvement,
            }
        )
    worst = max((row["regression"] for row in rows), default=0.0)
    return {
        "rows": rows,
        "dropped": sorted(".".join(p) for p in old_leaves.keys() - new_leaves.keys()),
        "added": sorted(".".join(p) for p in new_leaves.keys() - old_leaves.keys()),
        "worst_regression": worst,
        "tolerance": tolerance,
        "ok": bool(rows) and worst <= tolerance,
    }


def render_compare(result: dict) -> str:
    """Human summary of one :func:`compare_bench` result."""
    lines = []
    width = max((len(r["section"]) for r in result["rows"]), default=10)
    for row in result["rows"]:
        if row["regression"] > 0:
            signed = -row["regression"]
        else:
            signed = row["improvement"]
        flag = ""
        if row["regression"] > result["tolerance"]:
            flag = "  << REGRESSED"
        lines.append(
            f"  {row['section']:<{width}}  {row['old']:>14,.3f} -> "
            f"{row['new']:>14,.3f}  {signed:+8.1%}{flag}"
        )
    for path in result["dropped"]:
        lines.append(f"  {path:<{width}}  (dropped in new report)")
    for path in result["added"]:
        lines.append(f"  {path:<{width}}  (new in new report)")
    if not result["rows"]:
        lines.append(
            "0 metric(s) compared -> NOTHING COMPARED: the reports share "
            "no comparable metric, so the gate checks nothing"
        )
        return "\n".join(lines)
    verdict = "within tolerance" if result["ok"] else "REGRESSION"
    lines.append(
        f"{len(result['rows'])} metric(s) compared; worst regression "
        f"{result['worst_regression']:.1%} vs tolerance "
        f"{result['tolerance']:.1%} -> {verdict}"
    )
    return "\n".join(lines)
