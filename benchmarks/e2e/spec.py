"""The benchmark's fixed parameters, and the contract file they answer to.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units, directions and bounds; the harness reads it rather than
repeating it, and refuses to report a metric set that differs from it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"

#: Closed-loop clients (and keep-alive connections) of the serve
#: workloads.  The sizing host has two cores; more clients than cores
#: would measure the host's scheduler, so the harness refuses that.
CLIENTS = 2

#: The driver's schedule, from the benchmark contract: it makes
#: ``4 + 22 * workloads`` runs, which must all end within this budget.
DRIVER_BUDGET_S = 3420
#: Set-up (repeated three times), output checks and probes of the
#: slowest workload, on the sizing host.
RUN_OVERHEAD_S = 15
#: A single run must exit within this many seconds.
RUN_LIMIT_S = 180

#: Seed 0 is the default.  Seed 1 is the hold-out: never tune against it.
DEFAULT_SEED = 0


def base_seed(seed: int, k: int) -> int:
    """The base seed of pass ``k`` of a run with ``--seed seed``."""
    return seed * 1000 + k


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def workload_names(contract: dict) -> list[str]:
    return [w["name"] for w in contract["workloads"]]


def check_budget(seconds: float, n_workloads: int) -> None:
    """Abort when the driver's schedule at ``seconds`` per run would
    not fit the contract's time cap."""
    runs = 4 + 22 * n_workloads
    need = runs * (seconds + RUN_OVERHEAD_S)
    if seconds + RUN_OVERHEAD_S > RUN_LIMIT_S or need > DRIVER_BUDGET_S:
        raise SystemExit(
            f"benchmark: {seconds:g}s per run x {runs} driver runs (+"
            f"{RUN_OVERHEAD_S}s set-up and checks each) needs {need:.0f}s; "
            f"the cap is {DRIVER_BUDGET_S}s (and {RUN_LIMIT_S}s per run) — "
            "lower --seconds, do not drop workloads"
        )


def check_clients(n_clients: int) -> None:
    nproc = os.cpu_count() or 1
    if n_clients > nproc:
        raise SystemExit(
            f"benchmark: {n_clients} load-generator clients on a host with "
            f"{nproc} core(s) would time the host's scheduler, not the "
            "server — refusing"
        )
