"""Experiment harness: regenerates every table and figure of the paper.

- :mod:`repro.experiments.runner` — single runs and (scheme, W, P) grids
  over the divisible workload at paper or reduced scale.
- :mod:`repro.experiments.keys` — :func:`plan_key`, the cell key
  ``run_grid(store=...)`` publishes and resumes records under.
- :mod:`repro.experiments.tables` — Tables 1-6 generators.
- :mod:`repro.experiments.figures` — Figures 1, 3-8 series generators.
- :mod:`repro.experiments.report` — result containers and text rendering.

Every generator returns a structured result whose ``render()`` prints the
same rows/series the paper reports; the benchmark suite writes them under
``results/``.
"""

from repro.experiments.report import TableResult, SeriesResult
from repro.experiments.batched import CellPlan, run_batched_cells
from repro.experiments.runner import (
    Scale,
    PAPER_SCALE,
    SMALL_SCALE,
    TINY_SCALE,
    run_divisible,
    run_grid,
    plan_grid,
    GridRecord,
    GRID_EXECUTORS,
    RetryPolicy,
    QuarantineReport,
)
from repro.experiments.keys import code_version, plan_key
from repro.experiments.store import save_records, load_records, to_triples
from repro.experiments import tables, figures

__all__ = [
    "save_records",
    "load_records",
    "to_triples",
    "TableResult",
    "SeriesResult",
    "Scale",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "TINY_SCALE",
    "run_divisible",
    "run_grid",
    "plan_grid",
    "GridRecord",
    "GRID_EXECUTORS",
    "RetryPolicy",
    "QuarantineReport",
    "code_version",
    "plan_key",
    "CellPlan",
    "run_batched_cells",
    "tables",
    "figures",
]
