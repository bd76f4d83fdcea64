"""SIMD machine substrate.

Simulates the lock-step data-parallel machine the paper runs on (a CM-2):

- :mod:`repro.simd.scan` — exclusive sum-scans, mask enumeration and the
  rendezvous allocation used to pair idle with busy processors.
- :mod:`repro.simd.topology` — interconnect cost models (CM-2 constant-cost,
  hypercube, mesh) from Section 3.3 of the paper.
- :mod:`repro.simd.cost` — the machine cost model: node-expansion cycle time
  ``U_calc`` and load-balancing phase time ``t_lb``.
- :mod:`repro.simd.machine` — the time ledger of a lock-step run: every
  expansion cycle and load-balancing phase is charged here, yielding
  ``T_calc``, ``T_idle`` and ``T_lb`` exactly as defined in Section 3.1.
- :mod:`repro.simd.arena` — ``WindowArena``, the per-PE windowed DFS
  stacks both stack workloads store their entries in (private to them,
  so not re-exported here).
"""

from repro.simd.scan import sum_scan, enumerate_mask, rendezvous
from repro.simd.router import RouteResult, route_permutation, ecube_path
from repro.simd.topology import (
    Topology,
    CM2Topology,
    HypercubeTopology,
    MeshTopology,
)
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine, TimeLedger

__all__ = [
    "sum_scan",
    "enumerate_mask",
    "rendezvous",
    "RouteResult",
    "route_permutation",
    "ecube_path",
    "Topology",
    "CM2Topology",
    "HypercubeTopology",
    "MeshTopology",
    "CostModel",
    "SimdMachine",
    "TimeLedger",
]
