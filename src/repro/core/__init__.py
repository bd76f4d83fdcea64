"""The paper's primary contribution: SIMD dynamic load balancing.

- :mod:`repro.core.matching` — nGP and GP idle/busy matching (Section 2).
- :mod:`repro.core.triggering` — S^x static, D_P and D_K dynamic triggers.
- :mod:`repro.core.splitting` — alpha-splitting work-donation policies.
- :mod:`repro.core.scheduler` — the search-phase / load-balancing-phase
  lock-step loop that combines a workload, a matcher and a trigger on a
  :class:`~repro.simd.machine.SimdMachine`.
- :mod:`repro.core.config` — the Table 1 scheme registry and the
  ``"GP-S0.90"`` / ``"nGP-DP"`` / ``"GP-DK"`` spec parser.
- :mod:`repro.core.metrics` — run metrics (N_expand, N_lb, transfers, E).
"""

from repro.core.interfaces import Workload
from repro.core.splitting import (
    WorkSplitter,
    AlphaSplitter,
    HalfSplitter,
    FixedFractionSplitter,
    UnitSplitter,
)
from repro.core.matching import Matcher, MatchResult, NGPMatcher, GPMatcher
from repro.core.triggering import (
    Trigger,
    TriggerState,
    StaticTrigger,
    DPTrigger,
    DKTrigger,
)
from repro.core.metrics import RunMetrics
from repro.core.config import Scheme, make_scheme, parse_scheme_spec, PAPER_SCHEMES
from repro.core.scheduler import Scheduler

__all__ = [
    "Workload",
    "WorkSplitter",
    "AlphaSplitter",
    "HalfSplitter",
    "FixedFractionSplitter",
    "UnitSplitter",
    "Matcher",
    "MatchResult",
    "NGPMatcher",
    "GPMatcher",
    "Trigger",
    "TriggerState",
    "StaticTrigger",
    "DPTrigger",
    "DKTrigger",
    "RunMetrics",
    "Scheme",
    "make_scheme",
    "parse_scheme_spec",
    "PAPER_SCHEMES",
    "Scheduler",
]
