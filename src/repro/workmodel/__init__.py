"""Abstract workload models.

- :mod:`repro.workmodel.divisible` — the alpha-splittable work model of the
  paper's analysis (Section 3), fully vectorized; runs the Table 2/4/5
  experiments at the paper's own scale (P = 8192, W = 1.6e7).
- :mod:`repro.workmodel.stackmodel` — per-PE stacks of pending subtree
  sizes with stick-breaking expansion and bottom-of-stack donation; a
  mid-fidelity bridge between the divisible model and the real DFS engine.
  All stacks sit in one flat array advanced by vectorized kernels.
- :mod:`repro.workmodel.arena` — the flat-arena storage and the batched
  stick-breaking sampler (``StackArena``, ``draw_children_batch``).
- :mod:`repro.workmodel.mega` — many independent grid cells packed onto
  one flat PE axis (``MegaArena``) so full-width kernels advance every
  cell's lock-step cycle in a single call.
- :mod:`repro.workmodel.profiles` — scripted active-processor decay shapes
  (Figure 5) used to exhibit the D_P pathology analytically.
"""

from repro.workmodel.divisible import DivisibleWorkload
from repro.workmodel.mega import MegaArena
from repro.workmodel.stackmodel import StackWorkload
from repro.workmodel.profiles import (
    gradual_profile,
    cliff_profile,
    trigger_fire_cycle,
)

__all__ = [
    "DivisibleWorkload",
    "MegaArena",
    "StackWorkload",
    "gradual_profile",
    "cliff_profile",
    "trigger_fire_cycle",
]
