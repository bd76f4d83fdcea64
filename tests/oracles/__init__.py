"""Test-side reference implementations the identity suites diff against.

Product code has one storage per workload; what it is checked against
lives here, where no caller can select it by accident:

- :class:`ListStackWorkload` — the deque-per-PE stack model, moved out of
  ``repro.workmodel.stackmodel``.  It draws from the same batched RNG
  stream as the arena, so a run is bit-identical seed for seed.
- :func:`opaque` — wraps a search problem so only the four
  ``SearchProblem`` methods show.  ``SearchWorkload`` then cannot see the
  arena protocol and runs its per-PE ``DFSStack`` path, which is how the
  suites put a puzzle on the reference path; and the serial search takes
  the recomputing default ``successors``, the oracle for a puzzle's
  incremental Manhattan scoring.
- :class:`RendezvousNGPMatcher` / :class:`RendezvousGPMatcher` — the
  mask-validated matchers with a full rotated busy order and a
  permutation-checked rendezvous, moved out of ``repro.core.matching``
  when it went to one index-array ``Matcher.pair``.
"""

from tests.oracles.matching import RendezvousGPMatcher, RendezvousNGPMatcher
from tests.oracles.problem import opaque
from tests.oracles.stack import ListStackWorkload

__all__ = [
    "ListStackWorkload",
    "RendezvousGPMatcher",
    "RendezvousNGPMatcher",
    "opaque",
]
