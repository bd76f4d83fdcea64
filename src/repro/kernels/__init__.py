"""Compiled kernel tier: registry-dispatched hot loops in three backends.

``repro.kernels`` extracts the repo's hot kernels — stack and search
``expand_cycle``, the segmented sum-scans, the matcher rendezvous and
the :class:`~repro.workmodel.mega.MegaArena` grid kernels — behind one
``(name, backend)`` registry:

- ``backend="numpy"`` — the reference tier (the exact historical code);
- ``backend="fused"`` — zero-allocation pure numpy over a per-workload
  :class:`KernelWorkspace`;
- ``backend="jit"`` — numba ``@njit`` row loops when numba is
  importable, graceful fallback to ``"fused"`` when not;
- ``backend="auto"`` — the best available tier, and the value of
  :data:`DEFAULT_KERNEL_BACKEND`, the one default every
  ``kernel_backend=`` parameter shares.

See ``docs/performance.md`` ("Kernel tiers") for dispatch rules,
workspace lifetime and the bit-identity gating story.
"""

from repro.kernels.dispatch import (
    BACKENDS,
    DEFAULT_KERNEL_BACKEND,
    HAVE_NUMBA,
    available_backends,
    get_kernel,
    jit_note,
    register,
    registered_kernels,
    resolve_backend,
)
from repro.kernels.workspace import KernelWorkspace

__all__ = [
    "BACKENDS",
    "DEFAULT_KERNEL_BACKEND",
    "HAVE_NUMBA",
    "KernelWorkspace",
    "available_backends",
    "get_kernel",
    "jit_note",
    "register",
    "registered_kernels",
    "resolve_backend",
]
