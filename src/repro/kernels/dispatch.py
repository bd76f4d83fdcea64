"""Backend registry and dispatch for the compiled kernel tier.

Every hot kernel in the repo — stack/search ``expand_cycle``, the mega
grid kernels, the sum-scans and the matcher rendezvous — is registered
here under a ``(name, backend)`` key:

- ``"numpy"`` — the reference tier: the exact code the workloads ran
  before this layer existed, one allocation-happy numpy call per step.
  Always present; every other tier is gated bit-identical to it (and
  through it to the list oracle).
- ``"fused"`` — the zero-allocation pure-numpy tier: ``out=``-based
  scans and wheres over a :class:`~repro.kernels.workspace.KernelWorkspace`
  of preallocated scratch, fused mask+count+scan passes, pooled arena
  growth, and a sparse-frontier scalar fast path for nearly-idle cycles.
- ``"jit"`` — numba ``@njit`` compiled row loops, registered only when
  numba imports (``HAVE_NUMBA``).  Tiers a kernel does not implement
  fall through the chain ``jit -> fused -> numpy``, so asking for
  ``"jit"`` always resolves to *something* runnable.

``backend="auto"`` resolves to the best available tier (``jit`` with
numba installed, else ``fused``); asking for ``"jit"`` without numba
falls back to ``"fused"`` gracefully, and :func:`jit_note` returns the
one-line explanation ``repro bench`` prints in that case.
"""

from __future__ import annotations

import threading
from importlib import import_module
from typing import Callable

from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "DEFAULT_KERNEL_BACKEND",
    "HAVE_NUMBA",
    "available_backends",
    "resolve_backend",
    "register",
    "get_kernel",
    "registered_kernels",
    "jit_note",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # noqa: F401

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - ImportError on the lean image
    HAVE_NUMBA = False

#: Dispatchable tiers, slowest to fastest.
BACKENDS: tuple[str, ...] = ("numpy", "fused", "jit")

#: The one default every ``kernel_backend=`` parameter and CLI
#: ``--kernel-backend`` flag shares: the best tier this interpreter runs.
DEFAULT_KERNEL_BACKEND = "auto"

#: Lookup order per requested tier — a kernel missing from a tier falls
#: through to the next one down.
_FALLBACK: dict[str, tuple[str, ...]] = {
    "numpy": ("numpy",),
    "fused": ("fused", "numpy"),
    "jit": ("jit", "fused", "numpy"),
}

#: Implementation modules; imported lazily on first lookup so importing
#: ``repro.kernels.dispatch`` alone stays cheap and cycle-free.
_IMPL_MODULES = (
    "repro.kernels.scans",
    "repro.kernels.stack",
    "repro.kernels.search",
    "repro.kernels.mega",
    "repro.kernels.matching",
    "repro.kernels.jit",
)

_REGISTRY: dict[tuple[str, str], Callable] = {}
_LOADED = False
#: Serializes the first load.  Re-entrant because an implementation
#: module may look a kernel up while it is itself being imported.
_LOAD_LOCK = threading.RLock()


def available_backends() -> tuple[str, ...]:
    """The tiers that can actually run on this interpreter."""
    return BACKENDS if HAVE_NUMBA else BACKENDS[:2]


def resolve_backend(backend: str) -> str:
    """Normalize a requested backend to a runnable tier.

    ``"auto"`` picks the best available; ``"jit"`` without numba degrades
    to ``"fused"`` (the documented graceful fallback).  Unknown names
    raise :class:`~repro.errors.ConfigError`.
    """
    if backend == "auto":
        return "jit" if HAVE_NUMBA else "fused"
    if backend not in BACKENDS:
        raise ConfigError(
            f"kernel backend must be one of {('auto',) + BACKENDS}, got {backend!r}"
        )
    if backend == "jit" and not HAVE_NUMBA:
        return "fused"
    return backend


def register(name: str, backend: str, fn: Callable) -> Callable:
    """Register ``fn`` as kernel ``name``'s ``backend`` tier (idempotent)."""
    if backend not in BACKENDS:
        raise ConfigError(f"cannot register unknown backend {backend!r}")
    _REGISTRY[(name, backend)] = fn
    return fn


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    with _LOAD_LOCK:
        for mod in _IMPL_MODULES:
            import_module(mod)
        # Raised last: a thread that sees the flag sees a full registry.
        _LOADED = True


def get_kernel(name: str, backend: str = DEFAULT_KERNEL_BACKEND) -> Callable:
    """The best registered implementation of ``name`` at ``backend``.

    Walks the fallback chain (``jit -> fused -> numpy``) so partially
    implemented kernels still dispatch; raises ``KeyError`` only when no
    tier of ``name`` exists at all.
    """
    tier = resolve_backend(backend)
    _ensure_loaded()
    for candidate in _FALLBACK[tier]:
        fn = _REGISTRY.get((name, candidate))
        if fn is not None:
            return fn
    known = sorted({n for n, _ in _REGISTRY})
    raise KeyError(f"no kernel registered under {name!r} (known: {known})")


def registered_kernels() -> dict[str, tuple[str, ...]]:
    """Kernel name -> tuple of tiers implementing it (for docs/tests)."""
    _ensure_loaded()
    out: dict[str, list[str]] = {}
    for kname, backend in sorted(_REGISTRY):
        out.setdefault(kname, []).append(backend)
    return {k: tuple(v) for k, v in out.items()}


def jit_note() -> str | None:
    """One-line bench/CLI note when the jit tier is unavailable."""
    if HAVE_NUMBA:
        return None
    return (
        "numba is not installed: backend='jit' falls back to the fused "
        "numpy tier (pip install numba to enable the compiled tier)"
    )
