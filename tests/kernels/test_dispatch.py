"""Registry and dispatch semantics of :mod:`repro.kernels.dispatch`.

The dispatch layer's contract is small but load-bearing: ``"auto"``
resolves to the best tier the interpreter can run, a requested ``"jit"``
without numba degrades to ``"fused"`` instead of erroring, and kernels
missing from a tier fall through the chain ``jit -> fused -> numpy``.
These tests run identically with or without numba installed — every
assertion branches on :data:`HAVE_NUMBA` rather than assuming a tier.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.kernels.dispatch import (
    BACKENDS,
    HAVE_NUMBA,
    available_backends,
    get_kernel,
    jit_note,
    register,
    registered_kernels,
    resolve_backend,
)


class TestResolveBackend:
    def test_auto_picks_best_available(self):
        assert resolve_backend("auto") == ("jit" if HAVE_NUMBA else "fused")

    def test_explicit_tiers_resolve_to_themselves(self):
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("fused") == "fused"

    def test_jit_degrades_gracefully_without_numba(self):
        assert resolve_backend("jit") == ("jit" if HAVE_NUMBA else "fused")

    def test_unknown_backend_raises_config_error(self):
        with pytest.raises(ConfigError, match="kernel backend"):
            resolve_backend("cuda")

    def test_available_backends_subset_of_backends(self):
        avail = available_backends()
        assert set(avail) <= set(BACKENDS)
        assert ("jit" in avail) == HAVE_NUMBA
        assert avail[:2] == ("numpy", "fused")


class TestRegistryLookup:
    def test_every_kernel_has_a_numpy_reference_tier(self):
        kernels = registered_kernels()
        assert kernels  # the implementation modules registered something
        for name, tiers in kernels.items():
            assert "numpy" in tiers, name

    def test_expected_kernel_names_registered(self):
        names = set(registered_kernels())
        assert {
            "stack.expand_cycle",
            "search.expand_cycle",
            "mega.expand_all",
            "scan.sum_scan",
            "scan.enumerate_mask",
            "match.rendezvous",
        } <= names

    def test_fallback_chain_returns_lower_tier(self):
        """The stack kernel has no jit tier (RNG draws are not
        numba-replayable), so asking for jit walks down the chain."""
        tiers = registered_kernels()["stack.expand_cycle"]
        assert "jit" not in tiers
        assert get_kernel("stack.expand_cycle", "jit") is get_kernel(
            "stack.expand_cycle", "fused"
        )

    def test_numpy_request_never_upgrades(self):
        assert get_kernel("stack.expand_cycle", "numpy") is not get_kernel(
            "stack.expand_cycle", "fused"
        )

    def test_unknown_kernel_raises_with_known_names(self):
        with pytest.raises(KeyError, match="stack.expand_cycle"):
            get_kernel("no.such.kernel")

    def test_register_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            register("x", "cuda", lambda: None)


_RACE_SCRIPT = """
import sys, threading, time
sys.path.insert(0, sys.argv[1])
from repro.kernels import dispatch

real_import = dispatch.import_module
def slow_import(name):
    time.sleep(0.05)  # hold the load open so every thread arrives mid-way
    return real_import(name)
dispatch.import_module = slow_import

N = 8
barrier = threading.Barrier(N)
errors = []
def lookup():
    barrier.wait(timeout=30)
    try:
        dispatch.get_kernel("mega.expand_all", "numpy")
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=lookup) for _ in range(N)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads), "lookup thread wedged"
assert not errors, errors
"""


def test_concurrent_first_lookup_sees_a_full_registry():
    """The registry's first load races with nothing: threads that hit
    ``get_kernel`` while the implementation modules are still importing
    wait for the load instead of finding a half-filled registry (the
    first concurrent ``repro serve`` job used to die with ``KeyError: no
    kernel registered under 'mega.expand_all'``).  Needs a fresh
    interpreter — this process loaded the registry long ago."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RACE_SCRIPT, src],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestJitNote:
    def test_note_matches_numba_availability(self):
        note = jit_note()
        if HAVE_NUMBA:
            assert note is None
        else:
            assert "numba" in note and "fused" in note
