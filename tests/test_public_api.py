"""The public API surface stays importable and coherent."""

import importlib
import inspect
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.simd",
    "repro.core",
    "repro.search",
    "repro.problems",
    "repro.workmodel",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
    "repro.util",
    "repro.serve",
    "repro.cli",
]


#: Knobs retired with the storage-backend matrix (which storage holds
#: the stacks is private to ``workmodel.stackmodel`` / ``search.parallel``)
#: with the kernel tiers (each kernel has one implementation) and with the
#: per-cycle collective charge (the paper folds it into the cycle time),
#: and with fault injection and mid-run checkpoints (the paper's machine
#: never loses a PE; the record store resumes a grid cell by cell).
RETIRED_KNOBS = {
    "backend", "sampler", "h_memo", "heuristic_memo", "kernel_backend", "workspace",
    "charge_collectives", "faults", "checkpoint", "slowdown",
}


def _public_callables():
    """(dotted name, callable) for every function, class constructor and
    public method exported by ``repro`` or a subpackage's ``__all__``."""
    seen = set()
    names = SUBPACKAGES + ["repro.experiments.batched"]
    modules = [repro] + [importlib.import_module(m) for m in names]
    for mod in modules:
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if id(obj) in seen or not callable(obj):
                continue
            seen.add(id(obj))
            yield f"{mod.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):  # builtins / C-implemented callables
        return {}


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackages_import(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_dunder_all_has_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_storage_is_never_a_parameter(self):
        offenders = [
            f"{dotted}({knob}=)"
            for dotted, obj in _public_callables()
            for knob in RETIRED_KNOBS & set(_parameters(obj))
        ]
        assert not offenders, offenders

    def test_fault_package_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.faults")

    def test_every_public_item_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_quickstart_snippet_runs(self):
        # The README's first snippet, verbatim semantics at small scale.
        metrics = repro.run_divisible("GP-S0.90", total_work=50_000, n_pes=128, seed=42)
        assert 0 < metrics.efficiency <= 1

    def test_import_leaves_networkx_out(self):
        """networkx takes longer to import than the rest of the package;
        only ``GraphColoringProblem.random`` needs it, and imports it
        there."""
        code = "import sys, repro; print('networkx' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
