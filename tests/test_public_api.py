"""The public API surface stays importable and coherent."""

import importlib
import inspect

import pytest

import repro
from repro.kernels.dispatch import DEFAULT_KERNEL_BACKEND

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


#: Knobs retired with the storage-backend matrix: which storage holds
#: the stacks is private to ``workmodel.stackmodel`` / ``search.parallel``.
RETIRED_KNOBS = {"backend", "sampler", "h_memo", "heuristic_memo"}


def _public_callables():
    """(dotted name, callable) for every function, class constructor and
    public method exported by ``repro`` or a subpackage's ``__all__``.
    (``repro.kernels`` is the tier registry itself, where ``backend``
    names a kernel tier; it exports no workload entry point.)"""
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

    def test_kernel_backend_defaults_are_the_dispatch_constant(self):
        taking = {
            dotted: _parameters(obj)["kernel_backend"]
            for dotted, obj in _public_callables()
            if "kernel_backend" in _parameters(obj)
        }
        assert {dotted.rsplit(".", 1)[-1] for dotted in taking} >= {
            "StackWorkload", "SearchWorkload", "ParallelIDAStar",
            "parallel_depth_bounded", "run_grid", "run_batched_cells",
            "MegaGridExecutor", "MegaArena", "configure_kernels",
        }
        for dotted, param in taking.items():
            assert param.default is DEFAULT_KERNEL_BACKEND, dotted

    def test_every_public_item_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_quickstart_snippet_runs(self):
        # The README's first snippet, verbatim semantics at small scale.
        metrics = repro.run_divisible("GP-S0.90", total_work=50_000, n_pes=128, seed=42)
        assert 0 < metrics.efficiency <= 1
