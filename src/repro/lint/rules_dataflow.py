"""The dataflow rule family (R100-R103) — lint v2's kernel discipline.

These rules consume the :mod:`repro.lint.graph` project index and the
:mod:`repro.lint.dataflow` provenance facts, so they see *across* files
(helper-returned RNG streams, mask indices passed through parameters).
They run under ``repro lint --strict`` and police the invariants every
bit-identity gate in this repo rests on:

- **R100** — RNG provenance: any generator reachable in scheduler /
  kernel / fault code must trace back to ``rng.spawn_child`` /
  ``as_generator``; a stray ``default_rng()`` (even laundered through a
  local helper) forks the seed tree and silently breaks oracle identity.
- **R101** — nondeterminism sources in kernel-marked code: wall-clock,
  ``os.environ``, set/dict-order iteration, ``id()``-keyed maps.
- **R102** — kernel purity: no Python-level loops over the PE axis, no
  object-dtype arrays, no float dtype drift in the int64 arenas and no
  file/console I/O.
- **R103** — mask provenance: writes to PE-indexed arena storage must be
  dominated by an alive/active mask guard — the static twin of the
  runtime sanitizer's mask taxonomy and ``FaultRuntime``'s dead-PE
  masking.  The PE axis is the first index element; storage is any
  attribute (``self.top``) or a loop variable over one (``for plane in
  self.planes``).  Functions documented ``full-width`` (the R003
  convention) are exempt.

Kernel scope = the :data:`~repro.lint.config.KERNEL_MODULES` registry,
``kernel_modules`` config entries, and ``# repro: kernel`` pragmas
(module-, class- or function-level).  R100 additionally covers
``repro/core/scheduler.py`` and everything under ``repro/faults/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dataflow import (
    MASK,
    MASK_INDEX,
    RNG_BAD,
    expression_provenance,
)
from repro.lint.findings import Finding
from repro.lint.rules import LintContext, Rule, register, resolve_call

__all__ = [
    "RngProvenance",
    "NondeterminismSource",
    "KernelPurity",
    "MaskProvenance",
]

#: Generator methods whose call is a draw from the stream.
_RNG_DRAW_METHODS = frozenset(
    {
        "integers",
        "random",
        "choice",
        "permutation",
        "permuted",
        "shuffle",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "geometric",
        "spawn",
    }
)


def _walk_own(root: ast.AST):
    """Walk one function body in source order, skipping nested defs."""
    stack = list(ast.iter_child_nodes(root))[::-1]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(list(ast.iter_child_nodes(node))[::-1])


def _storage_loop_names(root: ast.AST) -> set[str]:
    """Loop variables that alias attribute-rooted storage.

    ``for plane in self.planes`` binds ``plane`` to arena storage, and so
    does the matching target of ``for plane, flat in zip(self.planes,
    flats)``; a write through such a name is a write to the arena.
    """
    names: set[str] = set()
    for node in _walk_own(root):
        if not isinstance(node, ast.For):
            continue
        pairs = [(node.target, node.iter)]
        if (
            isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "zip"
            and isinstance(node.target, ast.Tuple)
        ):
            pairs = list(zip(node.target.elts, node.iter.args))
        for target, source in pairs:
            if isinstance(target, ast.Name) and isinstance(source, ast.Attribute):
                names.add(target.id)
    return names


class DataflowRule(Rule):
    """Base for project-aware rules; engine supplies ``ctx.project``."""

    family = "dataflow"
    requires_project = True

    def module_info(self, ctx: LintContext):
        if ctx.project is None:
            return None
        return ctx.project.module_for(ctx.logical)

    def functions_of(self, ctx: LintContext):
        info = self.module_info(ctx)
        if info is None:
            return []
        return [fn for fn in info.functions.values() if fn.module == info.name]

    def env_of(self, ctx: LintContext, fn) -> dict[str, set[str]]:
        if ctx.dataflow is None:
            return {}
        facts = ctx.dataflow.get(fn.qualname)
        return facts.env if facts is not None else {}

    def prov(self, ctx: LintContext, fn, expr: ast.expr) -> set[str]:
        info = self.module_info(ctx)
        bindings = info.bindings if info is not None else {}
        return expression_provenance(
            expr,
            self.env_of(ctx, fn),
            bindings,
            fn=fn,
            project=ctx.project,
            facts=ctx.dataflow,
        )


@register
class RngProvenance(DataflowRule):
    """R100: scheduler/kernel/fault RNG must trace to ``rng.spawn_child``."""

    rule_id = "R100"
    title = "RNG stream without spawn_child/as_generator provenance"

    _EXTRA_SCOPES = ("repro/faults/",)
    _EXTRA_FILES = ("repro/core/scheduler.py",)
    _HINT = (
        "derive the stream from repro.util.rng.spawn_child / as_generator "
        "so it stays inside the run's seed tree"
    )

    def _in_scope(self, ctx: LintContext, fn) -> bool:
        return (
            fn.kernel
            or ctx.logical.startswith(self._EXTRA_SCOPES)
            or ctx.logical in self._EXTRA_FILES
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for fn in self.functions_of(ctx):
            if not self._in_scope(ctx, fn):
                continue
            env = self.env_of(ctx, fn)
            for node in _walk_own(fn.node):
                if isinstance(node, ast.Assign):
                    tags = self.prov(ctx, fn, node.value)
                    if RNG_BAD in tags:
                        yield self.finding(
                            ctx, node,
                            f"'{fn.name}' binds an RNG stream that does not "
                            f"trace back to the seed tree; {self._HINT}",
                        )
                elif isinstance(node, ast.Return) and node.value is not None:
                    tags = self.prov(ctx, fn, node.value)
                    if RNG_BAD in tags:
                        yield self.finding(
                            ctx, node,
                            f"'{fn.name}' returns an RNG stream that does not "
                            f"trace back to the seed tree; {self._HINT}",
                        )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _RNG_DRAW_METHODS
                        and isinstance(func.value, ast.Name)
                        and RNG_BAD in env.get(func.value.id, ())
                    ):
                        yield self.finding(
                            ctx, node,
                            f"draw '.{func.attr}()' from an unsanctioned RNG "
                            f"stream '{func.value.id}'; {self._HINT}",
                        )


@register
class NondeterminismSource(DataflowRule):
    """R101: no host-environment nondeterminism in kernel-marked code."""

    rule_id = "R101"
    title = "nondeterminism source in kernel-marked code"

    _BANNED_CALLS = {
        "time.time": "wall-clock read",
        "time.time_ns": "wall-clock read",
        "time.perf_counter": "wall-clock read",
        "time.perf_counter_ns": "wall-clock read",
        "time.monotonic": "wall-clock read",
        "time.monotonic_ns": "wall-clock read",
        "os.urandom": "OS entropy",
        "os.getrandom": "OS entropy",
        "os.getenv": "environment read",
        "uuid.uuid1": "entropy-derived identifier",
        "uuid.uuid4": "entropy-derived identifier",
        "datetime.datetime.now": "wall-clock read",
        "datetime.datetime.utcnow": "wall-clock read",
    }

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        info = self.module_info(ctx)
        if info is None:
            return
        if info.kernel:
            regions = [(None, info.tree)]
        else:
            regions = [
                (fn, fn.node)
                for fn in self.functions_of(ctx)
                if fn.kernel
            ]
        for _fn, root in regions:
            for node in ast.walk(root):
                yield from self._check_node(ctx, info, node)

    def _check_node(self, ctx, info, node) -> Iterator[Finding]:
        where = "in kernel-marked code"
        if isinstance(node, ast.Call):
            dotted = resolve_call(node.func, info.bindings)
            if dotted is not None:
                why = self._BANNED_CALLS.get(dotted)
                if why is None and dotted.startswith("secrets."):
                    why = "OS entropy"
                if why is not None:
                    yield self.finding(
                        ctx, node,
                        f"call to {dotted} ({why}) {where}; kernel results "
                        "must be a pure function of the seed and inputs",
                    )
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and any(
                    kw.arg == "key"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id == "id"
                    for kw in node.keywords
                )
            ):
                yield self.finding(
                    ctx, node,
                    f"sorted(key=id) {where}: object addresses vary run to "
                    "run; sort on a value key instead",
                )
        elif isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and info.bindings.get(node.value.id) == "os"
            ):
                yield self.finding(
                    ctx, node,
                    f"os.environ access {where}; thread configuration in "
                    "explicitly so runs do not depend on the host shell",
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            if self._is_unordered(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    f"iteration over a set {where}: ordering depends on hash "
                    "seeding; iterate a sorted() or list view instead",
                )
        elif isinstance(node, ast.Subscript):
            if self._is_id_call(node.slice):
                yield self.finding(
                    ctx, node,
                    f"id()-keyed map access {where}: object addresses are "
                    "not stable across runs; key on a value identity",
                )
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and self._is_id_call(key):
                    yield self.finding(
                        ctx, key,
                        f"id()-keyed map literal {where}: object addresses "
                        "are not stable across runs; key on a value identity",
                    )
        elif isinstance(node, ast.DictComp):
            if self._is_id_call(node.key):
                yield self.finding(
                    ctx, node.key,
                    f"id()-keyed map literal {where}: object addresses "
                    "are not stable across runs; key on a value identity",
                )

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    @staticmethod
    def _is_unordered(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )


@register
class KernelPurity(DataflowRule):
    """R102: kernel functions stay vectorized, typed and I/O-free."""

    rule_id = "R102"
    title = "kernel purity violation (PE loop / dtype drift / I/O)"

    _PE_AXIS_NAMES = frozenset({"n_pes", "num_pes", "n_processors"})
    _FLOAT_DTYPES = frozenset(
        {"float", "float16", "float32", "float64", "half", "single", "double"}
    )
    _IO_CALLS = ("json.dump", "json.dumps", "pickle.dump", "pickle.dumps")
    _IO_METHODS = frozenset(
        {"write_text", "write_bytes", "read_text", "read_bytes", "save",
         "savetxt", "tofile"}
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        info = self.module_info(ctx)
        if info is None:
            return
        for fn in self.functions_of(ctx):
            if not fn.kernel:
                continue
            for node in _walk_own(fn.node):
                yield from self._check_node(ctx, info, fn, node)

    def _check_node(self, ctx, info, fn, node) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.comprehension)):
            if self._is_pe_axis_range(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    f"'{fn.name}' loops over the PE axis in Python; kernel "
                    "code advances all PEs in one vectorized numpy call "
                    "(hoist the loop into a full-width kernel or move this "
                    "out of kernel scope)",
                )
        elif isinstance(node, ast.keyword) and node.arg == "dtype":
            label = self._dtype_label(node.value, info.bindings)
            if label == "object":
                yield self.finding(
                    ctx, node.value,
                    f"object-dtype array in kernel '{fn.name}': boxes every "
                    "element and defeats vectorized expansion; use a fixed-"
                    "width integer dtype",
                )
            elif label in self._FLOAT_DTYPES:
                yield self.finding(
                    ctx, node.value,
                    f"float dtype '{label}' in kernel '{fn.name}': the arena "
                    "contract is integer (int64) storage — float drift "
                    "breaks bit-identity with the list oracle",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                for arg in node.args:
                    label = self._dtype_label(arg, info.bindings)
                    if label in self._FLOAT_DTYPES or label == "object":
                        yield self.finding(
                            ctx, node,
                            f"astype({label}) in kernel '{fn.name}': dtype "
                            "drift away from the int64 arena contract",
                        )
            if isinstance(func, ast.Name) and func.id in ("open", "print"):
                yield self.finding(
                    ctx, node,
                    f"{func.id}() in kernel '{fn.name}': kernels must not do "
                    "I/O; report through the ledger / repro.obs instead",
                )
            if isinstance(func, ast.Attribute) and func.attr in self._IO_METHODS:
                yield self.finding(
                    ctx, node,
                    f".{func.attr}() in kernel '{fn.name}': kernels must not "
                    "do I/O; report through the ledger / repro.obs instead",
                )
            dotted = resolve_call(func, info.bindings)
            if dotted is not None and dotted.startswith(self._IO_CALLS):
                yield self.finding(
                    ctx, node,
                    f"call to {dotted} in kernel '{fn.name}': kernels "
                    "must not do I/O",
                )

    def _is_pe_axis_range(self, it: ast.expr) -> bool:
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            return False
        for arg in it.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name) and sub.id in self._PE_AXIS_NAMES:
                    return True
                if isinstance(sub, ast.Attribute) and sub.attr in self._PE_AXIS_NAMES:
                    return True
        return False

    @staticmethod
    def _dtype_label(node: ast.expr, bindings: dict[str, str]) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in ("object", "float"):
                return node.id
            return None
        if isinstance(node, ast.Attribute):
            dotted = resolve_call(node, bindings)  # reuse attr-chain walker
            if dotted is not None and dotted.startswith("numpy."):
                return dotted.split(".", 1)[1]
            return node.attr
        return None


@register
class MaskProvenance(DataflowRule):
    """R103: PE-indexed storage writes are dominated by a mask guard."""

    rule_id = "R103"
    title = "unmasked write to PE-indexed storage"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for fn in self.functions_of(ctx):
            if not fn.kernel:
                continue
            doc = fn.docstring.lower()
            if "full-width" in doc or "unmasked" in doc:
                continue
            yield from self._check_function(ctx, fn)

    def _check_function(self, ctx: LintContext, fn) -> Iterator[Finding]:
        storage = _storage_loop_names(fn.node)

        # Walk with a guard stack: a write dominated by an `if`/`while`
        # whose test is mask-derived is properly guarded.
        def visit(node: ast.AST, guarded: bool) -> Iterator[Finding]:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node is not fn.node:
                return
            if isinstance(node, (ast.If, ast.While)):
                test_tags = self.prov(ctx, fn, node.test)
                body_guarded = guarded or bool(
                    test_tags & {MASK, MASK_INDEX}
                )
                for child in node.body:
                    yield from visit(child, body_guarded)
                for child in node.orelse:
                    yield from visit(child, guarded)
                return
            if isinstance(node, (ast.Assign, ast.AugAssign)) and not guarded:
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    finding = self._check_write(ctx, fn, target, storage)
                    if finding is not None:
                        yield finding
            for child in ast.iter_child_nodes(node):
                yield from visit(child, guarded)

        for child in ast.iter_child_nodes(fn.node):
            yield from visit(child, False)

    def _check_write(
        self, ctx: LintContext, fn, target: ast.expr, storage_names: set[str]
    ):
        if not isinstance(target, ast.Subscript):
            return None
        # Only attribute-rooted storage counts (self.top, arena.planes),
        # directly or through a loop variable over it; other locals are
        # scratch space, not arena state.
        root = target.value
        if not (
            isinstance(root, ast.Attribute)
            or (isinstance(root, ast.Name) and root.id in storage_names)
        ):
            return None
        # Judge the PE axis, the first index element: a mask-derived slot
        # index further right does not make the PE selection masked.
        index = target.slice
        if isinstance(index, ast.Tuple) and index.elts:
            index = index.elts[0]
        # A slice on the PE axis (self.top[:] = ..., buf[:, :k] = ...)
        # writes every PE explicitly — full-width by construction, not a
        # masked subset gone wrong.
        if isinstance(index, ast.Slice):
            return None
        tags = self.prov(ctx, fn, index)
        if tags & {MASK, MASK_INDEX}:
            return None
        storage = ast.unparse(root)
        return self.finding(
            ctx, target,
            f"write to PE-indexed storage '{storage}' in kernel "
            f"'{fn.name}' is not dominated by an alive/active mask guard; "
            "index through np.flatnonzero(mask) (or guard the statement "
            "with the mask), or document the function as full-width",
        )
