"""The SIMD-discipline rule set and the rule registry.

Each rule inspects one parsed module (:class:`LintContext`) and yields
:class:`~repro.lint.findings.Finding` objects.  The rules encode the
paper's lock-step contract, and each is the only gate that catches its
hazard (``docs/lint.md`` has the audit):

- **R001** — all randomness flows through ``repro.util.rng``; no direct
  ``random`` / ``numpy.random`` use anywhere else, so every run is a
  pure function of its integer seed.
- **R002** — no wall-clock, entropy, environment, ``id()``-keyed or
  unordered-collection nondeterminism in ``core/``, ``simd/``,
  ``search/`` or ``workmodel/``: scheme behaviour (trigger decisions,
  GP rotation, D_K accounting) must not depend on when or where the
  host Python runs.
- **R003** — public modules declare ``__all__``.
- **R102** — kernel purity: kernel code has no Python loops over the PE
  axis, no object dtypes, no float dtype drift and no I/O.  A PE loop
  is correct but slow, so no identity suite notices it.

Rules are module-scoped by *logical path* — the path suffix starting at
the ``repro`` package directory — so fixtures placed under a
``repro/core/`` directory in a test tree are linted exactly like the
real package.  R102's kernel scope is :data:`KERNEL_MODULES` plus
``# repro: kernel`` pragmas (:func:`parse_kernel_pragmas`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.findings import Finding

__all__ = [
    "KERNEL_MODULES",
    "LintContext",
    "Rule",
    "register",
    "all_rules",
    "rule_ids",
    "collect_imports",
    "resolve_call",
    "parse_kernel_pragmas",
]

#: Logical paths whose code is *kernel* by construction: full-width numpy
#: kernels whose discipline the arenas' bit-identity gates depend on.
#: ``# repro: kernel`` pragmas extend this set file-locally (and mark
#: individual functions inside mixed modules like search/parallel.py).
KERNEL_MODULES: frozenset[str] = frozenset(
    {
        "repro/simd/arena.py",
        "repro/simd/scan.py",
        "repro/simd/router.py",
        "repro/workmodel/mega.py",
        "repro/search/kernel.py",
    }
)


@dataclass(frozen=True)
class LintContext:
    """One parsed module handed to every rule.

    ``logical`` is the package-relative posix path (e.g.
    ``repro/core/scheduler.py``) used for scoping and exemptions;
    ``path`` is the on-disk path used in findings.
    """

    path: Path
    logical: str
    source: str
    tree: ast.Module


def collect_imports(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted path they were imported as.

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    time`` binds ``time -> time.time``; ``from repro.simd.scan import
    rendezvous as rv`` binds ``rv -> repro.simd.scan.rendezvous``.
    """
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    bindings[head] = head
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = f"{node.module}.{alias.name}"
    return bindings


def resolve_call(func: ast.expr, bindings: dict[str, str]) -> str | None:
    """Resolve a call's function expression to a dotted import path.

    Returns ``None`` when the callee is local (not import-derived) or
    too dynamic to resolve statically.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = bindings.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


_PRAGMA_RE = re.compile(r"#\s*repro:\s*kernel\b")
_DEF_RE = re.compile(r"^\s*(async\s+def|def|class)\s")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _pragma_comment_lines(source: str) -> list[int]:
    """Line numbers of real ``# repro: kernel`` comment tokens.

    Tokenizing (rather than grepping lines) keeps pragma *mentions*
    inside docstrings — like the ones in this module — from marking
    their module as kernel code.
    """
    if _PRAGMA_RE.search(source) is None:
        return []
    out: list[int] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT and _PRAGMA_RE.match(tok.string):
                out.append(tok.start[0])
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return out


def parse_kernel_pragmas(
    source: str, tree: ast.Module
) -> tuple[bool, set[int]]:
    """Locate ``# repro: kernel`` pragmas in a module.

    Returns ``(module_level, def_lines)`` where ``def_lines`` holds the
    ``lineno`` of every ``def``/``class`` the pragma attaches to (the
    pragma trails the definition line or sits on the line directly above
    its first decorator).  Pragmas attached to no definition mark the
    whole module.
    """
    pragma_lines = _pragma_comment_lines(source)
    if not pragma_lines:
        return False, set()
    lines = source.splitlines()
    # def lineno -> the line a leading pragma occupies: the line above
    # the first decorator (or above the def itself).
    def_start: dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            def_start[node.lineno] = first
    module_level = False
    attached: set[int] = set()
    for pl in pragma_lines:
        target = None
        for def_line, first in def_start.items():
            on_def_line = pl == def_line and _DEF_RE.match(lines[pl - 1] or "")
            if on_def_line or pl == first - 1:
                target = def_line
                break
        if target is None:
            module_level = True
        else:
            attached.add(target)
    return module_level, attached


def _kernel_functions(
    ctx: LintContext,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function of the module that is kernel code.

    A function is kernel when its module is in :data:`KERNEL_MODULES` or
    carries a free-standing pragma, or when a pragma marks it or any
    enclosing ``def``/``class``.
    """
    module_level, marked_defs = parse_kernel_pragmas(ctx.source, ctx.tree)
    out: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def visit(node: ast.AST, kernel: bool) -> None:
        for child in ast.iter_child_nodes(node):
            marked = kernel
            if isinstance(child, _DEFS):
                marked = kernel or child.lineno in marked_defs
                if marked and not isinstance(child, ast.ClassDef):
                    out.append(child)
            visit(child, marked)

    visit(ctx.tree, module_level or ctx.logical in KERNEL_MODULES)
    return out


def _walk_own(root: ast.AST) -> Iterator[ast.AST]:
    """Walk one function body in source order, skipping nested defs."""
    stack = list(ast.iter_child_nodes(root))[::-1]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _DEFS):
            continue
        stack.extend(list(ast.iter_child_nodes(node))[::-1])


class Rule:
    """Base lint rule; subclasses register themselves with :func:`register`."""

    rule_id: str = "R000"
    title: str = "abstract"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry."""
    _REGISTRY[cls.rule_id] = cls
    return cls


def rule_ids() -> list[str]:
    """All registered rule identifiers, sorted."""
    return sorted(_REGISTRY)


def all_rules(subset: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate every registered rule, or the named ``subset``."""
    if subset is None:
        ids = rule_ids()
    else:
        ids = list(dict.fromkeys(s.upper() for s in subset))
        unknown = [i for i in ids if i not in _REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {unknown}; known: {rule_ids()}"
            )
    return [_REGISTRY[i]() for i in ids]


# --------------------------------------------------------------------------- #


@register
class UnsanctionedRNG(Rule):
    """R001: all randomness must flow through ``repro.util.rng``."""

    rule_id = "R001"
    title = "unsanctioned RNG use outside repro/util/rng.py"

    _EXEMPT = ("repro/util/rng.py",)
    _HINT = (
        "derive streams through repro.util.rng.as_generator / spawn_child "
        "so runs stay a pure function of the seed"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.logical in self._EXEMPT:
            return
        bindings = collect_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    if head == "random":
                        yield self.finding(
                            ctx, node,
                            f"import of the stdlib 'random' module; {self._HINT}",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mod = node.module or ""
                if mod == "random" or mod.startswith("random."):
                    yield self.finding(
                        ctx, node,
                        f"import from the stdlib 'random' module; {self._HINT}",
                    )
                elif mod == "numpy.random" or mod.startswith("numpy.random."):
                    yield self.finding(
                        ctx, node,
                        f"import from numpy.random; {self._HINT}",
                    )
                elif mod == "numpy" and any(a.name == "random" for a in node.names):
                    yield self.finding(
                        ctx, node,
                        f"import of numpy.random; {self._HINT}",
                    )
            elif isinstance(node, ast.Call):
                dotted = resolve_call(node.func, bindings)
                if dotted is None:
                    continue
                if dotted.startswith("numpy.random.") or dotted == "random" or \
                        dotted.startswith("random."):
                    yield self.finding(
                        ctx, node, f"direct call to {dotted}; {self._HINT}"
                    )


@register
class Nondeterminism(Rule):
    """R002: no host-dependent nondeterminism in the lock-step subsystems."""

    rule_id = "R002"
    title = "nondeterminism in core/, simd/, search/ or workmodel/"

    _SCOPES = ("repro/core/", "repro/simd/", "repro/search/", "repro/workmodel/")
    _BANNED_CALLS = {
        "time.time": "wall-clock read",
        "time.time_ns": "wall-clock read",
        "time.perf_counter": "wall-clock read",
        "time.perf_counter_ns": "wall-clock read",
        "time.monotonic": "wall-clock read",
        "time.monotonic_ns": "wall-clock read",
        "time.clock_gettime": "wall-clock read",
        "os.urandom": "OS entropy",
        "os.getrandom": "OS entropy",
        "os.getenv": "environment read",
        "uuid.uuid1": "entropy-derived identifier",
        "uuid.uuid4": "entropy-derived identifier",
        "datetime.datetime.now": "wall-clock read",
        "datetime.datetime.utcnow": "wall-clock read",
        "datetime.datetime.today": "wall-clock read",
        "datetime.date.today": "wall-clock read",
    }
    _BANNED_PREFIXES = ("secrets.",)

    _ITER_MSG = (
        "iteration over a set in a lock-step subsystem: ordering depends on "
        "hash seeding and can leak into scheduling decisions; iterate a "
        "sorted() or list view instead"
    )
    _ID_MSG = (
        "id()-keyed map in a lock-step subsystem: object addresses are "
        "not stable across runs; key on a value identity"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.logical.startswith(self._SCOPES):
            return
        bindings = collect_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, bindings)
            elif isinstance(node, (ast.For, ast.comprehension)):
                if self._is_unordered(node.iter):
                    yield self.finding(ctx, node.iter, self._ITER_MSG)
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if resolve_call(node, bindings) == "os.environ":
                    yield self.finding(
                        ctx, node,
                        "os.environ access in a lock-step subsystem; thread "
                        "configuration in explicitly so runs do not depend "
                        "on the host shell",
                    )
            elif isinstance(node, ast.Subscript):
                if self._is_id_call(node.slice):
                    yield self.finding(ctx, node, self._ID_MSG)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and self._is_id_call(key):
                        yield self.finding(ctx, key, self._ID_MSG)
            elif isinstance(node, ast.DictComp):
                if self._is_id_call(node.key):
                    yield self.finding(ctx, node.key, self._ID_MSG)

    def _check_call(
        self, ctx: LintContext, node: ast.Call, bindings: dict[str, str]
    ) -> Iterator[Finding]:
        dotted = resolve_call(node.func, bindings)
        if dotted is not None:
            why = self._BANNED_CALLS.get(dotted)
            if why is None and dotted.startswith(self._BANNED_PREFIXES):
                why = "OS entropy"
            if why is not None:
                yield self.finding(
                    ctx, node,
                    f"call to {dotted} ({why}) in a lock-step subsystem; "
                    "simulated time lives on the SimdMachine ledger and "
                    "randomness comes from repro.util.rng",
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
                "sorted(key=id) in a lock-step subsystem: object addresses "
                "vary run to run; sort on a value key instead",
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
class ModuleDiscipline(Rule):
    """R003: public modules declare ``__all__``."""

    rule_id = "R003"
    title = "missing __all__"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        basename = Path(ctx.logical).name
        # The __all__ requirement is a *package-surface* contract: it only
        # applies to modules inside the repro package (logical path under
        # ``repro/``).  Test modules are never imported as an API, so
        # demanding __all__ there would be pure noise.
        in_package = ctx.logical.startswith("repro/")
        if (
            in_package
            and not basename.startswith("_")
            and not self._defines_all(ctx.tree)
        ):
            yield Finding(
                rule=self.rule_id,
                path=str(ctx.path),
                line=1,
                col=0,
                message="public module defines no __all__; declare its "
                "exported surface explicitly",
            )

    @staticmethod
    def _defines_all(tree: ast.Module) -> bool:
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return True
        return False


@register
class KernelPurity(Rule):
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
        kernels = _kernel_functions(ctx)
        if not kernels:
            return
        bindings = collect_imports(ctx.tree)
        for fn in kernels:
            for node in _walk_own(fn):
                yield from self._check_node(ctx, bindings, fn, node)

    def _check_node(self, ctx, bindings, fn, node) -> Iterator[Finding]:
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
            label = self._dtype_label(node.value, bindings)
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
                    label = self._dtype_label(arg, bindings)
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
            dotted = resolve_call(func, bindings)
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
