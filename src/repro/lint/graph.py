"""Project-wide module index, symbol table and call graph for lint v2.

The dataflow rule family (R100-R103) needs to see *across* files: an RNG
created by a helper in one module and consumed by a kernel in another is
exactly the hazard R100 exists to catch.  :func:`build_project` parses
every linted module once into a :class:`ProjectIndex`:

- a **module index** mapping dotted module names to parsed ASTs, import
  bindings and kernel markings;
- a **symbol table** of every function/method, keyed by qualified name
  (``repro.simd.arena.WindowArena.pop_tops``);
- a **call graph** whose edges are statically resolvable calls (import-
  derived names, module-level locals, ``self.``/``cls.`` methods of the
  enclosing class, and ``alias.method(...)`` where the alias' class is
  known — from a constructor call, an instance-attribute binding, or a
  parameter annotation naming a project class).

Kernel marking — which code the discipline rules police — comes from
three sources, in increasing locality:

1. the :data:`~repro.lint.config.KERNEL_MODULES` registry (plus any
   ``kernel_modules`` entries in ``[tool.repro.lint]``);
2. a module-level ``# repro: kernel`` pragma anywhere in the file;
3. a per-function/per-class pragma: ``# repro: kernel`` trailing the
   ``def``/``class`` line or on the line directly above it (above the
   first decorator for decorated definitions).

Dynamic dispatch, ``getattr`` and star-imports are out of scope: the
call graph is an under-approximation, which is the right polarity for a
linter — unresolvable calls simply contribute no provenance.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.rules import collect_imports, resolve_call

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_project",
    "module_name_for",
    "parse_kernel_pragmas",
]

_PRAGMA_RE = re.compile(r"^#\s*repro:\s*kernel\b")
_DEF_RE = re.compile(r"^\s*(async\s+def|def|class)\s")


def _pragma_comment_lines(source: str) -> list[int]:
    """Line numbers of real ``# repro: kernel`` comment tokens.

    Tokenizing (rather than grepping lines) keeps pragma *mentions*
    inside docstrings — like the ones in this package — from marking
    their module as kernel code.
    """
    out: list[int] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT and _PRAGMA_RE.match(tok.string):
                out.append(tok.start[0])
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return out


@dataclass
class FunctionInfo:
    """One function or method in the symbol table."""

    qualname: str
    module: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str] = field(default_factory=list)
    kernel: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def docstring(self) -> str:
        return ast.get_docstring(self.node) or ""


@dataclass
class ModuleInfo:
    """One parsed module: bindings, functions and kernel marking."""

    name: str
    logical: str
    path: Path
    source: str
    tree: ast.Module
    bindings: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: set[str] = field(default_factory=set)
    kernel: bool = False


def module_name_for(logical: str) -> str:
    """Dotted module name for a logical path.

    ``repro/core/scheduler.py`` -> ``repro.core.scheduler``;
    ``repro/core/__init__.py`` -> ``repro.core``; files outside the
    package keep their bare stem so test modules stay addressable.
    """
    stem = logical[: -len(".py")] if logical.endswith(".py") else logical
    parts = [p for p in stem.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


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
    lines = source.splitlines()
    pragma_lines = _pragma_comment_lines(source)
    if not pragma_lines:
        return False, set()
    # Map each definition to the line range a leading pragma may occupy:
    # the line above the first decorator (or the def itself).
    def_start: dict[int, int] = {}  # def lineno -> earliest attach line
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min(
                [node.lineno] + [d.lineno for d in node.decorator_list]
            )
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


def _index_functions(info: ModuleInfo, kernel_defs: set[int]) -> None:
    """Fill ``info.functions`` with qualified names and kernel marks."""

    def visit(node: ast.AST, prefix: str, cls: str | None, kernel: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                info.classes.add(f"{prefix}.{child.name}")
                marked = kernel or child.lineno in kernel_defs
                visit(child, f"{prefix}.{child.name}", child.name, marked)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                args = child.args
                params = [
                    a.arg
                    for a in (
                        args.posonlyargs + args.args + args.kwonlyargs
                    )
                ]
                info.functions[qual] = FunctionInfo(
                    qualname=qual,
                    module=info.name,
                    cls=cls,
                    node=child,
                    params=params,
                    kernel=info.kernel or kernel or child.lineno in kernel_defs,
                )
                visit(child, qual, cls, kernel or child.lineno in kernel_defs)

    visit(info.tree, info.name, None, False)


@dataclass
class ProjectIndex:
    """The cross-module view handed to dataflow rules."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: caller qualname -> set of statically resolved callee qualnames.
    call_graph: dict[str, set[str]] = field(default_factory=dict)
    #: every class qualname seen while indexing.
    classes: set[str] = field(default_factory=set)
    #: ``module.Cls.attr`` -> class qualname, from ``self.attr = Cls(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)
    _local_types_cache: dict[str, dict[str, str]] = field(
        default_factory=dict, repr=False
    )

    def module_for(self, logical: str) -> ModuleInfo | None:
        return self.modules.get(module_name_for(logical))

    def _class_of_call(self, call: ast.Call, module: ModuleInfo) -> str | None:
        """Class qualname a constructor call instantiates, if resolvable."""
        dotted = resolve_call(call.func, module.bindings)
        if dotted is not None and dotted in self.classes:
            return dotted
        if (
            isinstance(call.func, ast.Name)
            and f"{module.name}.{call.func.id}" in self.classes
        ):
            return f"{module.name}.{call.func.id}"
        return None

    def _class_of_annotation(
        self, ann: ast.expr, module: ModuleInfo
    ) -> str | None:
        """Class qualname a type annotation names, if resolvable.

        Handles plain names and dotted paths (through the module's
        import bindings), ``X | None`` unions, and string annotations.
        ``Optional[...]``/generic forms stay unresolved — the call graph
        is an under-approximation.
        """
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self._class_of_annotation(ann.left, module)
            if left is not None:
                return left
            return self._class_of_annotation(ann.right, module)
        if isinstance(ann, (ast.Name, ast.Attribute)):
            dotted = resolve_call(ann, module.bindings)
            if dotted is not None and dotted in self.classes:
                return dotted
            if (
                isinstance(ann, ast.Name)
                and f"{module.name}.{ann.id}" in self.classes
            ):
                return f"{module.name}.{ann.id}"
        return None

    def _local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """Local-variable class types from annotations and simple aliases.

        Parameters annotated with a project class seed the map
        (``def kernel(arena: WindowArena, ...)``); the assignment walk
        then recognizes ``arena = self._arena`` and ``wl._arena`` reads
        through :attr:`attr_types` (the receiver being ``self``/``cls``
        or any already-typed local) and ``arena = WindowArena(...)`` —
        enough to resolve the ``alias.method(...)`` call style the
        kernels use.
        """
        cached = self._local_types_cache.get(fn.qualname)
        if cached is not None:
            return cached
        module = self.modules.get(fn.module)
        types: dict[str, str] = {}
        if module is not None:
            args = fn.node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                if a.annotation is None:
                    continue
                annotated = self._class_of_annotation(a.annotation, module)
                if annotated is not None:
                    types[a.arg] = annotated
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                if len(node.targets) != 1 or not isinstance(
                    node.targets[0], ast.Name
                ):
                    continue
                value = node.value
                resolved: str | None = None
                if isinstance(value, ast.Attribute) and isinstance(
                    value.value, ast.Name
                ):
                    owner: str | None = None
                    if value.value.id in ("self", "cls") and fn.cls is not None:
                        owner = f"{fn.module}.{fn.cls}"
                    else:
                        owner = types.get(value.value.id)
                    if owner is not None:
                        resolved = self.attr_types.get(f"{owner}.{value.attr}")
                elif isinstance(value, ast.Call):
                    resolved = self._class_of_call(value, module)
                if resolved is not None:
                    types[node.targets[0].id] = resolved
        self._local_types_cache[fn.qualname] = types
        return types

    def resolve_callee(
        self, fn: FunctionInfo, call: ast.Call
    ) -> FunctionInfo | None:
        """Resolve one call inside ``fn`` to a project function, if possible.

        Handles import-derived dotted names, module-level locals, and
        ``self.``/``cls.`` method calls on the enclosing class.
        """
        module = self.modules.get(fn.module)
        if module is None:
            return None
        func = call.func
        # self.method(...) / cls.method(...) inside a class body.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and fn.cls is not None
        ):
            return self.functions.get(f"{fn.module}.{fn.cls}.{func.attr}")
        # self.attr.method(...) where self.attr was bound to a project class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("self", "cls")
            and fn.cls is not None
        ):
            bound = self.attr_types.get(
                f"{fn.module}.{fn.cls}.{func.value.attr}"
            )
            if bound is not None:
                return self.functions.get(f"{bound}.{func.attr}")
        # alias.method(...) where the alias' class was inferred locally.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            bound = self._local_types(fn).get(func.value.id)
            if bound is not None:
                return self.functions.get(f"{bound}.{func.attr}")
        dotted = resolve_call(func, module.bindings)
        if dotted is not None and dotted in self.functions:
            return self.functions[dotted]
        # Bare local name -> module-level function of the same module.
        if isinstance(func, ast.Name) and func.id not in module.bindings:
            return self.functions.get(f"{fn.module}.{func.id}")
        return None

    def callers_of(self, qualname: str) -> list[str]:
        return sorted(
            caller
            for caller, callees in self.call_graph.items()
            if qualname in callees
        )


def build_project(
    entries: list[tuple[Path, str, str, ast.Module]],
    *,
    kernel_modules: frozenset[str] | set[str] = frozenset(),
) -> ProjectIndex:
    """Index ``(path, logical, source, tree)`` entries into a project.

    ``kernel_modules`` holds logical paths (or path prefixes ending in
    ``/``) marked kernel by registry/config, merged with in-file pragmas.
    """
    project = ProjectIndex()
    for path, logical, source, tree in entries:
        name = module_name_for(logical)
        module_pragma, kernel_defs = parse_kernel_pragmas(source, tree)
        registry_kernel = logical in kernel_modules or any(
            k.endswith("/") and logical.startswith(k) for k in kernel_modules
        )
        info = ModuleInfo(
            name=name,
            logical=logical,
            path=path,
            source=source,
            tree=tree,
            bindings=collect_imports(tree),
            kernel=module_pragma or registry_kernel,
        )
        _index_functions(info, kernel_defs)
        # Last writer wins on (unlikely) duplicate module names; fixture
        # trees use distinct names to keep real modules authoritative.
        project.modules[name] = info
        project.functions.update(info.functions)
        project.classes |= info.classes
    # Bind self-attribute types (``self._arena = WindowArena(...)``) so
    # resolve_callee can follow method calls through instance attributes.
    for fn in project.functions.values():
        if fn.cls is None:
            continue
        module = project.modules.get(fn.module)
        if module is None:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            bound = project._class_of_call(node.value, module)
            if bound is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    project.attr_types[
                        f"{fn.module}.{fn.cls}.{target.attr}"
                    ] = bound
    for fn in project.functions.values():
        edges: set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callee = project.resolve_callee(fn, node)
                if callee is not None and callee.qualname != fn.qualname:
                    edges.add(callee.qualname)
        project.call_graph[fn.qualname] = edges
    return project
