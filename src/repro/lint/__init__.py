"""Static SIMD-discipline checks plus the runtime lock-step sanitizer.

``python -m repro lint src/`` (or :func:`run_lint` from code) enforces
the determinism contract the paper's analysis rests on:

- **R001** randomness only through ``repro.util.rng``;
- **R002** no wall-clock / entropy / set-iteration nondeterminism in
  ``core/``, ``simd/`` or ``search/``;
- **R003** ``repro`` package modules declare ``__all__``; ``pvar``
  builders use an explicit ``where`` context or document themselves
  full-width;
- **R004** scan/reduce/route collectives only via ``ParallelVM`` /
  ``SimdMachine`` so the time ledger sees them;
- **R005** trace series written via ``record_*``, never appended to.

``--strict`` adds the project-wide **dataflow family** — built on a
module index, call graph (:mod:`repro.lint.graph`) and provenance
dataflow (:mod:`repro.lint.dataflow`):

- **R100** RNG in scheduler/kernel/fault code traces to
  ``rng.spawn_child`` / ``as_generator``;
- **R101** no wall-clock / ``os.environ`` / set-order / ``id()``-keyed
  nondeterminism in kernel-marked code;
- **R102** kernel purity: no Python PE-axis loops, object dtypes, float
  dtype drift or I/O;
- **R103** writes to PE-indexed storage are dominated by an
  alive/active mask guard.

Kernel scope comes from :data:`~repro.lint.config.KERNEL_MODULES`,
``[tool.repro.lint] kernel_modules`` and ``# repro: kernel`` pragmas.
Suppress a finding inline with ``# repro-lint: disable=R001``, for a
whole file with ``# repro-lint: disable-file=R004 -- justification``,
or accept it durably in a committed baseline
(:mod:`repro.lint.baseline`) that ``--baseline`` ratchets against.
``--format sarif`` (:mod:`repro.lint.sarif`) emits SARIF 2.1.0 for PR
annotation.

The sibling :mod:`repro.lint.runtime` module checks the same discipline
dynamically — see ``Scheduler(sanitize=True)``.
"""

from repro.lint.baseline import Baseline, apply_baseline, fingerprint
from repro.lint.config import KERNEL_MODULES, LintConfig, load_config
from repro.lint.dataflow import (
    FunctionFacts,
    analyze_function,
    compute_project_facts,
    expression_provenance,
)
from repro.lint.engine import (
    LintResult,
    iter_python_files,
    logical_path,
    parse_suppressions,
    run_lint,
)
from repro.lint.findings import Finding, Severity
from repro.lint.graph import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    build_project,
    module_name_for,
    parse_kernel_pragmas,
)
from repro.lint.report import exit_code, render_json, render_text
from repro.lint.rules import (
    LintContext,
    Rule,
    all_rules,
    collect_imports,
    register,
    resolve_call,
    rule_ids,
)
from repro.lint.runtime import SanitizerError, SchedulerSanitizer, require
from repro.lint.sarif import render_sarif, to_sarif

__all__ = [
    "Baseline",
    "Finding",
    "FunctionFacts",
    "FunctionInfo",
    "KERNEL_MODULES",
    "LintConfig",
    "LintContext",
    "LintResult",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "SanitizerError",
    "SchedulerSanitizer",
    "all_rules",
    "analyze_function",
    "apply_baseline",
    "build_project",
    "collect_imports",
    "compute_project_facts",
    "exit_code",
    "expression_provenance",
    "fingerprint",
    "iter_python_files",
    "load_config",
    "logical_path",
    "module_name_for",
    "parse_kernel_pragmas",
    "parse_suppressions",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "require",
    "resolve_call",
    "rule_ids",
    "run_lint",
    "to_sarif",
]
