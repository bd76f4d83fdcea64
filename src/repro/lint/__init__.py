"""Static SIMD-discipline checks plus the runtime lock-step sanitizer.

``python -m repro lint src tests`` (or :func:`run_lint` from code)
enforces the determinism contract the paper's analysis rests on.  There
is one rule set, and each rule is the only gate that catches its hazard
(``docs/lint.md`` records which layer catches what):

- **R001** randomness only through ``repro.util.rng``;
- **R002** no wall-clock / entropy / ``os.environ`` / set-iteration /
  ``id()``-keyed nondeterminism in ``core/``, ``simd/``, ``search/`` or
  ``workmodel/``;
- **R003** ``repro`` package modules declare ``__all__``;
- **R102** kernel purity: no Python PE-axis loops, object dtypes, float
  dtype drift or I/O in kernel code.

Kernel scope comes from :data:`~repro.lint.rules.KERNEL_MODULES` and
``# repro: kernel`` pragmas.  Suppress a finding inline with
``# repro-lint: disable=R001``, or for a whole file with
``# repro-lint: disable-file=R001 -- justification``.

The sibling :mod:`repro.lint.runtime` module checks the lock-step
invariants dynamically — see ``Scheduler(sanitize=True)``.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import (
    LintResult,
    iter_python_files,
    logical_path,
    parse_suppressions,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.report import exit_code, render_json, render_text
from repro.lint.rules import (
    KERNEL_MODULES,
    LintContext,
    Rule,
    all_rules,
    collect_imports,
    parse_kernel_pragmas,
    register,
    resolve_call,
    rule_ids,
)
from repro.lint.runtime import SanitizerError, SchedulerSanitizer, require

__all__ = [
    "Finding",
    "KERNEL_MODULES",
    "LintConfig",
    "LintContext",
    "LintResult",
    "Rule",
    "SanitizerError",
    "SchedulerSanitizer",
    "all_rules",
    "collect_imports",
    "exit_code",
    "iter_python_files",
    "load_config",
    "logical_path",
    "parse_kernel_pragmas",
    "parse_suppressions",
    "register",
    "render_json",
    "render_text",
    "require",
    "resolve_call",
    "rule_ids",
    "run_lint",
]
