"""File discovery, suppression handling, and the lint driver.

Suppression syntax (mirrors the usual ``# noqa`` conventions):

- ``# repro-lint: disable=R001`` on a line suppresses those rules *on
  that line* (comma-separate multiple ids; ``all`` suppresses every
  rule).
- ``# repro-lint: disable-file=R001 -- justification`` anywhere in a
  file suppresses those rules for the whole file.  Put the reason after
  ``--`` so reviewers can audit it.

Inline suppressions are the only record of accepted findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import LintContext, all_rules

__all__ = [
    "LintResult",
    "run_lint",
    "iter_python_files",
    "logical_path",
    "parse_suppressions",
]

_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "build",
    "dist",
}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)=(?P<rules>[A-Za-z0-9_,\s]+)"
)
_RULE_TOKEN_RE = re.compile(r"^(ALL|R\d{3})$")


@dataclass
class LintResult:
    """Outcome of one lint run: surviving findings plus counters."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield the ``.py`` files named by ``paths`` (dirs walk recursively)."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def logical_path(path: Path) -> str:
    """The package-relative posix path used for rule scoping.

    The suffix starting at the innermost ``repro`` directory — so
    ``src/repro/core/scheduler.py`` and a test fixture at
    ``tests/lint/fixtures/repro/core/bad.py`` both scope as
    ``repro/core/...``.  Files outside any ``repro`` directory scope as
    their bare filename.
    """
    parts = path.resolve().parts
    indices = [i for i, part in enumerate(parts[:-1]) if part == "repro"]
    if indices:
        return "/".join(parts[indices[-1]:])
    return parts[-1]


def parse_suppressions(source: str) -> tuple[set[str], dict[int, set[str]]]:
    """Extract (file-level, per-line) suppression sets from a module."""
    file_level: set[str] = set()
    per_line: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {
            token.strip().upper()
            for token in match.group("rules").split(",")
        }
        rules = {t for t in rules if _RULE_TOKEN_RE.match(t)}
        if not rules:
            continue
        if match.group("kind") == "disable-file":
            file_level |= rules
        else:
            per_line.setdefault(lineno, set()).update(rules)
    return file_level, per_line


def run_lint(
    paths: Sequence[str | Path],
    rules: Iterable[str] | None = None,
    *,
    config: LintConfig | None = None,
) -> LintResult:
    """Lint the given files/directories and return surviving findings.

    ``rules`` optionally restricts the run to a subset of rule ids;
    ``config`` carries the ``[tool.repro.lint]`` excludes.  Unparseable
    files produce an ``R000`` parse-error finding instead of aborting
    the run.
    """
    cfg = config if config is not None else LintConfig()
    rule_objs = all_rules(rules)
    result = LintResult()
    for path in iter_python_files(paths):
        if cfg.excluded(path):
            continue
        result.files_checked += 1
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    rule="R000",
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        ctx = LintContext(
            path=path, logical=logical_path(path), source=source, tree=tree
        )
        file_level, per_line = parse_suppressions(source)
        for rule in rule_objs:
            for finding in rule.check(ctx):
                active = file_level | per_line.get(finding.line, set())
                if "ALL" in active or finding.rule in active:
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=Finding.sort_key)
    return result
