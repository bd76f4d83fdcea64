"""Render lint results as text or JSON and map them to exit codes."""

from __future__ import annotations

import json

from repro.lint.engine import LintResult

__all__ = ["render_text", "render_json", "exit_code"]


def render_text(result: LintResult) -> str:
    """One ``path:line:col: RULE message`` line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(
        f"{len(result.findings)} {noun} in {result.files_checked} file(s) "
        f"checked ({result.suppressed} suppressed)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report for CI consumers."""
    payload = {
        "findings": [finding.to_dict() for finding in result.findings],
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def exit_code(result: LintResult) -> int:
    """``0`` when clean, ``1`` when any finding survived suppression."""
    return 0 if result.ok else 1
