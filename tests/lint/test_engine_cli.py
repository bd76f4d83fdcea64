"""End-to-end lint runs: the seeded fixture, the real tree, and the CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    exit_code,
    load_config,
    render_json,
    render_text,
    rule_ids,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD_MODULE = FIXTURES / "repro" / "core" / "bad_discipline.py"


class TestFixtureModule:
    """The acceptance fixture seeds one violation of every rule."""

    def test_every_rule_fires_with_location(self):
        result = run_lint([str(FIXTURES)])
        fired = {f.rule for f in result.findings}
        assert fired == set(rule_ids())
        for finding in result.findings:
            assert finding.path.endswith("bad_discipline.py")
            assert finding.line >= 1
        assert exit_code(result) == 1

    def test_expected_violation_lines(self):
        result = run_lint([str(BAD_MODULE)])
        by_rule = {}
        for f in result.findings:
            by_rule.setdefault(f.rule, []).append(f.line)
        source_lines = BAD_MODULE.read_text().splitlines()
        # R001: `import random` plus the two calls in jitter().
        assert len(by_rule["R001"]) == 3
        # R002: time.time() and the set-literal iteration.
        assert len(by_rule["R002"]) == 2
        # R003: missing __all__ (line 1).
        assert by_rule["R003"] == [1]
        # R102: the PE-axis loop in the pragma-marked sweep().
        [r102_line] = by_rule["R102"]
        assert "range(machine.n_pes)" in source_lines[r102_line - 1]


class TestRealTreeStaysClean:
    def test_src_lints_clean(self):
        """The whole-tree self-check: ``repro lint src tests`` reports nothing."""
        result = run_lint(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")],
            config=load_config(REPO_ROOT),
        )
        assert result.findings == [], render_text(result)
        assert result.files_checked > 150
        assert exit_code(result) == 0


class TestReporting:
    def test_text_report_format(self):
        result = run_lint([str(BAD_MODULE)])
        text = render_text(result)
        first = text.splitlines()[0]
        path, line, col, rest = first.split(":", 3)
        assert path.endswith("bad_discipline.py")
        assert int(line) >= 1 and int(col) >= 0
        assert rest.strip().startswith("R0")
        assert "suppressed" in text.splitlines()[-1]

    def test_json_report_round_trips(self):
        result = run_lint([str(BAD_MODULE)])
        payload = json.loads(render_json(result))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == set(rule_ids())
        for f in payload["findings"]:
            assert set(f) == {"rule", "path", "line", "col", "message"}

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint([str(REPO_ROOT / "no_such_dir")])


@pytest.fixture
def fixture_copy(tmp_path):
    """The seeded fixture outside tests/lint/fixtures.

    The repo's ``[tool.repro.lint]`` excludes the fixture tree, and the
    CLI loads that config — so CLI tests lint a copy whose path the
    exclude pattern does not match.
    """
    target = tmp_path / "repro" / "core" / "bad_discipline.py"
    target.parent.mkdir(parents=True)
    target.write_text(BAD_MODULE.read_text())
    return target


class TestCli:
    def test_lint_fixture_exits_nonzero(self, fixture_copy, capsys):
        assert main(["lint", str(fixture_copy)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "bad_discipline.py" in out

    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "repro" / "core" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("__all__ = []\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_fixture_tree_excluded_by_repo_config(self, capsys):
        """Linting the real fixture path through the CLI checks nothing:
        the committed exclude keeps seeded violations out of CI runs."""
        assert main(["lint", str(FIXTURES)]) == 0
        assert "0 file(s) checked" in capsys.readouterr().out

    def test_json_format(self, fixture_copy, capsys):
        assert main(["lint", str(fixture_copy), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]

    def test_rule_subset(self, fixture_copy, capsys):
        assert main(["lint", str(fixture_copy), "--rules", "R002"]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "R001" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["R001", "R002", "R003", "R102"]
