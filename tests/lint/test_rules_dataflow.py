"""Golden tests for the dataflow rule family (R100-R103).

Each rule gets its seeded fixture (a true positive per violation class)
and near-misses that must stay clean — including the acceptance cases:
a non-``spawn_child`` RNG for R100 and an unmasked PE write for R103.
The call-graph tests pin the interprocedural machinery the rules ride
on: cross-module return provenance and call-site parameter provenance.
"""

import ast
from pathlib import Path

from repro.lint import run_lint
from repro.lint.dataflow import MASK_INDEX, RNG_BAD, compute_project_facts
from repro.lint.graph import build_project, module_name_for, parse_kernel_pragmas

FIXTURES = Path(__file__).resolve().parent / "fixtures_dataflow"
KERN = FIXTURES / "repro" / "kern"


def lint_fixture(name, rules):
    return run_lint([str(KERN / name)], rules=rules)


def flagged_functions(result, source_path):
    """Names of the fixture functions each finding lands in."""
    tree = ast.parse(source_path.read_text())
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spans.append((node.name, node.lineno, node.end_lineno))
    out = set()
    for f in result.findings:
        for name, lo, hi in spans:
            if lo <= f.line <= hi:
                out.add(name)
    return out


class TestR100RngProvenance:
    def test_positives_fire(self):
        result = lint_fixture("rng_flow.py", ["R100"])
        hit = flagged_functions(result, KERN / "rng_flow.py")
        assert "bad_direct" in hit  # the non-spawn_child acceptance case
        assert "bad_laundered" in hit  # RNG_BAD through a helper's return

    def test_draw_from_bad_stream_reported(self):
        result = lint_fixture("rng_flow.py", ["R100"])
        assert any(".integers()" in f.message for f in result.findings)

    def test_near_misses_stay_clean(self):
        result = lint_fixture("rng_flow.py", ["R100"])
        hit = flagged_functions(result, KERN / "rng_flow.py")
        assert "good_as_generator" not in hit
        assert "good_spawn_child" not in hit
        # the helper itself is not kernel-scoped
        assert "_launder" not in hit


class TestR101Nondeterminism:
    def test_all_source_classes_fire(self):
        result = lint_fixture("nondet.py", ["R101"])
        messages = " ".join(f.message for f in result.findings)
        assert "time.perf_counter" in messages
        assert "os.environ" in messages
        assert "iteration over a set" in messages
        assert "id()-keyed" in messages

    def test_near_misses_stay_clean(self):
        result = lint_fixture("nondet.py", ["R101"])
        hit = flagged_functions(result, KERN / "nondet.py")
        assert "near_miss_not_kernel" not in hit
        assert "near_miss_sorted_view" not in hit


class TestR102KernelPurity:
    def test_all_purity_clauses_fire(self):
        result = lint_fixture("purity.py", ["R102"])
        hit = flagged_functions(result, KERN / "purity.py")
        assert {
            "bad_pe_loop",
            "bad_object_dtype",
            "bad_float_drift",
            "bad_io",
        } <= hit

    def test_near_misses_stay_clean(self):
        result = lint_fixture("purity.py", ["R102"])
        hit = flagged_functions(result, KERN / "purity.py")
        assert "near_miss_bounded_loop" not in hit
        assert "near_miss_int64" not in hit
        assert "near_miss_unmarked" not in hit


class TestR103MaskProvenance:
    def test_unmasked_pe_write_fires(self):
        result = run_lint([str(FIXTURES)], rules=["R103"])
        hit = flagged_functions(result, KERN / "mask_writes.py")
        assert "bad_unmasked_write" in hit  # the acceptance case

    def test_near_misses_stay_clean(self):
        result = run_lint([str(FIXTURES)], rules=["R103"])
        hit = flagged_functions(result, KERN / "mask_writes.py")
        for clean in (
            "good_flatnonzero",
            "good_guarded",
            "good_full_slice",
            "good_documented",
        ):
            assert clean not in hit, clean

    def test_interprocedural_mask_provenance(self):
        """push_masked is clean only because driver.py passes
        np.flatnonzero indices: linted alone it must be flagged."""
        whole = run_lint([str(FIXTURES)], rules=["R103"])
        assert "push_masked" not in flagged_functions(
            whole, KERN / "mask_writes.py"
        )
        alone = lint_fixture("mask_writes.py", ["R103"])
        assert "push_masked" in flagged_functions(
            alone, KERN / "mask_writes.py"
        )


def _fixture_entries():
    entries = []
    for path in sorted(KERN.glob("*.py")):
        logical = f"repro/kern/{path.name}"
        entries.append((path, logical, path.read_text(), ast.parse(path.read_text())))
    return entries


class TestCallGraph:
    def test_pragmas_attach_to_functions(self):
        source = (KERN / "rng_flow.py").read_text()
        module_level, defs = parse_kernel_pragmas(source, ast.parse(source))
        assert not module_level
        assert len(defs) == 4  # the four pragma-marked functions

    def test_docstring_mention_is_not_a_pragma(self):
        source = '"""Docs mention # repro: kernel but mean nothing."""\nx = 1\n'
        module_level, defs = parse_kernel_pragmas(source, ast.parse(source))
        assert not module_level and not defs

    def test_attr_alias_call_resolves_across_modules(self):
        project = build_project(_fixture_entries())
        donate = project.functions["repro.kern.driver.Scheduler.donate"]
        assert donate.kernel
        assert (
            project.attr_types["repro.kern.driver.Scheduler._arena"]
            == "repro.kern.mask_writes.TinyArena"
        )
        assert (
            "repro.kern.mask_writes.TinyArena.push_masked"
            in project.call_graph["repro.kern.driver.Scheduler.donate"]
        )
        assert project.callers_of(
            "repro.kern.mask_writes.TinyArena.push_masked"
        ) == [
            "repro.kern.driver.Scheduler.donate",
            "repro.kern.driver.donate_through_param",
            "repro.kern.driver.fill_annotated",
        ]

    def test_annotated_param_call_resolves(self):
        """A parameter annotated with a project class types the receiver."""
        project = build_project(_fixture_entries())
        assert (
            "repro.kern.mask_writes.TinyArena.push_masked"
            in project.call_graph["repro.kern.driver.fill_annotated"]
        )

    def test_attr_alias_through_annotated_receiver(self):
        """``arena = sched._arena`` resolves when ``sched`` is annotated."""
        project = build_project(_fixture_entries())
        assert (
            "repro.kern.mask_writes.TinyArena.push_masked"
            in project.call_graph["repro.kern.driver.donate_through_param"]
        )

    def test_return_provenance_crosses_functions(self):
        project = build_project(_fixture_entries())
        facts = compute_project_facts(project)
        assert RNG_BAD in facts["repro.kern.rng_flow._launder"].returns
        assert RNG_BAD in facts["repro.kern.rng_flow.bad_laundered"].returns

    def test_param_provenance_from_call_sites(self):
        project = build_project(_fixture_entries())
        facts = compute_project_facts(project)
        params = facts["repro.kern.mask_writes.TinyArena.push_masked"].params
        assert MASK_INDEX in params.get("pes", set())

    def test_module_name_for(self):
        assert module_name_for("repro/kern/driver.py") == "repro.kern.driver"
        assert module_name_for("repro/kern/__init__.py") == "repro.kern"


class TestSuppressionAndConfig:
    def test_inline_disable_applies_to_dataflow_rules(self, tmp_path):
        bad = (KERN / "rng_flow.py").read_text().replace(
            "gen = np.random.default_rng(seed)",
            "gen = np.random.default_rng(seed)  # repro-lint: disable=R100",
        )
        target = tmp_path / "repro" / "kern" / "rng_flow.py"
        target.parent.mkdir(parents=True)
        target.write_text(bad)
        result = run_lint([str(target)], rules=["R100"])
        # the bind finding on the disabled line is gone; the draw on the
        # next line still fires, which is exactly line-scoped behavior
        assert not any("'bad_direct' binds" in f.message for f in result.findings)
        assert any(".integers()" in f.message for f in result.findings)
        assert result.suppressed >= 1

    def test_severity_override_downgrades_to_warning(self):
        from repro.lint.config import LintConfig

        cfg = LintConfig(severity={"R103": "warning"})
        result = run_lint(
            [str(KERN / "mask_writes.py")], rules=["R103"], config=cfg
        )
        assert result.findings and result.ok  # reported but not failing

    def test_per_path_disable(self):
        from repro.lint.config import LintConfig

        cfg = LintConfig(per_path={"repro/kern/": ["R103"]})
        result = run_lint(
            [str(KERN / "mask_writes.py")], rules=["R103"], config=cfg
        )
        assert result.findings == []
