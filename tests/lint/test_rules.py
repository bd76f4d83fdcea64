"""Per-rule behaviour of the static checks (R001-R003, R102)."""

import ast

import pytest

from repro.lint import all_rules, parse_kernel_pragmas, run_lint


def lint_source(tmp_path, source, rel="repro/core/mod.py", rules=None):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([str(path)], rules=rules)


def rule_hits(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


CLEAN_HEADER = '__all__ = []\n'


class TestR001:
    def test_flags_stdlib_random_import_and_call(self, tmp_path):
        result = lint_source(
            tmp_path,
            CLEAN_HEADER + "import random\n\n\ndef f():\n    return random.random()\n",
            rules=["R001"],
        )
        assert len(rule_hits(result, "R001")) == 2

    def test_flags_numpy_default_rng_call(self, tmp_path):
        result = lint_source(
            tmp_path,
            CLEAN_HEADER + "import numpy as np\n\n\ndef f():\n"
            "    return np.random.default_rng(3)\n",
            rules=["R001"],
        )
        hits = rule_hits(result, "R001")
        assert len(hits) == 1
        assert hits[0].line == 6
        assert "numpy.random.default_rng" in hits[0].message

    def test_flags_from_numpy_random_import(self, tmp_path):
        result = lint_source(
            tmp_path,
            CLEAN_HEADER + "from numpy.random import default_rng\n",
            rules=["R001"],
        )
        assert len(rule_hits(result, "R001")) == 1

    def test_annotations_and_isinstance_not_flagged(self, tmp_path):
        source = (
            "from __future__ import annotations\n"
            + CLEAN_HEADER
            + "import numpy as np\n\n\n"
            "def f(rng: np.random.Generator) -> np.random.Generator:\n"
            "    assert isinstance(rng, np.random.Generator)\n"
            "    return rng\n"
        )
        assert not lint_source(tmp_path, source, rules=["R001"]).findings

    def test_rng_module_itself_exempt(self, tmp_path):
        source = (
            CLEAN_HEADER + "import numpy as np\n\n\ndef g(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        result = lint_source(tmp_path, source, rel="repro/util/rng.py", rules=["R001"])
        assert not result.findings

    def test_applies_outside_core_too(self, tmp_path):
        source = CLEAN_HEADER + "import random\n"
        result = lint_source(
            tmp_path, source, rel="repro/problems/mod.py", rules=["R001"]
        )
        assert len(rule_hits(result, "R001")) == 1


class TestR002:
    def test_flags_wall_clock_in_core(self, tmp_path):
        source = CLEAN_HEADER + "import time\n\n\ndef f():\n    return time.time()\n"
        result = lint_source(tmp_path, source, rules=["R002"])
        hits = rule_hits(result, "R002")
        assert len(hits) == 1 and hits[0].line == 6

    def test_flags_from_import_alias(self, tmp_path):
        source = (
            CLEAN_HEADER + "from time import perf_counter as clock\n\n\n"
            "def f():\n    return clock()\n"
        )
        assert len(rule_hits(lint_source(tmp_path, source, rules=["R002"]), "R002")) == 1

    def test_flags_urandom_and_uuid(self, tmp_path):
        source = (
            CLEAN_HEADER + "import os\nimport uuid\n\n\ndef f():\n"
            "    return os.urandom(4), uuid.uuid4()\n"
        )
        assert len(rule_hits(lint_source(tmp_path, source, rules=["R002"]), "R002")) == 2

    def test_flags_set_iteration(self, tmp_path):
        source = (
            CLEAN_HEADER + "def f(xs):\n"
            "    for x in set(xs):\n"
            "        yield x\n"
            "    return [y for y in {1, 2}]\n"
        )
        assert len(rule_hits(lint_source(tmp_path, source, rules=["R002"]), "R002")) == 2

    def test_sorted_set_iteration_allowed(self, tmp_path):
        source = (
            CLEAN_HEADER + "def f(xs):\n"
            "    for x in sorted(set(xs)):\n"
            "        yield x\n"
        )
        assert not lint_source(tmp_path, source, rules=["R002"]).findings

    def test_out_of_scope_module_ignored(self, tmp_path):
        source = CLEAN_HEADER + "import time\n\n\ndef f():\n    return time.time()\n"
        result = lint_source(
            tmp_path, source, rel="repro/experiments/mod.py", rules=["R002"]
        )
        assert not result.findings

    NONDET = CLEAN_HEADER + (
        "import os\n"
        "import time\n"
        "\n\n"
        "def clock():\n"
        "    return time.perf_counter()\n"
        "\n\n"
        "def environ():\n"
        "    return os.environ['OMP_NUM_THREADS'], os.getenv('HOME')\n"
        "\n\n"
        "def set_iteration(xs):\n"
        "    return [x for x in set(xs)]\n"
        "\n\n"
        "def id_keyed(objs, cache):\n"
        "    return {id(o): o for o in objs}, {id(objs): 1}, cache[id(objs)]\n"
        "\n\n"
        "def id_sorted(objs):\n"
        "    return sorted(objs, key=id)\n"
    )

    def test_all_source_classes_fire(self, tmp_path):
        result = lint_source(
            tmp_path, self.NONDET, rel="repro/workmodel/mod.py", rules=["R002"]
        )
        messages = " ".join(f.message for f in result.findings)
        assert "time.perf_counter" in messages
        assert "os.environ" in messages
        assert "os.getenv" in messages
        assert "iteration over a set" in messages
        assert "sorted(key=id)" in messages
        assert len(
            [f for f in result.findings if "id()-keyed" in f.message]
        ) == 3

    def test_near_misses_stay_clean(self, tmp_path):
        sorted_view = CLEAN_HEADER + (
            "def f(xs, objs):\n"
            "    return [x for x in sorted(set(xs))], {o.key: o for o in objs}\n"
        )
        assert not lint_source(
            tmp_path, sorted_view, rel="repro/workmodel/mod.py", rules=["R002"]
        ).findings
        assert not lint_source(
            tmp_path, self.NONDET, rel="repro/serve/mod.py", rules=["R002"]
        ).findings

    def test_workmodel_environ_and_id_map_flagged_by_default(self, tmp_path):
        """``repro/workmodel/`` is in scope, and the default run covers
        the environment and ``id()``-keyed sources."""
        source = CLEAN_HEADER + (
            "from os import environ\n"
            "\n\n"
            "def expand_all(arena, objs):\n"
            "    width = int(environ.get('WIDTH', '1'))\n"
            "    return {id(o): width for o in objs}\n"
        )
        result = lint_source(tmp_path, source, rel="repro/workmodel/mega.py")
        hits = rule_hits(result, "R002")
        assert [f.line for f in hits] == [6, 7]
        assert "os.environ" in hits[0].message
        assert "id()-keyed" in hits[1].message


class TestR003:
    def test_public_module_without_all_flagged(self, tmp_path):
        result = lint_source(tmp_path, "x = 1\n", rules=["R003"])
        hits = rule_hits(result, "R003")
        assert len(hits) == 1 and hits[0].line == 1

    def test_private_module_exempt(self, tmp_path):
        result = lint_source(
            tmp_path, "x = 1\n", rel="repro/core/_helpers.py", rules=["R003"]
        )
        assert not result.findings


class TestSuppression:
    def test_inline_disable(self, tmp_path):
        source = (
            CLEAN_HEADER
            + "import random  # repro-lint: disable=R001\n"
        )
        result = lint_source(tmp_path, source, rules=["R001"])
        assert not result.findings and result.suppressed == 1

    def test_inline_disable_all(self, tmp_path):
        source = CLEAN_HEADER + "import random  # repro-lint: disable=all\n"
        result = lint_source(tmp_path, source, rules=["R001"])
        assert not result.findings and result.suppressed == 1

    def test_file_level_disable_with_justification(self, tmp_path):
        source = (
            "# repro-lint: disable-file=R001 -- fixture exercises raw RNG\n"
            + CLEAN_HEADER
            + "import random\n\n\ndef f():\n    return random.random()\n"
        )
        result = lint_source(tmp_path, source, rules=["R001"])
        assert not result.findings and result.suppressed == 2

    def test_disable_wrong_rule_does_not_suppress(self, tmp_path):
        source = CLEAN_HEADER + "import random  # repro-lint: disable=R002\n"
        result = lint_source(tmp_path, source, rules=["R001"])
        assert len(result.findings) == 1 and result.suppressed == 0


class TestRegistry:
    def test_four_rules_registered(self):
        assert [r.rule_id for r in all_rules()] == [
            "R001", "R002", "R003", "R102",
        ]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            all_rules(["R999"])

    def test_parse_error_reported_not_raised(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n")
        assert len(result.findings) == 1
        assert result.findings[0].rule == "R000"
        assert result.findings[0].line >= 1


def flagged_functions(result, source):
    """Names of the functions each finding lands in."""
    spans = [
        (node.name, node.lineno, node.end_lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return {
        name for f in result.findings for name, lo, hi in spans if lo <= f.line <= hi
    }


class TestR102:
    PURITY = CLEAN_HEADER + (
        "import numpy as np\n"
        "\n\n"
        "class KernelArena:\n"
        "    def bad_pe_loop(self, vals):  # repro: kernel\n"
        "        total = 0\n"
        "        for pe in range(self.n_pes):\n"
        "            total += vals[pe]\n"
        "        return total\n"
        "\n"
        "    def bad_object_dtype(self, n):  # repro: kernel\n"
        "        return np.empty(n, dtype=object)\n"
        "\n"
        "    def bad_float_drift(self, tops):  # repro: kernel\n"
        "        return tops.astype(np.float64)\n"
        "\n"
        "    def bad_io(self, report):  # repro: kernel\n"
        "        print(report)\n"
        "\n"
        "    def near_miss_bounded_loop(self, k):  # repro: kernel\n"
        "        return [i * i for i in range(k)]\n"
        "\n"
        "    def near_miss_int64(self, n):  # repro: kernel\n"
        "        return np.zeros(n, dtype=np.int64)\n"
        "\n"
        "    def near_miss_unmarked(self, vals):\n"
        "        total = 0\n"
        "        for pe in range(self.n_pes):\n"
        "            total += vals[pe]\n"
        "        return total\n"
    )

    def test_all_purity_clauses_fire(self, tmp_path):
        result = lint_source(tmp_path, self.PURITY, rules=["R102"])
        assert flagged_functions(result, self.PURITY) >= {
            "bad_pe_loop",
            "bad_object_dtype",
            "bad_float_drift",
            "bad_io",
        }

    def test_near_misses_stay_clean(self, tmp_path):
        result = lint_source(tmp_path, self.PURITY, rules=["R102"])
        hit = flagged_functions(result, self.PURITY)
        assert "near_miss_bounded_loop" not in hit
        assert "near_miss_int64" not in hit
        assert "near_miss_unmarked" not in hit

    def test_pe_loop_flagged_by_default(self, tmp_path):
        """A correct-but-slow PE loop in kernel code fails the default
        run: no identity suite sees it."""
        result = lint_source(tmp_path, self.PURITY)
        hits = rule_hits(result, "R102")
        assert any("loops over the PE axis" in f.message for f in hits)
        assert not result.ok

    def test_registry_module_is_kernel_without_pragma(self, tmp_path):
        source = CLEAN_HEADER + (
            "def expand(arena):\n"
            "    for pe in range(arena.n_pes):\n"
            "        arena.step(pe)\n"
        )
        kernel = lint_source(
            tmp_path, source, rel="repro/search/kernel.py", rules=["R102"]
        )
        assert len(rule_hits(kernel, "R102")) == 1
        other = lint_source(
            tmp_path, source, rel="repro/search/driver.py", rules=["R102"]
        )
        assert not other.findings


class TestKernelScope:
    def test_pragmas_attach_to_functions(self):
        source = TestR102.PURITY
        module_level, defs = parse_kernel_pragmas(source, ast.parse(source))
        assert not module_level
        assert len(defs) == 6  # the six pragma-marked methods

    def test_docstring_mention_is_not_a_pragma(self):
        source = '"""Docs mention # repro: kernel but mean nothing."""\nx = 1\n'
        module_level, defs = parse_kernel_pragmas(source, ast.parse(source))
        assert not module_level and not defs

    def test_free_standing_pragma_marks_the_module(self, tmp_path):
        source = CLEAN_HEADER + (
            "# repro: kernel\n"
            "\n\n"
            "def expand(arena):\n"
            "    return [arena.step(pe) for pe in range(arena.n_pes)]\n"
        )
        result = lint_source(tmp_path, source, rules=["R102"])
        assert len(rule_hits(result, "R102")) == 1
