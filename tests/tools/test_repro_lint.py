"""Tests for the repro-lint static-analysis pass (``tools/repro_lint``).

Every rule is exercised against a good/bad fixture pair under
``tests/tools/fixtures/`` (the directory is excluded from the linter's own
directory walk and from ruff, precisely because the bad fixtures violate on
purpose).  The JSON reporter's payload is asserted key-for-key: it is a
machine interface and must stay schema-stable.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lint import RULES, check_source, iter_python_files, run_paths
from tools.repro_lint.cli import main
from tools.repro_lint.engine import DEFAULT_EXCLUDED_DIRS, ENGINE_RULE_ID
from tools.repro_lint.reporting import (SCHEMA_VERSION, render_text,
                                        to_json_payload)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

RULE_IDS = [rule.id for rule in RULES]

#: rule id -> (bad fixture, good fixture, expected finding count in bad).
FIXTURE_PAIRS = {
    "RPR001": ("rpr001_bad.py", "rpr001_good.py", 3),
    "RPR002": ("rpr002_bad.py", "rpr002_good.py", 2),
    # RPR003 is retired: RPR009 (tests/tools/test_flow_rules.py) subsumes it.
    "RPR004": ("rpr004_bad.py", "rpr004_good.py", 1),
    "RPR005": ("rpr005_bad.py", "rpr005_good.py", 2),
    "RPR006": ("rpr006_bad.py", "rpr006_good.py", 2),
    "RPR007": ("eval/rpr007_bad.py", "eval/rpr007_good.py", 2),
    "RPR018": ("rpr018_bad.py", "rpr018_good.py", 2),
}


def lint_fixture(name):
    path = FIXTURES / name
    return check_source(path.as_posix(), path.read_text(encoding="utf-8"))


class TestRuleFixtures:
    def test_every_rule_has_a_fixture_pair(self):
        assert sorted(FIXTURE_PAIRS) == sorted(RULE_IDS)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_PAIRS))
    def test_bad_fixture_fires(self, rule_id):
        bad, _good, expected_count = FIXTURE_PAIRS[rule_id]
        violations = lint_fixture(bad)
        fired = [v for v in violations if v.rule == rule_id]
        assert len(fired) == expected_count, (
            f"{bad} should trip {rule_id} x{expected_count}, got: "
            f"{[(v.rule, v.line) for v in violations]}")
        # Findings must carry an actionable message, not just a rule id.
        assert all(len(v.message) > 40 for v in fired)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_PAIRS))
    def test_good_fixture_stays_quiet(self, rule_id):
        _bad, good, _count = FIXTURE_PAIRS[rule_id]
        violations = lint_fixture(good)
        assert violations == [], (
            f"{good} should be clean, got: "
            f"{[(v.rule, v.line, v.message) for v in violations]}")

    def test_clean_file_reports_nothing(self):
        assert lint_fixture("clean.py") == []

    def test_rule_metadata_is_complete(self):
        for rule in RULES:
            assert rule.id.startswith("RPR") and len(rule.id) == 6
            assert rule.name and rule.summary and rule.motivation


class TestSuppressions:
    def test_reasoned_suppression_is_honored(self):
        assert lint_fixture("suppressed.py") == []

    def test_suppression_without_reason_is_rejected(self):
        violations = lint_fixture("suppression_missing_reason.py")
        rules = sorted(v.rule for v in violations)
        # The unexplained waiver is itself a finding AND does not silence
        # the original violation.
        assert rules == [ENGINE_RULE_ID, "RPR001"]
        engine_finding = next(v for v in violations if v.rule == ENGINE_RULE_ID)
        assert "reason" in engine_finding.message

    def test_suppression_of_unknown_rule_is_reported(self):
        violations = lint_fixture("suppression_unknown_rule.py")
        assert [v.rule for v in violations] == [ENGINE_RULE_ID]
        assert "RPR999" in violations[0].message

    def test_syntax_error_is_reported_not_raised(self):
        violations = check_source("broken.py", "def broken(:\n")
        assert [v.rule for v in violations] == [ENGINE_RULE_ID]
        assert "syntax error" in violations[0].message


class TestEngine:
    def test_fixtures_are_excluded_from_directory_walk(self):
        walked = iter_python_files([str(Path(__file__).parent)])
        assert all("fixtures" not in path.parts for path in walked)
        assert "fixtures" in DEFAULT_EXCLUDED_DIRS

    def test_explicit_fixture_path_is_always_linted(self):
        walked = iter_python_files([str(FIXTURES / "rpr001_bad.py")])
        assert [path.name for path in walked] == ["rpr001_bad.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files([str(FIXTURES / "does_not_exist.py")])

    def test_merged_src_tree_is_clean(self):
        # The acceptance gate CI enforces, kept close to the rules so a
        # rule change that trips src/ fails here first.
        result = run_paths([str(REPO_ROOT / "src")])
        assert result.violations == []
        assert result.exit_code == 0


class TestReporters:
    def _result(self):
        return run_paths([str(FIXTURES / "rpr001_bad.py"),
                          str(FIXTURES / "clean.py")])

    def test_json_payload_schema_is_stable(self):
        payload = to_json_payload(self._result())
        # Machine interface: keys are asserted exactly.  Add keys when
        # extending; renaming/removal requires a schema_version bump.
        assert sorted(payload) == ["counts_by_rule", "dtype_surface",
                                   "exit_code", "files_checked", "flow",
                                   "parse_failures", "schema_version",
                                   "suppression_counts",
                                   "suppression_counts_by_rule",
                                   "tool", "violations"]
        assert payload["schema_version"] == SCHEMA_VERSION == 1
        assert payload["tool"] == "repro-lint"
        assert payload["files_checked"] == 2
        assert payload["exit_code"] == 1
        assert payload["counts_by_rule"] == {"RPR001": 3}
        for violation in payload["violations"]:
            assert sorted(violation) == ["col", "line", "message", "path",
                                         "rule"]
            assert isinstance(violation["line"], int)
        assert json.loads(json.dumps(payload)) == payload

    def test_text_report_lists_location_and_summary(self):
        text = render_text(self._result())
        assert "rpr001_bad.py:" in text
        assert "RPR001" in text
        assert "3 violation(s) in 2 file(s)" in text

    def test_clean_text_report(self):
        text = render_text(run_paths([str(FIXTURES / "clean.py")]))
        assert "clean" in text


class TestCli:
    def test_exit_one_on_violations(self, capsys):
        code = main([str(FIXTURES / "rpr001_bad.py")])
        assert code == 1
        assert "RPR001" in capsys.readouterr().out

    def test_exit_zero_on_clean(self, capsys):
        code = main([str(FIXTURES / "clean.py")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, capsys):
        code = main([str(FIXTURES / "nope.py")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code = main(["--format=json", str(FIXTURES / "rpr001_bad.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in [*RULE_IDS, "RPR009", "RPR010", "RPR011", "RPR012"]:
            assert rule_id in out

    def test_module_entry_point(self):
        # ``python -m tools.repro_lint`` is the documented CI invocation.
        process = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint",
             str(FIXTURES / "clean.py")],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
        assert process.returncode == 0, process.stderr
        assert "clean" in process.stdout
