"""Tests for whole-package lint runs and baseline add/expire
semantics."""

import json

import pytest

from repro.lint.incremental import (
    apply_baseline,
    lint_package,
    load_baseline,
    write_baseline,
)

CLEAN = "def fine():\n    return 1\n"
MUTABLE_DEFAULT = "def bad(x={}):\n    return x\n"
UNSEEDED = "import random\n\ndef draw():\n    return random.random()\n"


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "a.py").write_text(UNSEEDED)
    (root / "b.py").write_text(CLEAN)
    return root


class TestBaseline:
    def test_round_trip_hides_known_findings(self, package, tmp_path):
        report = lint_package(package, base=package.parent)
        baseline_path = tmp_path / "lint-baseline.json"
        count = write_baseline(report, baseline_path)
        assert count == len(report.diagnostics) == 1

        fresh = lint_package(package, base=package.parent)
        expired = apply_baseline(fresh, load_baseline(baseline_path))
        assert fresh.diagnostics == []
        assert fresh.baselined == 1
        assert expired == []
        assert fresh.exit_code == 0

    def test_new_finding_still_fails(self, package, tmp_path):
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(lint_package(package, base=package.parent), baseline_path)
        (package / "b.py").write_text(MUTABLE_DEFAULT)
        report = lint_package(package, base=package.parent)
        apply_baseline(report, load_baseline(baseline_path))
        assert [d.rule for d in report.diagnostics] == ["C105"]
        assert report.exit_code == 1

    def test_fixed_finding_expires(self, package, tmp_path):
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(lint_package(package, base=package.parent), baseline_path)
        (package / "a.py").write_text(CLEAN.replace("fine", "fixed"))
        report = lint_package(package, base=package.parent)
        expired = apply_baseline(report, load_baseline(baseline_path))
        assert report.diagnostics == []
        assert report.baselined == 0
        assert len(expired) == 1
        assert expired[0]["rule"] == "C103"

    def test_fingerprint_survives_line_moves(self, package, tmp_path):
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(lint_package(package, base=package.parent), baseline_path)
        # Push the finding down three lines; the fingerprint must hold.
        (package / "a.py").write_text("# moved\n# down\n# a bit\n" + UNSEEDED)
        report = lint_package(package, base=package.parent)
        expired = apply_baseline(report, load_baseline(baseline_path))
        assert report.diagnostics == []
        assert report.baselined == 1
        assert expired == []

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text(json.dumps({"schema": 99, "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []
