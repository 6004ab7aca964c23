"""Emitter v2 tests: SARIF partialFingerprints, the GitHub annotation
format, JSON fingerprints, and the new CLI flags (``--cache-dir``,
``--baseline``, ``--write-baseline``, ``--format github``)."""

import json

from repro.cli import main
from repro.lint import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
    diagnostic_fingerprint,
    render_github,
    report_to_json,
    report_to_sarif,
)
from repro.lint.code import lint_source
from repro.lint.emitters import FINGERPRINT_KEY

UNSEEDED = "import random\n\ndef draw():\n    return random.random()\n"


def sample_report():
    report = LintReport(target="sample")
    report.diagnostics = [
        Diagnostic(
            rule="C105",
            severity=Severity.ERROR,
            message="function 'f' has a mutable default argument",
            location=Location(file="pkg/mod.py", line=3, column=6),
            hint="default to None",
            fingerprint="abcd1234abcd1234",
        ),
        Diagnostic(
            rule="M003",
            severity=Severity.WARNING,
            message="vertex is never materialized",
            location=Location(mvpp="paper", vertex="tmp4"),
        ),
    ]
    return report


class TestFingerprints:
    def test_lint_source_stamps_fingerprints(self):
        report = lint_source(UNSEEDED, path="pkg/mod.py")
        assert report.diagnostics
        assert all(len(d.fingerprint) == 16 for d in report.diagnostics)

    def test_fingerprint_is_line_number_free(self):
        moved = "# pad\n# pad\n" + UNSEEDED
        first = lint_source(UNSEEDED, path="pkg/mod.py").diagnostics[0]
        second = lint_source(moved, path="pkg/mod.py").diagnostics[0]
        assert first.location.line != second.location.line
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_distinguishes_identical_lines(self):
        doubled = UNSEEDED + "\ndef draw2():\n    return random.random()\n"
        report = lint_source(doubled, path="pkg/mod.py")
        fingerprints = [d.fingerprint for d in report.diagnostics]
        assert len(fingerprints) == len(set(fingerprints)) == 2

    def test_fallback_for_unstamped_diagnostics(self):
        bare = Diagnostic(
            rule="M003",
            severity=Severity.WARNING,
            message="vertex is never materialized",
            location=Location(mvpp="paper", vertex="tmp4"),
        )
        assert bare.fingerprint == ""
        assert len(diagnostic_fingerprint(bare)) == 16


class TestSarif:
    def test_results_carry_partial_fingerprints(self):
        document = report_to_sarif(sample_report())
        results = document["runs"][0]["results"]
        assert len(results) == 2
        for result in results:
            fingerprint = result["partialFingerprints"][FINGERPRINT_KEY]
            assert len(fingerprint) == 16
        assert (
            results[0]["partialFingerprints"][FINGERPRINT_KEY]
            == "abcd1234abcd1234"
        )


class TestJson:
    def test_diagnostics_carry_fingerprint_and_baselined_summary(self):
        report = sample_report()
        report.baselined = 2
        document = report_to_json(report)
        assert document["summary"]["baselined"] == 2
        assert document["diagnostics"][0]["fingerprint"] == "abcd1234abcd1234"


class TestGithubFormat:
    def test_error_annotation_golden(self):
        text = render_github(sample_report())
        lines = text.splitlines()
        assert lines[0] == (
            "::error file=pkg/mod.py,line=3,col=7,title=C105::"
            "function 'f' has a mutable default argument (hint: default to None)"
        )
        assert lines[1] == (
            "::warning title=M003::paper::tmp4: vertex is never materialized"
        )
        assert lines[2] == (
            "::notice title=repro-lint::1 error(s), 1 warning(s), 0 note(s)"
        )

    def test_newlines_escaped(self):
        report = LintReport()
        report.diagnostics = [
            Diagnostic(
                rule="C101",
                severity=Severity.ERROR,
                message="line one\nline two",
                location=Location(file="a.py", line=1),
            )
        ]
        assert "%0A" in render_github(report)
        assert "\nline two" not in render_github(report).splitlines()[0]


class TestCliFlags:
    def test_format_github(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("pick = sorted({1, 2})\n")
        assert main(["lint", "--path", str(bad), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=C102" in out

    def test_self_with_cache_dir_runs_twice(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["lint", "--self", "--cache-dir", str(cache)]) == 0
        assert any(cache.glob("*.json"))
        assert main(["lint", "--self", "--cache-dir", str(cache)]) == 0

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text(UNSEEDED)
        baseline = tmp_path / "lint-baseline.json"
        assert (
            main(
                ["lint", "--path", str(bad), "--write-baseline", str(baseline)]
            )
            == 0
        )
        document = json.loads(baseline.read_text())
        assert document["schema"] == 1
        assert len(document["entries"]) == 1
        capsys.readouterr()
        assert (
            main(["lint", "--path", str(bad), "--baseline", str(baseline)]) == 0
        )
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_expired_baseline_entry_reported(self, tmp_path, capsys):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text(UNSEEDED)
        baseline = tmp_path / "lint-baseline.json"
        main(["lint", "--path", str(bad), "--write-baseline", str(baseline)])
        (bad / "mod.py").write_text("def fixed():\n    return 1\n")
        capsys.readouterr()
        assert (
            main(["lint", "--path", str(bad), "--baseline", str(baseline)]) == 0
        )
        out = capsys.readouterr().out
        assert "expired" in out
        assert "--write-baseline" in out
