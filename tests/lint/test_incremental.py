"""Tests for the incremental lint engine: content-hash caching and
baseline add/expire semantics."""

import json

import pytest

from repro import obs
from repro.lint.incremental import (
    apply_baseline,
    engine_fingerprint,
    file_key,
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


@pytest.fixture
def counters():
    obs.enable(reset=True)
    yield lambda name: obs.metrics().counter(name).value
    obs.disable()


class TestResultCache:
    def test_cold_then_warm(self, package, tmp_path, counters):
        cache_dir = tmp_path / "cache"
        first = lint_package(package, base=package.parent, cache_dir=cache_dir)
        assert counters("lint.cache.misses") == 3  # 2 files + package entry
        assert counters("lint.cache.hits") == 0
        assert counters("lint.files_analyzed") == 2

        second = lint_package(package, base=package.parent, cache_dir=cache_dir)
        assert counters("lint.cache.hits") == 3
        assert counters("lint.files_analyzed") == 2  # no new analysis
        assert [d.rule for d in second.diagnostics] == [
            d.rule for d in first.diagnostics
        ]
        assert second.suppressed == first.suppressed

    def test_edit_invalidates_only_that_file(self, package, tmp_path, counters):
        cache_dir = tmp_path / "cache"
        lint_package(package, base=package.parent, cache_dir=cache_dir)
        (package / "b.py").write_text(MUTABLE_DEFAULT)
        report = lint_package(package, base=package.parent, cache_dir=cache_dir)
        # a.py hits; b.py and the package digest miss.
        assert counters("lint.cache.hits") == 1
        assert counters("lint.files_analyzed") == 3  # 2 cold + 1 re-analyzed
        assert {d.rule for d in report.diagnostics} == {"C103", "C105"}

    def test_cache_key_covers_engine_identity(self, package):
        key = file_key(CLEAN)
        assert key != file_key(MUTABLE_DEFAULT)
        assert engine_fingerprint() in ("", engine_fingerprint())  # stable
        assert file_key(CLEAN) == key  # deterministic


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
