"""Incremental lint engine: content-hash caching and baselines.

``repro lint --self`` gates every CI run, so it must not re-pay the
full-package analysis cost when nothing changed.  This module makes the
run incremental along two independent axes:

* **Per-file result cache** — each file's code-scope report is keyed by
  ``sha256(engine fingerprint + file bytes)`` and stored as JSON under a
  cache directory (``.repro-lint-cache/`` by convention).  The engine
  fingerprint covers the registered rule set and the package version, so
  rule changes invalidate every entry at once.  Hits and misses are
  published as ``lint.cache.hits`` / ``lint.cache.misses`` counters.
* **Package-level cache** — the interprocedural concurrency/effect
  analysis is whole-package by nature, so it caches one entry keyed on
  the digest of *all* file hashes: any edit re-runs it, no edit skips it.

A **baseline** file (``lint-baseline.json``) suppresses known findings
by stable fingerprint so new code can be gated strictly while old debt
is paid down incrementally: matched findings are hidden (counted in
``LintReport.baselined``), unmatched baseline entries are reported back
as *expired* so the file never rots silently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.code import iter_python_files, lint_source
from repro.lint.concurrency import PackageContext, lint_concurrency
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
    fingerprint_of,
    rule_ids,
)
from repro.lint.effects import lint_effects
from repro.lint.emitters import diagnostic_fingerprint

#: Bumped when the cache entry shape changes.
CACHE_SCHEMA_VERSION = 1

#: Baseline file schema.
BASELINE_SCHEMA_VERSION = 1

#: Conventional cache directory name (gitignored; CI restores it).
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def engine_fingerprint() -> str:
    """Identity of the analyzer configuration.

    Covers the registered rule ids and the package version: adding,
    removing, or reordering rules invalidates every cached entry.
    """
    from repro import __version__

    return fingerprint_of("lint-engine", __version__, *sorted(rule_ids()))


def file_key(source: str) -> str:
    """Cache key for one file's per-file report."""
    digest = hashlib.sha256()
    digest.update(engine_fingerprint().encode("utf-8"))
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------
def diagnostic_to_dict(diagnostic: Diagnostic) -> Dict[str, object]:
    location = diagnostic.location
    return {
        "rule": diagnostic.rule,
        "severity": diagnostic.severity.label,
        "message": diagnostic.message,
        "hint": diagnostic.hint,
        "fingerprint": diagnostic.fingerprint,
        "location": {
            "file": location.file,
            "line": location.line,
            "column": location.column,
            "mvpp": location.mvpp,
            "vertex": location.vertex,
        },
    }


def diagnostic_from_dict(payload: Dict[str, object]) -> Diagnostic:
    location = payload.get("location") or {}
    return Diagnostic(
        rule=str(payload["rule"]),
        severity=Severity.parse(str(payload["severity"])),
        message=str(payload["message"]),
        location=Location(
            file=location.get("file"),
            line=location.get("line"),
            column=location.get("column"),
            mvpp=location.get("mvpp"),
            vertex=location.get("vertex"),
        ),
        hint=str(payload.get("hint", "")),
        fingerprint=str(payload.get("fingerprint", "")),
    )


def _report_to_entry(report: LintReport) -> Dict[str, object]:
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "target": report.target,
        "suppressed": report.suppressed,
        "diagnostics": [diagnostic_to_dict(d) for d in report.diagnostics],
    }


def _report_from_entry(payload: Dict[str, object]) -> Optional[LintReport]:
    if payload.get("schema") != CACHE_SCHEMA_VERSION:
        return None
    report = LintReport(target=str(payload.get("target", "")))
    report.suppressed = int(payload.get("suppressed", 0))
    report.diagnostics = [
        diagnostic_from_dict(d) for d in payload.get("diagnostics", [])
    ]
    return report


class ResultCache:
    """JSON files under a directory, one per content hash."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def lookup(self, key: str) -> Optional[LintReport]:
        path = self.directory / f"{key}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        report = _report_from_entry(payload)
        if report is None:
            self.misses += 1
            return None
        self.hits += 1
        return report

    def store(self, key: str, report: LintReport) -> None:
        path = self.directory / f"{key}.json"
        path.write_text(
            json.dumps(_report_to_entry(report), sort_keys=True),
            encoding="utf-8",
        )

    def publish(self) -> None:
        from repro import obs

        registry = obs.metrics()
        if self.hits:
            registry.counter("lint.cache.hits").inc(self.hits)
        if self.misses:
            registry.counter("lint.cache.misses").inc(self.misses)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------
def load_baseline(path: Path) -> List[Dict[str, str]]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError:
        return []
    except ValueError as error:
        raise ValueError(f"baseline {path} is not valid JSON: {error}")
    if payload.get("schema") != BASELINE_SCHEMA_VERSION:
        raise ValueError(
            f"baseline {path} has schema {payload.get('schema')!r}; "
            f"expected {BASELINE_SCHEMA_VERSION}"
        )
    return list(payload.get("entries", []))


def apply_baseline(
    report: LintReport, entries: Iterable[Dict[str, str]]
) -> List[Dict[str, str]]:
    """Hide baselined findings in place; return the *expired* entries.

    A baseline entry matches at most one finding per fingerprint.
    Matched findings move into ``report.baselined``; entries whose
    fingerprint no longer occurs are returned so callers can prompt a
    baseline refresh.
    """
    wanted: Dict[str, Dict[str, str]] = {
        str(entry.get("fingerprint", "")): dict(entry)
        for entry in entries
        if entry.get("fingerprint")
    }
    if not wanted:
        return []
    kept: List[Diagnostic] = []
    matched: Set[str] = set()
    for diagnostic in report.diagnostics:
        fingerprint = diagnostic_fingerprint(diagnostic)
        if fingerprint in wanted and fingerprint not in matched:
            matched.add(fingerprint)
            report.baselined += 1
        else:
            kept.append(diagnostic)
    report.diagnostics = kept
    return [wanted[fp] for fp in sorted(set(wanted) - matched)]


def write_baseline(report: LintReport, path: Path) -> int:
    """Write the report's current findings as the new baseline."""
    entries = sorted(
        (
            {
                "fingerprint": diagnostic_fingerprint(d),
                "rule": d.rule,
                "path": d.location.file or d.location.mvpp or "",
            }
            for d in report.diagnostics
        ),
        key=lambda entry: (entry["path"], entry["rule"], entry["fingerprint"]),
    )
    payload = {"schema": BASELINE_SCHEMA_VERSION, "entries": entries}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(entries)


# ---------------------------------------------------------------------------
# the incremental run
# ---------------------------------------------------------------------------
def lint_package(
    package_root: Path,
    base: Optional[Path] = None,
    cache_dir: Optional[Path] = None,
) -> LintReport:
    """Run all three analyzer layers over a package tree.

    Per-file code rules honor the result cache; the package-level
    concurrency/effect rules always see every file (interprocedural
    soundness) but cache on the whole-tree digest.
    """
    package_root = Path(package_root)
    base = Path(base) if base is not None else package_root.parent
    files: List[Tuple[str, str, str]] = []  # (display, dotted, source)
    for file_path in iter_python_files(package_root):
        try:
            display = str(file_path.relative_to(base))
        except ValueError:
            display = str(file_path)
        dotted = ".".join(Path(display).with_suffix("").parts)
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        files.append((display, dotted, file_path.read_text(encoding="utf-8")))

    report = LintReport(target=f"{package_root} ({len(files)} files)")
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    # ---------------------------------------------------- per-file stage
    pending: List[Tuple[str, str]] = []
    for display, _dotted, source in files:
        if cache is not None:
            cached = cache.lookup(file_key(source))
            if cached is not None:
                report.merge(cached)
                continue
        pending.append((display, source))

    for display, source in pending:
        file_report = lint_source(source, path=display)
        if cache is not None:
            cache.store(file_key(source), file_report)
        report.merge(file_report)

    # ----------------------------------------------------- package stage
    tree_digest = fingerprint_of(
        "package", engine_fingerprint(),
        *(file_key(source) for _d, _m, source in files),
    )
    package_report: Optional[LintReport] = None
    if cache is not None:
        package_report = cache.lookup(f"package-{tree_digest}")
    if package_report is None:
        ctx = PackageContext.build(files)
        package_report = LintReport()
        package_report.merge(lint_concurrency(ctx))
        package_report.merge(lint_effects(ctx))
        if cache is not None:
            cache.store(f"package-{tree_digest}", package_report)
    report.merge(package_report)

    from repro import obs

    obs.metrics().counter("lint.files_analyzed").inc(len(pending))
    if cache is not None:
        cache.publish()
    report.diagnostics = report.sorted()
    return report


def lint_self_incremental(cache_dir: Optional[Path] = None) -> LintReport:
    """``repro lint --self``: all three analyzers over the installed
    ``repro`` package, optionally cached."""
    import repro

    package_root = Path(repro.__file__).resolve().parent
    return lint_package(
        package_root,
        base=package_root.parent,
        cache_dir=cache_dir,
    )
