"""Whole-package lint runs and ratchet baselines.

:func:`lint_package` runs the per-file code rules over every file of a
package tree, then the interprocedural concurrency/effect analysis over
the package as a whole.  A cold ``repro lint --self`` takes a few
seconds, so no result cache is kept.

A **baseline** file (``lint-baseline.json``) suppresses known findings
by stable fingerprint so new code can be gated strictly while old debt
is paid down incrementally: matched findings are hidden (counted in
``LintReport.baselined``), unmatched baseline entries are reported back
as *expired* so the file never rots silently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.code import iter_python_files, lint_source
from repro.lint.concurrency import PackageContext, lint_concurrency
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.effects import lint_effects
from repro.lint.emitters import diagnostic_fingerprint

#: Baseline file schema.
BASELINE_SCHEMA_VERSION = 1


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
# the package run
# ---------------------------------------------------------------------------
def lint_package(
    package_root: Path,
    base: Optional[Path] = None,
) -> LintReport:
    """Run all three source analyzer layers over a package tree.

    Per-file code rules see one file at a time; the package-level
    concurrency/effect rules see every file (interprocedural
    soundness).
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
    for display, _dotted, source in files:
        report.merge(lint_source(source, path=display))
    ctx = PackageContext.build(files)
    report.merge(lint_concurrency(ctx))
    report.merge(lint_effects(ctx))

    from repro import obs

    obs.metrics().counter("lint.files_analyzed").inc(len(files))
    report.diagnostics = report.sorted()
    return report
