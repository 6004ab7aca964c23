"""Layer 2 — the determinism-enforcing code analyzer (``repro lint --self``).

The design pipeline makes a contract the example-based tests can only
sample: any design run must be bit-identical under a fixed seed.  This
analyzer enforces the contract structurally, over our own source, by
flagging the constructs that break it:

* ``C101`` — iterating a bare ``set``/``frozenset`` expression into
  ordered output (loop, comprehension, ``list()``/``tuple()``/``join``):
  set iteration order is hash-dependent;
* ``C102`` — un-keyed ``sorted``/``min``/``max`` over a syntactic set
  expression: ties and incomparable elements resolve by iteration order;
* ``C103`` — module-level ``random.*`` calls (or importing the drawing
  functions directly): global-state randomness is unseedable per run —
  use a ``random.Random(seed)`` instance;
* ``C104`` — wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now``/``today``) on cost/design paths: cost arithmetic must
  be a pure function of statistics (the :mod:`repro.obs` tracing layer
  is exempt by path);
* ``C105`` — mutable default arguments: shared mutable state across
  calls makes results depend on call history.

Findings are suppressed per line with a trailing
``# lint: ignore[C101]`` (or ``# lint: ignore`` for all rules); the
suppression comment documents intent where a construct is genuinely
safe.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
    fingerprint_of,
    get_rule,
    register_rule,
    rules_for,
)

#: ``random`` module attributes that are safe to touch: constructing a
#: seeded generator, or the class machinery around it.
SAFE_RANDOM_ATTRS = {"Random", "SystemRandom", "seed"}

#: Draw-style names that, imported from ``random`` directly, bypass
#: seeded instances just like ``random.choice(...)`` does.
RANDOM_DRAW_NAMES = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "shuffle",
    "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}

#: Wall-clock call sites flagged by C104, as (module, attribute) pairs.
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "perf_counter"),
    ("time", "monotonic"),
    ("time", "process_time"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Path fragments exempt from C104: the tracing layer exists to read the
#: clock, and benchmarks measure wall time by design.
WALL_CLOCK_EXEMPT_PARTS = ("obs", "benchmarks")

#: Builtins that turn an iterable into ordered output (C101 sinks).
ORDERING_SINKS = {"list", "tuple", "enumerate", "zip", "iter", "next"}

#: Methods whose first string-literal argument is an obs metric/event
#: name checked by O001 (registry instruments, journal events, spans,
#: and the `_counter`-style wrappers subsystems define around them).
OBS_NAME_METHODS = {
    "counter", "gauge", "histogram", "span", "journal_event",
    "_counter", "_gauge", "_histogram", "_journal",
}

#: Subsystem prefixes an obs metric/event name may start with.
OBS_NAME_PREFIXES = {
    "adaptive", "bench", "calibration", "cdc", "cost_cache",
    "distributed", "execution", "executor", "generation", "journal",
    "lint", "maintenance", "obs", "resilience", "selection",
    "storage", "warehouse",
}

#: Lowercase dot-separated with at least two segments, e.g.
#: ``resilience.refresh.ticks``.
_OBS_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

_SUPPRESSION = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass
class Suppressions:
    """Per-line rule suppressions parsed from ``# lint: ignore`` comments."""

    by_line: Dict[int, Optional[Set[str]]] = field(default_factory=dict)
    # value None means "all rules suppressed on this line"

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        out = cls()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESSION.search(line)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None:
                out.by_line[lineno] = None
            else:
                out.by_line[lineno] = {
                    part.strip().upper()
                    for part in ids.split(",")
                    if part.strip()
                }
        return out

    def covers(self, line: Optional[int], rule_id: str) -> bool:
        if line is None or line not in self.by_line:
            return False
        ids = self.by_line[line]
        return ids is None or rule_id.upper() in ids


@dataclass
class CodeContext:
    """One analyzed module: its AST, source, and display path."""

    path: str
    tree: ast.Module
    suppressions: Suppressions

    def location(self, node: ast.AST) -> Location:
        return Location(
            file=self.path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None),
        )


def _is_set_expression(node: ast.AST) -> bool:
    """Whether ``node`` is *syntactically* a set (display, comprehension,
    or a ``set()``/``frozenset()`` call).  Name/attribute references are
    not resolved — this is a conservative, no-false-positive check."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _has_keyword(node: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in node.keywords)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------
@register_rule(
    "C101",
    scope="code",
    severity=Severity.ERROR,
    summary="iteration over a bare set feeds ordered output",
    paper="PR 2 determinism contract (bit-identical to serial)",
)
def check_set_iteration(ctx: CodeContext) -> Iterator[Diagnostic]:
    rule = get_rule("C101")
    for node in ast.walk(ctx.tree):
        target: Optional[ast.AST] = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            target = node.iter
        elif isinstance(node, ast.comprehension):
            target = node.iter
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if (
                name in ORDERING_SINKS
                and node.args
                and _is_set_expression(node.args[0])
            ):
                target = node.args[0]
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and _is_set_expression(node.args[0])
            ):
                target = node.args[0]
        if target is not None and _is_set_expression(target):
            yield rule.diagnostic(
                "iterating a set expression produces hash-dependent order",
                location=ctx.location(target),
                hint="sort it first (sorted(...)) or build a list/tuple",
            )


@register_rule(
    "C102",
    scope="code",
    severity=Severity.ERROR,
    summary="un-keyed sorted/min/max over an unordered collection",
    paper="Figure 9 assumes a deterministic candidate order",
)
def check_unkeyed_ordering(ctx: CodeContext) -> Iterator[Diagnostic]:
    rule = get_rule("C102")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in ("sorted", "min", "max"):
            continue
        if not node.args or not _is_set_expression(node.args[0]):
            continue
        if _has_keyword(node, "key"):
            continue
        yield rule.diagnostic(
            f"{name}() over a set without key=; ties and incomparable "
            f"elements resolve by hash order",
            location=ctx.location(node),
            hint="pass key= with a total, deterministic order",
        )


@register_rule(
    "C103",
    scope="code",
    severity=Severity.ERROR,
    summary="unseeded module-level random usage",
    paper="DesignConfig.seed must fully determine randomized strategies",
)
def check_unseeded_random(ctx: CodeContext) -> Iterator[Diagnostic]:
    rule = get_rule("C103")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            drawn = sorted(
                alias.name
                for alias in node.names
                if alias.name in RANDOM_DRAW_NAMES
            )
            if drawn:
                yield rule.diagnostic(
                    f"importing {', '.join(drawn)} from random uses the "
                    f"unseeded global generator",
                    location=ctx.location(node),
                    hint="instantiate random.Random(seed) and call its "
                    "methods",
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "random"
            and node.func.attr not in SAFE_RANDOM_ATTRS
        ):
            yield rule.diagnostic(
                f"random.{node.func.attr}() draws from the unseeded global "
                f"generator",
                location=ctx.location(node),
                hint="thread a random.Random(seed) instance through instead",
            )


@register_rule(
    "C104",
    scope="code",
    severity=Severity.ERROR,
    summary="wall-clock read on a cost/design path",
    paper="Section 4.1 costs are functions of statistics, not of time",
)
def check_wall_clock(ctx: CodeContext) -> Iterator[Diagnostic]:
    rule = get_rule("C104")
    parts = Path(ctx.path).parts
    if any(part in WALL_CLOCK_EXEMPT_PARTS for part in parts):
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        owner_name: Optional[str] = None
        if isinstance(owner, ast.Name):
            owner_name = owner.id
        elif isinstance(owner, ast.Attribute):
            owner_name = owner.attr  # e.g. datetime.datetime.now
        if owner_name is None:
            continue
        if (owner_name, node.func.attr) in WALL_CLOCK_CALLS:
            yield rule.diagnostic(
                f"{owner_name}.{node.func.attr}() reads the wall clock on a "
                f"design/cost path",
                location=ctx.location(node),
                hint="move timing into repro.obs spans, or inject the value",
            )


@register_rule(
    "C105",
    scope="code",
    severity=Severity.ERROR,
    summary="mutable default argument",
    paper="shared mutable state makes results depend on call history",
)
def check_mutable_defaults(ctx: CodeContext) -> Iterator[Diagnostic]:
    rule = get_rule("C105")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and _call_name(default) in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                yield rule.diagnostic(
                    f"function {node.name!r} has a mutable default argument",
                    location=ctx.location(default),
                    hint="default to None and create the value inside the "
                    "function",
                )


@register_rule(
    "O001",
    scope="code",
    severity=Severity.ERROR,
    summary="obs metric/event name breaks the naming contract",
    paper="docs/observability.md metric and event-name catalog",
)
def check_obs_names(ctx: CodeContext) -> Iterator[Diagnostic]:
    """Metric/span/journal names must be lowercase dot-separated with a
    known subsystem prefix, so instrumented series can't silently
    fragment into near-duplicates (``Executor.QueryIO`` vs
    ``executor.query_io``)."""
    rule = get_rule("O001")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
        elif isinstance(node.func, ast.Name):
            method = node.func.id
        else:
            continue
        if method not in OBS_NAME_METHODS:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        name = first.value
        if not _OBS_NAME.match(name):
            yield rule.diagnostic(
                f"obs name {name!r} is not lowercase dot-separated "
                f"(<subsystem>.<metric>)",
                location=ctx.location(first),
                hint="use lowercase segments joined by dots, e.g. "
                "'executor.query_io'",
            )
            continue
        prefix = name.split(".", 1)[0]
        if prefix not in OBS_NAME_PREFIXES:
            yield rule.diagnostic(
                f"obs name {name!r} has unknown subsystem prefix "
                f"{prefix!r}",
                location=ctx.location(first),
                hint=f"use a registered prefix ({', '.join(sorted(OBS_NAME_PREFIXES))}) "
                "or add the new subsystem to OBS_NAME_PREFIXES",
            )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def fingerprint_diagnostics(
    diagnostics: Sequence[Diagnostic], source_lines: Sequence[str]
) -> List[Diagnostic]:
    """Stamp stable fingerprints onto source-located diagnostics.

    The fingerprint hashes the rule id, the path, the
    whitespace-normalized *text* of the flagged line, and an occurrence
    index for identical lines — never the line number — so a finding
    keeps its identity when unrelated edits move it (the property SARIF
    ``partialFingerprints`` and the baseline file rely on).
    """
    counts: Dict[Tuple[str, str, str], int] = {}
    out: List[Diagnostic] = []
    for diagnostic in diagnostics:
        location = diagnostic.location
        line_text = ""
        if location.line is not None and 1 <= location.line <= len(source_lines):
            line_text = " ".join(source_lines[location.line - 1].split())
        key = (diagnostic.rule, location.file or "", line_text)
        index = counts.get(key, 0)
        counts[key] = index + 1
        out.append(
            replace(
                diagnostic,
                fingerprint=fingerprint_of(*key, str(index)),
            )
        )
    return out


def lint_source(source: str, path: str = "<string>") -> LintReport:
    """Run every code-scope rule over one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise LintError(f"cannot parse {path}: {error}") from error
    ctx = CodeContext(
        path=path, tree=tree, suppressions=Suppressions.parse(source)
    )
    report = LintReport(target=path)
    findings: List[Diagnostic] = []
    for rule in rules_for("code"):
        for diagnostic in rule.check(ctx):
            if ctx.suppressions.covers(diagnostic.location.line, diagnostic.rule):
                report.suppressed += 1
            else:
                findings.append(diagnostic)
    report.diagnostics = fingerprint_diagnostics(
        findings, source.splitlines()
    )
    return report


def iter_python_files(root: Path) -> List[Path]:
    """Every ``*.py`` under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        return [root]
    return sorted(root.rglob("*.py"))


def lint_paths(paths: Sequence[Path], base: Optional[Path] = None) -> LintReport:
    """Run the code analyzer over files/directories; paths are made
    relative to ``base`` (when given) for stable diagnostic locations."""
    report = LintReport(target=", ".join(str(p) for p in paths))
    for root in paths:
        for file_path in iter_python_files(Path(root)):
            display = file_path
            if base is not None:
                try:
                    display = file_path.relative_to(base)
                except ValueError:
                    display = file_path
            file_report = lint_source(
                file_path.read_text(encoding="utf-8"), path=str(display)
            )
            report.merge(file_report)
    report.diagnostics = report.sorted()
    return report


def lint_self() -> LintReport:
    """Lint the installed ``repro`` package sources (``--self``).

    Runs all three source analyzers: the per-file code rules plus the
    package-wide concurrency (X1xx) and effect (E2xx) passes.
    """
    import repro
    from repro.lint.incremental import lint_package

    return lint_package(Path(repro.__file__).resolve().parent)
