"""Determinism/shared-state analyzer — rules X103-X106.

The design pipeline is single-threaded and runs on the logical tick
clock, so a design or refresh is a pure function of its inputs and the
config seed.  These rules keep it that way over a package-wide module
index (also the call graph the effect analyzer walks):

* ``X103`` — cache write (``CostCache`` / ``BuildSideCache``:
  ``store`` / ``invalidate`` / ``clear``) outside the known
  invalidation-site modules;
* ``X104`` — nondeterministically seeded RNG: ``random.Random()`` with
  no arguments, or an argument-less ``.seed()`` call;
* ``X105`` — ``time.sleep`` outside obs/benchmarks (schedulers run on
  the logical tick clock, never the wall clock);
* ``X106`` — raw ``threading`` / ``multiprocessing`` / ``concurrent``
  primitives outside :mod:`repro.obs` (whose locks guard its
  thread-local tracing state); the rest of the package stays
  single-threaded.

The analysis is conservative by construction: names it cannot resolve
are skipped, so every finding points at code that *definitely* matches
the pattern.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError
from repro.lint.code import Suppressions
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

#: Cache-owner attribute names whose write methods X103 guards.
CACHE_ATTRS = {"cost_cache", "build_cache"}

#: Cache write methods (reads like ``lookup``/``get`` are always fine).
CACHE_WRITE_METHODS = {"store", "invalidate", "clear"}

#: Module path suffixes allowed to write caches: the owners themselves
#: plus the documented invalidation sites (docs/lint.md lists them).
CACHE_SITE_SUFFIXES = (
    "repro/mvpp/cost.py",           # CostCache owner
    "repro/executor/physical.py",   # BuildSideCache owner
    "repro/executor/engine.py",     # engine wires its own caches
    "repro/warehouse/warehouse.py", # sync_statistics / load / update sites
    "repro/mvpp/generation.py",     # design-run cache ownership
    "repro/cdc/streaming.py",       # streaming delta commit invalidation
)

#: Raw concurrency primitives X106 bans outside repro.obs.
RAW_PRIMITIVES = {
    "Thread", "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Event",
    "Condition", "Barrier", "Timer", "Process", "Pool",
    "ThreadPoolExecutor", "ProcessPoolExecutor",
}

#: The one package allowed raw primitives (X106): the obs layer, whose
#: locks guard its thread-local tracing state, not business state.
PRIMITIVE_EXEMPT_PREFIX = "repro/obs"

#: Path fragments exempt from X105 (same contract as C104's exemption).
SLEEP_EXEMPT_PARTS = ("obs", "benchmarks")


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``self.cache.store`` -> ["self", "cache", "store"]; None when the
    chain contains anything but names/attributes."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method in the package index."""

    name: str  # "func" or "Class.method"
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Lambda
    class_name: Optional[str] = None

    @property
    def qualname(self) -> str:
        return f"{self.module.dotted}:{self.name}"


@dataclass
class ModuleInfo:
    """One parsed module: AST plus the name-resolution indexes."""

    path: str  # display path, e.g. "repro/mvpp/cost.py"
    dotted: str  # "repro.mvpp.cost"
    tree: ast.Module
    source_lines: List[str]
    suppressions: Suppressions
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)

    def location(self, node: ast.AST) -> Location:
        return Location(
            file=self.path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None),
        )


def _index_module(
    path: str, dotted: str, source: str
) -> ModuleInfo:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise LintError(f"cannot parse {path}: {error}") from error
    info = ModuleInfo(
        path=path,
        dotted=dotted,
        tree=tree,
        source_lines=source.splitlines(),
        suppressions=Suppressions.parse(source),
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(node.name, info, node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{node.name}.{item.name}"
                    info.functions[key] = FunctionInfo(
                        key, info, item, class_name=node.name
                    )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                info.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                for alias in node.names:
                    info.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return info


@dataclass
class PackageContext:
    """The package-wide index the concurrency/effect rules analyze."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)  # by dotted

    @classmethod
    def build(cls, files: Sequence[Tuple[str, str, str]]) -> "PackageContext":
        """``files`` is (display_path, dotted_module, source) triples."""
        ctx = cls()
        for path, dotted, source in files:
            ctx.modules[dotted] = _index_module(path, dotted, source)
        return ctx

    @classmethod
    def from_package(cls, package_root: Path, base: Path) -> "PackageContext":
        files = []
        for file_path in sorted(package_root.rglob("*.py")):
            display = file_path.relative_to(base)
            dotted = ".".join(display.with_suffix("").parts)
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            files.append(
                (str(display), dotted, file_path.read_text(encoding="utf-8"))
            )
        return cls.build(files)

    # ---------------------------------------------------------- resolution
    def resolve_function(
        self, module: ModuleInfo, name: str
    ) -> Optional[FunctionInfo]:
        """A bare name to a function: local first, then via imports."""
        if name in module.functions:
            return module.functions[name]
        imported = module.imports.get(name)
        if imported and "." in imported:
            target_module, _, attr = imported.rpartition(".")
            info = self.modules.get(target_module)
            if info is not None:
                return info.functions.get(attr)
        return None

    def reachable(self, start: FunctionInfo) -> List[FunctionInfo]:
        """BFS over the name-resolved call graph from ``start``."""
        seen: Set[str] = {start.qualname}
        queue = [start]
        order = [start]
        while queue:
            current = queue.pop(0)
            module = current.module
            for node in ast.walk(current.node):
                if not isinstance(node, ast.Call):
                    continue
                target: Optional[FunctionInfo] = None
                if isinstance(node.func, ast.Name):
                    target = self.resolve_function(module, node.func.id)
                elif isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name
                ):
                    receiver = node.func.value.id
                    if receiver == "self" and current.class_name:
                        key = f"{current.class_name}.{node.func.attr}"
                        target = module.functions.get(key)
                if target is not None and target.qualname not in seen:
                    seen.add(target.qualname)
                    queue.append(target)
                    order.append(target)
        return order


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------
@register_rule(
    "X103",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="cache write outside the known invalidation sites",
    paper="stale CostCache/BuildSideCache entries silently corrupt costs",
)
def check_cache_writes(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X103")
    for module in ctx.modules.values():
        if module.path.endswith(CACHE_SITE_SUFFIXES):
            continue
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CACHE_WRITE_METHODS
            ):
                continue
            chain = _attr_chain(node.func.value)
            if not chain or chain[-1] not in CACHE_ATTRS:
                continue
            yield rule.diagnostic(
                f"{'.'.join(chain)}.{node.func.attr}() writes a shared "
                f"cache outside the registered invalidation sites",
                location=module.location(node),
                hint="route the write through the cache owner "
                "(warehouse/scheduler/engine) or register the module in "
                "CACHE_SITE_SUFFIXES with a review",
            )


@register_rule(
    "X104",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="RNG constructed or re-seeded without an explicit seed",
    paper="DesignConfig.seed must fully determine randomized behavior",
)
def check_unseeded_rng(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X104")
    for module in ctx.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "Random"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
            ):
                yield rule.diagnostic(
                    "random.Random() with no arguments seeds from the OS — "
                    "runs become unreproducible",
                    location=module.location(node),
                    hint="thread the config seed: random.Random(seed)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "seed"
            ):
                yield rule.diagnostic(
                    "argument-less .seed() re-seeds from the OS",
                    location=module.location(node),
                    hint="pass the config seed explicitly",
                )


@register_rule(
    "X105",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="wall-clock sleep on scheduler/adaptive code",
    paper="RefreshScheduler runs on the logical tick clock (PR 4)",
)
def check_wall_sleep(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X105")
    for module in ctx.modules.values():
        if any(part in SLEEP_EXEMPT_PARTS for part in Path(module.path).parts):
            continue
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sleep"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("time", "asyncio")
            ):
                yield rule.diagnostic(
                    f"{node.func.value.id}.sleep() blocks on the wall "
                    f"clock; schedulers advance logical ticks",
                    location=module.location(node),
                    hint="advance the tick clock instead of sleeping",
                )


@register_rule(
    "X106",
    scope="concurrency",
    severity=Severity.ERROR,
    summary="raw threading/multiprocessing primitive outside repro.obs",
    paper="the design pipeline is single-threaded: results are per-seed pure",
)
def check_raw_primitives(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("X106")
    for module in ctx.modules.values():
        if module.path.startswith(PRIMITIVE_EXEMPT_PREFIX):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name: Optional[str] = None
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id
                in ("threading", "multiprocessing", "futures", "concurrent")
            ):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                imported = module.imports.get(node.func.id, "")
                if imported.startswith(
                    ("threading.", "multiprocessing.", "concurrent.")
                ):
                    name = node.func.id
            if name in RAW_PRIMITIVES:
                yield rule.diagnostic(
                    f"raw concurrency primitive {name} constructed outside "
                    f"repro.obs",
                    location=module.location(node),
                    hint="keep the package single-threaded: run the work "
                    "in a plain loop",
                )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _attach_fingerprints(
    diagnostics: List[Diagnostic], ctx: PackageContext
) -> List[Diagnostic]:
    lines_by_path = {
        module.path: module.source_lines for module in ctx.modules.values()
    }
    counts: Dict[Tuple[str, str, str], int] = {}
    out = []
    for diagnostic in diagnostics:
        location = diagnostic.location
        context = ""
        if (
            location.file in lines_by_path
            and location.line is not None
            and 1 <= location.line <= len(lines_by_path[location.file])
        ):
            context = " ".join(
                lines_by_path[location.file][location.line - 1].split()
            )
        key = (diagnostic.rule, location.file or "", context)
        index = counts.get(key, 0)
        counts[key] = index + 1
        out.append(
            replace(
                diagnostic,
                fingerprint=fingerprint_of(
                    diagnostic.rule, location.file or "", context, str(index)
                ),
            )
        )
    return out


def lint_package_scope(ctx: PackageContext, scope: str) -> LintReport:
    """Run every rule of a package-level scope over a built context."""
    report = LintReport(target=f"{scope} analysis over {len(ctx.modules)} modules")
    raw: List[Diagnostic] = []
    for rule in rules_for(scope):
        for diagnostic in rule.check(ctx):
            module = next(
                (
                    m
                    for m in ctx.modules.values()
                    if m.path == diagnostic.location.file
                ),
                None,
            )
            if module is not None and module.suppressions.covers(
                diagnostic.location.line, diagnostic.rule
            ):
                report.suppressed += 1
            else:
                raw.append(diagnostic)
    report.diagnostics = _attach_fingerprints(raw, ctx)
    return report


def lint_concurrency(ctx: PackageContext) -> LintReport:
    """Run the X1xx rules over a package context."""
    return lint_package_scope(ctx, "concurrency")
