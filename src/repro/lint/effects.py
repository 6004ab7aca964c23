"""Effect/purity analyzer — rules E201-E203.

Figure-9 weight selection assumes ``C(v)`` is a *pure function* of the
statistics catalog and the materialized set: the ``CostCache`` memoizes
on exactly that assumption, and the calibration layer compares estimates
against measurements made much later.  A cost function that mutates the
catalog, performs I/O, or edits its arguments in place breaks both
silently.  This analyzer walks every function reachable from the two
cost-model entry modules (``repro/mvpp/cost.py`` and
``repro/distributed/comm_cost.py``) through the same name-resolved call
graph the concurrency analyzer's package index builds, and flags effects:

* ``E201`` — catalog/statistics mutation: calls to registry mutators
  (``register`` / ``set_relation`` / ``set_cardinality`` / ...) or
  attribute stores on non-``self`` receivers;
* ``E202`` — I/O: ``open`` / ``print`` / ``input``, ``Path`` write
  methods, ``os`` / ``subprocess`` / ``sys.stdout`` calls.  The
  :mod:`repro.obs` metrics side-channel (``publish`` exporting counter
  deltas) is the one sanctioned effect and is exempt by receiver;
* ``E203`` (warning) — in-place mutation of a non-``self`` argument:
  callers observe the edit, so memoized results stop being functions of
  their inputs.

Self-mutation (``self._data[key] = ...``) is deliberately allowed:
memoization inside the cost objects is the mechanism, not the bug.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.concurrency import (
    FunctionInfo,
    PackageContext,
    _attr_chain,
    lint_package_scope,
)
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    get_rule,
    register_rule,
)

#: Methods that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "extend", "add", "update", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
}

#: Modules whose functions/methods seed the reachability analysis.
COST_ENTRY_SUFFIXES = ("repro/mvpp/cost.py", "repro/distributed/comm_cost.py")

#: Method names that mutate a catalog/statistics registry.
CATALOG_MUTATORS = {
    "register", "register_relation", "unregister", "set_relation",
    "set_cardinality", "set_update_frequency", "set_query_frequency",
    "sync_statistics", "drop", "install_design",
}

#: Receiver roots exempt from E201/E202: the obs export side-channel.
OBS_RECEIVERS = {"obs", "registry"}

#: Builtins that perform I/O.
IO_BUILTINS = {"open", "print", "input"}

#: Method names that read or write the filesystem on any receiver.
IO_METHODS = {
    "write_text", "write_bytes", "read_text", "read_bytes", "unlink",
    "mkdir", "rmdir", "touch",
}

#: Module roots whose calls are I/O by definition.
IO_MODULES = {"os", "subprocess", "shutil", "socket"}


def _cost_entry_functions(ctx: PackageContext) -> List[FunctionInfo]:
    out: List[FunctionInfo] = []
    for module in ctx.modules.values():
        if module.path.endswith(COST_ENTRY_SUFFIXES):
            out.extend(module.functions.values())
    return out


def _reachable_cost_functions(ctx: PackageContext) -> List[FunctionInfo]:
    seen: Set[str] = set()
    out: List[FunctionInfo] = []
    for entry in _cost_entry_functions(ctx):
        for fn in ctx.reachable(entry):
            if fn.qualname not in seen:
                seen.add(fn.qualname)
                out.append(fn)
    return out


@register_rule(
    "E201",
    scope="effect",
    severity=Severity.ERROR,
    summary="cost-model code mutates catalog/statistics state",
    paper="Section 4.1: costs are functions of statistics — not editors",
)
def check_catalog_mutation(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("E201")
    for fn in _reachable_cost_functions(ctx):
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CATALOG_MUTATORS
            ):
                chain = _attr_chain(node.func.value)
                if chain and chain[0] in OBS_RECEIVERS:
                    continue
                receiver = ".".join(chain) if chain else "<expr>"
                yield rule.diagnostic(
                    f"{fn.qualname} calls {receiver}.{node.func.attr}() — "
                    f"a catalog/statistics mutation on a cost path",
                    location=fn.module.location(node),
                    hint="cost functions must read statistics, never "
                    "write them; move the write to the warehouse layer",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    chain = _attr_chain(target)
                    if not chain or chain[0] in ("self", "cls"):
                        continue
                    if chain[0] in OBS_RECEIVERS:
                        continue
                    yield rule.diagnostic(
                        f"{fn.qualname} assigns "
                        f"{'.'.join(chain)} — external state mutation "
                        f"on a cost path",
                        location=fn.module.location(node),
                        hint="return the value instead of writing "
                        "another object's attribute",
                    )


@register_rule(
    "E202",
    scope="effect",
    severity=Severity.ERROR,
    summary="cost-model code performs I/O",
    paper="CostCache soundness: same inputs, same cost, no side effects",
)
def check_cost_io(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("E202")
    for fn in _reachable_cost_functions(ctx):
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in IO_BUILTINS
            ):
                yield rule.diagnostic(
                    f"{fn.qualname} calls {node.func.id}() on a cost path",
                    location=fn.module.location(node),
                    hint="cost functions are pure; report through "
                    "repro.obs or return the value",
                )
            elif isinstance(node.func, ast.Attribute):
                chain = _attr_chain(node.func.value)
                if chain and chain[0] in OBS_RECEIVERS:
                    continue
                if node.func.attr in IO_METHODS or (
                    chain and chain[0] in IO_MODULES
                ):
                    receiver = ".".join(chain) if chain else "<expr>"
                    yield rule.diagnostic(
                        f"{fn.qualname} calls {receiver}."
                        f"{node.func.attr}() — I/O on a cost path",
                        location=fn.module.location(node),
                        hint="cost functions are pure; lift the I/O to "
                        "the caller",
                    )


@register_rule(
    "E203",
    scope="effect",
    severity=Severity.WARNING,
    summary="cost-model code mutates a non-self argument in place",
    paper="memoized results must be functions of their inputs",
)
def check_argument_mutation(ctx: PackageContext) -> Iterator[Diagnostic]:
    rule = get_rule("E203")
    for fn in _reachable_cost_functions(ctx):
        args = getattr(fn.node, "args", None)
        if args is None:
            continue
        parameters: Set[str] = {
            arg.arg
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            )
            if arg.arg not in ("self", "cls")
        }
        if not parameters:
            continue
        # Names rebound locally no longer alias the caller's object.
        rebound: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rebound.add(target.id)
        aliased = parameters - rebound
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in aliased
                    ):
                        yield rule.diagnostic(
                            f"{fn.qualname} writes into argument "
                            f"{target.value.id!r} — the caller observes "
                            f"the edit",
                            location=fn.module.location(node),
                            hint="copy the argument or return the "
                            "updated value",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in aliased
            ):
                yield rule.diagnostic(
                    f"{fn.qualname} calls {node.func.value.id}."
                    f"{node.func.attr}() — in-place mutation of an "
                    f"argument",
                    location=fn.module.location(node),
                    hint="copy the argument or return the updated value",
                )


def lint_effects(ctx: PackageContext) -> LintReport:
    """Run the E2xx rules over a package context."""
    return lint_package_scope(ctx, "effect")
