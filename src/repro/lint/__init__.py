"""repro.lint — static analysis for the MVPP pipeline, in four layers.

Layer 1 (:mod:`repro.lint.semantic`) lints the *artifacts*: workloads,
MVPP graphs, and finished designs, enforcing the invariants the paper's
algorithms assume (Figure-4 push-down, merged common subexpressions,
frequency annotations, cost monotonicity, Figure-9 post-conditions).

Layer 2 (:mod:`repro.lint.code`) lints the *source*: an AST analyzer
enforcing the repo's determinism contract (no set-iteration order
dependence, no unseeded randomness, no wall-clock reads on cost paths,
no mutable defaults), runnable as ``repro lint --self``.

Layer 3 (:mod:`repro.lint.plans`) verifies *query plans*: schema/type
inference over :mod:`repro.algebra` logical trees and lowered physical
trees (rules P001-P008), wired into :class:`~repro.executor.physical.
PhysicalPlanner` lowering behind ``DesignConfig.lint``.

Layer 4 (:mod:`repro.lint.concurrency` / :mod:`repro.lint.effects`)
analyzes the package *interprocedurally*: shared-state safety of
functions submitted to :mod:`repro.parallel` executors (X101-X106) and
purity of everything reachable from the cost models (E201-E203).

All layers share one vocabulary (:class:`Diagnostic`, :class:`Severity`,
:class:`LintReport`), one string-keyed rule registry (mirroring the
selection-strategy registry), the emitters in :mod:`repro.lint.emitters`
(text / JSON / SARIF / GitHub annotations), and the incremental engine
in :mod:`repro.lint.incremental` (content-hash caching and
baselines).  The rule catalog is documented in ``docs/lint.md``.
"""

from repro.lint.diagnostics import (
    SCOPES,
    Diagnostic,
    LintReport,
    Location,
    Rule,
    Severity,
    all_rules,
    fingerprint_of,
    get_rule,
    register_rule,
    rule_ids,
    rules_for,
)
from repro.lint.code import (
    CodeContext,
    Suppressions,
    lint_paths,
    lint_self,
    lint_source,
)
from repro.lint.emitters import (
    LINT_SCHEMA_VERSION,
    diagnostic_fingerprint,
    render_github,
    render_text,
    report_to_json,
    report_to_sarif,
)
from repro.lint.semantic import (
    SemanticContext,
    lint_adaptive_policy,
    lint_design,
    lint_mvpp,
    lint_streaming_policy,
    lint_workload,
)
from repro.lint.plans import verify_lowering, verify_plan
from repro.lint.concurrency import PackageContext, lint_concurrency
from repro.lint.effects import lint_effects
from repro.lint.incremental import (
    apply_baseline,
    lint_package,
    lint_self_incremental,
    load_baseline,
    write_baseline,
)

__all__ = [
    "CodeContext",
    "Diagnostic",
    "LINT_SCHEMA_VERSION",
    "LintReport",
    "Location",
    "PackageContext",
    "Rule",
    "SCOPES",
    "SemanticContext",
    "Severity",
    "Suppressions",
    "all_rules",
    "apply_baseline",
    "diagnostic_fingerprint",
    "fingerprint_of",
    "get_rule",
    "lint_adaptive_policy",
    "lint_concurrency",
    "lint_design",
    "lint_effects",
    "lint_mvpp",
    "lint_package",
    "lint_paths",
    "lint_self",
    "lint_self_incremental",
    "lint_source",
    "lint_streaming_policy",
    "lint_workload",
    "load_baseline",
    "register_rule",
    "render_github",
    "render_text",
    "report_to_json",
    "report_to_sarif",
    "rule_ids",
    "rules_for",
    "verify_lowering",
    "verify_plan",
    "write_baseline",
]
