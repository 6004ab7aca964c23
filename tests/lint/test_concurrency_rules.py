"""Synthetic-package tests for the determinism (X103-X106) and effect
(E2xx) analyzers.

Each test builds a tiny fake package with
:meth:`PackageContext.build` — (display path, dotted module, source)
triples — crafted so exactly one rule fires, then asserts on the rule id
and the located line.  The closing tests pin the negative space: the
conservative analyzer stays silent on the patterns it must not flag, and
the real ``src/repro`` tree is clean.
"""

import textwrap

from repro.lint.concurrency import (
    PackageContext,
    lint_concurrency,
)
from repro.lint.effects import lint_effects


def build(**modules):
    """``build(pkg_worker="...")`` -> context with module pkg/worker.py."""
    files = []
    for dotted_underscored, source in modules.items():
        dotted = dotted_underscored.replace("__", ".")
        path = dotted.replace(".", "/") + ".py"
        files.append((path, dotted, textwrap.dedent(source)))
    return PackageContext.build(files)


def rules_of(report):
    return sorted(d.rule for d in report.diagnostics)


class TestConcurrencyRules:
    def test_x103_cache_write_outside_known_sites(self):
        ctx = build(
            pkg__rogue="""
                def tamper(calculator, key, value):
                    calculator.cost_cache.store(key, value)
            """,
        )
        report = lint_concurrency(ctx)
        assert rules_of(report) == ["X103"]
        assert "cost_cache.store" in report.diagnostics[0].message

    def test_x103_allows_registered_sites(self):
        ctx = build(
            repro__mvpp__cost="""
                def owner(self, key, value):
                    self.cost_cache.store(key, value)
            """,
        )
        assert lint_concurrency(ctx).diagnostics == []

    def test_x104_unseeded_random(self):
        ctx = build(
            pkg__chance="""
                import random

                def pick(items):
                    return random.Random().choice(items)
            """,
        )
        assert rules_of(lint_concurrency(ctx)) == ["X104"]

    def test_x104_seeded_random_is_fine(self):
        ctx = build(
            pkg__chance="""
                import random

                def pick(items, seed):
                    return random.Random(seed).choice(items)
            """,
        )
        assert lint_concurrency(ctx).diagnostics == []

    def test_x105_wall_clock_sleep(self):
        ctx = build(
            pkg__sched="""
                import time

                def wait():
                    time.sleep(0.1)
            """,
        )
        assert rules_of(lint_concurrency(ctx)) == ["X105"]

    def test_x105_exempt_in_obs(self):
        ctx = build(
            repro__obs__pacing="""
                import time

                def wait():
                    time.sleep(0.1)
            """,
        )
        assert lint_concurrency(ctx).diagnostics == []

    def test_x106_raw_thread(self):
        ctx = build(
            pkg__spawn="""
                import threading

                def go(fn):
                    worker = threading.Thread(target=fn)
                    worker.start()
                    return worker
            """,
        )
        assert rules_of(lint_concurrency(ctx)) == ["X106"]

    def test_x106_raw_thread_under_parallel_path_is_flagged(self):
        # No executor package is exempt any more: the package is
        # single-threaded outside repro.obs.
        ctx = build(
            repro__parallel__executor="""
                import threading

                def go(fn):
                    return threading.Thread(target=fn)
            """,
        )
        report = lint_concurrency(ctx)
        assert rules_of(report) == ["X106"]
        assert report.diagnostics[0].location.file == "repro/parallel/executor.py"

    def test_x106_exempt_in_obs(self):
        ctx = build(
            repro__obs__tracing="""
                import threading

                def make_lock():
                    return threading.Lock()
            """,
        )
        assert lint_concurrency(ctx).diagnostics == []


COST_HEADER = "repro__mvpp__cost"


class TestEffectRules:
    def test_e201_catalog_mutation_on_cost_path(self):
        ctx = build(
            **{
                COST_HEADER: """
                    def access_cost(catalog, vertex):
                        catalog.set_cardinality(vertex, 10)
                        return 1.0
                """
            }
        )
        report = lint_effects(ctx)
        assert rules_of(report) == ["E201"]
        assert "set_cardinality" in report.diagnostics[0].message

    def test_e201_external_attribute_store(self):
        ctx = build(
            **{
                COST_HEADER: """
                    def access_cost(stats, vertex):
                        stats.blocks = 0
                        return 1.0
                """
            }
        )
        assert rules_of(lint_effects(ctx)) == ["E201"]

    def test_e202_io_on_cost_path(self):
        ctx = build(
            **{
                COST_HEADER: """
                    def access_cost(vertex):
                        print(vertex)
                        return 1.0
                """
            }
        )
        assert rules_of(lint_effects(ctx)) == ["E202"]

    def test_e202_reachable_helper_in_other_module(self):
        ctx = build(
            **{
                COST_HEADER: """
                    from repro.mvpp.helpers import dump

                    def access_cost(vertex):
                        dump(vertex)
                        return 1.0
                """,
                "repro__mvpp__helpers": """
                    import os

                    def dump(vertex):
                        os.remove(str(vertex))
                """,
            }
        )
        report = lint_effects(ctx)
        assert rules_of(report) == ["E202"]
        assert report.diagnostics[0].location.file == "repro/mvpp/helpers.py"

    def test_e202_obs_receiver_exempt(self):
        ctx = build(
            **{
                COST_HEADER: """
                    def access_cost(registry, vertex):
                        registry.counter("mvpp.costs").inc()
                        return 1.0
                """
            }
        )
        assert lint_effects(ctx).diagnostics == []

    def test_e203_argument_mutation_warns(self):
        ctx = build(
            **{
                COST_HEADER: """
                    def access_cost(vertex, cache):
                        cache[vertex] = 1.0
                        return cache[vertex]
                """
            }
        )
        report = lint_effects(ctx)
        assert rules_of(report) == ["E203"]
        assert report.exit_code == 0  # warning, not error

    def test_e203_self_mutation_allowed(self):
        ctx = build(
            **{
                COST_HEADER: """
                    class Calculator:
                        def access_cost(self, vertex):
                            self._memo[vertex] = 1.0
                            return self._memo[vertex]
                """
            }
        )
        assert lint_effects(ctx).diagnostics == []

    def test_non_cost_modules_not_analyzed(self):
        ctx = build(
            pkg__elsewhere="""
                def noisy():
                    print("fine outside cost paths")
            """,
        )
        assert lint_effects(ctx).diagnostics == []


class TestRealPackageIsClean:
    def test_src_repro_concurrency_and_effects(self):
        from pathlib import Path

        import repro

        package_root = Path(repro.__file__).resolve().parent
        ctx = PackageContext.from_package(
            package_root, base=package_root.parent
        )
        concurrency = lint_concurrency(ctx)
        effects = lint_effects(ctx)
        assert concurrency.diagnostics == []
        assert effects.diagnostics == []
        # The documented CostCache memo-dict contract is suppressed in
        # place, not silently ignored.  Exactly the two writes in
        # MVPPCostCalculator: the distributed calculator shares the
        # traversal through hooks instead of duplicating the cache.
        assert effects.suppressed >= 2
