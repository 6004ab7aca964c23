"""Smoke tests for the streamed lifecycle (the `repro simulate --stream`
backend): convergence, zero violations, and per-seed determinism.

The full contract over maintenance × failure rate × seed is in
``tests/warehouse/test_lifecycle.py``.
"""

from repro.warehouse.simulation import simulate_lifecycle


def stream(seed=7):
    return simulate_lifecycle(
        maintenance="stream", seed=seed, rounds=2, scale=0.02
    )


class TestFaultFree:
    def test_converges_without_violations(self):
        result = stream()
        assert result.ok
        assert result.converged
        assert result.served_violations == 0
        assert result.view_violations == 0
        assert result.partial_writes == 0
        assert result.faults_injected == {}
        assert result.records_appended > 0
        assert result.drains >= result.rounds
        assert result.queries_run > 0

    def test_deterministic_per_seed(self):
        first = stream()
        second = stream()
        assert first.digest == second.digest
        assert first.to_dict() == second.to_dict()
