"""The seeded maintenance lifecycle, deferred and streamed.

One contract, parametrized over ``maintenance`` × failure rate × seed:
the run converges, every served answer is fresh, stale-but-consistent
or degraded, every view equals a recompute with no partial write,
injected faults fire, and a seed reproduces its run bit for bit while
another seed changes it.
"""

import json

import pytest

from repro.cdc import StreamingPolicy
from repro.errors import WarehouseError
from repro.warehouse.simulation import row_multiset, simulate_lifecycle
from repro.workload import paper_workload

ROUNDS = 2

#: Stream-mode digests at ROUNDS=2, scale 0.02: the trajectory of the
#: streaming simulator this lifecycle replaced, fault-free and faulted.
STREAM_DIGESTS = {7: "f268d9608dc9", 8: "24783894b92f"}


def run(maintenance, failure_rate, seed, **kwargs):
    return simulate_lifecycle(
        maintenance=maintenance,
        failure_rate=failure_rate,
        seed=seed,
        rounds=ROUNDS,
        scale=0.02,
        **kwargs,
    )


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(maintenance, failure_rate, seed):
        key = (maintenance, failure_rate, seed)
        if key not in cache:
            cache[key] = run(*key)
        return cache[key]

    return get


@pytest.mark.parametrize("seed", (7, 8))
@pytest.mark.parametrize("failure_rate", (0.0, 0.3))
@pytest.mark.parametrize("maintenance", ("defer", "stream"))
def test_lifecycle_contract(runs, maintenance, failure_rate, seed):
    result = runs(maintenance, failure_rate, seed)

    assert result.ok
    assert result.converged
    assert result.served_violations == 0
    assert result.view_violations == 0
    assert result.partial_writes == 0
    assert result.queries_run == ROUNDS * len(paper_workload().queries)
    assert result.inserts > 0 and result.deletes > 0
    # Every refresh is counted: scheduler passes and drain fallbacks.
    assert result.refreshes_succeeded == sum(result.final_epochs.values())

    if failure_rate:
        assert result.faults_injected["storage_faults"] > 0
    else:
        assert result.faults_injected == {}
        assert result.retries == 0
    if maintenance == "defer":
        assert result.refreshes_succeeded >= result.rounds
        assert any(epoch > 0 for epoch in result.final_epochs.values())
        if failure_rate:
            assert result.refreshes_attempted > result.refreshes_succeeded, (
                "a 30% failure rate should force at least one retry"
            )
    else:
        assert result.records_appended > 0
        assert result.drains >= result.rounds
        assert result.digest == STREAM_DIGESTS[seed]
        if failure_rate:
            # Faulted delta commits degrade views to batch recompute.
            assert result.views_recomputed > 0

    again = run(maintenance, failure_rate, seed)
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
        result.to_dict(), sort_keys=True
    )
    other = runs(maintenance, failure_rate, 15 - seed)
    assert other.digest != result.digest
    assert other.to_dict() != result.to_dict()


def test_tight_retention_drops_records():
    policy = StreamingPolicy(retention=2, max_lag_records=2)
    with pytest.warns(Warning):
        result = run("stream", 0.0, 7, streaming_policy=policy)
    assert result.records_dropped > 0
    assert result.ok  # dropped history degrades to recompute, not loss


def test_to_dict_sections():
    document = run("defer", 0.0, 7).to_dict()
    assert document["ok"] is True
    assert document["maintenance"] == "defer"
    for section in ("changes", "drains", "refreshes", "staleness", "queries"):
        assert section in document, section
    assert json.loads(json.dumps(document)) == document


@pytest.mark.parametrize(
    "kwargs",
    (
        {"rounds": 0},  # used to return ok=True having run no query
        {"scale": 0.0},
        {"failure_rate": -0.1},
        {"failure_rate": 1.5},
        {"maintenance": "recompute"},
    ),
    ids=("rounds", "scale", "rate-low", "rate-high", "maintenance"),
)
def test_bad_inputs_rejected(kwargs):
    with pytest.raises(WarehouseError):
        simulate_lifecycle(**kwargs)


def test_row_multiset_ignores_order_but_counts_duplicates():
    a = [{"x": 1, "y": "a"}, {"y": "b", "x": 2}]
    assert row_multiset(a) == row_multiset(list(reversed(a)))
    assert row_multiset(a) != row_multiset(a + [a[0]])


def test_row_multiset_orders_nulls_first():
    rows = [{"x": 1, "y": 5}, {"x": 1, "y": None}, {"x": 0, "y": "a3"}]
    assert row_multiset(rows[:2]) == [
        (("x", 1), ("y", None)),
        (("x", 1), ("y", 5)),
    ]
    null_free = [{"x": 2, "y": "b"}, {"x": 1, "y": "c"}, {"x": 1, "y": "a"}]
    assert row_multiset(null_free) == sorted(
        tuple(sorted(row.items())) for row in null_free
    )
    assert row_multiset([{"y": "a3"}, {"y": None}])[0] == (("y", None),)
