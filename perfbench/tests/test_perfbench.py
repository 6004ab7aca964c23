"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from workloads import WORKLOADS, stream_fingerprint  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_bit_identical_per_seed_and_differs_across_seeds(name):
    workload = WORKLOADS[name]
    first = stream_fingerprint(workload.stream(7), 50)
    assert first == stream_fingerprint(workload.stream(7), 50)
    assert first != stream_fingerprint(workload.stream(8), 50)


def test_spec_names_and_units_are_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = []
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
        names.append(metric["name"])
    for workload in SPEC["workloads"]:
        assert NAME.match(workload["name"])
        names.append(workload["name"])
    assert len(names) == len(set(names))
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_document_validates_against_spec(trace):
    stamp, doc = result_of(
        run_bench("--workload", "serve", "--seed", "3", "--seconds", "0.5",
                  "--trace", trace)
    )
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = doc["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    for key in ("python", "nproc", "platform", "engine", "seed", "scale", "k"):
        assert key in stamp
    if trace == "0":
        assert all(entry["value"] > 0 for entry in doc["metrics"].values())


def test_design_digests_and_costs_repeat_across_processes():
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        runs.append(result_of(
            run_bench("--workload", "design", "--seed", "5", "--seconds",
                      "0.1", "--trace", "0", env=env)
        ))
    (stamp_a, doc_a), (stamp_b, doc_b) = runs
    assert stamp_a["design_digests"] == stamp_b["design_digests"]
    assert len(stamp_a["design_digests"]) == len(
        next(WORKLOADS["design"].stream(5))
    )
    assert (doc_a["metrics"]["design_cost"]["value"]
            == doc_b["metrics"]["design_cost"]["value"])


def test_a_failed_op_fails_the_run(monkeypatch, capsys):
    import run

    def fail(context, op):
        raise RuntimeError("injected")

    monkeypatch.setattr(WORKLOADS["serve"], "execute", fail)
    assert run.main(["--workload", "serve", "--seed", "1", "--seconds", "0.2",
                     "--trace", "0"]) == 1
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] == doc["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "serve", "--seed", "1", "--seconds", "1",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
