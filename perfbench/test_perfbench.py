"""Self-test of the benchmark: generator, outcome gate, tracer, BENCHMARK.json.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench

One round of every workload runs on the default seed and on one other seed
(about a minute); every family a workload names must appear and every run
must match its expected outcome.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import lecplast as lp  # noqa: E402
import lecplast.cli  # noqa: E402

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def one_round(name, seed, directory):
    workload = corpus.WORKLOADS[name]
    rounds = corpus.write_corpus(workload, seed, str(directory), rounds=1)
    return workload, rounds[0], worker.Runner(lp.cli, seed, str(directory))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_round_has_every_family_and_no_failure(name, seed, tmp_path):
    workload, items, runner = one_round(name, seed, tmp_path)
    assert {item.stratum.family for item in items} == set(workload.families)
    tally = worker.Tally()
    for item in items:
        worker.run_item(runner, item, tally, replay=True)
    assert tally.attempted == len(items)
    assert tally.failures == []


def test_generation_is_deterministic_in_the_seed():
    workload = corpus.WORKLOADS["screen"]
    first = corpus.generate(workload, 3, rounds=2)
    assert first == corpus.generate(workload, 3, rounds=2)
    assert first != corpus.generate(workload, 4, rounds=2)
    assert first != corpus.generate(workload, 3, rounds=2, stream="warm-up")


def test_gate_rejects_a_wrong_expectation(tmp_path):
    _, items, runner = one_round("screen", 0, tmp_path)
    for item in items:
        _, got = runner.call(item)
        assert worker.mismatch(item, got) is None
        wrong = dict(item.expected, exit=2 if item.expected["exit"] != 2 else 0)
        assert worker.mismatch(dataclasses.replace(item, expected=wrong), got) is not None


def test_traced_counts_repeat_and_tracer_restores(tmp_path):
    _, items, runner = one_round("screen", 0, tmp_path)
    main_before = lp.cli.main
    results = []
    for _ in range(2):
        tracer, tally = tracing.Tracer(), worker.Tally()
        tracer.install(lp)
        try:
            for item in items:
                worker.run_item(runner, item, tally, replay=False)
        finally:
            tracer.uninstall()
        results.append(tracing.derive(tracer.spans, tally.harness()))
    assert lp.cli.main is main_before
    assert lp.verify.np is sys.modules["numpy"]
    first, second = results
    counts = {k: v for k, v in first.items() if tracing.is_exact(k)}
    assert counts == {k: second[k] for k in counts}
    assert first["spectrum.parse_calls"] > 0 and first["measures.quantile_calls"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.LAYER_METRICS]


def test_rewrite_in_place_leaves_only_the_new_bytes(tmp_path):
    path = str(tmp_path / "d.json")
    corpus._write_in_place(path, "x" * 100)
    corpus._write_in_place(path, "short")
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "short"


def test_untraced_run_spreads_its_setups(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "screen", "--seed", "7", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, run.OUT_DIR, "screen-seed7-trace0.record.json"),
              encoding="utf-8") as handle:
        record = json.load(handle)
    assert len(record["setups"]) == run.SETUP_RUNS
    assert not os.path.exists(corpus.work_dir(os.path.join(ROOT, run.OUT_DIR), "screen", 7))
