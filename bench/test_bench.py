"""Tests of the benchmark itself, at tiny sizes."""
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

workloads = bench_run.import_workloads(BENCH.parent / "src")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def run_bench(capsys, workload, trace):
    code = bench_run.main(["--workload", workload, "--seed", str(SEED),
                           "--seconds", "0", "--trace", str(trace)],
                          sizes=workloads.TINY)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, workload, trace, section):
    result = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name


def test_corrupted_replay_output_is_a_failed_operation(capsys, monkeypatch):
    real_main = workloads.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == "bound" and "--config" in argv:
            out = Path(argv[argv.index("--out") + 1])
            with (out / "report.json").open("a") as fh:
                fh.write(" ")
        return code

    monkeypatch.setattr(workloads.cli, "main", corrupting_main)
    result = run_bench(capsys, "cli-pipeline", 0)
    assert not result["correct"]
    # every bound replay fails: three warm-ups and the two measured passes
    assert result["failed"] == 5


def test_out_of_tolerance_rate_pull_is_a_failed_operation(capsys, monkeypatch):
    real_fit = workloads.montecarlo.fit_decoherence_rate

    def shifted_fit(estimate):
        fit = real_fit(estimate)
        return dataclasses.replace(fit, rate=fit.rate + 20.0 * fit.stderr)

    monkeypatch.setattr(workloads.montecarlo, "fit_decoherence_rate", shifted_fit)
    result = run_bench(capsys, "mc-gate", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_traced_run_emits_a_span_for_every_per_layer_metric(capsys, tmp_path):
    run_bench(capsys, "mc-short", 1)
    dump = json.loads((tmp_path / ".bench_out" / f"spans-mc-short-seed{SEED}-trace1.json")
                      .read_text())
    spans = dump["spans"]
    names = {s["name"] for s in spans}
    for metric in SPEC["per_layer"]:
        assert set(workloads.SOURCES[metric["name"]]) <= names, metric["name"]
    for s in spans:
        assert set(s) >= {"name", "start", "end", "parent", "request"}
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["request"] == s["request"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    roots = [s for s in spans if s["name"] in ("bench.pass", "bench.probes")]
    assert len({s["request"] for s in roots}) == len(roots)
    assert set(dump["self_time_s"]) >= {"field", "montecarlo", "master", "io",
                                        "bounds", "cli"}


def test_exits_nonzero_without_the_program_sources(capsys, tmp_path):
    code = bench_run.main(["--workload", "mc-gate", "--seed", "1", "--seconds", "1"],
                          root=tmp_path)
    assert code != 0
    assert capsys.readouterr().out == ""


def test_timing_tail_has_ten_samples_above_it():
    summary = bench_run.timing_summary(range(1, 31))
    assert summary == {"median": 15.5, "n": 30, "p66": 20}
    assert bench_run.timing_summary([1.0, 2.0]) == {"median": 1.5, "n": 2}
