"""Smoke test of the benchmark on tiny versions of its workloads.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload's command and checks at a tiny size through the same
``run.main``, asserts that every metric BENCHMARK.json names is printed with
its unit, and that a tampered report is counted as a failure.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import certify, exhaustive, martingale_tail, separation  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    w.name: w
    for w in (
        separation("separation_tiny", n=16, big_degree=8, d=4, g=2),
        exhaustive("exhaustive_tiny", n=10, d=4),
        certify("certify_tiny", n=40, d=8, g=2),
        martingale_tail("martingale_tiny", n=20, k=2, d=4, trials=200, delta=5.0),
    )
}


def _run(capsys, name: str, trace: int, seed: int = 3, table: dict = TINY) -> dict:
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)], workloads=table)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1])


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, name, trace, section):
    result = _run(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def _tampered(workload, tamper):
    def invariants(report, seed):
        tamper(report)
        return workload.invariants(report, seed)

    return dataclasses.replace(workload, invariants=invariants)


def test_tampered_report_counts_as_failure(capsys):
    def lift_certificate(report):
        rec = report["records"][0]
        rec["eps_lb"] = rec["eps_spec_clique"] + 0.01

    table = {"separation_tiny": _tampered(TINY["separation_tiny"], lift_certificate)}
    result = _run(capsys, "separation_tiny", 0, table=table)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_default_seed_report_matches_the_seed_commit(capsys):
    workload = workloads.WORKLOADS["exhaustive_n24"]
    result = _run(capsys, workload.name, 0, seed=workloads.DEFAULT_SEED, table=workloads.WORKLOADS)
    assert result["correct"] is True
    work = run.ROOT / run.WORK_DIR / workload.name
    report = json.loads(next(work.glob("report*.json")).read_text())
    references = workloads.load_references()
    assert workloads.check_report(workload, report, workloads.DEFAULT_SEED, references) == []

    report["records"][0]["eps_cut"] *= 1 + 1e-7
    assert workloads.check_report(workload, report, workloads.DEFAULT_SEED, references)
    report["records"][0]["eps_cut"] /= 1 + 1e-7
    report["records"][0]["profile"][0]["samples"] += 1
    assert workloads.check_report(workload, report, workloads.DEFAULT_SEED, references)
    assert any("profile covers" in p for p in workload.invariants(report, workloads.DEFAULT_SEED))


def test_traced_name_not_found_is_reported(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    monkeypatch.setitem(tracing.TRACED, "graph", tracing.TRACED["graph"] + ("no_such_function",))
    before = set(sys.modules)
    try:
        import sparselab.cli  # noqa: F401

        originals, missing = tracing.instrument(tracing.Recorder(0))
    finally:
        for name in set(sys.modules) - before:
            if name.split(".")[0] == "sparselab":
                del sys.modules[name]
    assert missing == ["graph.no_such_function"]
    assert "graph.make_clique" in originals


def test_no_result_without_the_program(capsys, tmp_path):
    assert run.main(["--workload", "exhaustive_n24"], root=tmp_path) != 0
    assert capsys.readouterr().out == ""
