"""The benchmark's workloads: the CLI command each one runs and the checks
its report must pass.

Every workload is built by a factory from its size parameters, so the smoke
test can run the same commands and checks at tiny sizes.  In the argument
lists, ``{seed}`` is replaced by the workload seed and ``{h_file}`` by the
edge-list file that the ``generate`` step writes before timing starts.

Two kinds of check apply to a report:

* invariants, at any seed: the report echoes the requested configuration and
  the paper's inequalities and identities hold;
* at ``DEFAULT_SEED`` only, the report matches the values recorded from the
  seed commit in ``references.json``: epsilon and ratio fields to 1e-9
  relative, integer fields exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")
REL_TOL = 1e-9
# The same margins the repository's acceptance criteria 04 and 05 allow.
CUT_VS_SPEC_ATOL = 1e-9
CERT_VS_SPEC_ATOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    invariants: Callable[[dict, int], list[str]]
    fields: Callable[[dict], dict]
    generate: tuple[str, ...] | None = None

    def command(self, seed: int, h_file: str) -> list[str]:
        return [a.format(seed=seed, h_file=h_file) for a in self.argv]

    def generate_command(self, seed: int, h_file: str) -> list[str] | None:
        if self.generate is None:
            return None
        return [a.format(seed=seed, h_file=h_file) for a in self.generate]


def _config_problems(report: dict, subcommand: str, expected: dict) -> list[str]:
    if report.get("subcommand") != subcommand:
        return [f"subcommand is {report.get('subcommand')!r}, expected {subcommand!r}"]
    config = report.get("config", {})
    return [f"config.{k} is {config.get(k)!r}, expected {v!r}" for k, v in expected.items() if config.get(k) != v]


def separation(name: str, n: int, big_degree: int, d: int, g: int) -> Workload:
    def invariants(report: dict, seed: int) -> list[str]:
        problems = _config_problems(
            report, "separation",
            {"n": n, "big_degree": big_degree, "d": d, "g": g, "seeds": 1, "master_seed": seed, "cut_mode": "sampled"},
        )
        records = report.get("records", [])
        if len(records) != 1:
            problems.append(f"{len(records)} records, expected 1")
        for i, r in enumerate(records):
            if not r["eps_cut"] <= r["eps_spec"] + CUT_VS_SPEC_ATOL:
                problems.append(f"records.{i}: eps_cut {r['eps_cut']} > eps_spec {r['eps_spec']}")
            if not r["eps_lb"] <= r["eps_spec_clique"] + CERT_VS_SPEC_ATOL:
                problems.append(f"records.{i}: eps_lb {r['eps_lb']} > eps_spec_clique {r['eps_spec_clique']}")
            if r["identity_checks_ok"] is not True:
                problems.append(f"records.{i}: walk identity checks failed")
        return problems

    def fields(report: dict) -> dict:
        keys = ("eps_cut", "eps_spec", "eps_spec_clique", "eps_lb", "certificate_ratio", "pseudo_girth_F", "pseudo_girth_B")
        return {f"records.{i}.{k}": r[k] for i, r in enumerate(report["records"]) for k in keys}

    argv = (
        "separation", "--n", str(n), "--big-degree", str(big_degree), "--d", str(d), "--g", str(g),
        "--cut-mode", "sampled", "--seeds", "1", "--seed", "{seed}",
    )
    return Workload(name, argv, invariants, fields)


def exhaustive(name: str, n: int, d: int) -> Workload:
    def invariants(report: dict, seed: int) -> list[str]:
        problems = _config_problems(
            report, "clique-sparsify", {"n": n, "d": d, "seeds": 1, "master_seed": seed, "cut_mode": "exhaustive"}
        )
        records = report.get("records", [])
        if len(records) != 1:
            problems.append(f"{len(records)} records, expected 1")
        for i, r in enumerate(records):
            if not r["eps_cut"] <= r["eps_spec"] + CUT_VS_SPEC_ATOL:
                problems.append(f"records.{i}: eps_cut {r['eps_cut']} > eps_spec {r['eps_spec']}")
            examined = sum(row["samples"] for row in r["profile"])
            if examined != 2 ** (n - 1) - 1:
                problems.append(f"records.{i}: profile covers {examined} cuts, expected {2 ** (n - 1) - 1}")
        return problems

    def fields(report: dict) -> dict:
        out = {}
        for i, r in enumerate(report["records"]):
            out[f"records.{i}.eps_cut"] = r["eps_cut"]
            out[f"records.{i}.eps_spec"] = r["eps_spec"]
            for row in r["profile"]:
                out[f"records.{i}.profile.k{row['k']}.samples"] = row["samples"]
        return out

    argv = (
        "clique-sparsify", "--n", str(n), "--d", str(d), "--cut-mode", "exhaustive",
        "--seeds", "1", "--seed", "{seed}",
    )
    return Workload(name, argv, invariants, fields)


def certify(name: str, n: int, d: int, g: int) -> Workload:
    def invariants(report: dict, seed: int) -> list[str]:
        problems = _config_problems(report, "certify", {"n": n, "g": g, "d": float(d), "first_step": "weight"})
        if report.get("identity_checks_ok") is not True:
            problems.append("walk identity checks failed")
        eps = report.get("epsilon_lb")
        if not (isinstance(eps, float) and 0.0 <= eps < 1.0):
            problems.append(f"epsilon_lb {eps!r} outside [0, 1)")
        return problems

    def fields(report: dict) -> dict:
        return {
            "epsilon_lb": report["epsilon_lb"],
            "ratio": report["ratio"],
            "pseudo_girth.F": report["pseudo_girth"]["F"],
            "pseudo_girth.B": report["pseudo_girth"]["B"],
        }

    argv = ("certify", "--h-file", "{h_file}", "--g", str(g), "--d", str(d))
    generate = ("generate", "--n", str(n), "--d", str(d), "--seed", "{seed}", "--out", "{h_file}")
    return Workload(name, argv, invariants, fields, generate)


def martingale_tail(name: str, n: int, k: int, d: int, trials: int, delta: float) -> Workload:
    def invariants(report: dict, seed: int) -> list[str]:
        problems = _config_problems(
            report, "martingale", {"n": n, "k": k, "d": d, "seed": seed, "trials": trials, "delta": delta}
        )
        summary, tail = report.get("trace_summary", {}), report.get("empirical_tail", {})
        if summary.get("x0") != tail.get("expected_interior"):
            problems.append(f"x0 {summary.get('x0')!r} != expected_interior {tail.get('expected_interior')!r}")
        if summary.get("steps") != d * (k - 1):
            problems.append(f"steps {summary.get('steps')!r} != d*(k-1) = {d * (k - 1)}")
        if tail.get("trials") != trials:
            problems.append(f"empirical_tail.trials {tail.get('trials')!r} != {trials}")
        return problems

    def fields(report: dict) -> dict:
        tail = report["empirical_tail"]
        return {
            "empirical_tail.exceedances": tail["exceedances"],
            "empirical_tail.empirical_prob": tail["empirical_prob"],
            "empirical_tail.sample_mean_interior": tail["sample_mean_interior"],
        }

    argv = (
        "martingale", "--n", str(n), "--k", str(k), "--d", str(d), "--trials", str(trials),
        "--delta", repr(delta), "--seed", "{seed}",
    )
    return Workload(name, argv, invariants, fields)


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        separation("separation_n1000", n=1000, big_degree=16, d=4, g=2),
        exhaustive("exhaustive_n24", n=24, d=8),
        certify("certify_n2000_g3", n=2000, d=8, g=3),
        martingale_tail("martingale_tail", n=200, k=2, d=16, trials=10000, delta=36.75),
    )
}


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def reference_problems(actual: dict, expected: dict) -> list[str]:
    """Compare recorded fields: integers exactly, floats to REL_TOL relative."""
    problems = []
    for key, want in expected.items():
        got = actual.get(key)
        if isinstance(want, float):
            ok = isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            ok = type(got) is type(want) and got == want
        if not ok:
            problems.append(f"{key} is {got!r}, seed commit recorded {want!r}")
    if set(actual) != set(expected):
        problems.append(f"fields {sorted(set(actual) ^ set(expected))} differ from the recorded set")
    return problems


def check_report(workload: Workload, report: dict, seed: int, references: dict) -> list[str]:
    """Every problem found in a report; an empty list means the report passes."""
    try:
        problems = workload.invariants(report, seed)
        recorded = references.get(workload.name)
        if seed == DEFAULT_SEED and recorded is not None:
            problems += reference_problems(workload.fields(report), recorded)
    except (KeyError, TypeError, AttributeError) as exc:
        problems = [f"malformed report: {type(exc).__name__}: {exc}"]
    return problems
