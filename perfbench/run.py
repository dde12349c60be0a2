"""Run one sparselab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, the run length
the bounds there were set for.

The load is a closed loop with one client.  Every CLI call runs in a fresh
worker process (``worker.py``) that starts only after the previous one has
ended, and every report it writes is checked (``workloads.py``).  A run:

1. writes the workload's input file, if it has one, from the seed;
2. repeats a round until ``--seconds`` are used, and at least once.  A round
   is ``PROBES_PER_ROUND`` workers that only import sparselab, for set-up
   time, followed by the workload's CLI call; with ``--trace 1`` an untraced
   call and then a traced one (``tracing.py``);
3. starts more import-only workers, if needed, until the run has
   ``SETUP_PROBES`` of them.

``wall_s`` is the median of the run's untraced calls, ``setup_s`` the median
set-up time of all the run's workers, which are spread over the whole run,
and ``trace.overhead_s`` the median traced call minus the median untraced
one.  Medians, not the fastest sample: on a shared virtual machine whose
speed changes for seconds to minutes at a time, the median of a run moved
less from run to run than its fastest sample did.

Every worker runs with ``THREADS`` BLAS and OpenMP threads.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
samples, the error rate, the environment and, in a traced run, any traced
function that was not found and so reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Workload, check_report, load_references

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
THREADS = 1  # one BLAS/OpenMP thread per worker fits every machine's nproc
SETUP_PROBES = 6
PROBES_PER_ROUND = 2
RUN_LIMIT_S = 150.0  # calls are planned to end by this; a hung worker is killed 15 s after it
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Run:
    """One run of one workload: its worker launches, in order, and their results."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = root / WORK_DIR / workload.name
        self.h_file = self.work / "h.edges"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.references = load_references()
        self.launches = 0
        self.calls = 0
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def launch(self, argv: list[str] | None, trace: bool = False) -> dict:
        """Start one worker, wait for it, and return its result file's contents."""
        self.launches += 1
        result_path = self.work / f"result{self.launches}.json"
        spec = {"root": str(self.root), "argv": argv, "trace": trace, "run": self.launches, "result": str(result_path)}
        launched_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "worker.py"), str(launched_ns), json.dumps(spec)]
        timeout = max(1.0, self.deadline + 15.0 - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=_worker_env(), capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"worker killed after {timeout:.0f} s", "timed_out": True}
        if proc.returncode != 0 or not result_path.is_file():
            return {"error": f"worker exited with code {proc.returncode}: {proc.stderr[-2000:]}"}
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def prepare(self) -> None:
        """Write the workload's input file from the seed, untimed."""
        generate = self.workload.generate_command(self.seed, str(self.h_file))
        if generate is not None:
            res = self.launch(generate)
            if "error" in res or res.get("exit_code") != 0:
                raise BenchmarkError(f"writing the input failed: {res.get('error') or res.get('exit_code')}")

    def call(self, trace: bool) -> dict:
        """One checked CLI call of the workload."""
        self.calls += 1
        report_path = self.work / f"report{self.calls}.json"
        result = self.launch(self.workload.command(self.seed, str(self.h_file)) + ["--out", str(report_path)], trace)
        if "error" in result:
            problems = [result["error"]]
        elif result.get("exit_code") != 0:
            problems = [f"exit code {result.get('exit_code')}"]
        else:
            try:
                with open(report_path, encoding="utf-8") as fh:
                    result["report"] = json.load(fh)
            except (OSError, ValueError) as exc:
                problems = [f"unreadable report: {exc}"]
            else:
                problems = check_report(self.workload, result["report"], self.seed, self.references)
        result["problems"] = problems
        for problem in problems:
            print(f"{self.workload.name} seed {self.seed}: {problem}", file=sys.stderr)
        return result


def _median(xs) -> float:
    return float(statistics.median(xs))


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path = ROOT):
    """Measure one workload; returns (summary, result) as printed."""
    r = Run(workload, seed, root)
    r.prepare()
    probes = []

    def probe() -> None:
        res = r.launch(None)
        if "error" in res:
            raise BenchmarkError(f"importing sparselab failed: {res['error']}")
        probes.append(res)

    untraced, traced, rounds = [], [], []
    window_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for _ in range(PROBES_PER_ROUND):
            probe()
        untraced.append(r.call(False))
        if trace:
            traced.append(r.call(True))
        now = time.monotonic()
        rounds.append(now - t0)
        typical = _median(rounds)
        if any("timed_out" in c for c in untraced + traced):
            break
        if now - window_start + typical > seconds or now + typical > r.deadline:
            break
    while len(probes) < SETUP_PROBES:
        probe()

    calls = untraced + traced
    failed = sum(1 for c in calls if c["problems"])
    good = [c for c in untraced if not c["problems"]] or untraced
    walls = [c["wall_s"] for c in good if "wall_s" in c]
    if not walls:
        raise BenchmarkError("no call produced a timing")
    setup = [c["setup_s"] for c in probes + calls if "setup_s" in c]
    rss_mb = [c["max_rss_kib"] * 1024 / 1e6 for c in good if "max_rss_kib" in c]

    if trace:
        per_call = [tracing.layer_metrics(c["trace"]) for c in traced if "trace" in c]
        if not per_call:
            raise BenchmarkError("no traced call produced a trace")
        values = tracing.median_metrics(per_call)
        values["trace.overhead_s"] = _median(c["wall_s"] for c in traced if "trace" in c) - _median(walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.UNITS.items()}
    else:
        values = {"wall_s": _median(walls), "setup_s": _median(setup), "peak_rss_mb": _median(rss_mb)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    not_wrapped = sorted({name for c in traced for name in c.get("not_wrapped", ())})
    for name in not_wrapped:
        print(f"{workload.name}: traced function {name} not found; its layer metrics read 0", file=sys.stderr)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "untraced_calls": len(untraced),
        "traced_calls": len(traced),
        "samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss_mb},
        "error_rate": {"value": failed / len(calls), "unit": "1"},
        "not_wrapped": not_wrapped,
        "env": {"threads": THREADS, "nproc": os.cpu_count(), "git_commit": _git_commit(root), **probes[0].get("versions", {})},
    }
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}
    return summary, result


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (root / "src" / "sparselab" / "__init__.py").is_file():
        print(f"error: no sparselab sources under {root / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    try:
        summary, result = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace), root)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
