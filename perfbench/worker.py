"""One benchmark worker process: import sparselab from the checkout, make at
most one ``sparselab.cli.main`` call, and write a result file.

    python3 perfbench/worker.py <launch time, CLOCK_MONOTONIC ns> '<spec JSON>'

The spec gives the checkout root, the CLI arguments (``null`` for a process
that only measures set-up), whether to trace the call, a run id and the path
of the result file.  Set-up time runs from the launch time the parent read
just before starting this process to the end of the import of
``sparselab.cli``, which every CLI invocation pays.
"""

import sys
import time


def main() -> int:
    launched_ns = int(sys.argv[1])
    import json
    from pathlib import Path

    spec = json.loads(sys.argv[2])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import sparselab.cli

    setup_s = (time.monotonic_ns() - launched_ns) / 1e9
    import resource
    import traceback

    result = {"setup_s": setup_s}
    if Path(sparselab.__file__).resolve().parent != (src / "sparselab").resolve():
        result["error"] = f"imported sparselab from {sparselab.__file__}, not from {src}"
    elif spec["argv"] is None:
        result["versions"] = _versions()
    else:
        recorder = None
        if spec["trace"]:
            import tracing

            recorder = tracing.Recorder(spec["run"])
            originals, result["not_wrapped"] = tracing.instrument(recorder)
            cli_span = recorder.open(tracing.CLI_SPAN)
        t0 = time.perf_counter()
        try:
            result["exit_code"] = sparselab.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            result["exit_code"] = exc.code
        except Exception:
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        if recorder is not None:
            recorder.close(cli_span)
            if "nbwalk.pseudo_girth" in originals:
                tracing.retime_pseudo_girth(recorder, originals["nbwalk.pseudo_girth"])
            result["trace"] = recorder.to_json()
    result["max_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _versions() -> dict:
    from importlib import metadata

    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    raise SystemExit(main())
