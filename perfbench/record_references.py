"""Record the reference report fields that ``workloads.check_report`` compares
at the default seed.

    python3 perfbench/record_references.py

Runs each workload's CLI call once at ``DEFAULT_SEED`` and rewrites
``references.json``.  Run it only on a commit whose results are the accepted
ones; the file in the repository was recorded from the seed commit.
"""

import json

from run import ROOT, Run
from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS


def main() -> int:
    recorded = {}
    for workload in WORKLOADS.values():
        r = Run(workload, DEFAULT_SEED, ROOT)
        r.references = {}
        r.prepare()
        result = r.call(False)
        if result["problems"]:
            print(f"{workload.name}: {result['problems']}")
            return 1
        recorded[workload.name] = workload.fields(result["report"])
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
