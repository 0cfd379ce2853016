"""Record the default-seed output digests that run.py compares jobs against.

    python3 perfbench/record_expected.py

Runs one round of every workload at the default seed and writes the SHA-256
of each job's captured stdout and output files to ``expected.json``. Only
re-record when a change is meant to alter the program's output, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    recorded = {}
    for name in workloads.WORKLOADS:
        workdir = run.ROOT / ".perfbench_tmp" / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, cli, jobs, _ = run.setup(name, workloads.DEFAULT_SEED, workdir)
            _, _, results = run.run_round(cli, jobs)
            failures = run.verify_round(name, jobs, results, {}, {})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failures:
            print(f"{name}: not recording, jobs fail: {failures[:5]}", file=sys.stderr)
            return 1
        recorded[name] = {job.id: run.digest(results[job.id]) for job in jobs}
        print(f"{name}: {len(jobs)} jobs recorded")
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
