#!/usr/bin/env python3
"""Record reference.json: each job's exit code and output SHA-256.

    python3 perfbench/record.py

Climbs the template ladder while each check finishes within the ladder
budget, and records those checks, the pipeline jobs and every job of the
random-groups pool.  The benchmark compares its runs with this file, so
record only from a commit whose outputs are trusted; a change that alters
outputs on purpose records them again and says why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads
from runner import Runner


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner({"jobs": {}, "ladder_max_window": 0}, run.fresh_cli().main)
    recorded = {}

    def keep(outcome):
        entry = [outcome.code, outcome.digest]
        if recorded.setdefault(outcome.job.key, entry) != entry:
            raise SystemExit(f"{outcome.job.key}: two runs gave different outputs")

    try:
        steps, pipeline = workloads.template_jobs(work)
        checks, ladder_max, _ = run.climb(runner, steps, float("inf"))
        for outcome in checks:
            keep(outcome)
        jobs = pipeline + workloads.random_jobs(work, seed=0)
        for job in jobs:
            outcome = runner.run(job, run.JOB_BUDGET)
            if outcome is not None:
                keep(outcome)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(recorded.items()))
    text = f'{{"ladder_max_window": {ladder_max},\n "jobs": {{\n{lines}\n }}\n}}\n'
    (run.HERE / "reference.json").write_text(text)
    print(f"recorded {len(recorded)} jobs; ladder checks up to window {ladder_max}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
