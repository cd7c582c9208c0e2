#!/usr/bin/env python3
"""Benchmark of the groupwindows command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, calling ``groupwindows.cli.main(argv)``
on generated input files, one call after another (a closed loop with one
caller and no extra threads).  Every call's exit code and output bytes are
checked against ``reference.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The run context (interpreter, cores, source line count,
ladder step times, tail percentiles, failed jobs) goes to standard error as
one JSON line.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402
from runner import FAILED, INCORRECT, Runner  # noqa: E402
from tracing import Tracer  # noqa: E402

LADDER_BUDGET = 4.0  # seconds at reference speed a ladder check may take
# A ladder check is aborted after this much wall time, which allows for a host
# running at half the reference speed.
LADDER_ABORT_S = 2 * LADDER_BUDGET
JOB_BUDGET = 60.0  # any other job beyond this is a failed job (timeout)
TAIL_PERCENTILES = (99.9, 99, 95, 90)
TIMED_COMMANDS = ("check", "synthesize", "verify", "decompose")
TAILED_COMMANDS = ("check", "synthesize", "verify")
# A template pass has few calls, most of them short, and a short call's time
# varies most with the host's other tenants.  So an untraced template pass
# reruns a call back to back until it has run this long, and the call's time
# is the median of more samples.  Random-groups metrics pool hundreds of calls.
RERUN_UNTIL_S = {"template-ladder": 0.05, "random-groups": 0.0}
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "check_s": "s",
    "check_tail_s": "s",
    "synthesize_s": "s",
    "synthesize_tail_s": "s",
    "verify_s": "s",
    "verify_tail_s": "s",
    "decompose_s": "s",
    "max_window": "N",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_cli():
    """Import the program anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "groupwindows" or n.startswith("groupwindows.")]:
        del sys.modules[name]
    return importlib.import_module("groupwindows.cli")


def make_plan(workload: str, seed: int, work: Path):
    if workload == "template-ladder":
        return workloads.template_jobs(work)
    return workloads.random_jobs(work, seed)


def pass_jobs(workload: str, plan, ladder_max: int):
    """The fixed job list of a pass: for the ladder, its recorded steps and the pipeline."""
    if workload == "template-ladder":
        steps, pipeline = plan
        return [job for n, job in steps if n <= ladder_max] + pipeline
    return plan


def run_pass(runner: Runner, jobs, tracer=None, rerun_until=0.0):
    outcomes = []
    for job in jobs:
        if tracer:
            tracer.start_command(job.command)
        spent = 0.0
        while outcome := runner.run(job, JOB_BUDGET):
            outcomes.append(outcome)
            spent += outcome.seconds
            if spent >= rerun_until or outcome.status != "ok":
                break
    return outcomes


def climb(runner: Runner, steps, deadline: float):
    """Run ladder checks in order until one exceeds LADDER_BUDGET or time is up.

    Returns their outcomes, the largest window whose check finished, and why
    the climb stopped (None if it reached the top of the ladder).
    """
    outcomes, top = [], None
    for n, job in steps:
        outcome = runner.run(job, LADDER_ABORT_S, over_budget="over-budget")
        aborted = outcome.status == "over-budget"
        if aborted or runner.at_reference(outcome.start, outcome.seconds) > LADDER_BUDGET:
            return outcomes, top, {"window": n, "reason": f"over the {LADDER_BUDGET} s budget"}
        outcomes.append(outcome)
        top = n
        if time.perf_counter() > deadline:
            return outcomes, top, {"window": n, "reason": "run time used up"}
    return outcomes, top, None


def first_ladder_pass(runner: Runner, plan, deadline: float, rerun_until: float):
    """Pass 1 of the ladder, whose checks climb on above the recorded windows.

    The pass (None if its own checks were cut short) ends before the climb
    goes on, so the peak RSS taken after it excludes the aborted check.
    Returns the pass, the climb's outcomes, that peak RSS and a summary.
    """
    steps, pipeline = plan
    recorded = [s for s in steps if s[0] <= runner.ladder_max]
    first, top, cut = climb(runner, recorded, deadline)
    above, rss = [], None
    if cut is None:
        first += run_pass(runner, pipeline, rerun_until=rerun_until)
        rss = peak_rss_mb()
        above, higher, cut = climb(runner, steps[len(recorded):], deadline)
        top = higher or top
    else:
        first = None
    summary = {
        "max_window": top or 0,
        "cut": cut,
        "check_seconds": {
            o.job.window: runner.at_reference(o.start, o.seconds)
            for o in (first or [])[: len(recorded)] + above
        },
    }
    return first, above, rss, summary


def measure(workload: str, seed: int, work: Path, runner: Runner, seconds: float, tracer=None):
    """Set up afresh and make one pass, again while another is expected to fit.

    Each setup imports the program anew and writes the inputs again,
    so setup times are sampled across the run like the passes.  Untraced,
    the ladder's first pass climbs the ladder.  Traced, passes alternate
    untraced and traced, starting untraced, and no call is rerun.  Returns
    the setups as (start, seconds) pairs, the passes, the ladder's climb, and
    the peak RSS after the first pass.  The RSS is taken after one pass and not
    after all of them, because each re-import leaves some memory behind, so
    after all passes it would depend on how many the host's speed allowed.
    """
    deadline = time.perf_counter() + seconds
    rerun_until = 0.0 if tracer else RERUN_UNTIL_S[workload]
    setups, passes, climbed, rss, took = [], [], None, None, 0.0
    while len(passes) < (2 if tracer else 1) or time.perf_counter() + took < deadline:
        started = time.perf_counter()
        shutil.rmtree(work / "inputs", ignore_errors=True)
        runner.gauge()
        start = time.perf_counter()
        runner.main = fresh_cli().main
        plan = make_plan(workload, seed, work)
        setups.append((start, time.perf_counter() - start))
        runner.gauge()
        if workload == "template-ladder" and tracer is None and climbed is None:
            first, above, rss, summary = first_ladder_pass(runner, plan, deadline, rerun_until)
            climbed = (above, summary)
            if first:
                passes.append(first)
        else:
            traced = tracer if len(passes) % 2 else None
            jobs = pass_jobs(workload, plan, runner.ladder_max)
            if traced:
                traced.install()
            try:
                passes.append(run_pass(runner, jobs, traced, rerun_until))
            finally:
                if traced:
                    traced.uninstall()
            if rss is None:
                rss = peak_rss_mb()
        took = time.perf_counter() - started
    return setups, passes, climbed, rss


def tail(values):
    """The highest of TAIL_PERCENTILES with ten samples beyond it, else the maximum."""
    xs = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100.0


def job_times(runner: Runner, passes) -> dict:
    """(key, command) -> the job's median time over the passes, at reference speed."""
    samples = {}
    for outcomes in passes:
        for o in outcomes:
            if o.code is not None:
                key = (o.job.key, o.job.command)
                samples.setdefault(key, []).append(runner.at_reference(o.start, o.seconds))
    return {key: statistics.median(xs) for key, xs in samples.items()}


def end_to_end(workload: str, runner: Runner, passes, climbed, setups, rss, ok_frac: float):
    """The end-to-end metrics of an untraced run, and the context they need."""
    times = job_times(runner, passes)
    metrics, tails = {}, {}
    for command in TIMED_COMMANDS:
        xs = [t for (_, c), t in times.items() if c == command]
        metrics[f"{command}_s"] = statistics.median(xs)
        value, percentile = tail(xs)
        tails[command] = {"percentile": percentile, "jobs": len(xs)}
        if command in TAILED_COMMANDS:
            metrics[f"{command}_tail_s"] = value
    context = {"tails": tails, "call_seconds_per_pass": [sum(o.seconds for o in p) for p in passes]}
    if workload == "template-ladder":
        context["ladder"] = climbed[1]
        context["ladder"]["job_seconds"] = {k: t for (k, _), t in sorted(times.items())}
        max_window = context["ladder"]["max_window"]
    else:
        max_window = max(o.job.window for p in passes for o in p if o.code is not None)
    metrics.update({
        "setup_s": statistics.median(runner.at_reference(*setup) for setup in setups),
        "pass_s": sum(times.values()),
        "max_window": max_window,
        "peak_rss_mb": rss,
        "ok_frac": ok_frac,
    })
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, context


def per_layer(tracer: Tracer, runner: Runner, passes):
    """Per-layer metrics of the traced (odd) passes, and the tracing overhead."""
    base_s = sum(job_times(runner, passes[0::2]).values())
    traced_s = sum(job_times(runner, passes[1::2]).values())
    metrics = tracer.metrics(len(passes[1::2]))
    metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - base_s, "unit": "s"}
    return metrics, {"untraced_pass_s": base_s}


def failure_summary(outcomes):
    counts = Counter((o.job.key, o.status, o.detail) for o in outcomes if o.status in FAILED)
    return [{"job": k, "status": s, "detail": d, "times": c} for (k, s, d), c in sorted(counts.items())]


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "groupwindows").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groupwindows" / "cli.py").is_file():
        print(f"no groupwindows sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runner = Runner(json.loads((HERE / "reference.json").read_text()))
    tracer = Tracer() if args.trace else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups, passes, climbed, rss = measure(
            args.workload, args.seed, work, runner, args.seconds, tracer
        )
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    outcomes = [o for p in passes for o in p] + (climbed[0] if climbed else [])
    attempted = len(outcomes)
    failed = sum(o.status in FAILED for o in outcomes)
    if tracer:
        metrics, context = per_layer(tracer, runner, passes)
    else:
        ok_frac = 1 - failed / attempted
        metrics, context = end_to_end(args.workload, runner, passes, climbed, setups, rss, ok_frac)
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_line_count(),
        "passes": len(passes),
        "setup_runs_s": [seconds for _, seconds in setups],
        "probe_s": {"min": min(runner.probe_s), "median": statistics.median(runner.probe_s)},
        "failed_frac": failed / attempted,
        "failures": failure_summary(outcomes),
    })
    print(json.dumps({"context": context}), file=sys.stderr)
    print(json.dumps({
        "correct": not any(o.status in INCORRECT for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
