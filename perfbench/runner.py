"""Run CLI jobs in-process, time them, and check what they wrote.

Each job is one call of ``groupwindows.cli.main(argv)``.  A SIGALRM timer
bounds it without a thread or a process.  After the timed call the job's
output files are hashed and compared with the exit code and SHA-256 recorded
for the same job in ``reference.json``.  Jobs that have no recorded output
(ladder checks above the largest recorded window, or a verify whose
synthesize was refused when the reference was taken) are checked by meaning.

Other tenants of the host slow it by up to 2x for seconds to minutes at a
time.  So that runs compare, the runner times a fixed pure-Python gauge
(``probe``) at least every PROBE_EVERY_S between calls, and ``at_reference``
rescales a call's time by the mean gauge time within PROBE_WINDOW_S of it:
the call's time at the speed at which the gauge takes PROBE_REF_S.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass

from workloads import Job, witness_problem

EXIT_INPUT_ERROR = 3
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0  # probes this close to a call set its rescaling
# The gauge's time on a quiet 2-core host of the kind the baseline ran on.
PROBE_REF_S = 0.003


def probe() -> float:
    """Time a fixed pure-Python workload: tuples, a set and a sort, as the program does."""
    start = time.perf_counter()
    seen, items = set(), []
    for i in range(6000):
        v = (i * 7919 % 1021, i % 17, i * i % 13)
        if v not in seen:
            seen.add(v)
            items.append(v)
    items.sort()
    return time.perf_counter() - start


class OverBudget(BaseException):
    """Raised from SIGALRM.  Not an Exception, so the program cannot catch it."""


def _alarm(signum, frame):
    raise OverBudget()


# Statuses that count as a failed job, and those that also mean the program
# produced a wrong result.
FAILED = {"refused", "timeout", "raised", "mismatch", "wrong"}
INCORRECT = {"raised", "mismatch", "wrong"}


@dataclass
class Outcome:
    job: Job
    code: int | None
    start: float
    seconds: float
    status: str  # "ok", "over-budget" or one of FAILED
    detail: str = ""
    digest: str | None = None


def output_digest(out_dir) -> str | None:
    """SHA-256 of the job's output file; for several files, of their sha256sum listing."""
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    if not files:
        return None
    sums = [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in files]
    if len(sums) == 1:
        return sums[0][1]
    listing = "".join(f"{h}  {name}\n" for name, h in sums)
    return hashlib.sha256(listing.encode()).hexdigest()


class Runner:
    def __init__(self, reference: dict, main=None):
        self.main = main  # groupwindows.cli.main of the current import
        self.expected = reference["jobs"]
        self.ladder_max = reference["ladder_max_window"]
        self.last_code: dict[str, int | None] = {}
        self.probe_at: list[float] = []
        self.probe_s: list[float] = []
        self._sink = open(os.devnull, "w")
        signal.signal(signal.SIGALRM, _alarm)

    def close(self):
        self._sink.close()

    def gauge(self):
        """Time the probe, unless that was done less than PROBE_EVERY_S ago."""
        now = time.perf_counter()
        if not self.probe_at or now - self.probe_at[-1] >= PROBE_EVERY_S:
            self.probe_s.append(probe())
            self.probe_at.append(now)

    def at_reference(self, start: float, seconds: float) -> float:
        """``seconds`` from ``start``, rescaled by the mean probe time around that interval."""
        lo = bisect.bisect_left(self.probe_at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.probe_at, start + seconds + PROBE_WINDOW_S)
        near = self.probe_s[lo:hi] or self.probe_s[max(lo - 1, 0):lo + 1]
        return seconds * PROBE_REF_S * len(near) / sum(near)

    def run(self, job: Job, budget: float, *, over_budget="timeout") -> Outcome | None:
        """Run one job within ``budget`` seconds; None if the synthesize it reads failed."""
        if job.needs and self.last_code.get(job.needs) != 0:
            return None
        job.out_dir.mkdir(parents=True, exist_ok=True)
        for entry in os.scandir(job.out_dir):
            os.unlink(entry.path)
        code, status, detail = None, None, ""
        self.gauge()
        signal.setitimer(signal.ITIMER_REAL, budget)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
                code = self.main(job.argv)
        except OverBudget:
            status = over_budget
        except Exception as exc:  # a crash of the program is a result to report
            status, detail = "raised", f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        self.gauge()
        self.last_code[job.key] = code
        digest = output_digest(job.out_dir)
        if status is None:
            status, detail = self._check(job, code, digest)
        return Outcome(job, code, start, seconds, status, detail, digest)

    def _check(self, job: Job, code: int, digest: str | None) -> tuple[str, str]:
        ref = self.expected.get(job.key)
        if ref is not None:
            if [code, digest] != ref:
                return "mismatch", f"exit {code} digest {digest} != recorded {ref}"
        else:
            problem = self._meaning(job, code)
            if problem:
                return "wrong", problem
        if code == EXIT_INPUT_ERROR:
            return "refused", "exit 3 on a well-formed input"
        return "ok", ""

    def _meaning(self, job: Job, code: int) -> str | None:
        name = job.key.rsplit("/", 1)[1]
        if job.key.startswith("template/"):
            ref = self.expected.get(f"template/{self.ladder_max}/{name}")
            expected = ref[0] if ref else None
        elif name == "verify":
            expected = 0
        else:
            return "no recorded output for this job"
        if code != expected:
            return f"exit {code}, expected {expected} as at the recorded windows"
        out = job.out_dir / "out.json"
        if name in ("check-order-controllable", "verify") and not out.is_file():
            return "no output file"
        if name == "check-order-controllable":
            return witness_problem(json.loads(out.read_text()), job.window)
        if name == "verify" and json.loads(out.read_text()).get("pass") is not True:
            return "verify report does not pass"
        return None
