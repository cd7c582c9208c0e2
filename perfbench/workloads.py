"""Inputs and job lists of the groupwindows benchmark workloads.

The template workloads run the paper's running example: Z(4) coordinates, a
fixed generator (2, 1) and the pattern (1, 1) shifted along the axis.  Their
input is that one template file, so it does not depend on the seed.

The random-groups workload runs a fixed pool of group files.  The small
groups come from ports of ``random_staggered_group`` and
``random_mixed_group`` (kept here so that a test edit cannot change the
workload), alternated and drawn from ``POOL_SEED``.  The big-moduli groups
have coordinates Z(p) and Z(p^2) for one prime p between 10^4 and 10^6.  The
pool is fixed so that every job's exit code and output bytes can be compared
with those recorded in ``reference.json``; the seed shuffles the order in
which the groups reach the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

TEMPLATE = {
    "component_template": {"period": 1, "orders": [[4]]},
    "fixed_generators": [{"support": {"1": [2], "2": [1]}}],
    "shifted_generators": [{"start": 2, "stride": 1, "pattern": {"0": [1], "1": [1]}}],
}

PROPERTIES = (
    "weakly-controllable",
    "controllable",
    "order-controllable",
    "weakly-observable",
    "rectangular",
)
# Big moduli run only what the program decides without listing elements.
BIG_PROPERTIES = ("weakly-controllable", "controllable", "weakly-observable", "rectangular")

# The capacity ladder: this check at these window lengths, climbed in order.
LADDER_PROPERTY = "order-controllable"
LADDER = (4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64)
PIPELINE_WINDOWS = (4, 5, 6, 7, 8)

POOL_SEED = 7
SMALL_GROUPS = 200
# One big-moduli group follows every BIG_EVERY small groups in the pool.
BIG_EVERY = 25

WORKLOADS = ("template-ladder", "random-groups")


@dataclass(eq=False)
class Job:
    """One CLI call: its reference key, argv and the directory it writes."""

    key: str
    command: str
    argv: list
    out_dir: Path
    window: int
    needs: str | None = None  # key of the synthesize job a verify reads


# -- exact lattice arithmetic for generating and checking inputs ----------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


class Lattice:
    """Echelon basis of the span of ``vectors`` and every m_f * e_f.

    An independent stand-in for the subgroup of Z(m_1) x ... x Z(m_F) the
    vectors generate: it decides the order the generators filter on and the
    witness membership the ladder checks, without the program's code.
    """

    def __init__(self, mods, vectors):
        self.mods = list(mods)
        self.rows = [[m if k == f else 0 for k in range(len(mods))] for f, m in enumerate(mods)]
        for v in vectors:
            self._insert([x % m for x, m in zip(v, self.mods)])

    def _insert(self, v):
        for f in range(len(self.mods)):
            if v[f] == 0:
                continue
            piv = self.rows[f]
            g, x, y = _xgcd(piv[f], v[f])
            a, b = piv[f] // g, v[f] // g
            new = [x * p + y * q for p, q in zip(piv, v)]
            v = [a * q - b * p for p, q in zip(piv, v)]
            for k in range(f + 1, len(self.mods)):
                new[k] %= self.mods[k]
                v[k] %= self.mods[k]
            self.rows[f] = new

    def order(self) -> int:
        n = 1
        for f, m in enumerate(self.mods):
            n *= m // self.rows[f][f]
        return n

    def contains(self, w) -> bool:
        w = [x % m for x, m in zip(w, self.mods)]
        for f, row in enumerate(self.rows):
            q, r = divmod(w[f], row[f])
            if r:
                return False
            w = [(a - q * b) % m for a, b, m in zip(w, row, self.mods)]
        return True


# -- group generators --------------------------------------------------------


def _group(components, flats, max_order):
    """The group file of the generators, or None if trivial or too large."""
    mods = [m for comp in components for m in comp]
    order = Lattice(mods, flats).order()
    if order > max_order or order == 1:
        return None
    gens = []
    for flat in flats:
        it = iter(flat)
        gens.append([[next(it) for _ in comp] for comp in components])
    return {"components": [list(c) for c in components], "generators": gens}


def random_staggered_group(rng: random.Random, p: int, max_order=1 << 10):
    """Port of the tests' generator: one interval-supported generator per start."""
    n = rng.randint(3, 5)
    mods = [p ** rng.randint(1, 2) for _ in range(n)]
    flats = []
    for start in range(n):
        if rng.random() < 0.25 and start > 0:
            continue
        width = 1 if start == n - 1 else rng.randint(1, 2)
        flat = [0] * n
        for c in range(start, min(start + width, n)):
            flat[c] = rng.randrange(mods[c])
        if not flat[start]:
            flat[start] = max(1, mods[start] // p)
        flats.append(flat)
    return _group([(m,) for m in mods], flats, max_order)


def random_mixed_group(rng: random.Random, max_order=1 << 12):
    """Port of the tests' generator: small mixed-prime coordinate shapes."""
    shapes = [(2,), (4,), (3,), (9,), (2, 3)]
    n = rng.randint(2, 4)
    comps = [rng.choice(shapes) for _ in range(n)]
    starts = [sum(len(c) for c in comps[:i]) for i in range(n + 1)]
    mods = [m for c in comps for m in c]
    flats = []
    for _ in range(rng.randint(1, 3)):
        start = rng.randint(1, n)
        width = rng.randint(1, 2)
        flat = [0] * len(mods)
        for c in range(start, min(start + width - 1, n) + 1):
            for f in range(starts[c - 1], starts[c]):
                flat[f] = rng.randrange(mods[f])
        flats.append(flat)
    return _group(comps, flats, max_order)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def random_big_moduli_group(rng: random.Random):
    """Staggered generators over Z(p) and Z(p^2), p a prime in [10^4, 10^6].

    A unit leads every generator, so the controllability checks hold and the
    program decides every command run on it by lattice arithmetic alone.
    """
    p = int(10 ** rng.uniform(4, 6))
    while not _is_prime(p):
        p += 1
    n = rng.randint(2, 4)
    mods = [p ** rng.randint(1, 2) for _ in range(n)]
    flats = []
    for start in range(n):
        width = 1 if start == n - 1 else rng.randint(1, 2)
        flat = [0] * n
        for c in range(start, start + width):
            flat[c] = rng.randrange(mods[c])
        if flat[start] % p == 0:
            flat[start] += 1
        flats.append(flat)
    return _group([(m,) for m in mods], flats, max_order=float("inf"))


def group_pool() -> list[tuple[str, dict]]:
    """The random-groups pool as (name, group file payload) pairs."""
    rng = random.Random(POOL_SEED)
    small = []
    while len(small) < SMALL_GROUPS:
        if len(small) % 2 == 0:
            g = random_staggered_group(rng, rng.choice((2, 3, 5)))
        else:
            g = random_mixed_group(rng)
        if g is not None:
            small.append(g)
    big_rng = random.Random(f"big-moduli-{POOL_SEED}")
    pool = []
    for i, g in enumerate(small):
        pool.append((f"g{i:03d}", g))
        if (i + 1) % BIG_EVERY == 0:
            k = (i + 1) // BIG_EVERY - 1
            pool.append((f"b{k:02d}", random_big_moduli_group(big_rng)))
    return pool


# -- job lists ---------------------------------------------------------------


def _write(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True))
    return path


def _job(work: Path, key: str, command: str, args: list, window: int, needs=None) -> Job:
    out_dir = work / "out" / key
    out_name = {"synthesize": "enc.json"}.get(command, "out.json")
    argv = [command, *map(str, args), "--out", str(out_dir / out_name)]
    return Job(key, command, argv, out_dir, window, needs)


def _out(work: Path, key: str, name: str) -> Path:
    return work / "out" / key / name


def _check(work: Path, template: Path, n: int, prop: str) -> Job:
    return _job(work, f"template/{n}/check-{prop}", "check",
                ["--input", template, "--property", prop, "--window", n], n)


def template_jobs(work: Path) -> tuple[list[tuple[int, Job]], list[Job]]:
    """The ladder's checks as (N, job) steps, and the pipeline jobs.

    The pipeline runs, at each of PIPELINE_WINDOWS, the four checks other
    than the ladder's, then the closure round trip: ``unroll --closure``,
    ``synthesize`` and ``verify`` of that closure, and ``decompose``.
    """
    template = _write(work / "inputs" / "template.json", TEMPLATE)
    steps = [(n, _check(work, template, n, LADDER_PROPERTY)) for n in LADDER]
    pipeline = []
    for n in PIPELINE_WINDOWS:
        base = f"template/{n}"
        closure = _out(work, f"{base}/unroll-closure", "out.json")
        manifest = _out(work, f"{base}/synthesize", "enc.json")
        pipeline += [_check(work, template, n, p) for p in PROPERTIES if p != LADDER_PROPERTY]
        pipeline += [
            _job(work, f"{base}/unroll-closure", "unroll",
                 ["--input", template, "--window", n, "--closure"], n),
            _job(work, f"{base}/synthesize", "synthesize", ["--input", closure], n),
            _job(work, f"{base}/verify", "verify", ["--input", closure, "--encoder", manifest], n,
                 needs=f"{base}/synthesize"),
            _job(work, f"{base}/decompose", "decompose", ["--input", closure], n),
        ]
    return steps, pipeline


def group_jobs(work: Path, name: str, payload: dict) -> list[Job]:
    path = _write(work / "inputs" / f"{name}.json", payload)
    n = len(payload["components"])
    base = f"groups/{name}"
    if name.startswith("b"):
        jobs = [_job(work, f"{base}/decompose", "decompose", ["--input", path], n)]
        return jobs + [
            _job(work, f"{base}/check-{prop}", "check", ["--input", path, "--property", prop], n)
            for prop in BIG_PROPERTIES
        ]
    jobs = [
        _job(work, f"{base}/check-{prop}", "check", ["--input", path, "--property", prop], n)
        for prop in PROPERTIES
    ]
    manifest = _out(work, f"{base}/synthesize", "enc.json")
    return jobs + [
        _job(work, f"{base}/decompose", "decompose", ["--input", path], n),
        _job(work, f"{base}/synthesize", "synthesize", ["--input", path], n),
        _job(work, f"{base}/verify", "verify", ["--input", path, "--encoder", manifest], n,
             needs=f"{base}/synthesize"),
    ]


def random_jobs(work: Path, seed: int) -> list[Job]:
    """The pool's jobs, group by group, in an order drawn from ``seed``."""
    pool = group_pool()
    random.Random(seed).shuffle(pool)
    return [job for name, payload in pool for job in group_jobs(work, name, payload)]


# -- semantic checks above the recorded ladder -------------------------------


def template_group(n: int) -> Lattice:
    """The running example unrolled at n: (2, 1, 0, ...) and e_s + e_{s+1}, 2 <= s < n."""
    gens = [[2, 1] + [0] * (n - 2)]
    for s in range(1, n - 1):
        gens.append([1 if k in (s, s + 1) else 0 for k in range(n)])
    return Lattice([4] * n, gens)


def witness_problem(cert: dict, n: int) -> str | None:
    """Why an order-controllability certificate at window n is wrong, or None.

    As in acceptance criterion 1: the check fails with a witness in the
    group whose projection onto [1, n_i] has order 2.  Decided by lattice
    reduction, never by listing elements.
    """
    if cert.get("status") != "fails":
        return f"status {cert.get('status')!r}, expected 'fails'"
    ctx = cert.get("witness_context") or {}
    w = [r[0] for r in cert.get("witness") or []]
    if len(w) != n or not template_group(n).contains(w):
        return "witness is not a member of the group"
    bound = ctx.get("n", 0)
    prefix_order = max((4 // gcd(4, r) for r in w[:bound]), default=1)
    if ctx.get("projection_order") != 2 or prefix_order != 2:
        return "witness projection does not have order 2"
    return None
