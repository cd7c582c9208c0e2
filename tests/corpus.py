"""A seeded corpus of command-line jobs, and one SHA-256 per job's outputs.

Each job is one ``groupwindows.cli.main`` call.  Its digest covers its exit
code, its stdout, its stderr and the bytes of every file it wrote, so two
commits that print the same digests gave the same outputs on every job.
The jobs are:

* seeded groups, half with mixed primes and half staggered p-groups, over
  components such as Z8, Z27, Z5, Z2 x Z3 and the empty component: the five
  checks, ``decompose``, ``synthesize`` (again with
  ``--override-undetermined`` when it does not exit 0) and ``verify``;
* the running example's template at N = 2 ... 16: the five checks,
  ``unroll`` and ``synthesize`` of the template, and the five checks,
  ``decompose``, ``synthesize`` and ``verify`` of its window closure;
* a period-2 mixed-prime template (components Z2 x Z4 and Z3, a stride-2
  pattern whose last instance is skipped at even N, residues outside
  [0, m) and negative ones) at N = 2 ... 10: the five checks, ``unroll``,
  ``unroll --closure`` and ``synthesize``; and one ``check`` of the same
  template with stride 1, whose pattern does not fit (exit 3);
* small p-groups over Z(p), Z(p^2), Z(p^3), p = 2 or 3, where some p^h-th
  root of ``synthesize`` (or of ``--override-undetermined``) is taken in a
  section whose map k -> sum k_j p^h r_j over its canonical rows r_j is not
  injective, so the root's coefficients are not unique: the group pipeline
  above;
* ``verify`` of every encoder written, tampered four ways: the generators
  reversed, the heights zeroed, the first socle element replaced by the sum
  of the first two, and the generators rotated by one.

``tests/corpus_digests.json`` pins the digests; ``tests/test_corpus.py``
compares them.  ``PYTHONPATH=src python tests/corpus.py`` prints the jobs
whose digests differ from the pins, and exits 1 when there is any, 0 when
every digest matches.  To re-pin after a change that alters
outputs on purpose::

    PYTHONPATH=src python tests/corpus.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from groupwindows import cli

DIGESTS = Path(__file__).with_name("corpus_digests.json")
SEED = 20211
GROUPS = 160

PROPERTIES = ("weakly-controllable", "controllable", "order-controllable", "weakly-observable", "rectangular")
MIXED_SHAPES = ((2,), (4,), (8,), (3,), (9,), (27,), (5,), (), (2, 3), (4, 9), (2, 2), (3, 5))
TEMPLATE = {
    "component_template": {"period": 1, "orders": [[4]]},
    "fixed_generators": [{"support": {"1": [2], "2": [1]}}],
    "shifted_generators": [{"start": 2, "stride": 1, "pattern": {"0": [1], "1": [1]}}],
}
TEMPLATE_WINDOWS = range(2, 17)
WIDE_CLOSURE_WINDOWS = (24, 32, 48)
MIXED_TEMPLATE = {
    "component_template": {"period": 2, "orders": [[2, 4], [3]]},
    "fixed_generators": [{"support": {"1": [-1, 1], "2": [2]}}],
    "shifted_generators": [
        {"start": 1, "stride": 2, "pattern": {"0": [8, -1], "1": [-2], "2": [-5, 5]}},
        {"start": 2, "stride": 2, "pattern": {"0": [-3], "1": [-6, 8]}},
    ],
}
MIXED_TEMPLATE_WINDOWS = range(2, 11)
ROOT_KERNEL_GROUPS = (
    ((2, 4, 4, 8), ((1, 3, 1, 1), (0, 3, 0, 0))),
    ((2, 4, 8), ((0, 0, 0), (0, 3, 5), (0, 0, 2))),
    ((2, 4, 8), ((1, 3, 0), (0, 3, 1), (0, 0, 0))),
    ((4, 2, 4, 8), ((0, 0, 0, 0), (0, 0, 2, 0), (0, 0, 1, 3))),
    ((4, 8, 8, 2), ((3, 1, 0, 0), (0, 6, 0, 0), (0, 0, 6, 1))),
    ((8, 2, 2, 8), ((4, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 3))),
    ((2, 8, 2, 4), ((1, 0, 0, 0), (0, 4, 1, 0), (0, 0, 1, 3), (0, 0, 0, 2))),
    ((9, 27), ((8, 7), (0, 12))),
    ((27, 27), ((12, 13), (0, 3))),
    ((3, 9, 27), ((1, 3, 0), (0, 1, 1), (0, 0, 21))),
    ((9, 27, 3), ((8, 11, 0), (0, 24, 2))),
)


def _random_element(rng, shapes, lo, hi):
    """Residues drawn at random on coordinates lo..hi (1-based), zero elsewhere."""
    return [
        [rng.randrange(m) if lo <= i <= hi else 0 for m in shape]
        for i, shape in enumerate(shapes, start=1)
    ]


def mixed_group(rng):
    """Components from MIXED_SHAPES, one to three generators of support width one to three."""
    n = rng.randint(1, 4)
    shapes = [rng.choice(MIXED_SHAPES) for _ in range(n)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(1, n)
        gens.append(_random_element(rng, shapes, lo, min(n, lo + rng.randint(0, 2))))
    return {"components": [list(s) for s in shapes], "generators": gens}


def staggered_group(rng):
    """A p-group with a generator starting at most coordinates, and now and then an empty component."""
    p = rng.choice((2, 3, 5))
    n = rng.randint(2, 5)
    shapes = [() if rng.random() < 0.1 else (p ** rng.randint(1, 3),) for _ in range(n)]
    gens = []
    for lo in range(1, n + 1):
        if lo > 1 and rng.random() < 0.25:
            continue
        gens.append(_random_element(rng, shapes, lo, min(n, lo + rng.randint(0, 1))))
    return {"components": [list(s) for s in shapes], "generators": gens}


def _tampered(enc, how):
    """An encoder file's payload tampered ``how``, or None when it has too few generators."""
    enc = json.loads(json.dumps(enc))
    lists = ("generators", "socle_elements", "heights", "orders")
    if how == "reversed":
        for key in lists:
            enc[key].reverse()
    elif how == "heights-zeroed":
        enc["heights"] = [0] * len(enc["heights"])
        enc["orders"] = [enc["prime"]] * len(enc["orders"])
    elif len(enc["generators"]) < 2:
        return None
    elif how == "first-two-summed":
        x0, x1 = enc["socle_elements"][:2]
        enc["socle_elements"][0] = [
            [(a + b) % m for a, b, m in zip(r0, r1, ms)]
            for r0, r1, ms in zip(x0, x1, enc["components"])
        ]
    else:  # rotated
        for key in lists:
            enc[key] = enc[key][1:] + enc[key][:1]
    return enc


TAMPERS = ("reversed", "heights-zeroed", "first-two-summed", "rotated")


class Corpus:
    """Runs jobs inside one directory, each writing only files named after it."""

    def __init__(self, root: Path):
        self.root = root
        self.digests: dict[str, str] = {}

    def write(self, name, payload):
        (self.root / name).write_text(json.dumps(payload))

    def run(self, job: str, argv) -> int:
        before = set(os.listdir(self.root))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code
            except Exception as exc:  # an uncaught error is an output too
                code = f"raised {type(exc).__name__}: {exc}"
        files = {
            name: (self.root / name).read_text(encoding="utf-8")
            for name in sorted(set(os.listdir(self.root)) - before)
        }
        record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}
        blob = json.dumps(record, sort_keys=True).encode()
        self.digests[job] = hashlib.sha256(blob).hexdigest()
        return code

    def pipeline(self, name: str, group: str):
        """Checks, decompose, synthesize and the verifies of one group file."""
        for prop in PROPERTIES:
            self.run(f"{name}/check-{prop}", ["check", "--input", group, "--property", prop])
        self.run(f"{name}/decompose", ["decompose", "--input", group])
        manifest = f"{name}.enc.json"
        argv = ["synthesize", "--input", group, "--out", manifest]
        if self.run(f"{name}/synthesize", argv) != 0:
            manifest = f"{name}.override.json"
            argv[-1] = manifest
            self.run(f"{name}/synthesize-override", [*argv, "--override-undetermined"])
        if not (self.root / manifest).exists() or "files" not in json.loads((self.root / manifest).read_text()):
            return
        self.run(f"{name}/verify", ["verify", "--input", group, "--encoder", manifest])
        files = json.loads((self.root / manifest).read_text())["files"]
        for how in TAMPERS:
            tampered = {}
            for p, file in sorted(files.items()):
                enc = _tampered(json.loads((self.root / file).read_text()), how)
                if enc is not None:
                    tampered[p] = f"{name}.{how}.p{p}.json"
                    self.write(tampered[p], enc)
            if tampered:
                self.write(f"{name}.{how}.json", {"files": {**files, **tampered}})
                self.run(f"{name}/verify-{how}", ["verify", "--input", group, "--encoder", f"{name}.{how}.json"])


def run_corpus(root: Path) -> dict[str, str]:
    """Every job's digest, running the corpus inside the empty directory ``root``."""
    corpus = Corpus(root)
    rng = random.Random(SEED)
    for k in range(GROUPS):
        name = f"g{k:03d}"
        corpus.write(f"{name}.json", (staggered_group if k % 2 else mixed_group)(rng))
        corpus.pipeline(name, f"{name}.json")
    corpus.write("template.json", TEMPLATE)
    for n in TEMPLATE_WINDOWS:
        window = ["--window", str(n)]
        for prop in PROPERTIES:
            corpus.run(f"template-{n}/check-{prop}", ["check", "--input", "template.json", *window, "--property", prop])
        corpus.run(f"template-{n}/unroll", ["unroll", "--input", "template.json", *window])
        corpus.run(f"template-{n}/synthesize", ["synthesize", "--input", "template.json", *window, "--out", f"template-{n}.enc.json"])
        closure = f"closure-{n}.json"
        corpus.run(f"closure-{n}/unroll", ["unroll", "--input", "template.json", *window, "--closure", "--out", closure])
        corpus.pipeline(f"closure-{n}", closure)
    for n in WIDE_CLOSURE_WINDOWS:
        closure, manifest = f"closure-{n}.json", f"closure-{n}.enc.json"
        corpus.run(f"closure-{n}/unroll", ["unroll", "--input", "template.json", "--window", str(n), "--closure", "--out", closure])
        corpus.run(f"closure-{n}/synthesize", ["synthesize", "--input", closure, "--out", manifest])
        corpus.run(f"closure-{n}/verify", ["verify", "--input", closure, "--encoder", manifest])
    corpus.write("mixed-template.json", MIXED_TEMPLATE)
    for n in MIXED_TEMPLATE_WINDOWS:
        window = ["--input", "mixed-template.json", "--window", str(n)]
        for prop in PROPERTIES:
            corpus.run(f"mixed-template-{n}/check-{prop}", ["check", *window, "--property", prop])
        corpus.run(f"mixed-template-{n}/unroll", ["unroll", *window])
        corpus.run(f"mixed-template-{n}/unroll-closure", ["unroll", *window, "--closure"])
        corpus.run(f"mixed-template-{n}/synthesize", ["synthesize", *window, "--out", f"mixed-template-{n}.enc.json"])
    for k, (orders, gens) in enumerate(ROOT_KERNEL_GROUPS):
        name = f"root-kernel-{k:02d}"
        group = {"components": [[m] for m in orders], "generators": [[[a] for a in x] for x in gens]}
        corpus.write(f"{name}.json", group)
        corpus.pipeline(name, f"{name}.json")
    misfit = json.loads(json.dumps(MIXED_TEMPLATE))
    misfit["shifted_generators"][0]["stride"] = 1
    corpus.write("misfit-template.json", misfit)
    corpus.run("misfit-template/check", ["check", "--input", "misfit-template.json", "--window", "6", "--property", "controllable"])
    return corpus.digests


def compute() -> dict[str, str]:
    """The corpus digests, computed in a fresh scratch directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return run_corpus(Path(tmp))
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    digests = compute()
    if "--write" in sys.argv[1:]:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{len(digests)} jobs")
    else:
        pinned = json.loads(DIGESTS.read_text())
        changed = [job for job in sorted(set(digests) | set(pinned)) if digests.get(job) != pinned.get(job)]
        for job in changed:
            print(job)
        print(f"{len(digests)} jobs, {len(changed)} differ from their pins")
        sys.exit(1 if changed else 0)
