"""Per-layer spans and counters, wrapped around the layers from outside.

``Tracer.install`` replaces each traced function on its module and on every
groupwindows module that imported it by name (``control``, ``torsion`` and
``synthesis`` bind ``section`` and ``project`` that way), and methods on their
classes.  ``WindowSubgroup.basis`` is a cached property, so its underlying
function is wrapped and ``window.basis.calls`` counts computations, not
attribute reads.  A span's self time is its duration minus the durations of
the spans it encloses.  Spans are aggregated per name in memory as they
close; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute): functions timed as spans.
SPANS = (
    ("window.section", "window", "section"),
    ("window.project", "window", "project"),
    ("intlinalg.snf", "intlinalg", "smith_normal_form"),
    ("intlinalg.lattice_basis", "intlinalg", "row_lattice_basis"),
    ("intlinalg.kernel", "intlinalg", "left_kernel_basis"),
    ("intlinalg.solve", "intlinalg", "solve_mixed_modulus"),
    ("control.certify", "control", "is_weakly_controllable"),
    ("control.certify", "control", "controllability_certificate"),
    ("control.certify", "control", "order_controllability_certificate"),
    ("control.certify", "control", "is_rectangular"),
    ("control.certify", "control", "is_weakly_observable"),
    ("torsion.height", "torsion", "height"),
    ("torsion.socle", "torsion", "socle_subgroup"),
    ("torsion.decompose", "torsion", "primary_decompose"),
    ("synthesis.synthesize_p", "synthesis", "synthesize_p"),
    ("synthesis.verify_blocks", "synthesis", "verify_block_properties"),
    ("synthesis.verify_iso", "synthesis", "verify_isomorphic_encoder"),
    ("synthesis.implicit_product", "synthesis", "check_implicit_direct_product"),
    ("templates.unroll", "templates", "unroll_template"),
    ("fileio.load", "fileio", "load_json"),
    ("fileio.load", "fileio", "parse_group"),
    ("fileio.load", "fileio", "parse_template"),
    ("fileio.load", "fileio", "parse_encoder"),
)

# name -> unit of every metric the traced run reports, per pass unless a ratio.
METRICS = {
    "window.elements.calls": "count",
    "window.elements.enumerated": "count",
    "window.elements.hit_ratio": "ratio",
    "window.elements_s": "s",
    "window.from_flat.calls": "count",
    "window.section.calls": "count",
    "window.section_s": "s",
    "window.project.calls": "count",
    "window.project_s": "s",
    "window.basis.calls": "count",
    "window.contains.calls": "count",
    "window.component_checks_s": "s",
    "window.scale_errors": "count",
    "intlinalg.snf.calls": "count",
    "intlinalg.snf_s": "s",
    "intlinalg.lattice_basis.calls": "count",
    "intlinalg.lattice_basis_s": "s",
    "intlinalg.kernel.calls": "count",
    "intlinalg.kernel_s": "s",
    "intlinalg.solve.calls": "count",
    "intlinalg.solve_s": "s",
    "control.certify.calls": "count",
    "control.certify_s": "s",
    "control.certs_per_synthesize": "count",
    "torsion.height.calls": "count",
    "torsion.height_s": "s",
    "torsion.socle.calls": "count",
    "torsion.socle_s": "s",
    "torsion.decompose_s": "s",
    "synthesis.synthesize_p_s": "s",
    "synthesis.verify_blocks_s": "s",
    "synthesis.verify_iso_s": "s",
    "synthesis.implicit_product_s": "s",
    "templates.unroll.calls": "count",
    "fileio.load_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes_written": "B",
    "cli.parse_s": "s",
    "cli.commands": "count",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.command = None  # CLI command of the job in progress
        self.commands = Counter()
        self._child = [0.0]  # time of closed child spans, per open span
        self._undo = []

    def start_command(self, command: str):
        self.command = command
        self.commands[command] += 1

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn):
        calls, self_s, child, clock = self.calls, self.self_s, self._child, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[name] += took - child.pop()
                child[-1] += took

        return span

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _elements(self, fn, scale_error):
        timed, counts = self._timed("window.elements", fn), self.counts

        @functools.wraps(fn)
        def elements(subgroup, *args, **kwargs):
            hit = getattr(subgroup, "_elements_cache", None) is not None
            try:
                out = timed(subgroup, *args, **kwargs)
            except scale_error:
                counts["window.scale_errors"] += 1
                raise
            if hit:
                counts["window.elements.hits"] += 1
            else:
                counts["window.elements.enumerated"] += len(out)
            return out

        return elements

    def _certificate(self, fn):
        timed = self._timed("control.certify", fn)

        @functools.wraps(fn)
        def certificate(*args, **kwargs):
            if self.command == "synthesize":
                self.counts["control.synthesize_certificates"] += 1
            return timed(*args, **kwargs)

        return certificate

    def _write(self, fn):
        timed, counts = self._timed("fileio.write", fn), self.counts

        @functools.wraps(fn)
        def write_json(path, payload):
            timed(path, payload)
            counts["fileio.bytes_written"] += os.path.getsize(path)

        return write_json

    def _parser(self, fn):
        timed = self._timed("cli.parse", fn)

        @functools.wraps(fn)
        def build_parser(*args, **kwargs):
            parser = timed(*args, **kwargs)
            parser.parse_args = self._timed("cli.parse", parser.parse_args)
            return parser

        return build_parser

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, modules, fn, wrapped):
        """Rebind ``fn`` wherever a groupwindows module holds it by name."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def install(self):
        mod = {n.rsplit(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("groupwindows.")}
        modules = list(mod.values())
        window, errors = mod["window"], mod["errors"]
        for name, module, attr in SPANS:
            fn = getattr(mod[module], attr)
            wrap = self._certificate(fn) if name == "control.certify" else self._timed(name, fn)
            self._replace_function(modules, fn, wrap)
        self._replace_function(modules, mod["fileio"].write_json, self._write(mod["fileio"].write_json))
        self._replace_function(modules, mod["cli"].build_parser, self._parser(mod["cli"].build_parser))

        sub, win, comp = window.WindowSubgroup, window.ProductWindow, window.ComponentGroup
        self._set(sub, "elements", self._elements(sub.elements, errors.WindowScaleError))
        self._set(sub, "contains", self._counted("window.contains", sub.contains))
        self._set(win, "from_flat", self._counted("window.from_flat", win.from_flat))
        self._set(comp, "__post_init__", self._timed("window.component_checks", comp.__post_init__))
        self._set(comp, "primes", self._timed("window.component_checks", comp.primes))
        basis = functools.cached_property(self._counted("window.basis", sub.__dict__["basis"].func))
        basis.__set_name__(sub, "basis")
        self._set(sub, "basis", basis)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting --------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Every metric in METRICS, as totals per pass or as ratios."""
        calls, counts, commands = self.calls, self.counts, self.commands
        values = {}
        for name in METRICS:
            if name.endswith(".calls"):
                values[name] = calls[name[: -len(".calls")]] / passes
            elif name.endswith("_s"):
                values[name] = self.self_s[name[:-2]] / passes
        elements = calls["window.elements"]
        values.update({
            "window.elements.enumerated": counts["window.elements.enumerated"] / passes,
            "window.elements.hit_ratio": counts["window.elements.hits"] / elements if elements else 0.0,
            "window.scale_errors": counts["window.scale_errors"] / passes,
            "control.certs_per_synthesize": (
                counts["control.synthesize_certificates"] / commands["synthesize"]
                if commands["synthesize"] else 0.0
            ),
            "fileio.bytes_written": counts["fileio.bytes_written"] / passes,
            "cli.commands": sum(commands.values()) / passes,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
