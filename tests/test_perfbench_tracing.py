"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` wraps library functions by module and name, so a
refactor that renames one would otherwise only break ``run.py --trace 1``.
The tracer is loaded from its file, read-only, installed around one
``check`` and one ``synthesize`` through ``cli.main`` and removed again.
"""

import json
import types
from pathlib import Path

from groupwindows import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
RUNNING_EXAMPLE = {
    "component_template": {"period": 1, "orders": [[4]]},
    "fixed_generators": [{"support": {"1": [2], "2": [1]}}],
    "shifted_generators": [{"start": 2, "stride": 1, "pattern": {"0": [1], "1": [1]}}],
}


def _load_tracing():
    """Run the tracer's source in a fresh module; no bytecode is written."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _traced(argv, code, capsys):
    """The tracer's metrics for one ``cli.main`` call, whose output it must not change."""
    assert cli.main(argv) == code
    untraced = capsys.readouterr().out

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == code
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced

    metrics = {name: m["value"] for name, m in tracer.metrics(1).items()}
    assert set(metrics) == set(tracing.METRICS)
    return metrics


def test_tracer_installs_around_a_check(tmp_path, capsys):
    path = tmp_path / "template.json"
    path.write_text(json.dumps(RUNNING_EXAMPLE))
    argv = ["check", "--input", str(path), "--property", "order-controllable", "--window", "6"]
    metrics = _traced(argv, 1, capsys)
    assert metrics["control.certify.calls"] == 1
    assert metrics["intlinalg.lattice_basis.calls"] > 0
    # kernels come from lattice bases, and the failure witness from echelon rows
    assert metrics["intlinalg.kernel.calls"] == 0
    assert metrics["intlinalg.snf.calls"] == metrics["intlinalg.solve.calls"] == 0


def test_tracer_counts_the_smith_solves_of_a_synthesize(tmp_path, capsys):
    template = tmp_path / "template.json"
    template.write_text(json.dumps(RUNNING_EXAMPLE))
    closure = tmp_path / "closure.json"
    assert cli.main(["unroll", "--input", str(template), "--window", "6", "--closure", "--out", str(closure)]) == 0
    argv = ["synthesize", "--input", str(closure), "--out", str(tmp_path / "enc.json")]
    metrics = _traced(argv, 0, capsys)
    # every p^h-th root of the running example has unique coefficients, so
    # it is read off the coefficient graph's echelon and no Smith solve runs
    assert metrics["intlinalg.lattice_basis.calls"] > 0
    assert metrics["intlinalg.snf.calls"] == metrics["intlinalg.solve.calls"] == 0
