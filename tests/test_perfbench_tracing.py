"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` wraps library functions by module and name, so a
refactor that renames one would otherwise only break ``run.py --trace 1``.
The tracer is loaded from its file, read-only, installed around one
``check`` through ``cli.main`` and removed again.
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


def test_tracer_installs_around_a_check(tmp_path, capsys):
    path = tmp_path / "template.json"
    path.write_text(json.dumps(RUNNING_EXAMPLE))
    argv = ["check", "--input", str(path), "--property", "order-controllable", "--window", "6"]
    assert cli.main(argv) == 1
    untraced = capsys.readouterr().out

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 1
    assert capsys.readouterr().out == untraced

    metrics = {name: m["value"] for name, m in tracer.metrics(1).items()}
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["control.certify.calls"] == 1
    assert metrics["intlinalg.lattice_basis.calls"] > 0
    # kernels come from lattice bases; the Smith normal form only solves
    assert metrics["intlinalg.kernel.calls"] == 0
    assert metrics["intlinalg.snf.calls"] == metrics["intlinalg.solve.calls"] > 0
