"""The benchmark's tracer still finds every name it rebinds in the package.

perfbench/spans.py records spans by rebinding public names where their
callers look them up (for example `unicusp.obstruction.convolve`).  A
refactor that drops one of those bindings breaks `perfbench/run.py
--trace 1`; this test installs the tracer, runs four commands through it
(two of them germ models, whose int-list recursions make none of the
series products it counts), and checks that uninstalling restores every
binding.
"""

import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from unicusp import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def _bindings():
    """Every (owner, attribute) the tracer rebinds, with its current value."""
    out = {}
    for module, attr, _, _ in spans.FUNCTION_PATCHES:
        mod = importlib.import_module(module)
        out[(module, attr)] = mod.__dict__[attr]
    for module, cls_name, attr, _ in spans.METHOD_PATCHES:
        cls = getattr(importlib.import_module(module), cls_name)
        out[(module, cls_name, attr)] = cls.__dict__[attr]
    series = importlib.import_module("unicusp.germs").PowerSeries
    for attr in ("__mul__", "__rmul__"):
        out[("unicusp.germs", "PowerSeries", attr)] = series.__dict__[attr]
    return out


def test_tracer_installs_runs_and_restores():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(before[key] is not now for key, now in _bindings().items())
        codes = []
        for op, argv in enumerate((["check", "--genus", "3", "--pairs", "2,3;2,5"],
                                   ["enumerate", "--genus", "1", "--dmax", "12"],
                                   ["germ", "--node", "3", "--order", "12"],
                                   ["germ", "--flex", "5"])):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes.append(tracer.run_op(op, cli.run, argv))
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    names = {span[3] for span in tracer.spans}
    assert {"cli.run", "obstruction.check_multi", "obstruction.check_single",
            "semigroup.construct", "classify.enumerate", "germs.sequence",
            "germs.flex"} <= names
    # series products are counted per op, and no op makes any
    assert dict(tracer.series_mul) == {}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
