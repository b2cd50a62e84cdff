"""The benchmark tracer installs on and uninstalls from the package.

perfbench/tracing.py wraps oplab functions at the attribute names their
callers look up; a name it patches that the package no longer has makes
install() fail, so this test catches the deletion.
"""

import importlib.util
import os

from oplab import bergman, cli, funcdsl, hilbert, quad, schur
from oplab.hilbert import OperatorParams

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
_MODULES = (bergman, cli, funcdsl, hilbert, quad, schur)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _bindings():
    return [{name: id(obj) for name, obj in vars(m).items()} for m in _MODULES]


def test_tracer_installs_and_uninstalls():
    before = _bindings()
    tracer = _tracer()
    tracer.install()
    try:
        assert _bindings() != before
        schur.sup_test_Linf(OperatorParams(0.5, 0.5, 2.0))
    finally:
        tracer.uninstall()
    assert _bindings() == before
    counts = tracer.counters()
    # the sup test is one apply_H_many, so the hilbert layer sees its probes
    assert counts["schur.samples"] == 5
    assert counts["hilbert.probes"] == 5
    assert counts["quad.drives"] == 1


def test_tracer_sees_the_lazy_cli(capsys):
    # a golden estimate argv whose source is evaluated pointwise (the norms
    # and H of a piece sum such as ind(1,2) are closed forms); cli imports
    # funcdsl only inside the command, and its module-level func1d is the
    # name the tracer rebinds
    argv = ["estimate", "--expr", "x*exp(-x)", "--p", "inf", "--q", "inf",
            "--alpha", "0.5", "--beta", "0", "--gamma", "1.5"]
    before = _bindings()
    lazy = cli.func1d
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.func1d is not lazy
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.func1d is lazy
    assert _bindings() == before
    counts = tracer.counters()
    assert counts["funcdsl.parse_calls"] == 1
    assert counts["funcdsl.eval_points"] > 0
