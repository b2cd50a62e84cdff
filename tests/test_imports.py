"""Import guards: the closed-form commands and a bare ``import oplab`` load no numpy.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded.  The package's public names resolve lazily (PEP 562).
"""

import json
import os
import subprocess
import sys

import pytest

import oplab
from oplab import bergman, hilbert, schur, theory
from test_golden import COMMANDS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_CLOSED_FORM = ("sharp-norm", "verdict", "certify", "sweep", "solve-gamma")
CLOSED_FORM = [argv for argv in COMMANDS
               if argv[0] in _CLOSED_FORM and argv[:2] != ["certify", "verify"]]

_RUN = """
import json, sys
from oplab.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


def _fresh(code: str, *args, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter on src; the JSON its last stderr line holds."""
    env = {k: v for k, v in os.environ.items() if k != "OPLAB_TOL"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def test_every_closed_form_command_is_guarded():
    assert {argv[0] for argv in CLOSED_FORM} == set(_CLOSED_FORM)
    assert len(CLOSED_FORM) == 8   # verdict bergman and certify --out twice each


@pytest.mark.parametrize("argv", CLOSED_FORM, ids=" ".join)
def test_closed_form_command_loads_no_numpy(argv, tmp_path):
    assert _fresh(_RUN, *argv, cwd=tmp_path) == {"code": 0, "numpy": False}


def test_bare_import_loads_no_numpy():
    code = """
import json, sys
import oplab
oplab.sharp_norm(oplab.WeightedSpaceSpec(2.0, 0.0), oplab.OperatorParams(0.0, 0.0, 1.0))
print(json.dumps({"numpy": "numpy" in sys.modules}), file=sys.stderr)
"""
    assert _fresh(code) == {"numpy": False}


def test_public_names_resolve():
    listed = dir(oplab)
    for name in oplab.__all__:
        assert getattr(oplab, name) is not None
        assert name in listed
    assert oplab.OperatorParams is hilbert.OperatorParams is theory.OperatorParams
    assert oplab.bergman_verdict is bergman.bergman_verdict
    assert oplab.find_certificate is schur.find_certificate
    with pytest.raises(AttributeError):
        oplab.nonexistent
