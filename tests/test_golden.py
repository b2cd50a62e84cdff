"""Byte-identity of CLI reports and selected values against a recorded golden file.

``tests/golden/reports.json`` holds the stdout of every README CLI command
(plus the sup-norm and p = 1 certificate paths; every subcommand of the
parser must be among them) with ``elapsed_s`` masked,
the ``repr`` of a few library values, the verdict report of every
criterion regime, and the ``repr`` of the hints (breakpoints, endpoint
exponents, supports, pieces) of the 1D and 2D functions of a fixed list
of sources.  A refactor that keeps
behaviour must reproduce it exactly.  After a deliberate output change,
regenerate the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/reports.json

and list what moved, before or after, with

    PYTHONPATH=src python tests/test_golden.py --diff

which prints one ``where: old -> new`` line per report field, library
value or verdict that differs from the stored file.
"""

import argparse
import ast
import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile

import numpy as np
import pytest

from oplab import bergman, cli, hilbert, quad, schur
from oplab.funcdsl import func1d, func2d
from oplab.hilbert import OperatorParams, WeightedSpaceSpec, hilbert_verdict
from test_funcdsl import HINT_CORPUS, SUPPORT_CASES, U_DECAY_CASES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reports.json")

_P = ["--alpha", "0", "--beta", "0"]
COMMANDS = [
    ["sharp-norm", "--p", "2", "--a", "0", *_P, "--gamma", "1"],
    ["verdict", "hilbert", "--p", "2", "--q", "2", "--a", "0", "--b", "0", *_P, "--gamma", "2"],
    ["verdict", "bergman", "--operator", "tplus", "--p", "2", "--q", "2", "--r", "2",
     "--a", "0", "--b", "0", "--alpha", "0.25", "--beta", "0.25", "--gamma", "1.5"],
    ["verdict", "bergman", "--operator", "projection", "--p", "2", "--q", "1", "--r", "1",
     "--a", "0", "--b", "0", "--beta", "0.5"],
    ["certify", "--p", "2", "--q", "2", "--a", "0", "--b", "0", *_P, "--gamma", "1",
     "--out", "report.json"],
    ["certify", "verify", "--cert", "cert.json", "--samples", "100"],
    ["estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
     *_P, "--gamma", "1"],
    ["extremal", "--p", "2", "--a", "0", *_P, "--gamma", "1", "--xi", "0.1", "--xi", "0.01"],
    ["dilate", "--p", "2", "--q", "2", "--a", "0", "--b", "0", *_P, "--gamma", "2"],
    ["sweep", "--vary", "gamma", "--start", "0.5", "--stop", "1.5", "--num", "11",
     "--p", "2", "--q", "2", "--a", "0", "--b", "0", *_P],
    ["bergman", "reproduce", "--nu", "0", "--power", "3"],
    ["bergman", "reduction", *_P, "--gamma", "1", "--p", "2", "--y", "1", "--L", "0.25", "--L", "1"],
    ["solve-gamma", "--p", "2", "--q", "3", "--a", "0", "--b", "0.5",
     "--alpha", "0.2", "--beta", "0.3"],
    # the sup paths: p = q = inf norms and the p = 1 limit-case certificate
    ["estimate", "--expr", "x*exp(-x)", "--p", "inf", "--q", "inf",
     "--alpha", "0.5", "--beta", "0", "--gamma", "1.5"],
    ["certify", "--p", "1", "--q", "1", "--a", "0", "--b", "0",
     "--alpha", "0.5", "--beta", "0.5", "--gamma", "2", "--out", "cert1.json"],
    ["certify", "verify", "--cert", "cert1.json", "--samples", "20"],
    # a source singular at 0, whose image is singular there too
    ["dilate", "--expr", "x^(0-0.9)*ind(0,1)", "--p", "1", "--q", "1", "--a", "0", "--b", "0",
     "--alpha", "0.2", "--beta", "0", "--gamma", "1.2"],
]


def _mask(text: str) -> str:
    return re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": X', text)


def run_commands() -> list[dict]:
    """Run COMMANDS in-process in a scratch directory; README's
    ``certify --out report.json`` feeds ``certify verify --cert cert.json``."""
    rows = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                if argv[:3] == ["certify", "verify", "--cert"] and argv[3] == "cert.json":
                    shutil.copy("report.json", "cert.json")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(argv))
                rows.append({"argv": argv, "exit": code, "stdout": _mask(out.getvalue())})
        finally:
            os.chdir(cwd)
    return rows


INF = math.inf
# (p, q, a, b, alpha, beta, gamma): each regime bounded, then failing a clause
HILBERT_VERDICTS = [
    (INF, INF, None, None, 0.5, 0.0, 1.5), (INF, INF, None, None, 0.0, 0.0, 1.0),
    (INF, INF, None, None, 0.5, 0.0, 2.0), (2, INF, 0, None, 0.5, 0.0, 1.0),
    (2, INF, 0, None, 0.0, 0.0, 0.5), (2, 2, 0, 0, 0.0, 0.0, 1.0),
    (2, 2, 0, 0, 0.0, 0.0, 2.0), (2, 2, 2, 2, 0.0, 0.0, 1.0),
]
# (operator, p, q, a, r, b, alpha, beta, gamma)
BERGMAN_VERDICTS = [
    ("tplus", INF, INF, None, INF, None, 0.5, 0.5, 2.0),
    ("tplus", INF, INF, None, INF, None, 0.0, 0.5, 1.5),
    ("tplus", INF, INF, None, INF, None, 0.5, 0.5, 2.5),
    ("tplus", 1, 1, 0, 1, 0, 0.5, 0.5, 2.0), ("tplus", 1, 1, 0.6, 1, 0.6, 0.5, 0.5, 2.0),
    ("tplus", 2, 2, 0, 2, 0, 0.25, 0.25, 1.5), ("tplus", 2, 2, 0, 2, 0, 0.25, 0.25, 2.0),
    ("t", 2, 2, 0, 2, 0, 0.25, 0.25, 1.5), ("tplus", 2, 2, 0, INF, None, 0.5, 0.5, 1.5),
    ("tplus", 2, 1, 0, INF, None, 0.5, 0.5, 1.0), ("tplus", 2, 1, 0, 1, 0, 0.5, 0.5, 2.0),
    ("tplus", 2, 1, 0, 2, 0, 0.5, 0.5, 1.5), ("tplus", 2, INF, None, INF, None, 0.5, 0.5, 2.0),
    ("projection", 1, 1, 0, 1, 0, 0.0, 0.5, 1.5), ("projection", 1, 1, 0.6, 1, 0.6, 0.0, 0.5, 1.5),
    ("projection", 2, 2, 0, 2, 0, 0.0, 0.5, 1.5), ("projection", 2, 1, 0, 2, 1.0, 0.0, 0.5, 1.5),
    ("projection", 2, 1, 0, 1, 0, 0.0, 0.5, 1.5), ("projection", 2, 1, 0, 1, 0, 0.0, -0.5, 0.5),
]


def verdict_reports() -> list[str]:
    reps = [hilbert_verdict(p, q, a, b, OperatorParams(al, be, ga))
            for p, q, a, b, al, be, ga in HILBERT_VERDICTS]
    reps += [bergman.bergman_verdict(bergman.BergmanVerdictRequest(
        op, bergman.MixedNormSpec(p, q, a), bergman.MixedNormSpec(p, r, b),
        OperatorParams(al, be, ga))) for op, p, q, a, r, b, al, be, ga in BERGMAN_VERDICTS]
    return [json.dumps(rep.to_dict(), sort_keys=True) for rep in reps]


def _cert_json(cert) -> str:
    return json.dumps(cert.to_dict(), sort_keys=True)


def library_values() -> dict:
    box = func2d("ind(-0.25,0.25)*ind(y,1,2)")
    smooth = func2d("exp(-abs(x))*y*exp(-y)")
    hints = quad.SingularityHints((0.5,), -0.5, 2.5)
    src = func1d("x^(-0.3)*exp(-x)")
    adj = OperatorParams(0.3, 0.2, 1.5)
    diag = OperatorParams(0.5, 0.5, 2.0)
    space = WeightedSpaceSpec(2.0, 0.0)  # extremal window (0, 2) under diag
    return {
        "mixed_norm box q=inf": repr(bergman.mixed_norm(box, bergman.MixedNormSpec(2, math.inf))),
        "mixed_norm smooth q=inf": repr(bergman.mixed_norm(smooth, bergman.MixedNormSpec(1, math.inf))),
        "apply_H_adjoint": repr([hilbert.apply_H_adjoint(adj, 0.1, 0.2, src, y)
                                 for y in (1e-3, 0.5, 1.0, 7.0)]),
        "extremal_quotient in window": repr([hilbert.extremal_quotient(space, diag, xi)
                                             for xi in (0.05, 1.0)]),
        "extremal_quotient beyond window": repr([hilbert.extremal_quotient(space, diag, xi)
                                                 for xi in (2.0, 3.5)]),
        "sup_test_L1": repr(schur.sup_test_L1(diag, 0.2)),
        "sup_test_Linf": repr(schur.sup_test_Linf(diag)),
        "find_certificate forced d": _cert_json(schur.find_certificate(
            2.0, 3.0, 0.1, 0.2, OperatorParams(0.3, 0.2, 1.5 - 1.1 / 2 + 1.2 / 3), d=0.1)),
        "find_certificate p=1": _cert_json(schur.find_certificate(
            1.0, 2.0, 0.0, 0.5, OperatorParams(0.5, 0.5, 2.0 - 1.0 + 0.75))),
        "find_certificate p=1 forced d": _cert_json(schur.find_certificate(
            1.0, 1.0, 0.2, 0.2, diag, d=0.9)),
        "integrate_truncated": repr(quad.integrate_truncated(
            lambda y: y ** -0.5 / (1 + y) + (y > 0.5), hints, 3.0)),
        "integrate_real_line": repr(quad.integrate_real_line(
            lambda u: 1.0 / (1 + u * u) ** 1.25, breakpoints=(-1.0, 2.0), decay_exponent=2.5)),
        "integrate_semiaxis": repr(quad.integrate_semiaxis(
            lambda y: y ** -0.5 / (1 + y) ** 2 * (1 + (y > 0.5)), hints)),
        "integrate_interval": repr(quad.integrate_interval(
            lambda y: np.sqrt(y) * np.cos(y), 0.0, 3.0, breakpoints=(1.0,))),
        "mixed_norm finite q": repr([bergman.mixed_norm(f, bergman.MixedNormSpec(p, q, nu))
                                     for f in (box, smooth) for p, q, nu in ((2, 2, 0), (1, 3, 0.5))]),
        "column_integral": repr([bergman.column_integral(diag, 0.2, w)
                                 for w in (complex(0.3, 0.7), complex(-1.0, 2.0))]),
        "reduction_bound_check box": repr(bergman.reduction_bound_check(
            OperatorParams(0.0, 0.0, 1.0), box, y_grid=(1.0,), tol=1e-5)),
    }


HINT_SOURCES = [
    # the README's examples
    "ind(-0.25,0.25)*ind(y,1,2)", "ind(1,2)", "ind(1e7,2e7)", "x^(0-0.5)*ind(0,1)", "x^0.5",
    "abs(log(x))*ind(0,1)", "(x-2)^0.5*ind(1,2)", "exp(x)*ind(0,800)", "x^25*exp(0-x)",
    "exp(x)*ind(0,1)", "(x-1)^0.5", "ind(0,2)+ind(1,3)", "ind(-inf,1)*exp(x)",
    "x*ind(-1,1)*ind(y,1,2)", "ind(y,1,2)", "(1+x^2)^(0-1)*y*exp(0-y)",
    "(1+x^2)^(0-1)*y^0.5*exp(0-y)",
    *HINT_CORPUS,
    *(case[0] for case in U_DECAY_CASES),
    *(case[0] for case in SUPPORT_CASES),
    # test_exp_hint_of_a_power_undefined_at_the_far_end
    "exp((1-x)^1.5)*ind(0,2)", "exp((1-x)^1.5)", "exp((x+x)^1.5)*ind(y,1,2)",
    # the workload shapes: piece sums, boxes and slabs
    "ind(0.8123,2.0456)", "x^-0.2345*ind(0.5678,2.3456)", "2.0*ind(0.4,0.9)+ind(1.6,2.6)",
    "ind(-0.6789,0.6789)*ind(y,0.7,1.45)", "ind(y,0.7,1.45)",
]
_HINT_FIELDS = {
    "1d": (func1d, ("breakpoints", "left_exponent", "decay_exponent", "pieces")),
    "2d": (func2d, ("u_breakpoints", "u_support", "u_decay_exponent",
                    "v_breakpoints", "v_support", "v_left_exponent", "v_decay_exponent")),
}


def hint_values() -> dict:
    """The repr of each hint of the 1D and the 2D function of every source."""
    return {src: {dim: {name: repr(getattr(build(src), name)) for name in names}
                  for dim, (build, names) in _HINT_FIELDS.items()}
            for src in dict.fromkeys(HINT_SOURCES)}


def capture() -> dict:
    return {"cli": run_commands(), "values": library_values(), "verdicts": verdict_reports(),
            "hints": hint_values()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_cli_reports_byte_identical(golden, monkeypatch):
    monkeypatch.delenv("OPLAB_TOL", raising=False)
    got = run_commands()
    assert [r["argv"] for r in got] == [r["argv"] for r in golden["cli"]]
    for row, want in zip(got, golden["cli"]):
        assert row == want, " ".join(row["argv"])


def _leaf_commands(parser, path=()):
    """The subcommand paths of the parser tree that run a command."""
    if parser.get_default("func") is not None:
        yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_commands(child, (*path, name))


def test_every_cli_command_is_pinned():
    pinned = {tuple(itertools.takewhile(lambda s: not s.startswith("--"), argv)) for argv in COMMANDS}
    leaves = set(_leaf_commands(cli.build_parser()))
    assert leaves and leaves <= pinned, sorted(leaves - pinned)


def _float_values(argv):
    """Indices in argv of the values its command's parser reads as floats."""
    parser = cli.build_parser()
    for word in itertools.takewhile(lambda s: not s.startswith("--"), argv):
        sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    flags = {opt for action in parser._actions if action.type is float for opt in action.option_strings}
    return [i + 1 for i, word in enumerate(argv) if word in flags]


def test_nan_in_any_float_flag_is_a_reported_error(tmp_path, monkeypatch):
    monkeypatch.delenv("OPLAB_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in COMMANDS:   # the certificate documents that certify verify reads
            if argv[0] == "certify" and "--out" in argv:
                assert cli.main(list(argv)) == 0
    shutil.copy("report.json", "cert.json")
    failed = []
    for argv in COMMANDS:
        for i in _float_values(argv):
            bad = [*argv[:i], "nan", *argv[i + 1:]]
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(bad)
            except Exception as exc:
                failed.append(f"{' '.join(bad)}: {exc!r}")
                continue
            if code not in (2, 3, 4) or "error" not in json.loads(err.getvalue() or "{}"):
                failed.append(f"{' '.join(bad)}: exit {code}")
    assert failed == []


def test_library_values_identical(golden):
    assert library_values() == golden["values"]


def test_verdict_reports_identical(golden):
    assert verdict_reports() == golden["verdicts"]


def test_hints_identical(golden):
    assert hint_values() == golden["hints"]


def _parse(text: str):
    """A report or repr as data where it parses (elapsed_s masked as X), else the text."""
    for load in (json.loads, ast.literal_eval):
        try:
            return load(text.replace('"elapsed_s": X', '"elapsed_s": null'))
        except (ValueError, SyntaxError):
            pass
    return text


def _leaves(obj, path=()):
    if isinstance(obj, (dict, list)):
        for key, val in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaves(val, (*path, str(key)))
    else:
        yield ".".join(path), obj


def diff_lines(old: dict, new: dict) -> list[str]:
    """'where: old -> new' for every leaf of a CLI report (and exit code),
    library value or verdict report that differs between two captures."""
    pairs = [(" ".join(n["argv"]), {"exit": o["exit"], "stdout": _parse(o["stdout"])},
              {"exit": n["exit"], "stdout": _parse(n["stdout"])})
             for o, n in zip(old["cli"], new["cli"])]
    pairs += [(key, _parse(val), _parse(new["values"].get(key, "<missing>")))
              for key, val in old["values"].items()]
    pairs += [(f"verdict {i}", _parse(o), _parse(n))
              for i, (o, n) in enumerate(zip(old["verdicts"], new["verdicts"]))]
    pairs += [(f"hints {src}", val, new["hints"].get(src, "<missing>"))
              for src, val in old["hints"].items()]
    lines = []
    for where, o, n in pairs:
        a, b = dict(_leaves(o)), dict(_leaves(n))
        lines += [f"{where}: {path}: {a.get(path)!r} -> {b.get(path)!r}"
                  for path in {**a, **b} if a.get(path) != b.get(path)]
    return lines


def test_diff_lists_each_moved_leaf():
    old = {"cli": [{"argv": ["cmd"], "exit": 0, "stdout": '{\n "elapsed_s": X,\n "v": 1.0\n}\n'}],
           "values": {"key": "[1.0, 2.0]"}, "verdicts": ['{"bounded": true}'],
           "hints": {"x": {"1d": {"decay_exponent": "inf", "left_exponent": "1.0"}}}}
    new = {"cli": [{"argv": ["cmd"], "exit": 0, "stdout": '{\n "elapsed_s": X,\n "v": 1.5\n}\n'}],
           "values": {"key": "[1.0, 2.5]"}, "verdicts": ['{"bounded": true}'],
           "hints": {"x": {"1d": {"decay_exponent": "-1.0", "left_exponent": "1.0"}}}}
    assert diff_lines(old, old) == []
    assert diff_lines(old, new) == ["cmd: stdout.v: 1.0 -> 1.5", "key: 1: 2.0 -> 2.5",
                                    "hints x: 1d.decay_exponent: 'inf' -> '-1.0'"]


if __name__ == "__main__":
    cmd = argparse.ArgumentParser(description="Print the golden capture, or with --diff "
                                  "what differs from the stored file.")
    cmd.add_argument("--diff", action="store_true")
    os.environ.pop("OPLAB_TOL", None)
    if cmd.parse_args().diff:
        with open(GOLDEN) as fh:
            stored = json.load(fh)
        for line in diff_lines(stored, capture()):
            print(line)
    else:
        json.dump(capture(), sys.stdout, indent=1)
        sys.stdout.write("\n")
