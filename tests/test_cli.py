"""CLI: subcommands, exit codes, JSON schema, determinism."""

import json
import math
import random
import re

import numpy as np
import pytest

from oplab import quad
from oplab.bergman import reduction_bound_check
from oplab.cli import EXIT_ACCURACY, EXIT_DIVERGENCE, EXIT_OK, EXIT_PARAMS, _linspace, main
from oplab.errors import AccuracyError
from oplab.funcdsl import func2d
from oplab.hilbert import OperatorParams
from oplab.reports import jsonable


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_sharp_norm_command(capsys):
    doc = run_json(capsys, "sharp-norm", "--p", "2", "--a", "0",
                   "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert doc["schema"] == 1
    assert doc["results"]["norm"]["value"] == pytest.approx(math.pi, rel=1e-12)
    assert "tol" in doc["results"]["norm"]


def test_verdict_hilbert_unbounded(capsys):
    doc = run_json(capsys, "verdict", "hilbert", "--p", "2", "--q", "2",
                   "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "2")
    assert doc["results"]["verdict"] == "unbounded"
    assert doc["results"]["report"]["relation"]["residual"] == pytest.approx(1.0)


def test_verdict_hilbert_inf_spelling(capsys):
    doc = run_json(capsys, "verdict", "hilbert", "--p", "2", "--q", "inf",
                   "--a", "0", "--alpha", "0.5", "--beta", "0", "--gamma", "1")
    assert doc["results"]["verdict"] == "bounded"
    assert doc["inputs"]["q"] == "inf"  # infinities are spelled out in JSON


def test_verdict_bergman(capsys):
    doc = run_json(capsys, "verdict", "bergman", "--operator", "tplus",
                   "--p", "2", "--q", "2", "--r", "2", "--a", "0", "--b", "0",
                   "--alpha", "0.25", "--beta", "0.25", "--gamma", "1.5")
    assert doc["results"]["verdict"] == "bounded"
    doc = run_json(capsys, "verdict", "bergman", "--operator", "projection",
                   "--p", "2", "--q", "1", "--r", "1", "--a", "0", "--b", "0",
                   "--beta", "0.5")
    assert doc["results"]["verdict"] == "bounded"


def test_certify_and_verify_round_trip(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, "certify", "--p", "2", "--q", "2",
                             "--a", "0", "--b", "0", "--alpha", "0",
                             "--beta", "0", "--gamma", "1", "--out", str(cert_file))
    assert code == EXIT_OK
    report = json.loads(out)  # full report on stdout
    assert report["results"]["bound"]["value"] == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-10)  # ~3.5449

    # --out wrote the portable certificate document itself
    doc = json.loads(cert_file.read_text())
    assert doc["kind"] == "schur-certificate"
    vdoc = run_json(capsys, "certify", "verify", "--cert", str(cert_file), "--samples", "10")
    assert vdoc["results"]["verification"]["passed"] is True
    assert vdoc["results"]["max_residual"]["value"] <= 1e-8


def test_certify_verify_corrupted_exit_code(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
            "--alpha", "0", "--beta", "0", "--gamma", "1", "--out", str(cert_file))
    doc = json.loads(cert_file.read_text())
    doc["closed_forms"]["m1"] *= 1.001  # silently corrupt the closed form
    cert_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "certify", "verify", "--cert", str(cert_file),
                             "--samples", "3")
    assert code == EXIT_ACCURACY
    doc = json.loads(err)
    assert doc["error"] == "accuracy"
    assert doc["inequality"] == "first test integral" and doc["sample"] == 1e-4
    assert doc["residual"] == pytest.approx(1e-3, rel=1e-2)


def test_accuracy_failure_reports_last_change(capsys, monkeypatch):
    # tolerances down to 1e-17 still converge on the mass floor, so force the failure
    def fail(*args):
        raise AccuracyError("quadrature did not reach tol=1e-10", estimate=1.0, last_change=2.5e-9)

    monkeypatch.setattr(quad, "_drive", fail)
    code, _, err = run_cli(capsys, "estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2",
                           "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert code == EXIT_ACCURACY
    assert err == json.dumps({"error": "accuracy", "detail": "quadrature did not reach tol=1e-10",
                              "last_change": 2.5e-9}) + "\n"


def write_classical_cert(capsys, path):
    code, _, err = run_cli(capsys, "certify", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                           "--alpha", "0", "--beta", "0", "--gamma", "1", "--out", str(path))
    assert code == EXIT_OK, err
    return json.loads(path.read_text())


def assert_parameter_error(capsys, *args):
    code, _, err = run_cli(capsys, *args)
    assert code == EXIT_PARAMS, err
    assert json.loads(err)["error"] == "parameters"


@pytest.mark.parametrize("text", [None, "not json", "{}", "[1, 2]", "null", '{"results": {}}'],
                         ids=["missing", "not-json", "empty", "list", "null", "report-without-cert"])
def test_certify_verify_unreadable_document(capsys, tmp_path, text):
    cert_file = tmp_path / "cert.json"
    if text is not None:
        cert_file.write_text(text)
    assert_parameter_error(capsys, "certify", "verify", "--cert", str(cert_file))


@pytest.mark.parametrize("section, key, value", [
    ("input", "p", "two"), ("certificate", "t", None), ("closed_forms", "m1", [1.0]),
    ("certificate", "omega", True), ("input", "q", 0), ("certificate", "omega", 0),
    ("certificate", "d", "missing"),
])
def test_certify_verify_ill_typed_fields(capsys, tmp_path, section, key, value):
    cert_file = tmp_path / "cert.json"
    doc = write_classical_cert(capsys, cert_file)
    if value == "missing":
        del doc[section][key]
    else:
        doc[section][key] = value
    cert_file.write_text(json.dumps(doc))
    assert_parameter_error(capsys, "certify", "verify", "--cert", str(cert_file))


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_certify_verify_needs_samples(capsys, tmp_path, samples):
    cert_file = tmp_path / "cert.json"
    write_classical_cert(capsys, cert_file)
    assert_parameter_error(capsys, "certify", "verify", "--cert", str(cert_file),
                           "--samples", samples)


def test_certify_verify_accepts_full_report(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "certify", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                        "--alpha", "0", "--beta", "0", "--gamma", "1")
    report_file.write_text(out)
    code, out, err = run_cli(capsys, "certify", "verify", "--cert", str(report_file),
                             "--samples", "3")
    assert code == EXIT_OK, err


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_certify_verify_needs_a_tolerance_in_range(capsys, tmp_path, monkeypatch, tol):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
            "--alpha", "0", "--beta", "0", "--gamma", "1", "--out", str(cert_file))
    assert_parameter_error(capsys, "certify", "verify", "--cert", str(cert_file), "--tol", tol)
    monkeypatch.setenv("OPLAB_TOL", tol)
    assert_parameter_error(capsys, "certify", "verify", "--cert", str(cert_file))


def test_certify_missing_args(capsys):
    code, out, err = run_cli(capsys, "certify", "--p", "2")
    assert code == EXIT_PARAMS


def test_certify_unbounded_tuple(capsys):
    code, out, err = run_cli(capsys, "certify", "--p", "2", "--q", "2", "--a", "0",
                             "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "2")
    assert code == EXIT_PARAMS


def test_estimate(capsys):
    doc = run_json(capsys, "estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2",
                   "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert doc["results"]["verdict"] == "bounded"
    assert doc["results"]["quotient"]["value"] <= doc["results"]["sharp_norm"]["value"]
    applied = doc["results"]["applied"]
    assert applied[1]["x"] == 1.0
    assert applied[1]["Hf"]["value"] == pytest.approx(math.log(1.5), rel=1e-9)


@pytest.mark.parametrize("padded", ["ind(1,2) ", "ind(1,2)\n", "ind(1,2)\t"])
def test_estimate_ignores_trailing_whitespace_in_the_expression(capsys, padded):
    args = ("--p", "2", "--q", "2", "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "1")
    doc = run_json(capsys, "estimate", "--expr", padded, *args)
    assert doc["results"] == run_json(capsys, "estimate", "--expr", "ind(1,2)", *args)["results"]


def test_estimate_rejects_too_deeply_nested_expression(capsys):
    code, out, err = run_cli(capsys, "estimate", "--expr", "(" * 300 + "x" + ")" * 300,
                             "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                             "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert code == EXIT_PARAMS and out == ""
    assert json.loads(err)["error"] == "parameters"


def test_estimate_divergence_exit_code(capsys):
    # the application integral itself diverges: exit code 3
    code, out, err = run_cli(capsys, "estimate", "--expr", "1+0*x", "--p", "2",
                             "--q", "2", "--a", "0", "--b", "0",
                             "--alpha", "0", "--beta", "0", "--gamma", "0.5")
    assert code == EXIT_DIVERGENCE
    assert "divergence" in err


def test_estimate_bad_points(capsys):
    assert_parameter_error(
        capsys, "estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
        "--alpha", "0", "--beta", "0", "--gamma", "1", "--points", "abc")


_ESTIMATE = ("estimate", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
             "--alpha", "0", "--beta", "0", "--gamma", "1")


def test_estimate_of_400_boxes(capsys):
    boxes = "+".join(f"ind({k},{k + 1})" for k in range(1, 401))
    results = run_json(capsys, *_ESTIMATE, "--expr", boxes)["results"]
    assert results["quotient"]["value"] == 1.7790801411015356
    assert results["source_norm"]["value"] == 20.0
    assert results["applied"][0] == {"x": 0.5, "Hf": {"value": 5.589742425278652, "tol": 1e-10}}


def test_estimate_reads_a_zero_constant_as_zero(capsys):
    # x*log(1) is 0: it neither decays nor blocks the quotient
    results = run_json(capsys, *_ESTIMATE, "--expr", "x*log(1)+ind(1,2)")["results"]
    assert results["quotient"]["value"] == pytest.approx(0.827059876315992, rel=1e-12)


def test_estimate_of_a_sum_at_the_nesting_limit_exits_0_or_2(capsys):
    # from the parser's limit down to the longest sum the drives evaluate,
    # running out of stack anywhere is "nested too deeply" (exit 2)
    codes = {}
    for n in range(1000, 800, -1):
        expr = "+".join(f"exp(0-x*{k})" for k in range(1, n + 1))
        codes[n], _, err = run_cli(capsys, *_ESTIMATE, "--expr", expr)
        assert codes[n] in (EXIT_OK, EXIT_PARAMS), (n, err)
        if codes[n] == EXIT_OK:
            break
    assert codes[n] == EXIT_OK and EXIT_PARAMS in codes.values()


@pytest.mark.parametrize("expr", ["ind(1,2)", "x*exp(0-x)"])
def test_estimate_with_no_points(capsys, expr):
    doc = run_json(capsys, *_ESTIMATE, "--expr", expr, "--points", "")
    assert doc["results"]["applied"] == []


def test_estimate_at_a_huge_point(capsys):
    doc = run_json(capsys, *_ESTIMATE, "--expr", "ind(1,2)", "--points", "1e200")
    assert doc["results"]["applied"][0]["Hf"]["value"] == pytest.approx(1e-200, rel=1e-14)


def test_estimate_at_a_tiny_point(capsys):
    # H f(1e-150) of ind(1e-200,2e-200) under (0, 0, 2): (1e-200/(x+1e-200))/(x+2e-200)
    doc = run_json(capsys, "estimate", "--expr", "ind(1e-200,2e-200)", "--p", "2", "--q", "2",
                   "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "2",
                   "--points", "1e-150")
    assert doc["results"]["applied"][0]["Hf"]["value"] == pytest.approx(1e100, rel=1e-14)


@pytest.mark.parametrize("point", ["inf", "nan", "0"])
def test_estimate_rejects_a_point_that_is_not_positive_and_finite(capsys, point):
    code, out, err = run_cli(capsys, *_ESTIMATE, "--expr", "ind(1,2)", "--points", f"1,{point}")
    assert code == EXIT_PARAMS and out == ""
    assert "probe points must be positive and finite" in json.loads(err)["detail"]


def test_estimate_constant_function_attains_linf_sharp_norm(capsys):
    # H1(x) = x^(1/2) int_0^inf (x+y)^(-3/2) dy = 2 = B(1, 1/2) at every x
    doc = run_json(capsys, "estimate", "--expr", "1", "--p", "inf", "--q", "inf",
                   "--alpha", "0.5", "--beta", "0", "--gamma", "1.5")
    assert doc["results"]["verdict"] == "bounded"
    assert doc["results"]["source_norm"]["value"] == 1.0
    for row in doc["results"]["applied"]:
        assert row["Hf"]["value"] == pytest.approx(2.0, rel=1e-12)


def test_estimate_labels_a_scanned_linf_norm_a_lower_bound(capsys):
    # a finite p = inf norm is a log-grid scan: a lower bound, with no tol
    doc = run_json(capsys, "estimate", "--expr", "x*exp(0-x)", "--p", "inf", "--q", "inf",
                   "--alpha", "0.5", "--beta", "0", "--gamma", "1.5")
    assert doc["results"]["source_norm"] == {"value": pytest.approx(math.exp(-1.0), rel=1e-12),
                                             "lower_bound": True}
    # the hint rule's inf is not a scan and keeps its tol
    doc = run_json(capsys, "estimate", "--expr", "x^(0-0.5)*ind(0,1)", "--p", "inf", "--q", "inf",
                   "--alpha", "0.5", "--beta", "0", "--gamma", "1.5")
    assert doc["results"]["source_norm"] == {"value": "inf", "tol": quad.DEFAULT_TOL_1D}


@pytest.mark.parametrize("expr", ["0*ind(1,2)", "x^(1/0)", "(0-1)^0.5*ind(1,2)"])
def test_estimate_zero_or_bad_constant_expr(capsys, expr):
    assert_parameter_error(
        capsys, "estimate", "--expr", expr, "--p", "2", "--q", "2", "--a", "0", "--b", "0",
        "--alpha", "0", "--beta", "0", "--gamma", "1")


def test_estimate_names_a_non_real_constant_under_log(capsys):
    # log(0-1) used to evaluate to nan, be zeroed by the quadrature and end
    # in "needs a source function of nonzero norm"
    code, _, err = run_cli(capsys, "estimate", "--expr", "log(0-1)*ind(1,2)+ind(2,3)",
                           "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                           "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert code == EXIT_PARAMS
    doc = json.loads(err)
    assert doc["error"] == "parameters"
    assert doc["detail"] == "constant log(0-1) is not a real number"


def test_sweep_negative_num(capsys):
    assert_parameter_error(
        capsys, "sweep", "--vary", "gamma", "--start", "0.5", "--stop", "1.5", "--num", "-1",
        "--p", "2", "--q", "2", "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0")


@pytest.mark.parametrize("vary,start,stop", [("p", "1", "inf"), ("q", "2", "inf"),
                                              ("gamma", "-inf", "1"), ("a", "inf", "inf")])
def test_sweep_infinite_endpoint(capsys, vary, start, stop):
    base = {"p": "2", "q": "4", "a": "0", "b": "0", "alpha": "0", "beta": "0", "gamma": "1"}
    flags = [w for k, v in base.items() if k != vary for w in (f"--{k}", v)]
    assert_parameter_error(capsys, "sweep", "--vary", vary, f"--start={start}", f"--stop={stop}",
                           "--num", "3", *flags)


def _linspace_cases():
    rng = random.Random(20261018)
    cases = [(0.5, 1.5, n) for n in (0, 1, 2, 11)]
    cases += [(1.5, 0.5, 11), (2.0, 2.0, 5), (-3.0, -1.0, 7), (-0.0, 1.0, 1), (-0.0, -1.0, 3),
              (1.0, 1.0 + 5 * math.ulp(1.0), 11),        # a step of half an ulp of start
              (1e6, 1e6 + math.ulp(1e6), 3), (0.0, 5e-324, 3)]  # the last step underflows
    for _ in range(200):
        start, stop = (rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-8, 8) for _ in range(2))
        cases.append((start, stop, rng.randrange(0, 40)))
    return cases


def test_sweep_grid_is_numpy_linspace_bit_for_bit():
    for start, stop, num in _linspace_cases():
        want = [float(v).hex() for v in np.linspace(start, stop, num)]
        assert [v.hex() for v in _linspace(start, stop, num)] == want, (start, stop, num)


def test_jsonable_numpy_scalars():
    doc = {"x": [np.float64(0.5), {"y": np.float32(0.5)}], "n": (np.int64(3),),
           "inf": np.float64(math.inf), "k": 1, "flag": True}
    out = jsonable(doc)
    assert out == {"x": [0.5, {"y": 0.5}], "n": [3.0], "inf": "inf", "k": 1, "flag": True}
    assert [type(v) for v in (out["x"][0], out["x"][1]["y"], out["n"][0])] == [float] * 3
    assert type(out["k"]) is int and out["flag"] is True


def test_non_numeric_tolerance_variable(capsys, monkeypatch):
    monkeypatch.setenv("OPLAB_TOL", "abc")
    assert_parameter_error(
        capsys, "estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
        "--alpha", "0", "--beta", "0", "--gamma", "1")


def test_extremal(capsys):
    doc = run_json(capsys, "extremal", "--p", "2", "--a", "0", "--alpha", "0",
                   "--beta", "0", "--gamma", "1", "--xi", "0.1", "--xi", "0.01")
    sweep = doc["results"]["sweep"]
    sharp = doc["results"]["sharp_norm"]["value"]
    assert sweep[0]["quotient"]["value"] < sweep[1]["quotient"]["value"] < sharp


def test_dilate(capsys):
    doc = run_json(capsys, "dilate", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                   "--alpha", "0", "--beta", "0", "--gamma", "2")
    assert doc["results"]["growth_exponent"]["value"] == pytest.approx(-1.0, abs=0.02)
    assert doc["results"]["predicted"]["value"] == pytest.approx(-1.0)


def test_dilate_singular_source(capsys):
    # H f ~ x^-0.9 near 0, not x^alpha: the co-dilating window is
    # completed at 0 with that exponent
    doc = run_json(capsys, "dilate", "--expr", "x^(0-0.9)*ind(0,1)", "--p", "1", "--q", "1",
                   "--a", "0", "--b", "0", "--alpha", "0.2", "--beta", "0", "--gamma", "1.2")
    residual = doc["results"]["residual"]
    assert residual["value"] <= 10 * residual["tol"]


@pytest.mark.parametrize("decades", ["580", "600"])
def test_dilate_far_out(capsys, decades):
    # R from 1e-290 to 1e290 is exact; at 1e300 the windows' probes are
    # subnormal and the command may fail, but never with a zero norm
    code, out, err = run_cli(capsys, "dilate", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                             "--alpha", "0", "--beta", "0", "--gamma", "2", "--r-decades", decades)
    assert "norm is zero" not in err
    if decades == "580" or code == EXIT_OK:
        assert code == EXIT_OK, err
        assert json.loads(out)["results"]["residual"]["value"] <= 1e-9


@pytest.mark.parametrize("r_num", ["1", "0", "-1"])
def test_dilate_needs_two_R(capsys, r_num):
    assert_parameter_error(
        capsys, "dilate", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
        "--alpha", "0", "--beta", "0", "--gamma", "2", "--r-num", r_num)


@pytest.mark.parametrize("q", ["0", "0.5"])
def test_dilate_needs_q_at_least_one(capsys, q):
    assert_parameter_error(
        capsys, "dilate", "--p", "2", "--q", q, "--a", "0", "--b", "0",
        "--alpha", "0", "--beta", "0", "--gamma", "2")


@pytest.mark.parametrize("decades", ["inf", "1000", "nan"])
def test_dilate_needs_a_positive_finite_R_grid(capsys, recwarn, decades):
    code, _, err = run_cli(capsys, "dilate", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                           "--alpha", "0", "--beta", "0", "--gamma", "2", "--r-decades", decades)
    assert code == EXIT_PARAMS, err
    assert "--r-decades" in json.loads(err)["detail"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("cutoff", ["0", "-1", "inf", "nan"])
def test_dilate_needs_a_positive_finite_cutoff(capsys, recwarn, cutoff):
    code, _, err = run_cli(capsys, "dilate", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                           "--alpha", "0", "--beta", "0", "--gamma", "1", "--cutoff", cutoff)
    assert code == EXIT_PARAMS, err
    assert "cutoff" in json.loads(err)["detail"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_sweep_csv(capsys):
    code, out, err = run_cli(capsys, "sweep", "--vary", "gamma", "--start", "0.5",
                             "--stop", "1.5", "--num", "5", "--p", "2", "--q", "2",
                             "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,bounded,sharp_norm,schur_bound,relation_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    bounded = [r for r in rows if r[1] == "yes"]
    assert len(bounded) == 1 and float(bounded[0][0]) == 1.0
    assert float(bounded[0][2]) == pytest.approx(math.pi, rel=1e-9)
    assert float(bounded[0][3]) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-9)


def test_sweep_csv_to_a_file_with_error_rows(capsys, tmp_path):
    # p > q = 2 has no verdict: those rows say error and leave the numbers empty
    path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--vary", "p", "--start", "1.5", "--stop", "3",
                             "--num", "4", "--q", "2", "--a", "0", "--b", "0", "--alpha", "0",
                             "--beta", "0", "--gamma", "1", "--out", str(path))
    assert code == EXIT_OK, err
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    assert rows[0] == ["p", "bounded", "sharp_norm", "schur_bound", "relation_residual"]
    assert [row[:2] for row in rows[1:]] == [["1.5", "no"], ["2", "yes"], ["2.5", "error"], ["3", "error"]]
    assert rows[3][2:] == ["", "", ""] and rows[4][2:] == ["", "", ""]


def test_bergman_reproduce(capsys):
    doc = run_json(capsys, "bergman", "reproduce", "--nu", "0", "--power", "3",
                   "--tol", "1e-5")
    assert doc["results"]["worst_abs_error"]["value"] <= 1e-4
    assert len(doc["results"]["points"]) == 5


def test_bergman_reproduce_rejects_an_overflowing_constant(capsys):
    code, out, err = run_cli(capsys, "bergman", "reproduce", "--nu", "1024")
    assert code == EXIT_PARAMS and out == ""
    assert "not a finite float" in json.loads(err)["detail"]


@pytest.mark.parametrize("nu", ["nan", "-1", "inf"])
def test_bergman_reproduce_rejects_a_bad_weight(capsys, nu):
    code, out, err = run_cli(capsys, "bergman", "reproduce", "--nu", nu)
    assert code == EXIT_PARAMS and out == ""
    assert json.loads(err)["error"] == "parameters"


def test_bergman_reduction(capsys):
    doc = run_json(capsys, "bergman", "reduction", "--alpha", "0", "--beta", "0", "--gamma", "1",
                   "--L", "0.25")
    (row,) = doc["results"]["boxes"]
    (want,) = reduction_bound_check(OperatorParams(0, 0, 1), func2d("ind(-0.25,0.25)*ind(y,1,2)"),
                                    y_grid=(1.0,), tol=1e-5)
    assert [row[k]["value"] for k in ("lhs", "rhs", "slack")] == [want[k] for k in ("lhs", "rhs", "slack")]
    assert row["ratio"]["value"] == want["lhs"] / want["rhs"]
    assert doc["tolerances"]["tol"] == 1e-5


@pytest.mark.parametrize("bad", ["--L 0", "--L -1", "--L inf", "--L 1 --y 0", "--L 1 --y inf",
                                 "--L 1 --p 0.5", "--L 1 --p inf", "--L 1 --gamma 0",
                                 "--L 1 --tol -1"])
def test_bergman_reduction_rejects_bad_parameters(capsys, bad):
    assert_parameter_error(capsys, "bergman", "reduction", "--alpha", "0", "--beta", "0",
                           "--gamma", "1", *bad.split())


@pytest.mark.parametrize("gamma, detail", [
    ("1e-320", "rhs inf"),  # B(1/2, 5e-321) leaves the floats
    ("1e300", "underflows to 0"),  # both sides are 0.0
    ("1e308", "underflows to 0"),  # so too since log_beta's Stirling form (was "rhs nan")
])
def test_bergman_reduction_at_an_extreme_gamma(capsys, gamma, detail):
    code, out, err = run_cli(capsys, "bergman", "reduction", "--alpha", "0", "--beta", "0",
                             "--gamma", gamma, "--L", "0.25")
    assert code == EXIT_PARAMS and out == ""
    doc = json.loads(err)
    assert doc["error"] == "parameters" and detail in doc["detail"]


def test_sharp_norm_at_the_top_of_the_float_range(capsys):
    # B(1/2, 1e306 + 1/2) ~ sqrt(pi/1e306); the sum of lgammas was NaN, and the command exited 1
    doc = run_json(capsys, "sharp-norm", "--p", "1", "--a", "0", "--alpha", "1e306",
                   "--beta", "0.5", "--gamma", "1e306")
    assert doc["results"]["norm"]["value"] == pytest.approx(1.772453850905516e-153, rel=1e-13)


def test_solve_gamma(capsys):
    doc = run_json(capsys, "solve-gamma", "--p", "2", "--q", "3", "--a", "0",
                   "--b", "0.5", "--alpha", "0.2", "--beta", "0.3")
    assert doc["results"]["gamma"]["value"] == pytest.approx(0.2 + 0.3 + 1 - 0.5 + 0.5)


_EXTREMAL = ["extremal", "--p", "2", "--a", "0", "--alpha", "0", "--beta", "0", "--gamma", "1"]
_SOLVE = ["solve-gamma", "--p", "2", "--q", "3", "--b", "0.5", "--alpha", "0.2", "--beta", "0.3"]
_CERTIFY = ["certify", "--p", "2", "--q", "2", "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0",
            "--gamma", "1"]
_TPLUS = ["verdict", "bergman", "--operator", "tplus", "--p", "2", "--r", "2", "--a", "0", "--b", "0",
          "--alpha", "0.25", "--beta", "0.25"]
_PROJECTION = ["verdict", "bergman", "--operator", "projection", "--p", "2", "--q", "1", "--r", "1",
               "--a", "0", "--b", "0"]


@pytest.mark.parametrize("args, detail", [
    (_EXTREMAL + ["--xi", "0.1", "--tol", "-1"], "tolerance"),   # no quadrature drive checks it
    (_EXTREMAL + ["--xi", "0.1", "--tol", "nan"], "tolerance"),
    (_EXTREMAL + ["--xi", "inf"], "xi must be positive and finite"),
    (_SOLVE, "weight exponent"),                                 # --a missing
    (_CERTIFY + ["--d", "10"], "forced d must lie in (0, 0.5)"),
    (_TPLUS + ["--q", "2"], "--gamma is required"),
    (_TPLUS + ["--q", "3", "--gamma", "1.5"], "only the upper-triangle case"),
    (_PROJECTION + ["--beta", "-2"], "beta > -1"),
    (["bergman", "reproduce", "--nu", "0", "--power", "1"], "integer m >= 2"),
])
def test_extremal_and_solve_gamma_reject_bad_input(capsys, args, detail):
    code, out, err = run_cli(capsys, *args)
    assert code == EXIT_PARAMS and out == ""
    assert detail in json.loads(err)["detail"]


def test_invalid_parameters_exit_code(capsys):
    code, out, err = run_cli(capsys, "sharp-norm", "--p", "2", "--a", "-2",
                             "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert code == EXIT_PARAMS
    assert "parameters" in err


def test_determinism_byte_identical_modulo_elapsed(capsys):
    args = ["verdict", "hilbert", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
            "--alpha", "0", "--beta", "0", "--gamma", "1"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    strip = lambda s: re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": X', s)
    assert strip(out1) == strip(out2)


def test_tolerance_precedence(capsys, monkeypatch):
    # flag > environment variable > default
    monkeypatch.setenv("OPLAB_TOL", "1e-4")
    doc = run_json(capsys, "estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2",
                   "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert doc["tolerances"]["tol"] == 1e-4
    doc = run_json(capsys, "estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2",
                   "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "1",
                   "--tol", "1e-6")
    assert doc["tolerances"]["tol"] == 1e-6
    monkeypatch.delenv("OPLAB_TOL")
    doc = run_json(capsys, "estimate", "--expr", "ind(1,2)", "--p", "2", "--q", "2",
                   "--a", "0", "--b", "0", "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert doc["tolerances"]["tol"] == 1e-10


def test_dilate_zero_source_is_a_parameter_error(capsys):
    code, out, err = run_cli(capsys, "dilate", "--p", "2", "--q", "2", "--a", "0", "--b", "0",
                             "--alpha", "0", "--beta", "0", "--gamma", "1", "--expr", "0*ind(1,2)")
    assert code == EXIT_PARAMS
    assert json.loads(err) == {"error": "parameters",
                               "detail": "the growth fit needs a source function of nonzero norm"}
