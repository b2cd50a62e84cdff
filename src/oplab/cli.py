"""Command-line front end.

Subcommands
-----------
  verdict hilbert|bergman   boundedness condition reports
  sharp-norm                closed-form diagonal norm of the half-line operator
  certify                   construct a Schur-type certificate (JSON document)
  certify verify            re-verify a certificate document numerically
  estimate                  apply the half-line operator to an --expr function
  extremal                  xi-sweep of the extremal Rayleigh quotient
  dilate                    dilation growth-exponent experiment
  sweep                     vary one parameter on a grid, CSV out
  bergman reproduce         projection fixed-point check
  bergman reduction         slicewise reduction inequality on widening boxes
  solve-gamma               the gamma that balances the relation exactly

Exit codes: 0 success, 2 invalid parameters or usage, 3 divergence
detected (the expected signal in unbounded regimes), 4 quadrature
accuracy failure or a failed certificate verification.  An error prints
{"error", "detail"} JSON on stderr; exit 4 adds the numbers behind it:
"last_change" of the quadrature, or the certificate's "inequality",
"sample" and "residual".

Reports are JSON with a versioned schema; every numeric result carries
the tolerance it was computed to, except a scanned L^inf norm, which is
marked "lower_bound" instead.  Identical argv produce byte-identical
output apart from the elapsed_s field.  Infinity is spelled "inf" both
in flags and in JSON.  Tolerance precedence: --tol flag, then the
OPLAB_TOL environment variable, then per-command defaults.

The closed-form commands (verdict, sharp-norm, certify, sweep and
solve-gamma) run without numpy; the modules that integrate are imported
only by the commands that need them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from . import theory
from .errors import AccuracyError, DivergenceError, OplabError, ParameterError
from .reports import RELATION_EPS, jsonable
from .theory import OperatorParams, WeightedSpaceSpec

SCHEMA = 1

EXIT_OK = 0
EXIT_PARAMS = OplabError.exit_code
EXIT_DIVERGENCE = DivergenceError.exit_code
EXIT_ACCURACY = AccuracyError.exit_code


def num(value: float, tol: float) -> dict:
    """A numeric report field: the value together with its tolerance."""
    return {"value": value, "tol": tol}


def _verdict(rep) -> dict:
    """The results fields of a verdict-carrying command."""
    return {"verdict": "bounded" if rep.bounded else "unbounded", "report": rep.to_dict()}


def emit(report: dict, out: str | None = None) -> None:
    text = json.dumps(jsonable(report), indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(args, inputs: dict, results: dict, tolerances: dict) -> dict:
    """The report envelope around a command's inputs, results and tolerances."""
    return {
        "schema": SCHEMA,
        "command": args.command_name,
        "argv": args.argv,
        "inputs": inputs,
        "results": results,
        "tolerances": tolerances,
        "elapsed_s": round(time.perf_counter() - args.t0, 6),
    }


def _inputs(args, *keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def func1d(text: str):
    """funcdsl.func1d, imported on first use: the expression language needs numpy."""
    from .funcdsl import func1d as build
    return build(text)


def _params(args) -> OperatorParams:
    return OperatorParams(args.alpha, args.beta, args.gamma)


_SPACES = ("p", "q", "a", "b")
_PARAMS = ("alpha", "beta", "gamma")
_RELATION = {"relation_epsilon": RELATION_EPS}


def resolve_tol(flag_value: float | None, default: float) -> float:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("OPLAB_TOL")
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise ParameterError(f"OPLAB_TOL must be a number, got {env!r}") from exc
    return default


def _add_params(ap: argparse.ArgumentParser, required=True):
    ap.add_argument("--alpha", type=float, required=required)
    ap.add_argument("--beta", type=float, required=required)
    ap.add_argument("--gamma", type=float, required=required)


def _add_spaces(ap: argparse.ArgumentParser, required=True):
    ap.add_argument("--p", type=float, required=required)
    ap.add_argument("--q", type=float, required=required)
    ap.add_argument("--a", type=float, default=None)
    ap.add_argument("--b", type=float, default=None)


def _leaf(sub, name: str, func, command: str | None = None, **kw) -> argparse.ArgumentParser:
    """A subcommand that runs ``func``, with --out and the report's command name."""
    ap = sub.add_parser(name, **kw)
    ap.add_argument("--out")
    ap.set_defaults(func=func, command_name=command or name)
    return ap


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oplab",
        description="Numerical laboratory for weighted Hilbert-type and Bergman-type operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # verdict
    v = sub.add_parser("verdict", help="boundedness condition report")
    vsub = v.add_subparsers(dest="family", required=True)
    vh = _leaf(vsub, "hilbert", _cmd_verdict_hilbert, "verdict hilbert")
    _add_spaces(vh)
    _add_params(vh)
    vb = _leaf(vsub, "bergman", _cmd_verdict_bergman, "verdict bergman")
    vb.add_argument("--operator", choices=["tplus", "t", "projection"], default="tplus")
    vb.add_argument("--p", type=float, required=True)
    vb.add_argument("--q", type=float, required=True)
    vb.add_argument("--r", type=float, required=True)
    vb.add_argument("--a", type=float, default=None)
    vb.add_argument("--b", type=float, default=None)
    vb.add_argument("--alpha", type=float, default=0.0)
    vb.add_argument("--beta", type=float, required=True)
    vb.add_argument("--gamma", type=float, default=None)

    # sharp-norm
    sn = _leaf(sub, "sharp-norm", _cmd_sharp_norm, help="closed-form diagonal operator norm")
    sn.add_argument("--p", type=float, required=True)
    sn.add_argument("--a", type=float, default=None)
    _add_params(sn)

    # certify (make | verify)
    ce = _leaf(sub, "certify", _cmd_certify, help="construct or verify a Schur-type certificate")
    _add_spaces(ce, required=False)
    _add_params(ce, required=False)
    ce.add_argument("--d", type=float, default=None, help="force the exponent gap d = r - s")
    cv = _leaf(ce.add_subparsers(dest="mode"), "verify", _cmd_certify_verify, "certify verify")
    cv.add_argument("--cert", required=True, help="certificate JSON document")
    cv.add_argument("--samples", type=int, default=100)
    cv.add_argument("--tol", type=float, default=None)

    # estimate
    es = _leaf(sub, "estimate", _cmd_estimate, help="apply the operator to an --expr function")
    es.add_argument("--expr", required=True)
    _add_spaces(es)
    _add_params(es)
    es.add_argument("--points", default="0.5,1,2", help="comma-separated probe abscissae")
    es.add_argument("--tol", type=float, default=None)

    # extremal
    ex = _leaf(sub, "extremal", _cmd_extremal, help="xi-sweep of the extremal Rayleigh quotient")
    ex.add_argument("--p", type=float, required=True)
    ex.add_argument("--a", type=float, required=True)
    _add_params(ex)
    ex.add_argument("--xi", type=float, action="append", required=True)
    ex.add_argument("--tol", type=float, default=None)

    # dilate
    di = _leaf(sub, "dilate", _cmd_dilate, help="dilation growth-exponent experiment")
    _add_spaces(di)
    _add_params(di)
    di.add_argument("--expr", default="ind(1,2)")
    di.add_argument("--r-decades", type=float, default=3.0)
    di.add_argument("--r-num", type=int, default=7)
    di.add_argument("--cutoff", type=float, default=10.0)
    di.add_argument("--tol", type=float, default=None)

    # sweep
    sw = _leaf(sub, "sweep", _cmd_sweep, help="vary one parameter on a grid, CSV out")
    sw.add_argument("--vary", required=True,
                    choices=["alpha", "beta", "gamma", "a", "b", "p", "q"])
    sw.add_argument("--start", type=float, required=True)
    sw.add_argument("--stop", type=float, required=True)
    sw.add_argument("--num", type=int, required=True)
    _add_spaces(sw, required=False)
    _add_params(sw, required=False)

    # bergman subcommands
    bg = sub.add_parser("bergman", help="upper half-plane checks")
    bsub = bg.add_subparsers(dest="action", required=True)
    br = _leaf(bsub, "reproduce", _cmd_bergman_reproduce, "bergman reproduce",
               help="projection fixed-point check")
    br.add_argument("--nu", type=float, default=0.0)
    br.add_argument("--power", type=int, default=3)
    br.add_argument("--tol", type=float, default=None)
    bd = _leaf(bsub, "reduction", _cmd_bergman_reduction, "bergman reduction",
               help="slicewise reduction inequality on the boxes ind(-L,L)*ind(y,1,2)")
    _add_params(bd)
    bd.add_argument("--p", type=float, default=2.0)
    bd.add_argument("--y", type=float, default=1.0)
    bd.add_argument("--L", type=float, action="append", required=True)
    bd.add_argument("--tol", type=float, default=None)

    # solve-gamma
    sg = _leaf(sub, "solve-gamma", _cmd_solve_gamma, help="gamma balancing the relation exactly")
    _add_spaces(sg)
    sg.add_argument("--alpha", type=float, required=True)
    sg.add_argument("--beta", type=float, required=True)

    return ap


# --------------------------------------------------------------------------
# command bodies
# --------------------------------------------------------------------------

# Each command returns (inputs, results, tolerances) for main to wrap in
# the report envelope, or None when it writes its own output (certify:
# the report to stdout and the certificate document to --out; sweep: CSV).

def _cmd_verdict_hilbert(args):
    rep = theory.hilbert_verdict(args.p, args.q, args.a, args.b, _params(args))
    return _inputs(args, *_SPACES, *_PARAMS), _verdict(rep), _RELATION


def _cmd_verdict_bergman(args):
    if args.gamma is None:
        if args.operator != "projection":
            raise OplabError("--gamma is required for tplus/t verdicts")
        args.gamma = args.beta + 1.0
    src = theory.MixedNormSpec(args.p, args.q, args.a)
    tgt = theory.MixedNormSpec(args.p, args.r, args.b)
    rep = theory.bergman_verdict(theory.BergmanVerdictRequest(args.operator, src, tgt, _params(args)))
    return _inputs(args, "operator", "p", "q", "r", "a", "b", *_PARAMS), _verdict(rep), _RELATION


def _cmd_sharp_norm(args):
    value = theory.sharp_norm(WeightedSpaceSpec(args.p, args.a), _params(args))
    return _inputs(args, "p", "a", *_PARAMS), {"norm": num(value, 1e-13)}, _RELATION


def _cmd_certify_verify(args):
    from . import schur
    try:
        with open(args.cert) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read certificate document {args.cert!r}: {exc}") from exc
    cert = theory.SchurCertificate.from_dict(doc)
    cert.validate()
    tol = resolve_tol(args.tol, 1e-8)
    rep = schur.verify_certificate(
        cert, cert.p, cert.q, cert.a, cert.b, cert.params,
        n_samples=args.samples, tol=tol)
    results = {"verification": rep.to_dict(),
               "max_residual": num(rep.max_residual, tol)}
    return {"certificate": cert.to_dict()}, results, {"tol": tol}


def _cmd_certify(args):
    required = (*_SPACES, *_PARAMS)
    missing = [k for k in required if getattr(args, k) is None]
    if missing:
        raise OplabError(f"certify needs --{' --'.join(missing)}")
    cert = theory.find_certificate(args.p, args.q, args.a, args.b, _params(args), d=args.d)
    results = {"certificate": cert.to_dict(), "bound": num(cert.bound, 1e-13)}
    emit(_report(args, _inputs(args, *required), results, _RELATION))
    if args.out:
        emit(cert.to_dict(), args.out)


def _cmd_estimate(args):
    from . import hilbert, quad
    tol = resolve_tol(args.tol, quad.DEFAULT_TOL_1D)
    params = _params(args)
    f = func1d(args.expr)
    try:
        args.points = [float(s) for s in args.points.split(",") if s.strip()]
    except ValueError as exc:
        raise ParameterError(f"--points must be comma-separated numbers: {exc}") from exc
    values = hilbert.apply_H_many(params, f, args.points, tol)
    src = WeightedSpaceSpec(args.p, args.a)
    nf = hilbert.weighted_lp_norm(f, src, tol)
    verdict = theory.hilbert_verdict(args.p, args.q, args.a, args.b, params)
    scanned = math.isinf(args.p) and math.isfinite(nf)  # a log-grid scan: a lower bound
    results = {
        "applied": [{"x": x, "Hf": num(float(v), tol)} for x, v in zip(args.points, values)],
        "source_norm": {"value": nf, "lower_bound": True} if scanned else num(nf, tol),
        **_verdict(verdict),
    }
    if verdict.bounded and not math.isinf(args.q):
        if nf == 0.0:
            raise ParameterError("the quotient needs a source function of nonzero norm")
        nHf = hilbert.image_norm(params, f, args.q, args.b, tol)
        results["image_norm"] = num(nHf, tol)
        results["quotient"] = num(nHf / nf, tol)
        if args.p == args.q and args.a == args.b:
            try:
                results["sharp_norm"] = num(theory.sharp_norm(src, params), 1e-13)
            except OplabError:
                pass
    return _inputs(args, "expr", *_SPACES, *_PARAMS, "points"), results, {"tol": tol}


def _cmd_extremal(args):
    from . import hilbert, quad
    tol = resolve_tol(args.tol, quad.DEFAULT_TOL_1D)
    params = _params(args)
    space = WeightedSpaceSpec(args.p, args.a)
    sharp = theory.sharp_norm(space, params)
    rows = []
    for xi in args.xi:
        qv = hilbert.extremal_quotient(space, params, xi, tol)
        row = {"xi": xi, "quotient": num(qv, tol), "gap": num(sharp - qv, tol)}
        family = hilbert.ExtremalFamily(xi, space)
        if xi < family.window(params):
            row["correction_bound"] = num(family.correction_bound(params), 1e-13)
        rows.append(row)
    results = {"sharp_norm": num(sharp, 1e-13), "sweep": rows}
    return _inputs(args, "p", "a", *_PARAMS, "xi"), results, {"tol": tol}


def _cmd_dilate(args):
    import numpy as np

    from . import hilbert
    tol = resolve_tol(args.tol, 1e-9)
    f = func1d(args.expr)
    if args.r_num < 2:
        raise ParameterError(f"--r-num must be at least 2, got {args.r_num}")
    half = args.r_decades / 2.0
    grid = np.logspace(-half, half, args.r_num)
    slope = hilbert.growth_exponent(args.p, args.q, args.a, args.b, _params(args),
                                    f=f, R_grid=grid, tol=tol, cutoff=args.cutoff)
    kappa = (args.gamma - args.alpha - args.beta - 1.0
             - theory.weight_term(args.b, args.q) + theory.weight_term(args.a, args.p))
    predicted = -kappa
    args.R_grid = [float(r) for r in grid]
    results = {
        "growth_exponent": num(slope, tol),
        "predicted": num(predicted, 0.0),
        "residual": num(abs(slope - predicted), tol),
    }
    return _inputs(args, *_SPACES, *_PARAMS, "expr", "R_grid", "cutoff"), results, {"tol": tol}


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) for finite start and stop, bit for bit:
    start + i*step, step = (stop-start)/(num-1), with stop itself last."""
    if num <= 1:
        return [start + 0.0 * (stop - start)] * num
    div = num - 1
    step = (stop - start) / div
    if step == 0.0:   # numpy scales i/div by the difference where the step underflows
        return [start + i / div * (stop - start) for i in range(div)] + [stop]
    return [start + i * step for i in range(div)] + [stop]


_SWEEP_COLUMNS = ["value", "bounded", "sharp_norm", "schur_bound", "relation_residual"]


def _cmd_sweep(args):
    base = _inputs(args, *_SPACES, *_PARAMS)
    missing = [k for k, v in base.items() if v is None and k != args.vary]
    if missing:
        raise OplabError(f"sweep needs --{' --'.join(missing)}")
    if args.num < 0:
        raise ParameterError(f"--num must be non-negative, got {args.num}")
    if any(math.isnan(v) for v in (args.start, args.stop, *base.values()) if v is not None):
        raise ParameterError("sweep values must be numbers, got nan")
    if math.isinf(args.start) or math.isinf(args.stop):
        raise ParameterError(f"--start and --stop must be finite, got {args.start} and {args.stop}")
    grid = _linspace(args.start, args.stop, args.num)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([args.vary] + _SWEEP_COLUMNS[1:])
    for value in grid:
        point = dict(base)
        point[args.vary] = value
        params = OperatorParams(point["alpha"], point["beta"], point["gamma"])
        row = [f"{value:.12g}"]
        try:
            verdict = theory.hilbert_verdict(point["p"], point["q"], point["a"],
                                             point["b"], params)
        except OplabError:
            writer.writerow(row + ["error", "", "", ""])
            continue
        row.append("yes" if verdict.bounded else "no")
        try:
            row.append(f"{theory.sharp_norm(WeightedSpaceSpec(point['p'], point['a']), params):.12g}"
                       if point["p"] == point["q"] and point["a"] == point["b"] else "")
        except OplabError:
            row.append("")
        try:
            row.append(f"{theory.find_certificate(point['p'], point['q'], point['a'], point['b'], params).bound:.12g}"
                       if verdict.bounded and not math.isinf(point["q"]) else "")
        except OplabError:
            row.append("")
        residual = verdict.relation.residual if verdict.relation else 0.0
        row.append(f"{residual:.12g}")
        writer.writerow(row)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bergman_reproduce(args):
    from . import bergman, quad
    tol = resolve_tol(args.tol, quad.DEFAULT_TOL_2D)
    rows = bergman.reproduce_check(args.nu, args.power, tol=tol)
    worst = max(r["abs_error"] for r in rows)
    results = {"points": [{k: num(v, tol) if isinstance(v, float) else v
                           for k, v in r.items()} for r in rows],
               "worst_abs_error": num(worst, tol)}
    return _inputs(args, "nu", "power"), results, {"tol": tol}


def _cmd_bergman_reduction(args):
    from . import bergman
    from .funcdsl import func2d
    tol = resolve_tol(args.tol, 1e-5)
    rows = []
    for L in args.L:
        if not 0.0 < L < math.inf:
            raise ParameterError(f"--L must be a positive finite half-width, got {L}")
        f = func2d(f"ind(-{L},{L})*ind(y,1,2)")
        row = bergman.reduction_bound_check(_params(args), f, y_grid=(args.y,), tol=tol, p=args.p)[0]
        rows.append({"L": L, **{k: num(row[k], tol) for k in ("lhs", "rhs", "slack")},
                     "ratio": num(row["lhs"] / row["rhs"], tol)})
    return _inputs(args, *_PARAMS, "p", "y", "L"), {"boxes": rows}, {"tol": tol}


def _cmd_solve_gamma(args):
    value = theory.solve_gamma(args.p, args.q, args.a, args.b, args.alpha, args.beta)
    return _inputs(args, *_SPACES, "alpha", "beta"), {"gamma": num(value, 0.0)}, {}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv, args.t0 = argv, time.perf_counter()
    try:
        body = args.func(args)
        if body is not None:
            emit(_report(args, *body), args.out)
        return EXIT_OK
    except OplabError as exc:
        doc = {"error": exc.kind, "detail": str(exc), **{k: getattr(exc, k) for k in exc.fields}}
        print(json.dumps(jsonable(doc)), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
