"""Seeded inputs, task lists and oracles for the three workloads.

Each workload turns a seed into plain-data inputs (``make_inputs``) and
those inputs into a list of tasks (``tasks``).  A task's ``run`` calls
the program; its ``check`` compares what came back with an oracle that
does not use oplab's quadrature: closed forms (Beta values through
``math.lgamma``), Gauss-Legendre references on compact supports, or an
inequality the paper proves.  Checks run after the timed pass.

Workloads
---------
halfline   studies of seeded (alpha, beta, a, p) tuples on the half-line:
           every 1D layer, wide batched and scalar drives, no bergman.
halfplane  the slicewise reduction inequality on a seeded box at the three
           default heights (tol 1e-5, as in scripts/reduction_ratio.py),
           reproduction under P_nu, column integrals, T+/T on the default
           probe grid and a mixed norm: nested 2D drives.
cli        the README command list with seeded parameters, one fresh
           ``python -m oplab.cli`` process at a time.

Study parameters are drawn by Latin hypercube sampling over ranges inside
the window inequalities, so that the cost of a pass varies little from
seed to seed while every seed gives new inputs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from oplab import bergman, funcdsl, hilbert, schur

WORKLOADS = ("halfline", "halfplane", "cli")

TOL_1D = 1e-10
TOL_2D = 1e-6
TOL_REDUCTION = 1e-5
CERT_RESIDUAL = 1e-8
CLOSED_FORM_TOL = 1e-13   # the tolerance the CLI reports for closed forms
QUAD_FACTOR = 10.0        # a quadrature result may miss its reference by 10*tol
# column_integral is held to the 0.5% of the acceptance gate (criterion 5);
# at tol 1e-6 it misses 10*tol on some tuples well inside the window, which
# oracle.err_over_tol_max reports.
COLUMN_FACTOR = 5e-3 / TOL_2D
XIS = (1e-1, 1e-2, 1e-3)
N_STUDIES = 12
N_PROBES = 512
VERIFY_SAMPLES = 50
HEIGHTS = (0.5, 1.0, 2.0)


# --------------------------------------------------------------------------
# independent references
# --------------------------------------------------------------------------

def lbeta(m: float, n: float) -> float:
    return math.lgamma(m) + math.lgamma(n) - math.lgamma(m + n)


def beta(m: float, n: float) -> float:
    return math.exp(lbeta(m, n))


_GL_X, _GL_W = leggauss(40)


def gl_nodes(lo: float, hi: float, panels: int = 4):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return x, w


def H_reference(pieces, alpha, beta_, gamma, xs):
    """x^alpha * int f(y) y^beta (x+y)^-gamma dy for f = sum c*y^s*1[lo,hi]."""
    xs = np.asarray(xs, dtype=float)
    total = np.zeros_like(xs)
    for c, s, lo, hi in pieces:
        y, w = gl_nodes(lo, hi)
        total += c * ((w * y ** (s + beta_))[None, :] * (xs[:, None] + y[None, :]) ** (-gamma)).sum(axis=1)
    return xs ** alpha * total


def piece_lp_norm(pieces, p, a):
    """(int |f|^p x^a dx)^(1/p) for disjoint pieces c*x^s*1[lo,hi]."""
    total = 0.0
    for c, s, lo, hi in pieces:
        e = s * p + a + 1.0
        total += abs(c) ** p * (hi ** e - lo ** e) / e
    return total ** (1.0 / p)


def source_text(pieces) -> str:
    terms = []
    for c, s, lo, hi in pieces:
        term = f"ind({lo!r},{hi!r})"
        if s != 0.0:
            term = f"x^{s!r}*" + term
        if c != 1.0:
            term = f"{c!r}*" + term
        terms.append(term)
    return "+".join(terms)


# --------------------------------------------------------------------------
# oracle bookkeeping
# --------------------------------------------------------------------------

class Checker:
    """Collects oracle outcomes; ``worst`` is the largest |error|/tol seen."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst = 0.0

    def true(self, name: str, cond) -> None:
        if not bool(cond):
            self.failures.append(name)

    def close(self, name: str, got, ref, tol: float, factor: float = QUAD_FACTOR,
              scale=None) -> None:
        """|got - ref| <= factor * tol * scale, scale defaulting to |ref|."""
        got = np.asarray(got, dtype=complex if np.iscomplexobj(got) else float)
        ref = np.asarray(ref)
        scale = np.abs(ref) if scale is None else np.asarray(scale)
        ratio = float(np.max(np.abs(got - ref) / (tol * scale)))
        self.worst = max(self.worst, ratio)
        if not ratio <= factor:
            self.failures.append(f"{name}: |error|/tol = {ratio:.3g} > {factor:g}")

    def below(self, name: str, value: float, tol: float, factor: float = QUAD_FACTOR) -> None:
        """0 <= value <= factor * tol for an error the program reports itself."""
        ratio = value / tol
        self.worst = max(self.worst, ratio)
        if not 0.0 <= ratio <= factor:
            self.failures.append(f"{name}: {value!r} / tol = {ratio:.3g} > {factor:g}")

    def at_least(self, name: str, value: float, floor: float, tol: float) -> None:
        """value >= floor - tol, e.g. a slack that may dip to -tol."""
        ratio = max(0.0, floor - value) / tol
        self.worst = max(self.worst, ratio)
        if not value >= floor - tol:
            self.failures.append(f"{name}: {value!r} < {floor!r} - {tol!r}")


@dataclass
class Task:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object, Checker], None]


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------

def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _lhs(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Latin hypercube sample of n points in [0,1)^dims."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return ((strata + rng.uniform(size=(n, dims))) / n).tolist()


def _tuple_from_unit(u) -> dict:
    """A study tuple inside the windows from a point of the unit cube."""
    p = 1.5 + 1.5 * u[0]
    a = -0.5 + 1.3 * u[1]
    alpha = 0.1 + 0.5 * u[2]
    margin = 0.3 + 0.6 * u[3]              # beta+1-(a+1)/p, so a+1 < p(beta+1)
    beta_ = (a + 1.0) / p - 1.0 + margin
    q = p + 1.5 * u[4]
    b = -0.5 + 1.3 * u[5]
    return {"p": p, "a": a, "alpha": alpha, "beta": beta_, "q": q, "b": b}


def _halfline_inputs(rng) -> dict:
    studies = []
    for u in _lhs(rng, N_STUDIES, 8):
        t = _tuple_from_unit(u)
        t["delta"] = float(rng.choice((-1.0, 1.0))) * (0.15 + 0.2 * u[6])
        t["R"] = 10.0 ** (-0.3 + 0.8 * u[7])
        lo_a1 = max(-1.0, -t["alpha"] - 1.0)
        t["a1"] = lo_a1 + (t["beta"] - lo_a1) * rng.uniform(0.3, 0.7)
        c1 = round(rng.uniform(0.5, 1.5), 4)
        c2 = round(rng.uniform(0.3, 1.0), 4)
        c3 = round(rng.uniform(0.25, 0.75), 4)
        e3 = round(c3 + rng.uniform(0.75, 1.25), 4)
        t["sources"] = [
            [(1.0, 0.0, c1, round(c1 + rng.uniform(0.5, 1.5), 4))],
            [(1.0, round(rng.uniform(-0.5, 0.5), 4), c2, round(c2 + rng.uniform(1.0, 2.0), 4))],
            [(2.0, 0.0, c3, round(c3 + 0.5, 4)), (1.0, 0.0, e3, round(e3 + 1.0, 4))],
        ]
        t["probes"] = (10.0 ** rng.uniform(-3.2, -2.8), 10.0 ** rng.uniform(2.8, 3.2))
        studies.append(t)
    return {"studies": studies}


def _halfplane_inputs(rng) -> dict:
    columns = []
    for u in _lhs(rng, 4, 5):
        alpha, beta_ = 0.5 * u[0], 0.5 * u[1]
        # -alpha < a+1 < beta+1 and a > -1
        lo = max(-1.0, -alpha - 1.0)
        a = lo + (beta_ - lo) * (0.2 + 0.6 * u[2])
        columns.append({"alpha": alpha, "beta": beta_, "a": a,
                        "w": (-2.0 + 4.0 * u[3], 0.3 + 1.7 * u[4])})
    grid = []
    for u in _lhs(rng, 9, 6):
        c = round(0.5 + 0.5 * u[3], 4)
        grid.append({"alpha": 0.5 * u[0], "beta": 0.5 * u[1], "gamma": 0.8 + 0.7 * u[2],
                     "c": c, "d": round(c + 0.5 + 0.5 * u[4], 4),
                     "box_L": round(0.25 + 0.75 * u[5], 4)})
    c = round(rng.uniform(0.5, 1.0), 4)
    return {
        # the README's unit box with the parameters of scripts/reduction_ratio.py;
        # its cost depends on L through the refinement levels, so L stays fixed
        "L": 0.25,
        "nu": rng.uniform(0.1, 0.9),
        "power": 3,
        "columns": columns,
        "grid": grid,
        "mixed": {"p": rng.uniform(1.0, 3.0), "q": rng.uniform(1.0, 3.0),
                  "nu": rng.uniform(-0.5, 1.0), "c": c,
                  "d": round(c + rng.uniform(0.5, 1.0), 4),
                  "box_L": round(rng.uniform(0.25, 1.0), 4)},
    }


def _cli_inputs(rng) -> dict:
    t = _tuple_from_unit(rng.uniform(size=6))
    t["delta"] = float(rng.choice((-1.0, 1.0))) * rng.uniform(0.15, 0.35)
    t["nu"] = rng.uniform(0.1, 0.9)
    lo = round(rng.uniform(0.5, 1.5), 4)
    t["source"] = [(1.0, 0.0, lo, round(lo + rng.uniform(0.5, 1.5), 4))]
    t["points"] = sorted(round(10.0 ** rng.uniform(-1.0, 1.0), 4) for _ in range(3))
    return t


def make_inputs(workload: str, seed: int) -> dict:
    rng = _rng(workload, seed)
    make = {"halfline": _halfline_inputs, "halfplane": _halfplane_inputs,
            "cli": _cli_inputs}[workload]
    return {"workload": workload, "seed": seed, **make(rng)}


# --------------------------------------------------------------------------
# halfline
# --------------------------------------------------------------------------

def _study(t: dict) -> dict:
    p, a, al, be, q, b = t["p"], t["a"], t["alpha"], t["beta"], t["q"], t["b"]
    P = hilbert.OperatorParams
    P0 = P(al, be, al + be + 1.0)
    g1 = hilbert.solve_gamma(p, q, a, b, al, be)
    P1 = P(al, be, g1)
    P2 = P(al, be, g1 + t["delta"])
    space = hilbert.WeightedSpaceSpec(p, a)
    fs = [funcdsl.func1d(source_text(s)) for s in t["sources"]]
    unit = funcdsl.func1d("ind(1,2)")
    xs = np.geomspace(*t["probes"], N_PROBES)
    r = {"gamma1": g1}
    r["verdicts"] = (hilbert.hilbert_verdict(p, p, a, a, P0).bounded,
                     hilbert.hilbert_verdict(p, q, a, b, P1).bounded,
                     hilbert.hilbert_verdict(p, q, a, b, P2).bounded)
    r["sharp"] = hilbert.sharp_norm(space, P0)
    r["extremal"] = [hilbert.extremal_quotient(space, P0, xi) for xi in XIS]
    r["H"] = [hilbert.apply_H_many(P0, f, xs) for f in fs]
    r["H_classical"] = [hilbert.apply_H_many(P(0.0, 0.0, g), unit, xs) for g in (1.0, 2.0)]
    r["norm_f"] = hilbert.weighted_lp_norm(fs[0], space)
    r["image"] = hilbert.image_norm(P0, fs[0], p, a)
    r["pairing"] = hilbert.bilinear_pairing(P0, fs[0], fs[2], a)
    r["dilation"] = hilbert.dilation_residual(P0, fs[1], t["R"], (0.5, 1.0, 3.0))
    r["growth"] = hilbert.growth_exponent(p, q, a, b, P2, f=fs[0])
    cert = schur.find_certificate(p, q, a, b, P1)
    r["cert"] = cert
    r["verify"] = schur.verify_certificate(cert, p, q, a, b, P1, n_samples=VERIFY_SAMPLES)
    r["sup_l1"] = schur.sup_test_L1(P0, t["a1"])
    r["sup_linf"] = schur.sup_test_Linf(P0)
    return r


def _check_extremal(chk: Checker, tag: str, p, a, al, be, sharp, quotients, xis, tol):
    for xi, Q in zip(xis, quotients):
        e_f = (a + 1.0 + xi) / p
        lead = beta(be + 1.0 - e_f, al + e_f)
        # corr <= C: (x+y)^-gamma <= x^-gamma on the correction square
        corr_bound = 1.0 / ((be + 1.0 - e_f) * (be + 1.0 - e_f + xi))
        chk.true(f"{tag} quotient below sharp norm at xi={xi}", Q < sharp)
        chk.true(f"{tag} gap within xi*corr bound at xi={xi}",
                 sharp - Q <= abs(sharp - lead) + xi * corr_bound + QUAD_FACTOR * tol * sharp)
        chk.at_least(f"{tag} quotient above lead - xi*C at xi={xi}", Q,
                     lead - xi * corr_bound, QUAD_FACTOR * tol * lead)
        chk.at_least(f"{tag} quotient below lead at xi={xi}", lead, Q, QUAD_FACTOR * tol * lead)


def _check_study(t: dict, r: dict, chk: Checker) -> None:
    p, a, al, be, q, b = t["p"], t["a"], t["alpha"], t["beta"], t["q"], t["b"]
    ga = al + be + 1.0
    xs = np.geomspace(*t["probes"], N_PROBES)
    chk.close("solve_gamma balance", r["gamma1"],
              al + be + 1.0 - (a + 1.0) / p + (b + 1.0) / q, 1e-15, factor=16.0)
    chk.true("verdicts (diagonal, balanced, unbalanced) = (True, True, False)",
             r["verdicts"] == (True, True, False))
    w = (a + 1.0) / p
    sharp_ref = beta(be + 1.0 - w, al + w)
    chk.close("sharp norm vs Beta", r["sharp"], sharp_ref, CLOSED_FORM_TOL, factor=1.0)
    _check_extremal(chk, "extremal", p, a, al, be, sharp_ref, r["extremal"], XIS, TOL_1D)
    for i, (pieces, got) in enumerate(zip(t["sources"], r["H"])):
        chk.close(f"H source {i} vs Gauss-Legendre", got, H_reference(pieces, al, be, ga, xs), TOL_1D)
    chk.close("H 1_[1,2], gamma=1 vs ln((x+2)/(x+1))", r["H_classical"][0],
              np.log1p(1.0 / (xs + 1.0)), TOL_1D)
    chk.close("H 1_[1,2], gamma=2 vs 1/((x+1)(x+2))", r["H_classical"][1],
              1.0 / ((xs + 1.0) * (xs + 2.0)), TOL_1D)
    nf = piece_lp_norm(t["sources"][0], p, a)
    chk.close("source norm closed form", r["norm_f"], nf, TOL_1D)
    chk.true("image norm positive and below sharp*||f||",
             0.0 < r["image"] <= sharp_ref * nf * (1.0 + QUAD_FACTOR * TOL_1D))
    # <H f, g> with measure x^a dx, by tensor Gauss-Legendre
    ref = 0.0
    for cg, sg, lo, hi in t["sources"][2]:
        x, wx = gl_nodes(lo, hi)
        ref += cg * float((wx * x ** (sg + a) * H_reference(t["sources"][0], al, be, ga, x)).sum())
    chk.close("bilinear pairing vs Gauss-Legendre", r["pairing"], ref, TOL_1D)
    chk.below("dilation residual <= 10*tol", r["dilation"], TOL_1D)
    kappa = t["delta"]   # gamma - gamma_balanced
    chk.close("growth exponent vs -kappa", r["growth"], -kappa, 1e-9, scale=1.0)
    cert, rep = r["cert"], r["verify"]
    chk.true("certificate verified", rep.passed)
    chk.below("certificate residual <= 1e-8", rep.max_residual, CERT_RESIDUAL, factor=1.0)
    chk.close("certificate bound = m1*m2", cert.bound, cert.m1 * cert.m2, CLOSED_FORM_TOL, factor=1.0)
    l1 = beta(be - t["a1"], al + t["a1"] + 1.0)
    linf = beta(be + 1.0, al)
    chk.close("sup_test_L1 exact norm", r["sup_l1"].exact_norm, l1, CLOSED_FORM_TOL, factor=1.0)
    chk.close("sup_test_L1 column values", r["sup_l1"].values, l1, TOL_1D)
    chk.close("sup_test_Linf exact norm", r["sup_linf"].exact_norm, linf, CLOSED_FORM_TOL, factor=1.0)
    chk.close("sup_test_Linf row values", r["sup_linf"].values, linf, TOL_1D)


def _halfline_tasks(inputs: dict) -> list[Task]:
    return [Task("study", f"study {i}", lambda t=t: _study(t),
                 lambda r, chk, t=t: _check_study(t, r, chk))
            for i, t in enumerate(inputs["studies"])]


# --------------------------------------------------------------------------
# halfplane
# --------------------------------------------------------------------------

def _slab_Tplus(alpha, beta_, gamma, c, d, y):
    """T+ of f(u,v) = 1[c,d](v): B(1/2,gamma/2) y^alpha int_c^d v^beta (y+v)^-gamma dv."""
    v, w = gl_nodes(c, d)
    return beta(0.5, gamma / 2.0) * y ** alpha * float((w * v ** beta_ * (y + v) ** (-gamma)).sum())


def _halfplane_tasks(inputs: dict) -> list[Task]:
    L = inputs["L"]
    unit_box = f"ind(-{L!r},{L!r})*ind(y,1,2)"
    P = hilbert.OperatorParams
    tasks = []

    for y in HEIGHTS:
        def run(y=y):
            f = funcdsl.func2d(unit_box)
            return bergman.reduction_bound_check(P(0.0, 0.0, 1.0), f, y_grid=(y,),
                                                 tol=TOL_REDUCTION, p=2.0)[0]

        def check(row, chk):
            chk.true("reduction sides positive", row["lhs"] > 0.0 and row["rhs"] > 0.0)
            chk.at_least("reduction slack >= -tol", row["slack"], 0.0, TOL_REDUCTION)
        tasks.append(Task("reduction", f"reduction y={y}", run, check))

    nu, m = inputs["nu"], inputs["power"]

    def check_repro(rows, chk):
        chk.true("reproduction at 5 points", len(rows) == 5)
        for row in rows:
            exact = (1j / (complex(row["x"], row["y"]) + 1j)) ** m
            got = complex(row["projected_re"], row["projected_im"])
            chk.close("P_nu reproduces (i/(z+i))^m", got, exact, TOL_2D, scale=1.0)
    tasks.append(Task("reproduce", f"reproduce nu={nu:.3f}",
                      lambda: bergman.reproduce_check(nu, m, tol=TOL_2D), check_repro))

    # The column integrals, the probe grid and the mixed norm form one task,
    # so that the three reductions, whose inputs do not depend on the seed,
    # hold the latency ranks that task_p50_s and task_tail_s pick.
    columns = inputs["columns"]

    def run_columns():
        return [bergman.column_integral(P(c["alpha"], c["beta"], c["alpha"] + c["beta"] + 1.0),
                                        c["a"], complex(*c["w"]), TOL_2D) for c in columns]

    def check_columns(values, chk):
        for c, v in zip(columns, values):
            al, be, a = c["alpha"], c["beta"], c["a"]
            mass = beta(0.5, (al + be + 1.0) / 2.0) * beta(be - a, al + a + 1.0)
            chk.close("column integral = B(1/2,g/2)B(b-a,a+a+1)", v, mass, TOL_2D,
                      factor=COLUMN_FACTOR)

    points = list(zip(bergman.default_probe_grid(), inputs["grid"]))

    def run_grid():
        out = []
        for z, g in points:
            params = P(g["alpha"], g["beta"], g["gamma"])
            slab_src = f"ind(y,{g['c']!r},{g['d']!r})"
            slab = funcdsl.func2d(slab_src)
            box = funcdsl.func2d(f"ind(-{g['box_L']!r},{g['box_L']!r})*" + slab_src)
            out.append((bergman.apply_Tplus(params, slab, z, TOL_2D),
                        bergman.apply_Tplus(params, box, z, TOL_2D),
                        bergman.apply_T(params, box, z, TOL_2D)))
        return out

    def check_grid(values, chk):
        for (z, g), (slab, box, tbox) in zip(points, values):
            exact = _slab_Tplus(g["alpha"], g["beta"], g["gamma"], g["c"], g["d"], z.y)
            chk.close("T+ of a slab = B(1/2,g/2) * H", slab, exact, TOL_2D)
            chk.true("0 < T+ box <= T+ slab", 0.0 < box <= slab * (1.0 + QUAD_FACTOR * TOL_2D))
            chk.true("|T box| <= T+ box", abs(tbox) <= box * (1.0 + QUAD_FACTOR * TOL_2D))

    mx = inputs["mixed"]
    mixed_box = f"ind(-{mx['box_L']!r},{mx['box_L']!r})*ind(y,{mx['c']!r},{mx['d']!r})"
    spec = (mx["p"], mx["q"], mx["nu"])

    def run_mixed():
        return bergman.mixed_norm(funcdsl.func2d(mixed_box), bergman.MixedNormSpec(*spec), TOL_2D)
    e = mx["nu"] + 1.0
    mixed = (2.0 * mx["box_L"]) ** (1.0 / mx["p"]) * ((mx["d"] ** e - mx["c"] ** e) / e) ** (1.0 / mx["q"])

    def check_probes(values, chk):
        check_columns(values[0], chk)
        check_grid(values[1], chk)
        chk.close("mixed norm of a box", values[2], mixed, TOL_2D)
    tasks.append(Task("probes", "columns, T+/T probe grid, mixed norm",
                      lambda: (run_columns(), run_grid(), run_mixed()), check_probes))
    return tasks


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    report: dict | None = field(default=None)


def _fmt(v: float) -> str:
    return repr(float(v))


def cli_commands(inputs: dict, workdir: str) -> list[tuple[str, list[str]]]:
    t = inputs
    p, q, a, b, al, be = (_fmt(t[k]) for k in ("p", "q", "a", "b", "alpha", "beta"))
    diag = _fmt(t["alpha"] + t["beta"] + 1.0)
    g1 = t["alpha"] + t["beta"] + 1.0 - (t["a"] + 1.0) / t["p"] + (t["b"] + 1.0) / t["q"]
    cert = os.path.join(workdir, "cert.json")
    src = source_text(t["source"])
    pts = ",".join(_fmt(x) for x in t["points"])
    space = ["--p", p, "--q", q, "--a", a, "--b", b]
    return [
        ("sharp-norm", ["sharp-norm", "--p", p, "--a", a, "--alpha", al, "--beta", be, "--gamma", diag]),
        ("verdict hilbert", ["verdict", "hilbert", *space, "--alpha", al, "--beta", be, "--gamma", _fmt(g1)]),
        ("verdict hilbert unbalanced", ["verdict", "hilbert", *space, "--alpha", al, "--beta", be,
                                        "--gamma", _fmt(g1 + t["delta"])]),
        ("verdict bergman", ["verdict", "bergman", "--operator", "tplus", "--p", "2", "--q", "2",
                             "--r", "2", "--a", "0", "--b", "0", "--alpha", al, "--beta", be,
                             "--gamma", diag]),
        ("certify", ["certify", *space, "--alpha", al, "--beta", be, "--gamma", _fmt(g1), "--out", cert]),
        ("certify verify", ["certify", "verify", "--cert", cert, "--samples", str(VERIFY_SAMPLES)]),
        ("estimate", ["estimate", "--expr", src, "--p", p, "--q", p, "--a", a, "--b", a,
                      "--alpha", al, "--beta", be, "--gamma", diag, "--points", pts]),
        ("extremal", ["extremal", "--p", p, "--a", a, "--alpha", al, "--beta", be, "--gamma", diag,
                      *[s for xi in XIS[:2] for s in ("--xi", _fmt(xi))]]),
        ("dilate", ["dilate", *space, "--alpha", al, "--beta", be, "--gamma", _fmt(g1 + t["delta"])]),
        ("sweep", ["sweep", "--vary", "gamma", "--start", _fmt(g1 - 0.5), "--stop", _fmt(g1 + 0.5),
                   "--num", "11", *space, "--alpha", al, "--beta", be]),
        ("bergman reproduce", ["bergman", "reproduce", "--nu", _fmt(t["nu"]), "--power", "3"]),
        ("solve-gamma", ["solve-gamma", *space, "--alpha", al, "--beta", be]),
    ]


def run_cli(argv: list[str], env: dict, shim: list[str] | None = None) -> CliResult:
    cmd = [sys.executable, *(shim or ["-m", "oplab.cli"]), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    wall = time.perf_counter() - t0
    report = None
    if proc.returncode == 0 and proc.stdout.lstrip().startswith("{"):
        report = json.loads(proc.stdout)
    return CliResult(proc.returncode, proc.stdout, proc.stderr, wall, report)


def _value(field_: dict) -> float:
    v = field_["value"]
    return math.inf if v == "inf" else float(v)


def _check_cli(name: str, t: dict, res: CliResult, chk: Checker) -> None:
    if res.code != 0:
        chk.true(f"{name}: exit code {res.code}: {res.stderr.strip()[:200]}", False)
        return
    al, be, p, a = t["alpha"], t["beta"], t["p"], t["a"]
    if name == "sweep":
        rows = res.stdout.strip().splitlines()
        chk.true("sweep CSV header", rows[0] == "gamma,bounded,sharp_norm,schur_bound,relation_residual")
        chk.true("sweep has 11 rows", len(rows) == 12)
        g1 = al + be + 1.0 - (a + 1.0) / p + (t["b"] + 1.0) / t["q"]
        for row in rows[1:]:
            cells = row.split(",")
            chk.close("sweep relation residual", float(cells[4]), float(cells[0]) - g1, 1e-11, scale=1.0)
            chk.true("sweep verdict matches the residual",
                     (cells[1] == "yes") == (abs(float(cells[4])) <= 1e-12))
        return
    rep = res.report
    chk.true(f"{name}: report schema", rep is not None and rep.get("schema") == 1
             and {"command", "argv", "inputs", "results", "tolerances", "elapsed_s"} <= set(rep))
    if rep is None:
        return
    out = rep["results"]
    w = (a + 1.0) / p
    sharp = beta(be + 1.0 - w, al + w)
    if name == "sharp-norm":
        chk.close("cli sharp norm vs Beta", _value(out["norm"]), sharp, CLOSED_FORM_TOL, factor=1.0)
    elif name in ("verdict hilbert", "verdict bergman"):
        chk.true(f"{name}: bounded", out["verdict"] == "bounded")
    elif name == "verdict hilbert unbalanced":
        chk.true(f"{name}: unbounded", out["verdict"] == "unbounded")
    elif name == "certify":
        c = out["certificate"]["certificate"]
        chk.close("cli certificate bound = m1*m2", c["bound"], c["m1"] * c["m2"], CLOSED_FORM_TOL, factor=1.0)
    elif name == "certify verify":
        chk.true("cli certificate verified", out["verification"]["passed"])
        chk.below("cli certificate residual <= 1e-8", _value(out["max_residual"]),
                  CERT_RESIDUAL, factor=1.0)
    elif name == "estimate":
        xs = np.array(t["points"])
        got = np.array([_value(row["Hf"]) for row in out["applied"]])
        ga = al + be + 1.0
        chk.close("cli estimate H f vs Gauss-Legendre", got,
                  H_reference(t["source"], al, be, ga, xs), TOL_1D)
        chk.close("cli estimate source norm", _value(out["source_norm"]),
                  piece_lp_norm(t["source"], p, a), TOL_1D)
        chk.true("cli estimate quotient below sharp norm",
                 _value(out["quotient"]) <= sharp * (1.0 + QUAD_FACTOR * TOL_1D))
    elif name == "extremal":
        chk.close("cli extremal sharp norm", _value(out["sharp_norm"]), sharp, CLOSED_FORM_TOL, factor=1.0)
        _check_extremal(chk, "cli extremal", p, a, al, be, sharp,
                        [_value(row["quotient"]) for row in out["sweep"]], XIS[:2], TOL_1D)
    elif name == "dilate":
        chk.close("cli growth exponent vs -kappa", _value(out["growth_exponent"]),
                  -t["delta"], 1e-9, scale=1.0)
    elif name == "bergman reproduce":
        chk.close("cli P_nu reproduction", _value(out["worst_abs_error"]), 0.0, TOL_2D, scale=1.0)
    elif name == "solve-gamma":
        g1 = al + be + 1.0 - (a + 1.0) / p + (t["b"] + 1.0) / t["q"]
        chk.close("cli solve-gamma", _value(out["gamma"]), g1, 1e-15, factor=16.0, scale=abs(g1))


def cli_tasks(inputs: dict, workdir: str, env: dict, shim: list[str] | None = None) -> list[Task]:
    tasks = []
    for name, argv in cli_commands(inputs, workdir):
        tasks.append(Task(
            "cli", name, lambda argv=argv: run_cli(argv, env, shim),
            lambda res, chk, name=name: _check_cli(name, inputs, res, chk)))
    return tasks


def tasks(inputs: dict) -> list[Task]:
    """Task list of the in-process workloads (cli tasks need a work dir)."""
    build = {"halfline": _halfline_tasks, "halfplane": _halfplane_tasks}[inputs["workload"]]
    return build(inputs)
