"""Metamorphic relations of the half-plane operators.

T+ and T satisfy exact identities at every scale, so a relation that fails
by more than the tolerance is a defect, and no reference value is needed
to see it (metamorphic testing: Chen, Cheung & Yiu 1998, HKUST-CS98-01).

The sources of TEMPLATES are seeded draws that are neither a sum of u
steps nor rational in u, times a factor of v, so every value of theirs
runs quad.integrate_halfplane.  Those of RATIONAL are rational in u, so T
and P_nu of them run by residues, and the path switch between the two is
a relation too: the same source without its pole record runs the 2D
drive.  Each side of a relation is within TOL of its value relative to the
drive's scale, T+|f| at the same point, so the two sides of a relation
agree to SLACK = 4 TOL times T+|f|.
"""

import dataclasses
import re

import numpy as np
import pytest

from oplab import bergman
from oplab.bergman import apply_T, apply_Tplus, bergman_constant, bergman_project, reproduce_check
from oplab.funcdsl import func2d
from oplab.hilbert import OperatorParams

TOL = 1e-6
SLACK = 4 * TOL
PARAMS = (OperatorParams(0.5, 0.3, 2.0), OperatorParams(0.0, 0.0, 1.0))

# templates of whole-line sources, and of sources with a v box, one of which
# changes sign; "r" marks a u centre (the probe's abscissa is drawn near it)
TEMPLATES = {
    "algebraic": "(1+(x-{r})^2)^(0-{k})*y^{a}*exp(0-{b}*y)",
    "gaussian": "exp(0-{b}*(x-{r})^2)*ind(y,{lo},{hi})",
    "odd": "(x-{r})*(1+x^2)^(0-{k})*ind(y,{lo},{hi})",
    "radial": "(1+(x-{r})^2+(y+{a})^2)^(0-{k})",
}
# templates rational in u, with an integer power "n" of their u factor
RATIONAL = {
    "lorentz": "(1+(x-{r})^2)^(0-{n})*y^{a}*exp(0-{b}*y)",
    "pair": "((x-{r})^2+{a})^(0-1)*((x+{r})^2+{b})^(0-{n})*ind(y,{lo},{hi})",
    "signed": "(x-{r})*(1+x^2)^(0-{n}-1)*ind(y,{lo},{hi})",
    "quartic": "((x-{r})^4+{a}*x^2+{b})^(0-{n})*y*exp(0-{a}*y)",
}
# |f| of a template that changes sign, with abs() on the linear factor so
# that its kink is a u knot (abs() of the whole product has no knot and
# raises: see the ledger's test_Tplus_of_the_modulus_of_a_product)
MODULUS = {"odd": "abs(x-{r})*(1+x^2)^(0-{k})*ind(y,{lo},{hi})",
           "signed": "abs(x-{r})*(1+x^2)^(0-{n}-1)*ind(y,{lo},{hi})"}


def _draw(name: str, seed: int) -> dict:
    """One seeded case: the source and |source| texts, operator, probe, u
    shift and dilation."""
    rng = np.random.default_rng(seed)
    lo = round(rng.uniform(0.2, 1.0), 3)
    consts = {"r": round(rng.uniform(-1.0, 1.0), 3), "k": round(rng.uniform(1.2, 2.5), 3),
              "a": round(rng.uniform(0.2, 1.0), 3), "b": round(rng.uniform(0.5, 2.0), 3),
              "lo": lo, "hi": round(lo + rng.uniform(0.5, 2.0), 3), "n": 1 + seed % 2}
    template = {**TEMPLATES, **RATIONAL}[name]
    return {"text": template.format(**consts),
            "modulus": MODULUS.get(name, template).format(**consts),
            "params": PARAMS[int(rng.integers(len(PARAMS)))],
            "z": complex(consts["r"] + rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)),
            "t": round(rng.uniform(-10.0, 10.0), 3),
            "R": float(10.0 ** rng.uniform(-1.0, 1.0))}


CASES = [(name, seed) for seed in (1, 2) for name in TEMPLATES]
IDS = [f"{name}-{seed}" for name, seed in CASES]
RATIONAL_CASES = [(name, seed) for seed in (1, 2) for name in RATIONAL]
RATIONAL_IDS = [f"{name}-{seed}" for name, seed in RATIONAL_CASES]


def _shifted(text: str, t: float) -> str:
    """The source text of f(u - t, v)."""
    return re.sub(r"\bx\b", f"(x-{t})" if t >= 0 else f"(x+{-t})", text)


def _mass(case: dict, z: complex) -> float:
    """T+|f|(z), the scale both operators' drives judge against."""
    return apply_Tplus(case["params"], func2d(case["modulus"]), z, TOL)


@pytest.mark.parametrize("name, seed", CASES, ids=IDS)
def test_sources_take_the_quadrature_path(name, seed):
    f = func2d(_draw(name, seed)["text"])
    assert f.u_steps is None and f.u_poles is None


@pytest.mark.parametrize("name, seed", RATIONAL_CASES, ids=RATIONAL_IDS)
def test_rational_sources_take_the_residues(name, seed):
    assert func2d(_draw(name, seed)["text"]).u_poles is not None


@pytest.mark.parametrize("apply", [apply_Tplus, apply_T], ids=["Tplus", "T"])
@pytest.mark.parametrize("name, seed", CASES + RATIONAL_CASES, ids=IDS + RATIONAL_IDS)
def test_translation_in_u(name, seed, apply):
    # T g(z + t) = T f(z) for g(w) = f(w - t), t real
    case = _draw(name, seed)
    f, g, z, t = func2d(case["text"]), func2d(_shifted(case["text"], case["t"])), case["z"], case["t"]
    moved, here = apply(case["params"], g, z + t, TOL), apply(case["params"], f, z, TOL)
    assert abs(moved - here) <= SLACK * _mass(case, z)


@pytest.mark.parametrize("apply", [apply_Tplus, apply_T], ids=["Tplus", "T"])
@pytest.mark.parametrize("name, seed", CASES + RATIONAL_CASES, ids=IDS + RATIONAL_IDS)
def test_dilation(name, seed, apply):
    # T f_R(z) = R^(gamma - alpha - beta - 1) T f(R z) for f_R(w) = f(R w)
    case = _draw(name, seed)
    params, f, z, R = case["params"], func2d(case["text"]), case["z"], case["R"]
    power = R ** (params.gamma - params.alpha - params.beta - 1.0)
    dilated, scaled = apply(params, f.dilate(R), z, TOL), power * apply(params, f, R * z, TOL)
    assert abs(dilated - scaled) <= SLACK * power * _mass(case, R * z)


@pytest.mark.parametrize("name, seed", CASES, ids=IDS)
def test_T_is_dominated_by_Tplus_of_the_modulus(name, seed):
    # |T f(z)| <= T+|f|(z): the kernels have the same modulus
    case = _draw(name, seed)
    mass = _mass(case, case["z"])
    assert abs(apply_T(case["params"], func2d(case["text"]), case["z"], TOL)) <= (1.0 + SLACK) * mass


# -- path switches: residues against the 2D drive --------------------------------

def _off_the_residues(f):
    """f without its pole record: T and P_nu of it run the 2D drive."""
    return dataclasses.replace(f, u_poles=None)


@pytest.mark.parametrize("x", [-10.0, 0.0, 10.0])
@pytest.mark.parametrize("name, seed", RATIONAL_CASES, ids=RATIONAL_IDS)
def test_T_by_residues_is_T_on_the_drive(name, seed, x):
    case = _draw(name, seed)
    f, z = func2d(case["text"]), complex(x + case["z"].real, case["z"].imag)
    residues = apply_T(case["params"], f, z, TOL)
    drive = apply_T(case["params"], _off_the_residues(f), z, TOL)
    assert abs(residues - drive) <= SLACK * _mass(case, z)


@pytest.mark.parametrize("nu", [0.0, 0.47, 5.0])
@pytest.mark.parametrize("name, seed", RATIONAL_CASES, ids=RATIONAL_IDS)
def test_projection_by_residues_is_the_projection_on_the_drive(name, seed, nu):
    # the scale of P_nu is |c_nu| times T+|f| under (0, nu, 1 + nu)
    case = _draw(name, seed)
    f, z = func2d(case["text"]), case["z"]
    mass = abs(bergman_constant(nu)) * apply_Tplus(OperatorParams(0.0, nu, 1.0 + nu),
                                                   func2d(case["modulus"]), z, TOL)
    residues, drive = bergman_project(nu, f, z, TOL), bergman_project(nu, _off_the_residues(f), z, TOL)
    assert abs(residues - drive) <= SLACK * mass


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("nu", [0.0, 0.47, 5.0, 20.0])
def test_reproduction_by_residues(nu, m):
    # P_nu f = f for the holomorphic probe f = (i/(z+i))^m
    assert max(row["abs_error"] for row in reproduce_check(nu, m)) <= 1e-13


@pytest.mark.parametrize("R", [0.1, 0.37, 4.0, 25.0])
def test_reproduction_of_a_dilated_probe(R, monkeypatch):
    # the probe's pole -i(v + 1) and its coefficient move under dilate: P_nu of
    # f_R(w) = (i/(Rw+i))^3 is f_R, which reproduce_check compares with (i/(z+i))^3 at R z
    probe = bergman.reproducing_probe
    monkeypatch.setattr(bergman, "reproducing_probe", lambda m, t=1.0: probe(m, t).dilate(R))
    points = [complex(0.3, 0.2), complex(-1.0, 1.5)]
    for row, z in zip(reproduce_check(0.47, 3, points=[z / R for z in points]), points):
        got = complex(row["projected_re"], row["projected_im"])
        assert abs(got - (1j / (z + 1j)) ** 3) <= 1e-13
