"""Metamorphic relations of the half-plane operators on the quadrature path.

T+ and T satisfy exact identities at every scale, so a relation that fails
by more than the tolerance is a defect, and no reference value is needed
to see it (metamorphic testing: Chen, Cheung & Yiu 1998, HKUST-CS98-01).

The sources are seeded draws from templates that are not a sum of u steps
times a factor of v, so every value here runs quad.integrate_halfplane.
Each side of a relation is within TOL of its value relative to the drive's
scale, T+|f| at the same point, so the two sides of a relation agree to
SLACK = 4 TOL times T+|f|.
"""

import re

import numpy as np
import pytest

from oplab.bergman import apply_T, apply_Tplus
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
# |f| of a template that changes sign, with abs() on the linear factor so
# that its kink is a u knot (abs() of the whole product has no knot and
# raises: see the ledger's test_Tplus_of_the_modulus_of_a_product)
MODULUS = {"odd": "abs(x-{r})*(1+x^2)^(0-{k})*ind(y,{lo},{hi})"}


def _draw(name: str, seed: int) -> dict:
    """One seeded case: the source and |source| texts, operator, probe, u
    shift and dilation."""
    rng = np.random.default_rng(seed)
    lo = round(rng.uniform(0.2, 1.0), 3)
    consts = {"r": round(rng.uniform(-1.0, 1.0), 3), "k": round(rng.uniform(1.2, 2.5), 3),
              "a": round(rng.uniform(0.2, 1.0), 3), "b": round(rng.uniform(0.5, 2.0), 3),
              "lo": lo, "hi": round(lo + rng.uniform(0.5, 2.0), 3)}
    return {"text": TEMPLATES[name].format(**consts),
            "modulus": MODULUS.get(name, TEMPLATES[name]).format(**consts),
            "params": PARAMS[int(rng.integers(len(PARAMS)))],
            "z": complex(consts["r"] + rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)),
            "t": round(rng.uniform(-10.0, 10.0), 3),
            "R": float(10.0 ** rng.uniform(-1.0, 1.0))}


CASES = [(name, seed) for seed in (1, 2) for name in TEMPLATES]
IDS = [f"{name}-{seed}" for name, seed in CASES]


def _shifted(text: str, t: float) -> str:
    """The source text of f(u - t, v)."""
    return re.sub(r"\bx\b", f"(x-{t})" if t >= 0 else f"(x+{-t})", text)


def _mass(case: dict, z: complex) -> float:
    """T+|f|(z), the scale both operators' drives judge against."""
    return apply_Tplus(case["params"], func2d(case["modulus"]), z, TOL)


@pytest.mark.parametrize("name, seed", CASES, ids=IDS)
def test_sources_take_the_quadrature_path(name, seed):
    assert func2d(_draw(name, seed)["text"]).u_steps is None


@pytest.mark.parametrize("apply", [apply_Tplus, apply_T], ids=["Tplus", "T"])
@pytest.mark.parametrize("name, seed", CASES, ids=IDS)
def test_translation_in_u(name, seed, apply):
    # T g(z + t) = T f(z) for g(w) = f(w - t), t real
    case = _draw(name, seed)
    f, g, z, t = func2d(case["text"]), func2d(_shifted(case["text"], case["t"])), case["z"], case["t"]
    moved, here = apply(case["params"], g, z + t, TOL), apply(case["params"], f, z, TOL)
    assert abs(moved - here) <= SLACK * _mass(case, z)


@pytest.mark.parametrize("apply", [apply_Tplus, apply_T], ids=["Tplus", "T"])
@pytest.mark.parametrize("name, seed", CASES, ids=IDS)
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
