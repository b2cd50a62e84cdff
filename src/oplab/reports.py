"""Structured verdict reports.

Boundedness verdicts are not bare booleans: each report carries the
balance-relation arithmetic and every strict inequality with both sides
evaluated, so a report is self-auditing and can be serialized as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RelationCheck", "InequalityCheck", "ConditionReport", "RELATION_EPS",
           "jsonable", "verdict_report"]

# The balance relation is a real equation; it is tested with this
# absolute tolerance (the CLI offers solve-gamma to hit it exactly).
RELATION_EPS = 1e-12


def jsonable(obj):
    """Make a report JSON-safe recursively: infinities become "inf"/"-inf"
    and numpy scalars plain floats."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


@dataclass(frozen=True)
class RelationCheck:
    """An equality constraint checked to absolute epsilon."""

    name: str
    lhs: float
    rhs: float
    epsilon: float = RELATION_EPS

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return abs(self.residual) <= self.epsilon

    def to_dict(self) -> dict:
        return jsonable({
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "epsilon": self.epsilon,
            "holds": self.holds,
        })


@dataclass(frozen=True)
class InequalityCheck:
    """A (possibly one-sided) strict inequality lower < value < upper."""

    name: str
    value: float
    lower: float = -math.inf
    upper: float = math.inf

    @property
    def holds(self) -> bool:
        return self.lower < self.value < self.upper

    def to_dict(self) -> dict:
        return jsonable({
            "name": self.name,
            "lower": self.lower,
            "value": self.value,
            "upper": self.upper,
            "holds": self.holds,
        })


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a boundedness criterion.

    ``decided_by`` names the clause that settled the verdict;
    ``cross_checks`` holds equivalent reformulations that are displayed
    for auditing but do not enter the verdict.
    """

    operator: str
    regime: str
    bounded: bool
    decided_by: str
    relation: RelationCheck | None = None
    inequalities: tuple[InequalityCheck, ...] = ()
    cross_checks: tuple[InequalityCheck, ...] = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "regime": self.regime,
            "bounded": self.bounded,
            "decided_by": self.decided_by,
            "relation": self.relation.to_dict() if self.relation else None,
            "inequalities": [c.to_dict() for c in self.inequalities],
            "cross_checks": [c.to_dict() for c in self.cross_checks],
            "notes": list(self.notes),
        }


def verdict_report(operator: str, regime: str, relation: RelationCheck | None,
                   ineqs, cross=(), notes=(), accepted: str | None = None) -> ConditionReport:
    """Assemble a verdict: bounded when the relation (if any) and every
    inequality hold.  ``decided_by`` names the failing relation, else the
    first failing inequality, else ``accepted`` (default "<regime> criterion")."""
    bounded = (relation is None or relation.holds) and all(c.holds for c in ineqs)
    if relation is not None and not relation.holds:
        decided = f"balance relation fails: {relation.name}"
    else:
        decided = next((f"inequality fails: {c.name}" for c in ineqs if not c.holds),
                       accepted or f"{regime} criterion")
    return ConditionReport(
        operator=operator, regime=regime, bounded=bounded, decided_by=decided,
        relation=relation, inequalities=tuple(ineqs), cross_checks=tuple(cross),
        notes=tuple(notes),
    )
